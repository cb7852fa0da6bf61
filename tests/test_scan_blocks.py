"""Every run reads its grid in blocks.

``z_blocks`` hands out the ``grid_points`` points of the reference
``z_grid`` a block of ``size`` (default ``_BLOCK``) at a time, bit for
bit, and ``scan_offset`` keeps the first of equal maxima across blocks,
as ``np.argmax`` over the whole grid does.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pstnet import NetworkSpec, uniform_profile
from pstnet.propagation import _BLOCK, grid_points, scan_offset, z_blocks, z_grid


def assert_blocks_join_to_the_grid(z_max, dz, first, size=_BLOCK):
    blocks = list(z_blocks(z_max, dz, first, size))
    sizes = [b.size for b in blocks]
    assert all(s == size for s in sizes[:-1])
    assert 0 < sizes[-1] <= size
    grid = z_grid(z_max, dz, first)
    assert grid_points(z_max, dz, first) == grid.size
    joined = np.concatenate(blocks)
    assert joined.dtype == grid.dtype
    assert joined.tobytes() == grid.tobytes()


@st.composite
def grids(draw):
    dz = draw(st.floats(1e-6, 1e3))
    # a fraction above 1/2 puts arange's last point beyond z_max
    z_max = dz * (draw(st.integers(1, 3 * _BLOCK)) + draw(st.floats(0.0, 0.999)))
    return z_max, dz, draw(st.sampled_from([0.0, dz]))


@settings(max_examples=150, deadline=None)
@given(grids(), st.sampled_from([_BLOCK, 1, 3, 4, 512, 8192]))
@example((_BLOCK - 0.4, 1.0, 0.0), _BLOCK)  # the cut point would be alone in a second block
@example((_BLOCK + 0.6, 1.0, 1.0), _BLOCK)
@example((_BLOCK - 1.0, 1.0, 0.0), _BLOCK)  # exactly one full block
@example((1.0, 1.0, 1.0), _BLOCK)
@example((10.0 - 0.4, 1.0, 0.0), 10)
@example((math.pi, 0.005, 0.0), 512)  # the README transport grid in two blocks
def test_blocks_join_to_z_grid_bit_for_bit(grid, size):
    assert_blocks_join_to_the_grid(*grid, size=size)


def test_the_tail_beyond_z_max_is_cut():
    # arange(1, 65537.1, 1) ends at 65537 > z_max: z_grid drops it
    assert np.arange(1.0, _BLOCK + 0.6 + 0.5, 1.0)[-1] > _BLOCK + 0.6
    assert [b.size for b in z_blocks(_BLOCK + 0.6, 1.0, 1.0)] == [_BLOCK]
    assert grid_points(_BLOCK + 0.6, 1.0, 1.0) == _BLOCK


@pytest.mark.parametrize("first", ["zero", "dz"])
@pytest.mark.parametrize(
    "z_max,dz",
    [(5000.0, 0.01 / 0.815), (5000.0, 0.01), (math.pi, 0.001), (200.0, 0.01)],
    ids=["evanescent-z5000", "z5000-dz0.01", "pi-dz0.001", "z200-dz0.01"],
)
def test_workload_grids_join_to_z_grid_bit_for_bit(z_max, dz, first):
    assert_blocks_join_to_the_grid(z_max, dz, 0.0 if first == "zero" else dz)


@pytest.mark.parametrize(
    "later,winner", [(1.0, _BLOCK - 1), (2.0, _BLOCK)], ids=["tie", "later-larger"]
)
def test_a_maximum_across_a_block_boundary_is_the_first_of_equals(later, winner):
    # the last point of block 0 and the first of block 1 carry the maximum
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    traces = []

    def merit(u):
        if np.ndim(u) == 0:
            return 0.0  # no refinement point beats the grid
        values = np.zeros(np.shape(u))
        if traces:
            values[0] = later
        else:
            values[-1] = 1.0
        traces.append(values)
        return values

    result = scan_offset(spec, 4, merit, 70000.0, 1.0)
    joined = np.concatenate(traces)
    assert len(traces) == 2
    assert int(np.argmax(joined)) == winner
    assert result.z_at_max == z_grid(70000.0, 1.0, 1.0)[winner] == winner + 1.0
    assert result.max_value == joined.max()
