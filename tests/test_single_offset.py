"""Amplitudes of every offset, and of one offset from the distinct eigenvalues.

Every offset at once is the inverse FFT of the phases of all N modes.
It is held to references that share none of its code: the dense
eigendecomposition of the coupling matrix, the exact spectral sum in
mpmath, and, bit for bit on the exactly degenerate uniform rings, the
phases of the distinct eigenvalues gathered back to the N modes.

One offset ``d`` sums the phases of the exactly distinct eigenvalues.
It must agree with ``reference``, column d of the inverse FFT of all N
phases, stay bounded in memory on long grids and reject offsets that
name no mode.  On an evenly spaced grid it reads its phases from a
two-level table; on other points it takes one ``exp`` per phase.  Both
paths are held to the rounding bound ``c * eps * max(1, max|mu z|)``
against ``reference`` and against the exact sum over all N modes in
mpmath, eigenvalues a few ulp apart included, and a block whose points
leave the grid must take the direct path.  Every offset form enters
through ``_group_sum``; a single z, each point of a scan's refinement,
is there summed directly and must be ``_direct_sum``'s value on the
same one-element grid and the held weights, bit for bit.

A tuple of offsets sums the same phases against one weight column per
offset.  Each column must be the single offset's up to the same bound,
every column the exact N-term sum in mpmath, and a grid's rows must
not depend, by a bit, on where the grid is cut.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import expm_propagator, spectral_sum

import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    constraint_matrix,
    coupling_matrix,
    custom_profile,
    dispersion,
    evanescent_profile,
    offset_amplitudes,
    transfer_scan,
    uniform_profile,
)
from pstnet.cli import main
from pstnet.fock import cat_fidelity_scan
from pstnet.propagation import z_grid

EPS = np.finfo(float).eps


def reference(spec, zs):
    """Every offset from the phases of all N eigenvalues and one inverse FFT."""
    lam = dispersion(spec).eigenvalues
    return np.fft.ifft(np.exp(-1j * np.outer(zs, lam)), axis=1)


def eigh_reference(spec, zs):
    """Every offset as column 0 of V exp(-i w z) V^T, from ``eigh`` of the dense matrix."""
    w, v = np.linalg.eigh(coupling_matrix(spec))
    return np.array([v @ (np.exp(-1j * w * z) * v[0]) for z in zs])


def grouped_gather(spec, zs):
    """Every offset from the phases of the bitwise-distinct eigenvalues, gathered to N modes."""
    mu, group = np.unique(dispersion(spec).eigenvalues, return_inverse=True)
    return np.fft.ifft(np.exp(-1j * np.outer(zs, mu))[:, group], axis=1)


@st.composite
def rings(draw):
    n = draw(st.integers(2, 32))
    reach = draw(st.integers(1, n // 2))
    # couplings on a coarse grid make degenerate eigenvalues; a nudge of
    # about 1e-10 splits them into distinct eigenvalues that close together
    coarse = st.lists(st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0]), min_size=reach, max_size=reach)
    nudges = st.lists(st.sampled_from([0.0, 1e-10, -2e-10, 5e-11]), min_size=reach, max_size=reach)
    if draw(st.booleans()):
        couplings = [c + e for c, e in zip(draw(coarse), draw(nudges))]
    else:
        couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=reach, max_size=reach))
    offset = draw(st.integers(0, n - 1))
    zs = draw(st.lists(st.floats(0.0, 1e4), min_size=1, max_size=12))
    return n, couplings, offset, zs


@settings(max_examples=150, deadline=None)
@given(rings())
@example((12, [1.0] * 5, 6, [math.pi / 2, 1e4]))
@example((16, [1.0, 1.0 + 1e-10, 1.0, 1.0 - 1e-10, 1.0, 1.0, 1.0], 3, [0.5, 777.7, 1e4]))
@example((2, [0.7], 1, [0.0]))
def test_matches_the_fft_column_on_random_rings(ring):
    n, couplings, offset, zs = ring
    spec = NetworkSpec(n, custom_profile(couplings))
    got = offset_amplitudes(spec, zs, offset=offset)
    want = reference(spec, zs)[:, offset]
    assert got.shape == (len(zs),)
    assert np.abs(got - want).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(rings())
@example((16, [1.0, 1.0 + 1e-10, 1.0, 1.0 - 1e-10, 1.0, 1.0, 1.0], 3, [0.5, 777.7, 1e4]))
@example((2, [0.7], 1, [0.0]))
def test_every_offset_matches_the_reference_on_random_rings(ring):
    n, couplings, _, zs = ring
    spec = NetworkSpec(n, custom_profile(couplings))
    got = offset_amplitudes(spec, zs)
    assert got.shape == (len(zs), n)
    assert np.abs(got - eigh_reference(spec, zs)).max() <= eigh_bound(spec, zs)


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_every_offset_is_bitwise_the_reference_on_uniform_rings(n):
    # the collapse spectrum has three bitwise-distinct values, so the phases
    # of all N modes are those of the three values, bit for bit
    spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
    assert np.unique(dispersion(spec).eigenvalues).size == 3
    zs = np.linspace(0.0, 50.0, 97)
    assert np.array_equal(offset_amplitudes(spec, zs), grouped_gather(spec, zs))


def test_every_offset_keeps_eigenvalues_closer_than_the_grouping_tol_apart():
    # eigenvalues 1e-14 apart shared a group at an earlier one-offset
    # grouping tol (2^-44 at reach 1.9), one phase off by up to tol * |z|;
    # N phases, and one offset's exactly equal groups, are off by rounding
    spec = NetworkSpec(14, custom_profile([1.0, 1.0, 1.0 + 2e-14, 1.0, 1.0, 1.0 - 1e-14]))
    zs = [0.7, 1.3, 1.9]
    got = offset_amplitudes(spec, zs)
    want = np.column_stack([exact_column(spec, zs, d) for d in range(14)])
    assert np.abs(got - want).max() <= 1e-15
    one = np.column_stack([offset_amplitudes(spec, zs, offset=d) for d in range(14)])
    assert np.abs(one - want).max() <= 1e-15


def test_eigenvalues_a_few_ulp_apart_keep_their_own_phases():
    # custom:1.25e-14,1 at N = 4: lambda_0 and lambda_2 lie 5e-14 apart.
    # An earlier grouping tol (2^-44 at reach 1) gave both one phase, and
    # one offset missed the exact sum by 14 times the rounding bound.
    spec = NetworkSpec(4, custom_profile([1.25e-14, 1.0]))
    lam = dispersion(spec).eigenvalues
    assert 0 < lam[0] - lam[2] < 2.0**-44
    zs = [0.5, 1.0]
    with mpmath.workdps(40):
        for d in range(4):
            want = [
                complex(mpmath.fsum(
                    mpmath.expjpi(mpmath.mpf(2 * (p * d % 4)) / 4)
                    * mpmath.expj(-mpmath.mpf(float(value)) * mpmath.mpf(z))
                    for p, value in enumerate(lam)
                ) / 4)
                for z in zs
            ]
            one_z = [offset_amplitudes(spec, [z], offset=d)[0] for z in zs]
            for got in (one_z, offset_amplitudes(spec, zs, offset=d)):
                assert np.abs(np.subtract(got, want)).max() <= bound(spec, zs)


def test_a_run_of_tiny_gaps_is_cut_at_the_tolerance():
    # N = 1024 couplings synthesized by lstsq on the dense cosine matrix
    # spread the -2 block of the collapse spectrum over about 4.5e-12 in
    # gaps below an earlier grouping tolerance (3.3e-14 at max|z| = 3).
    # Split only at wider gaps, the block chained into one group, and the
    # antipodal amplitude was 1.2e-12 off; exact grouping keeps every
    # distinct value.  solve_weights returns exact couplings with no
    # spread, so the fixture comes from the dense solve.
    b = constraint_matrix(1024, 512)
    target = np.ones(512)
    target[-1] = 0.0
    weights, *_ = np.linalg.lstsq(b, target, rcond=None)
    spec = NetworkSpec(1024, custom_profile(b @ weights))
    zs = [math.pi / 2, 3.0]
    lam = dispersion(spec).eigenvalues
    block = lam[np.abs(lam + 2.0) < 1e-6]
    assert block.max() - block.min() > 1e-13 / max(zs)
    want = reference(spec, zs)
    for d in (1, 512):
        got = offset_amplitudes(spec, zs, offset=d)
        assert np.abs(got - want[:, d]).max() <= 1e-13
    assert np.abs(offset_amplitudes(spec, zs) - want).max() <= 1e-13


def test_matches_the_ode_oracle():
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    z = 3.7
    arrived = expm_propagator(spec, z)[:, 0]
    for d in range(12):
        assert offset_amplitudes(spec, [z], offset=d)[0] == pytest.approx(arrived[d], abs=1e-9)


def bound(spec, zs):
    """The rounding bound ``c * eps * max(1, max|lambda| max|z|)``, c = 4."""
    return 4 * EPS * max(1.0, dispersion(spec).max_abs * np.abs(zs).max())


def eigh_bound(spec, zs):
    """``1e-13 + 4 eps max|lambda| max|z|``: ``eigh``'s eigenvectors carry their own error."""
    return 1e-13 + 4 * EPS * dispersion(spec).max_abs * np.abs(zs).max()


def exact_column(spec, zs, d):
    """Column d of the sum over all N modes, every phase exact in mpmath.

    Bitwise-equal eigenvalues share one phase; their Fourier factors
    exp(i 2 pi p d / N) are summed first.
    """
    lam = dispersion(spec).eigenvalues
    n = spec.n_modes
    values, inverse = np.unique(lam, return_inverse=True)
    with mpmath.workdps(30):
        weights = [mpmath.mpc(0)] * values.size
        for p, g in enumerate(inverse):
            weights[g] += mpmath.expjpi(mpmath.mpf(2 * (p * d % n)) / n)
        terms = [(w / n, mpmath.mpf(float(v))) for w, v in zip(weights, values)]
        return np.array([
            complex(mpmath.fsum(w * mpmath.expj(-mu * mpmath.mpf(float(z))) for w, mu in terms))
            for z in zs
        ])


# an earlier grouping tol, 2^floor(log2(1e-13 / reach)), changed where
# 1e-13 / reach is a power of two and at the octave edges of the reach
TOL_EDGES = [1e-13 * 2.0**45, 1e-13 * 2.0**50, 1e-13 * 2.0**51, 1e-13 * 2.0**55]
REACH_EDGES = [2.0, 4.0, 1024.0]


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(12, evanescent_profile(0.815, 6)),
        NetworkSpec(16, custom_profile([1.0, 1.0 + 1e-15, 0.5, 1.0 - 3e-15, 0.25, 1.0, 2e-14])),
    ],
    ids=["evanescent", "nudged"],
)
@pytest.mark.parametrize("edge", TOL_EDGES + REACH_EDGES)
def test_octave_edges_stay_within_the_bound(spec, edge):
    # single-z calls in shuffled order on one spec: one held entry serves them
    zs = [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf)]
    zs = [zs[i] for i in np.random.default_rng(int(edge)).permutation(3)] * 2
    d = spec.n_modes // 2
    want = exact_column(spec, zs, d)
    one = np.array([offset_amplitudes(spec, [z], offset=d)[0] for z in zs])
    every = np.array([offset_amplitudes(spec, [z])[0, d] for z in zs])
    assert np.abs(one - want).max() <= bound(spec, zs)
    assert np.abs(every - want).max() <= bound(spec, zs)


def default_grid(spec, z_max):
    """The grid of a scan with the default step."""
    dz = min(0.01 / spec.profile.max_strength, z_max)
    return z_grid(z_max, dz, dz)


LONG_GRIDS = {
    # the README evanescent trace at z_max = 5000: 407,500 points, 10 groups
    "evanescent-n12-z5000": (NetworkSpec(12, evanescent_profile(0.815, 6)), 5000.0, 6, 240),
    # the scan inside pst-check --n 1022: 1,256 points, 512 groups
    "evanescent-n1022": (
        NetworkSpec(1022, evanescent_profile(0.815, 511)),
        8 * propagation.pst_distance(evanescent_profile(0.815, 511).max_strength),
        511,
        60,
    ),
}


@pytest.mark.parametrize("name", LONG_GRIDS)
def test_both_paths_match_mpmath_on_long_grids(name):
    spec, z_max, d, points = LONG_GRIDS[name]
    zs = default_grid(spec, z_max)
    rng = np.random.default_rng(11)
    idx = np.unique(np.r_[
        np.linspace(0, zs.size - 1, points // 2).astype(int),
        rng.integers(0, zs.size, points // 2),
    ])
    want = exact_column(spec, zs[idx], d)
    on_grid = offset_amplitudes(spec, zs, offset=d)[idx]
    # one z per call never reads the table
    direct = np.array([offset_amplitudes(spec, [z], offset=d)[0] for z in zs[idx]])
    assert np.abs(on_grid - want).max() <= bound(spec, zs)
    assert np.abs(direct - want).max() <= bound(spec, zs)


@st.composite
def even_grids(draw):
    n, couplings, offset, _ = draw(rings())
    count = draw(st.integers(4, 3000))
    first = draw(st.floats(0.0, 1e4))
    step = draw(st.floats(0.0, (1e4 - first) / (count - 1)))
    return n, couplings, offset, first + step * np.arange(count)


@settings(max_examples=100, deadline=None)
@given(even_grids())
@example((16, [1.0, 1.0 + 1e-10, 1.0, 1.0 - 1e-10, 1.0, 1.0, 1.0], 3, np.arange(8500.0, 1e4, 0.5)))
@example((32, [2.0] * 16, 16, z_grid(1e4, 3.4, 3.4)))
@example((12, [1.0] * 5, 6, np.full(9, 777.7)))
def test_evenly_spaced_grids_match_the_reference(grid):
    n, couplings, offset, zs = grid
    spec = NetworkSpec(n, custom_profile(couplings))
    got = offset_amplitudes(spec, zs, offset=offset)
    assert np.abs(got - reference(spec, zs)[:, offset]).max() <= bound(spec, zs)


def test_points_off_the_grid_are_corrected_or_computed_directly(monkeypatch):
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    zs = 100.0 + 0.5 * np.arange(40000)  # rows of 200 points, blocks of 81 rows
    seen = []
    direct = propagation._direct_sum

    def spy(z, *rest):
        if z.size:
            seen.append(z.copy())
        direct(z, *rest)

    monkeypatch.setattr(propagation, "_direct_sum", spy)
    # |mu delta| up to 5e-9: only the first-order term keeps this within the bound
    jittered = zs + np.random.default_rng(5).uniform(-4e-10, 4e-10, zs.size)
    got = offset_amplitudes(spec, jittered, offset=6)
    assert np.abs(got - reference(spec, jittered)[:, 6]).max() <= bound(spec, jittered)
    assert not seen
    # a point 1e-3 off: its block alone takes one exp per phase
    moved = zs.copy()
    moved[20000] += 1e-3
    got = offset_amplitudes(spec, moved, offset=6)
    assert np.abs(got - reference(spec, moved)[:, 6]).max() <= bound(spec, moved)
    assert [z.size for z in seen] == [16200]
    assert moved[20000] in seen[0]


ONE_Z_RINGS = {
    "uniform-1024": NetworkSpec(1024, uniform_profile(1.0, 511)),
    "evanescent-1022": NetworkSpec(1022, evanescent_profile(0.815, 511)),
    "custom-12": NetworkSpec(12, custom_profile([0.3, -1.0, 0.7, 1e-10, 0.25])),
}
# octave edges 2^k, where an earlier grouping tol stepped, and their neighbours
OCTAVE_EDGES = [s * math.ldexp(f, k) for k in range(-3, 12) for f in (1.0, 1.0 - 2**-53)
                for s in (1, -1)]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(ONE_Z_RINGS)),
    st.floats(-1e4, 1e4) | st.sampled_from(OCTAVE_EDGES),
    st.integers(0, 1 << 20),
)
@example("uniform-1024", math.pi / 2, 512)
@example("evanescent-1022", -2.0, 511)
@example("custom-12", 0.0, 6)
def test_one_z_is_bitwise_the_direct_sum(name, z, offset):
    # a refinement point enters _group_sum, which sums it directly: its
    # value must be the one _direct_sum gives the same one-element grid
    spec = ONE_Z_RINGS[name]
    offset %= spec.n_modes
    got = offset_amplitudes(spec, [z], offset=offset)
    spectrum = dispersion(spec)
    assert spectrum.max_abs == np.abs(spectrum.eigenvalues).max()
    mu, weights = propagation._offset_weights(spectrum, offset)
    want = np.empty(1, dtype=complex)
    propagation._direct_sum(np.array([z]), mu, weights, want)
    assert got.shape == (1,)
    assert got.tobytes() == want.tobytes()


TUPLE_RINGS = {
    "uniform-64": NetworkSpec(64, uniform_profile(1.0, 31)),
    "evanescent-12": NetworkSpec(12, evanescent_profile(0.815, 6)),
    "custom-10": NetworkSpec(10, custom_profile([0.3, -1.0, 0.7, 1e-10, 0.25])),
}


@pytest.mark.parametrize("name", TUPLE_RINGS)
def test_a_tuple_of_offsets_is_its_stacked_columns(name):
    spec = TUPLE_RINGS[name]
    n = spec.n_modes
    # offset 0 and N/2, one repeated, in no particular order
    offsets = (n // 2, 0, 3, n - 1, n // 2)
    zs = np.array([0.0, 0.37, 1.9, 25.3, 480.2, 4999.9])
    got = offset_amplitudes(spec, zs, offset=offsets)
    assert got.shape == (zs.size, len(offsets))
    stacked = np.stack([offset_amplitudes(spec, zs, offset=d) for d in offsets], axis=1)
    assert np.abs(got - stacked).max() <= bound(spec, zs)
    assert np.abs(got - spectral_sum(spec, zs, offsets)).max() <= bound(spec, zs)
    assert np.array_equal(got[:, 0], got[:, -1])
    # one z takes the same sum
    assert np.array_equal(offset_amplitudes(spec, zs[-1:], offset=offsets), got[-1:])


def test_every_offset_form_enters_the_group_sum(monkeypatch):
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    seen = []
    group_sum = propagation._group_sum

    def spy(zs, mu, weights):
        seen.append((zs.size, weights.ndim))
        return group_sum(zs, mu, weights)

    monkeypatch.setattr(propagation, "_group_sum", spy)
    offset_amplitudes(spec, [0.7], offset=6)
    offset_amplitudes(spec, [0.7, 1.4], offset=(6, 0))
    offset_amplitudes(spec, np.linspace(0.0, 1.0, 50), offset=6)
    offset_amplitudes(spec, [0.7])
    assert seen == [(1, 1), (2, 2), (50, 1)]


@st.composite
def cut_tuples(draw):
    n = draw(st.integers(2, 16))
    reach = draw(st.integers(1, n // 2))
    couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=reach, max_size=reach))
    repeated = draw(st.integers(0, n - 1))
    others = draw(st.lists(st.integers(0, n - 1), max_size=3))
    offsets = tuple(draw(st.permutations([0, n // 2, repeated, repeated, *others])))
    size = draw(st.integers(1, 80))
    if draw(st.booleans()):  # evenly spaced, where one offset reads the table
        zs = draw(st.floats(0.0, 100.0)) + np.arange(size) * draw(st.floats(1e-3, 10.0))
    else:
        zs = np.array(draw(st.lists(st.floats(0.0, 1e4), min_size=size, max_size=size)))
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=6)))
    return n, couplings, offsets, zs, cuts


@settings(max_examples=150, deadline=None)
@given(cut_tuples())
@example((8, [1.0, 1.0, 1.0], (4, 0, 3, 3), z_grid(math.pi, 0.01, 0.0), list(range(4, 315, 4))))
def test_a_tuples_rows_do_not_depend_on_where_the_grid_is_cut(case):
    n, couplings, offsets, zs, cuts = case
    spec = NetworkSpec(n, custom_profile(couplings))
    got = offset_amplitudes(spec, zs, offset=offsets)
    bounds = [0, *cuts, zs.size]
    blocks = [offset_amplitudes(spec, zs[a:b], offset=offsets) for a, b in zip(bounds, bounds[1:])]
    assert got.tobytes() == np.concatenate(blocks).tobytes()


@pytest.mark.parametrize("offset", [None, 1, (1, 0)])
def test_one_overflowing_phase_is_refused_with_its_message(offset):
    spec = NetworkSpec(2, custom_profile([1e308]))
    message = r"^the phase lambda z overflows: max\|lambda\| 1e\+308 at max\|z\| 2$"
    with pytest.raises(ValueError, match=message):
        offset_amplitudes(spec, [2.0], offset=offset)
    with pytest.raises(ValueError, match=message):
        offset_amplitudes(spec, [0.5, -2.0], offset=offset)
    # below the overflow a large one z is still summed
    assert np.isfinite(offset_amplitudes(spec, [1.0], offset=offset)).all()


@pytest.mark.parametrize("zs", [[math.nan], [math.inf], [-math.inf], [0.5, math.nan, 2.0]])
@pytest.mark.parametrize("offset", [None, 3, (3, 0)])
def test_refuses_a_non_finite_distance(zs, offset):
    # before any phase is taken
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    with pytest.raises(ValueError, match="^z must be finite$"):
        offset_amplitudes(spec, zs, offset=offset)


@pytest.mark.parametrize(
    "offset", [-1, 8, 2.0, "1", 8.5, (), (1, 8), (-1, 2), (1, 2.0), [1, 2]]
)
def test_rejects_an_offset_that_names_no_mode(offset):
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    with pytest.raises(ValueError, match="offset must be an integer in 0..7"):
        offset_amplitudes(spec, [0.5], offset=offset)


def test_a_bad_offset_is_a_domain_error_at_the_cli(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(propagation, "mode_offset", lambda spec, source, target: spec.n_modes)
    argv = ["evanescent", "--n", "12", "--mu", "0.5", "--r", "6", "--source", "1",
            "--z-max", "1", "--outdir", str(tmp_path)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("pstnet: error: offset must be an integer")
    assert not list(tmp_path.iterdir())


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a scan holds one block of at most 2^16 points: 3.4 MiB measured at z_max = 5000
PEAK_LIMIT = 6 * 2**20


def _counted(points):
    """An ``on_block`` that adds up the points it is handed; keeps no block."""
    return lambda zs, values: points.append(zs.size)


def test_long_transfer_scan_stays_within_fixed_memory():
    # the README evanescent trace at z_max = 5000: 407,500 grid points
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    points = []
    _, peak = _peak_bytes(lambda: transfer_scan(spec, 0, 6, 5000.0, on_block=_counted(points)))
    assert sum(points) > 4e5
    assert peak < PEAK_LIMIT


def test_scan_memory_does_not_grow_with_the_grid():
    # 407,500 and 4,075,000 points: the peak is that of one block
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    peaks = []
    for z_max, count in ((5000.0, 407500), (50000.0, 4075000)):
        points = []
        _, peak = _peak_bytes(
            lambda: transfer_scan(spec, 0, 6, z_max, on_block=_counted(points))
        )
        assert sum(points) == count
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= 2**20
    assert max(peaks) < PEAK_LIMIT


def test_wide_cat_scan_stays_within_fixed_memory():
    spec = NetworkSpec(256, uniform_profile(1.0, 127))
    points = []
    _, peak = _peak_bytes(
        lambda: cat_fidelity_scan(
            spec, 0, 128, 0.5, math.pi / 2, 200.0, 0.01, on_block=_counted(points)
        )
    )
    assert sum(points) == 20000
    assert peak < PEAK_LIMIT


def test_long_grid_amplitudes_stay_within_two_mib():
    # the table path holds about _BLOCK / 4 points of four complex
    # temporaries at a time, no more than one block of the direct path
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    zs = default_grid(spec, 5000.0)
    out, peak = _peak_bytes(lambda: offset_amplitudes(spec, zs, offset=6))
    assert zs.size == 407500
    assert peak - out.nbytes <= 2 * 2**20
