"""A ring's spectrum is computed once and held by its ``NetworkSpec``.

The spec computes the FFT of its coupling row on first use; the
``Spectrum`` holds its eigenvalues and nothing else but their largest
magnitude and the plan (groups and weights) of the last tol and offset
asked for.  Only one offset groups: every offset at once takes the N
phases and groups nothing.  Everything held is read-only, a spectrum
that overflows is refused on every use, and an amplitude read from a
spec that has served earlier calls, at any tol, is bit for bit the one
a fresh equal spec gives.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pstnet.lattice as lattice
import pstnet.propagation as propagation
import pstnet.spectral as spectral
from pstnet import (
    NetworkSpec,
    collapsed_spectrum,
    custom_profile,
    degeneracy_histogram,
    dispersion,
    offset_amplitudes,
    uniform_profile,
)
from pstnet.cli import main
from pstnet.spectral import degenerate_groups

OVERFLOW = ["--n", "4", "--profile", "custom:1e308,1e308"]


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to count its calls; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


COMMANDS = pytest.mark.parametrize(
    "argv,spectra",
    [
        ("pst-check --n 1024 --profile uniform:C=1,R=511 --source 1", 44),
        ("cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2"
         " --z-max 2pi", 43),
        ("transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001", 50),
    ],
    ids=["pst-check", "cat", "transport"],
)


@COMMANDS
def test_one_fft_per_command(tmp_path, monkeypatch, argv, spectra):
    # the spectrum is the FFT of the row that the spec reads from lattice
    rows = counting(monkeypatch, lattice, "coupling_row")
    reads = counting(monkeypatch, propagation, "dispersion")
    assert main([*argv.split(), "--outdir", str(tmp_path)]) == 0
    assert len(rows) == 1
    assert len(reads) == spectra


@COMMANDS
def test_few_groupings_per_command(tmp_path, monkeypatch, argv, spectra):
    # the refinement's single-z calls share one octave of reach, so one
    # plan; pst-check also groups for its candidate and its grid, and
    # transport, every offset at once, groups nothing
    groupings = counting(monkeypatch, spectral, "degenerate_groups")
    reads = counting(monkeypatch, propagation, "dispersion")
    assert main([*argv.split(), "--outdir", str(tmp_path)]) == 0
    assert len(reads) == spectra
    fewest, most = (0, 0) if argv.startswith("transport") else (1, 3)
    assert fewest <= len(groupings) <= most


def test_a_spec_holds_one_spectrum():
    spec = NetworkSpec(12, uniform_profile(1.0, 5))
    spectrum = dispersion(spec)
    assert dispersion(spec) is spectrum
    order, _ = degenerate_groups(spectrum, 1e-9)
    assert np.array_equal(order, np.argsort(spectrum.eigenvalues))
    # the held spectrum is no field: equality and hashing are unchanged
    fresh = NetworkSpec(12, uniform_profile(1.0, 5))
    assert spec == fresh and hash(spec) == hash(fresh)


@pytest.mark.parametrize(
    "spectrum",
    [dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7]))), collapsed_spectrum(8, 1.0)],
    ids=["dispersion", "collapsed"],
)
@pytest.mark.parametrize("name", ["eigenvalues", "mu", "weights"])
def test_held_arrays_refuse_writes(spectrum, name):
    holder = spectrum if name == "eigenvalues" else spectrum.plan(2.0**-44, 1)
    arr = getattr(holder, name)
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[1]


def test_a_spectrum_holds_its_eigenvalues_and_one_plan():
    spec = NetworkSpec(12, custom_profile([0.3, -1.0, 0.7]))
    spectrum = dispersion(spec)
    offset_amplitudes(spec, [0.5, 2.0], offset=5)
    offset_amplitudes(spec, [1e4], offset=None)
    degeneracy_histogram(spectrum)
    assert set(vars(spectrum)) <= {"eigenvalues", "max_abs", "_plan"}
    assert spectrum.max_abs == np.abs(spectrum.eigenvalues).max()


def test_every_offset_at_once_builds_no_plan(monkeypatch):
    spec = NetworkSpec(12, custom_profile([0.3, -1.0, 0.7]))
    groupings = counting(monkeypatch, spectral, "degenerate_groups")
    offset_amplitudes(spec, [0.5, 1e4])
    assert groupings == []
    assert "_plan" not in vars(dispersion(spec))
    assert [f.name for f in dataclasses.fields(spectral.Plan)] == ["tol", "offset", "mu", "weights"]


def test_one_plan_is_held_until_another_replaces_it():
    spectrum = dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7])))
    plan = spectrum.plan(2.0**-44, 3)
    assert spectrum.plan(2.0**-44, 3) is plan
    assert spectrum.plan(2.0**-44, np.int64(3)) is plan
    for tol, offset in [(2.0**-45, 3), (2.0**-44, 4), (2.0**-44, 0)]:
        other = spectrum.plan(tol, offset)
        assert (other.tol, other.offset) == (tol, offset)
        assert spectrum.plan(tol, offset) is other
    # the last plan replaced the first: O(N) is held, not one plan per call
    assert spectrum.plan(2.0**-44, 3) is not plan


def test_offset_amplitudes_groups_at_a_power_of_two(monkeypatch):
    spec = NetworkSpec(12, custom_profile([0.3, -1.0, 0.7]))
    spectrum = dispersion(spec)
    groupings = counting(monkeypatch, spectral, "degenerate_groups")
    # reach 1 and 1/2 share a tol, and so do 3 and the edge 1e-13 * 2^45
    for zs, tol in [([0.5], 2.0**-44), ([1.0], 2.0**-44), ([-3.0, 2.0], 2.0**-45),
                    ([1e-13 * 2.0**45], 2.0**-45), ([1e4], 2.0**-57)]:
        offset_amplitudes(spec, zs, offset=5)
        assert tol * max(1.0, *map(abs, zs)) <= 1e-13
        # the call held the plan of its tol: asking for it groups nothing
        plan = spectrum.plan(tol, 5)
        offset_amplitudes(spec, zs, offset=5)
        assert spectrum.plan(tol, 5) is plan
    assert len(groupings) == 3


def test_an_overflowing_ring_is_refused_on_every_use():
    spec = NetworkSpec(4, custom_profile([1e308, 1e308]))
    for _ in range(3):
        with pytest.raises(ValueError, match="the couplings overflow"):
            dispersion(spec)
        with pytest.raises(ValueError, match="the couplings overflow"):
            offset_amplitudes(spec, [1.0], offset=2)
    assert "spectrum" not in vars(spec)


@pytest.mark.parametrize(
    "argv", [["spectrum"], ["transport", "--source", "1", "--z-max", "1", "--dz", "0.5"]]
)
def test_an_overflowing_ring_exits_3_on_every_call(tmp_path, capsys, argv):
    for _ in range(3):
        assert main([argv[0], *OVERFLOW, *argv[1:], "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "pstnet: error: spectrum is not finite: the couplings overflow\n" * 3
    )
    assert list(tmp_path.iterdir()) == []


# the tol 2^floor(log2(1e-13 / reach)) changes where 1e-13 / reach is a
# power of two, at reach 1e-13 * 2^k; powers of two are octave edges of
# the reach itself.  Each edge comes with its neighbouring floats.
EDGES = [1e-13 * 2.0**k for k in range(44, 58)] + [2.0**k for k in range(1, 14)]
NEAR_EDGES = [
    sign * z
    for edge in EDGES
    for z in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
    for sign in (1.0, -1.0)
]


@st.composite
def reuses(draw):
    n = draw(st.integers(2, 40))
    reach = draw(st.integers(1, n // 2))
    # nudged coarse couplings make eigenvalue gaps that one call's tol
    # merges and another's splits
    coarse = st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0])
    nudge = st.sampled_from([0.0, 1e-15, -3e-15, 2e-14])
    coupling = st.builds(float.__add__, coarse, nudge) | st.floats(-2.0, 2.0)
    couplings = draw(st.lists(coupling, min_size=reach, max_size=reach))
    offsets = st.none() | st.integers(0, n - 1)
    grids = st.lists(st.floats(-1e4, 1e4) | st.sampled_from(NEAR_EDGES), min_size=1, max_size=8)
    earlier = draw(st.lists(st.tuples(offsets, grids), max_size=4))
    return n, couplings, earlier, draw(offsets), draw(grids)


# on the N = 16 ring with C_1 = -1, the floats either side of this edge
# have tols that group the spectrum into 9 and 11 groups
SPLIT = 1e-13 * 2.0**51


@settings(max_examples=150, deadline=None)
@given(reuses())
@example((16, [-1.0], [(8, [math.nextafter(SPLIT, 0.0)])], 8, [math.nextafter(SPLIT, math.inf)]))
@example((16, [-1.0], [(None, [-SPLIT])], None, [math.nextafter(SPLIT, math.inf)]))
def test_a_reused_spec_gives_the_bits_of_a_fresh_one(case):
    n, couplings, earlier, offset, zs = case
    spec = NetworkSpec(n, custom_profile(couplings))
    for d, grid in earlier:
        offset_amplitudes(spec, grid, offset=d)
    got = offset_amplitudes(spec, zs, offset=offset)
    want = offset_amplitudes(NetworkSpec(n, custom_profile(couplings)), zs, offset=offset)
    assert got.tobytes() == want.tobytes()


def test_the_weights_gather_the_exp_they_replace():
    # the weights sum exp(2j pi / N * ((p d) mod N)) over each group, bit
    # for bit the sum of the N roots of unity gathered at (p d) mod N
    for n in (2, 7, 12, 255, 1022, 1024):
        spectrum = dispersion(NetworkSpec(n, uniform_profile(1.0, 1)))
        roots = np.exp(2j * np.pi / n * np.arange(n))
        order, starts = degenerate_groups(spectrum, 2.0**-44)
        for d in {0, 1, n // 2, n - 1, math.isqrt(n)}:
            gathered = np.add.reduceat(roots[order * d % n], starts) / n
            assert spectrum.plan(2.0**-44, d).weights.tobytes() == gathered.tobytes()
