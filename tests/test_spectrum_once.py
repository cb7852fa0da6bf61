"""A ring's spectrum is computed once and held by its ``NetworkSpec``.

The spec computes the FFT of its coupling row on first use and writes
lambda_p into lambda_{N-p}, so the spectrum is mirror symmetric bit for
bit; the ``Spectrum`` holds its eigenvalues and their largest magnitude,
nothing else.  Only one offset groups, at exactly equal eigenvalues:
``propagation`` holds the distinct eigenvalues and weights of the last
spectrum and offset asked for, and every offset at once takes the N
phases and groups nothing.  Everything held is read-only, a spectrum
that overflows is refused on every use, and an amplitude read from a
spec that has served earlier calls is bit for bit the one a fresh equal
spec gives.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pstnet.lattice as lattice
import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    collapsed_spectrum,
    custom_profile,
    degeneracy_histogram,
    dispersion,
    evanescent_profile,
    offset_amplitudes,
    uniform_profile,
)
from pstnet.cli import main
from pstnet.lattice import coupling_row
from pstnet.spectral import degenerate_groups

OVERFLOW = ["--n", "4", "--profile", "custom:1e308,1e308"]
offset_weights = propagation._offset_weights


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to count its calls; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def builds(run):
    """How many times ``run()`` built the one-offset weights: misses of the held entry."""
    offset_weights.cache_clear()
    run()
    return offset_weights.cache_info().misses


COMMANDS = pytest.mark.parametrize(
    "argv,spectra",
    [
        ("pst-check --n 1024 --profile uniform:C=1,R=511 --source 1", 44),
        ("cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2"
         " --z-max 2pi", 43),
        ("transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001", 50),
        # 5001 z-steps in 5 blocks of at most 1024
        ("tmsv --n 64 --profile uniform:C=1,R=31 --w 0.881374 --pair 1,2 --z-max 50"
         " --dz 0.01", 5),
    ],
    ids=["pst-check", "cat", "transport", "tmsv"],
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
    # pst-check's candidate, its grid and its refinement read one offset of
    # one spectrum, cat's scan too, and tmsv's blocks one tuple of offsets:
    # one build, so its weights are checked once; transport, every offset
    # at once, groups nothing
    reads = counting(monkeypatch, propagation, "dispersion")
    assert builds(lambda: main([*argv.split(), "--outdir", str(tmp_path)])) == (
        0 if argv.startswith("transport") else 1
    )
    assert len(reads) == spectra


def test_a_spec_holds_one_spectrum():
    spec = NetworkSpec(12, uniform_profile(1.0, 5))
    spectrum = dispersion(spec)
    assert dispersion(spec) is spectrum
    order, _ = degenerate_groups(spectrum, 1e-9)
    assert np.array_equal(order, np.argsort(spectrum.eigenvalues))
    # the held spectrum is no field: equality and hashing are unchanged
    fresh = NetworkSpec(12, uniform_profile(1.0, 5))
    assert spec == fresh and hash(spec) == hash(fresh)


MIRROR_RINGS = {
    f"{kind}-{n}": NetworkSpec(n, profile(n))
    for n in (2, 3, 9, 12, 255, 1022, 1023, 1024)
    for kind, profile in {
        "uniform": lambda n: uniform_profile(1.0, n // 2),
        "evanescent": lambda n: evanescent_profile(0.815, n // 2),
        "custom": lambda n: custom_profile(np.sin(np.arange(1.0, n // 2 + 1))),
    }.items()
}


@pytest.mark.parametrize("name", MIRROR_RINGS)
def test_a_spec_spectrum_is_mirror_exact(name):
    spec = MIRROR_RINGS[name]
    lam = dispersion(spec).eigenvalues
    n = spec.n_modes
    assert lam.tobytes() == lam[-np.arange(n) % n].tobytes()
    # each p stays the FFT's own value; only its mirror N - p is overwritten
    fft = np.fft.fft(coupling_row(spec)).real
    assert lam[: n // 2 + 1].tobytes() == fft[: n // 2 + 1].tobytes()


@pytest.mark.parametrize("n", [4, 8, 10, 12, 64, 256, 1024])
def test_a_collapse_ring_spectrum_is_the_fft_bit_for_bit(n):
    spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
    lam = dispersion(spec).eigenvalues
    assert lam.tobytes() == np.fft.fft(coupling_row(spec)).real.tobytes()
    assert np.unique(lam).size == 3


def test_mirror_pairs_share_a_group_at_every_reach():
    # the evanescent N = 12 ring: p = 0, p = 6 and five mirror pairs
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    for z in (0.5, 3.0, 500.0, 5000.0):
        offset_amplitudes(spec, [z], offset=6)
        mu, weights = offset_weights(dispersion(spec), 6)
        assert mu.size == weights.size == 7


@pytest.mark.parametrize(
    "spectrum",
    [dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7]))), collapsed_spectrum(8, 1.0)],
    ids=["dispersion", "collapsed"],
)
@pytest.mark.parametrize("name", ["eigenvalues", "mu", "weights"])
def test_held_arrays_refuse_writes(spectrum, name):
    mu, weights = offset_weights(spectrum, 1)
    arr = {"eigenvalues": spectrum.eigenvalues, "mu": mu, "weights": weights}[name]
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[1]


def test_a_spectrum_holds_its_eigenvalues_and_their_largest_magnitude():
    spec = NetworkSpec(12, custom_profile([0.3, -1.0, 0.7]))
    spectrum = dispersion(spec)
    offset_amplitudes(spec, [0.5, 2.0], offset=5)
    offset_amplitudes(spec, [3.0], offset=5)
    offset_amplitudes(spec, [1e4], offset=None)
    degeneracy_histogram(spectrum)
    assert set(vars(spectrum)) == {"eigenvalues", "max_abs"}
    assert spectrum.max_abs == np.abs(spectrum.eigenvalues).max()


def test_every_offset_at_once_builds_nothing(monkeypatch):
    spec = NetworkSpec(12, custom_profile([0.3, -1.0, 0.7]))
    groupings = counting(monkeypatch, propagation, "_offset_weights")
    assert builds(lambda: offset_amplitudes(spec, [0.5, 1e4])) == 0
    assert groupings == []


def test_one_entry_is_held_until_another_replaces_it():
    spectrum = dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7])))
    offset_weights.cache_clear()
    held = offset_weights(spectrum, 3)
    assert offset_weights(spectrum, 3) is held
    assert offset_weights(spectrum, np.int64(3)) is held
    assert offset_weights.cache_info().misses == 1
    other_spectrum = dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7])))
    for key in [(spectrum, 4), (spectrum, 0), (other_spectrum, 3)]:
        other = offset_weights(*key)
        assert offset_weights(*key) is other
    # the last entry replaced the first: O(N) is held, not one entry per call
    assert offset_weights.cache_info().currsize == 1
    assert offset_weights(spectrum, 3) is not held
    assert offset_weights.cache_info().misses == 5


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


# powers of two, and the reaches 1e-13 * 2^k, at which an earlier one-offset
# sum changed its grouping; each comes with its neighbouring floats
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
    # nudged coarse couplings make eigenvalues a few ulp apart, which
    # share no group, next to exactly equal ones, which share one
    coarse = st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0])
    nudge = st.sampled_from([0.0, 1e-15, -3e-15, 2e-14])
    coupling = st.builds(float.__add__, coarse, nudge) | st.floats(-2.0, 2.0)
    couplings = draw(st.lists(coupling, min_size=reach, max_size=reach))
    offsets = st.none() | st.integers(0, n - 1)
    grids = st.lists(st.floats(-1e4, 1e4) | st.sampled_from(NEAR_EDGES), min_size=1, max_size=8)
    earlier = draw(st.lists(st.tuples(offsets, grids), max_size=4))
    return n, couplings, earlier, draw(offsets), draw(grids)


# the earlier grouping split the N = 16 ring with C_1 = -1 into 9 and 11
# groups at the floats either side of this reach; now both give 9
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
    # the weights sum exp(2j pi / N * ((p d) mod N)) over each run of equal
    # sorted eigenvalues, bit for bit the sum of the N roots of unity
    # gathered at (p d) mod N
    for n in (2, 7, 12, 255, 1022, 1024):
        spectrum = dispersion(NetworkSpec(n, uniform_profile(1.0, 1)))
        roots = np.exp(2j * np.pi / n * np.arange(n))
        order = np.argsort(spectrum.eigenvalues)
        values = spectrum.eigenvalues[order]
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        assert starts.size == n // 2 + 1
        for d in {0, 1, n // 2, n - 1, math.isqrt(n)}:
            gathered = np.add.reduceat(roots[order * d % n], starts) / n
            mu, weights = offset_weights(spectrum, d)
            assert mu.tobytes() == values[starts].tobytes()
            assert weights.tobytes() == gathered.tobytes()
