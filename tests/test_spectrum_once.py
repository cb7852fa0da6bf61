"""A ring's spectrum is computed once and held by its ``NetworkSpec``.

The spec computes the FFT of its coupling row on first use; the
``Spectrum`` computes its sort order, sorted eigenvalues and roots of
unity on first use.  Everything held is read-only, a spectrum that
overflows is refused on every use, and an amplitude read from a spec
that has served earlier calls is bit for bit the one a fresh equal spec
gives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstnet.lattice as lattice
import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    collapsed_spectrum,
    custom_profile,
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


@pytest.mark.parametrize(
    "argv,spectra",
    [
        ("pst-check --n 1024 --profile uniform:C=1,R=511 --source 1", 44),
        ("cat --n 12 --profile uniform:C=1,R=5 --source 1 --alpha 0.5 --phi pi/2"
         " --z-max 2pi", 43),
        ("transport --n 64 --profile uniform:C=1,R=31 --source 1 --z-max pi --dz 0.001", 50),
    ],
    ids=["pst-check", "cat", "transport"],
)
def test_one_fft_per_command(tmp_path, monkeypatch, argv, spectra):
    # the spectrum is the FFT of the row that the spec reads from lattice
    rows = counting(monkeypatch, lattice, "coupling_row")
    reads = counting(monkeypatch, propagation, "dispersion")
    assert main([*argv.split(), "--outdir", str(tmp_path)]) == 0
    assert len(rows) == 1
    assert len(reads) == spectra


def test_a_spec_holds_one_spectrum():
    spec = NetworkSpec(12, uniform_profile(1.0, 5))
    spectrum = dispersion(spec)
    assert dispersion(spec) is spectrum
    assert degenerate_groups(spectrum, 1e-9)[0] is spectrum.order
    # the held spectrum is no field: equality and hashing are unchanged
    fresh = NetworkSpec(12, uniform_profile(1.0, 5))
    assert spec == fresh and hash(spec) == hash(fresh)


@pytest.mark.parametrize(
    "spectrum",
    [dispersion(NetworkSpec(10, custom_profile([0.3, -1.0, 0.7]))), collapsed_spectrum(8, 1.0)],
    ids=["dispersion", "collapsed"],
)
@pytest.mark.parametrize("name", ["eigenvalues", "order", "sorted_eigenvalues", "roots"])
def test_held_arrays_refuse_writes(spectrum, name):
    arr = getattr(spectrum, name)
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[0] = arr[1]


def test_held_arrays_are_their_definitions():
    spectrum = dispersion(NetworkSpec(9, custom_profile([0.25, 1.0, -0.5, 0.125])))
    lam = spectrum.eigenvalues
    assert np.array_equal(spectrum.order, np.argsort(lam))
    assert np.array_equal(spectrum.sorted_eigenvalues, np.sort(lam))
    # the same exp of the same argument, so bit for bit
    k = np.arange(9)
    assert spectrum.roots.tobytes() == np.exp(2j * np.pi / 9 * k).tobytes()


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
    grids = st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8)
    earlier = draw(st.lists(st.tuples(offsets, grids), max_size=3))
    return n, couplings, earlier, draw(offsets), draw(grids)


@settings(max_examples=150, deadline=None)
@given(reuses())
def test_a_reused_spec_gives_the_bits_of_a_fresh_one(case):
    n, couplings, earlier, offset, zs = case
    spec = NetworkSpec(n, custom_profile(couplings))
    for d, grid in earlier:
        offset_amplitudes(spec, grid, offset=d)
    got = offset_amplitudes(spec, zs, offset=offset)
    want = offset_amplitudes(NetworkSpec(n, custom_profile(couplings)), zs, offset=offset)
    assert got.tobytes() == want.tobytes()


def test_the_weights_gather_the_exp_they_replace():
    # roots[(p d) mod N] is exp(2j pi / N * ((p d) mod N)) bit for bit
    for n in (2, 7, 12, 255, 1022, 1024):
        spectrum = dispersion(NetworkSpec(n, uniform_profile(1.0, 1)))
        order = spectrum.order
        for d in {0, 1, n // 2, n - 1, math.isqrt(n)}:
            index = order * d % n
            assert spectrum.roots[index].tobytes() == np.exp(2j * np.pi / n * index).tobytes()
