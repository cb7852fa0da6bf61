"""Amplitudes from the phases of the distinct eigenvalues.

Both forms of ``offset_amplitudes`` must agree with ``reference``, the
inverse FFT of the phases of all N modes, evaluated here: every offset
at once (bit for bit on exactly degenerate uniform rings) and one offset
``d``, which must also stay bounded in memory on long grids and reject
offsets that name no mode.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pstnet.propagation as propagation
from pstnet import (
    NetworkSpec,
    SynthesisProblem,
    custom_profile,
    dispersion,
    evanescent_profile,
    offset_amplitudes,
    ode_oracle,
    solve_weights,
    transfer_scan,
    uniform_profile,
)
from pstnet.cli import main
from pstnet.fock import cat_fidelity_scan


def reference(spec, zs):
    """Every offset from the phases of all N eigenvalues and one inverse FFT."""
    lam = dispersion(spec).as_array()
    return np.fft.ifft(np.exp(-1j * np.outer(zs, lam)), axis=1)


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
    assert np.abs(got - reference(spec, zs)).max() <= 1e-12


@pytest.mark.parametrize("n", [8, 64, 1024])
def test_every_offset_is_bitwise_the_reference_on_uniform_rings(n):
    # the collapse spectrum has three bitwise-distinct values, so grouping
    # merges only equal eigenvalues and every phase is computed as before
    spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
    assert np.unique(dispersion(spec).as_array()).size == 3
    zs = np.linspace(0.0, 50.0, 97)
    assert np.array_equal(offset_amplitudes(spec, zs), reference(spec, zs))


def test_a_run_of_tiny_gaps_is_cut_at_the_tolerance():
    # The synthesized N = 1024 couplings spread the -2 block of the
    # collapse spectrum over about 2e-12 in gaps below the grouping
    # tolerance (6e-14 at z = pi/2).  Split only at wider gaps, the block
    # chained into one group, and the antipodal amplitude was 1.2e-12 off.
    problem = SynthesisProblem(1024, 512, 1.0, 1e-8)
    spec = NetworkSpec(1024, custom_profile(solve_weights(problem).couplings))
    zs = [math.pi / 2, 3.0]
    want = reference(spec, zs)
    for d in (1, 512):
        got = offset_amplitudes(spec, zs, offset=d)
        assert np.abs(got - want[:, d]).max() <= 1e-13
    assert np.abs(offset_amplitudes(spec, zs) - want).max() <= 1e-13


def test_matches_the_ode_oracle():
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    start = np.zeros(12, dtype=complex)
    start[0] = 1.0
    z = 3.7
    arrived = ode_oracle(spec, start, z, 20000)
    for d in range(12):
        assert offset_amplitudes(spec, [z], offset=d)[0] == pytest.approx(arrived[d], abs=1e-9)


@pytest.mark.parametrize("offset", [-1, 8, 2.0, "1", 8.5])
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


PEAK_LIMIT = 32 * 2**20


def test_long_transfer_scan_stays_within_fixed_memory():
    # the README evanescent trace at z_max = 5000: 407,500 grid points
    spec = NetworkSpec(12, evanescent_profile(0.815, 6))
    scan, peak = _peak_bytes(lambda: transfer_scan(spec, 0, 6, 5000.0))
    assert scan.zs.size > 4e5
    assert peak < PEAK_LIMIT


def test_wide_cat_scan_stays_within_fixed_memory():
    spec = NetworkSpec(256, uniform_profile(1.0, 127))
    scan, peak = _peak_bytes(
        lambda: cat_fidelity_scan(spec, 0, 128, 0.5, math.pi / 2, 200.0, 0.01)
    )
    assert scan.zs.size == 20000
    assert peak < PEAK_LIMIT
