"""Acceptance suite: one test per headline capability, at fixed tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Scan bounds are pinned here so the whole suite stays
deterministic and finishes in well under two minutes.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from oracles import expm_propagator

from pstnet import (
    NetworkSpec,
    TmsvParams,
    cat_fidelity,
    cat_fidelity_scan,
    custom_profile,
    dispersion,
    effective_couplings,
    evanescent_profile,
    evolve_covariance,
    offset_amplitudes,
    propagator,
    pst_distance,
    solve_weights,
    squeezing_factor,
    symplectic_form,
    symplectic_from_propagator,
    tmsv_covariance,
    transfer_scan,
    uniform_profile,
    verify_synthesis,
)
from pstnet.synthesis import SynthesisProblem

ZPST = pst_distance(1.0)


def _passed(number, name):
    print(f"criterion {number:2d} ({name}): PASS")


def test_criterion_01_spectral_collapse():
    for n in (8, 12, 16):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        got = np.sort(dispersion(spec).eigenvalues)
        expected = np.sort(
            np.array([n - 2.0] + [0.0] * (n // 2) + [-2.0] * (n // 2 - 1))
        )
        assert np.abs(got - expected).max() < 1e-10
    _passed(1, "spectral collapse")


def test_criterion_02_opposite_site_coupling_blocks_transfer():
    for n in (8, 12, 16):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2))
        got = np.sort(dispersion(spec).eigenvalues)
        expected = np.sort(np.array([n - 1.0] + [-1.0] * (n - 1)))
        assert np.abs(got - expected).max() < 1e-10
        zs = np.arange(0.005, 30.0, 0.005)
        cross = np.abs(offset_amplitudes(spec, zs)[:, 1:]).max()
        assert cross <= 2.0 / n + 1e-9
    _passed(2, "opposite-site no-go")


def test_criterion_03_single_photon_transfer():
    for n, reach, target in ((8, 3, 5), (12, 5, 7)):
        spec = NetworkSpec(n, uniform_profile(1.0, reach))
        u = propagator(spec, ZPST).matrix
        assert abs(u[target, 1]) ** 2 == pytest.approx(1.0, abs=1e-10)
        others = np.abs(np.delete(u[:, 1], target)) ** 2
        assert others.max() < 1e-10
    u8 = propagator(NetworkSpec(8, uniform_profile(1.0, 3)), ZPST).matrix
    assert u8[5, 1] == pytest.approx(-1.0, abs=1e-10)
    _passed(3, "single-photon transfer")


def test_criterion_04_size_must_be_multiple_of_four():
    spec = NetworkSpec(10, uniform_profile(1.0, 4))
    amp = offset_amplitudes(spec, [ZPST])[0, 5]
    assert abs(amp) ** 2 == pytest.approx(0.64, abs=1e-10)
    result = transfer_scan(spec, 0, 5, z_max=50.0, dz=0.01)
    assert result.max_value < 1.0 - 1e-3
    _passed(4, "N = 4n necessity")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(20240517)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        reach = int(rng.integers(1, n // 2 + 1))
        spec = NetworkSpec(n, custom_profile(rng.uniform(0.1, 1.0, size=reach)))
        z = float(rng.uniform(0.2, 3.0))
        assert np.abs(expm_propagator(spec, z) - propagator(spec, z).matrix).max() < 1e-6
    _passed(5, "spectral propagator vs 30-digit matrix exponential")


def test_criterion_06_cat_states():
    spec = NetworkSpec(12, uniform_profile(1.0, 5))
    for alpha in (0.5, 1.0, 2.0):
        for phi in (0.0, math.pi):
            assert cat_fidelity(spec, 1, 7, alpha, phi, ZPST) == pytest.approx(
                1.0, abs=1e-10
            )
        ys = cat_fidelity(spec, 1, 7, alpha, math.pi / 2, ZPST)
        assert ys == pytest.approx(math.exp(-4.0 * alpha**2), abs=1e-10)
    big = cat_fidelity_scan(
        spec, 1, 7, 1.0 / math.sqrt(2.0), math.pi / 2, z_max=2.0 * math.pi
    )
    assert big.max_value == pytest.approx(0.36, abs=0.05)
    small = cat_fidelity_scan(spec, 1, 7, 0.5, math.pi / 2, z_max=2.0 * math.pi)
    assert small.max_value == pytest.approx(0.6, abs=0.05)
    _passed(6, "cat-state fidelities")


def test_criterion_07_two_mode_squeezing_transfer():
    w = 0.881374
    spec = NetworkSpec(8, uniform_profile(1.0, 3))
    initial = tmsv_covariance(TmsvParams(w, 0.0, (1, 2)), 8)
    floor = 0.5 * (math.exp(-2.0 * w) - 1.0)
    assert floor == pytest.approx(-0.4142, abs=1e-4)
    assert squeezing_factor(initial, 1, 2, "Q") == pytest.approx(floor, abs=1e-10)
    omega = symplectic_form(8)
    for z in np.linspace(0.0, ZPST, 33):
        m = symplectic_from_propagator(propagator(spec, float(z))).matrix
        assert np.abs(m @ omega @ m.T - omega).max() < 1e-10
    final = evolve_covariance(
        initial, symplectic_from_propagator(propagator(spec, ZPST))
    )
    assert squeezing_factor(final, 5, 6, "Q") == pytest.approx(floor, abs=1e-8)
    assert squeezing_factor(final, 5, 6, "P") == pytest.approx(floor, abs=1e-8)
    assert squeezing_factor(final, 1, 2, "Q") == pytest.approx(0.0, abs=1e-8)
    _passed(7, "two-mode squeezing transfer")


def test_criterion_08_evanescent_degradation():
    # decaying couplings break the three-block spectrum: transfer peaks
    # late and below unity; bounds documented as z_max = 500 and 5000
    near = NetworkSpec(12, evanescent_profile(0.524, 6))
    result = transfer_scan(near, 0, 6, z_max=500.0)
    assert result.max_value == pytest.approx(0.96, abs=0.02)
    assert result.z_at_max > 10.0 * ZPST

    far = NetworkSpec(12, evanescent_profile(0.815, 5))
    result = transfer_scan(far, 0, 6, z_max=5000.0)
    assert result.max_value == pytest.approx(0.99, abs=0.01)
    assert result.z_at_max > 10.0 * ZPST
    _passed(8, "evanescent degradation")


def test_criterion_09_coupling_synthesis():
    for n, m in ((8, 4), (12, 6)):
        solution = solve_weights(SynthesisProblem(n, m, 1.0))
        couplings = effective_couplings(solution.weights, n)
        assert np.abs(couplings[:-1] - 1.0).max() < 1e-10
        assert abs(couplings[-1]) < 1e-10
        assert verify_synthesis(solution).is_pst
    _passed(9, "coupling synthesis")


def test_criterion_10_cli_determinism(tmp_path):
    def run(workdir):
        env = dict(os.environ)
        args = [
            sys.executable,
            "-m",
            "pstnet",
            "spectrum",
            "--n",
            "12",
            "--profile",
            "uniform:C=1,R=5",
        ]
        subprocess.run(args, cwd=workdir, env=env, check=True, capture_output=True)
        args = [
            sys.executable,
            "-m",
            "pstnet",
            "synth",
            "--n",
            "8",
            "--m",
            "4",
            "--c",
            "1",
        ]
        subprocess.run(args, cwd=workdir, env=env, check=True, capture_output=True)
        digest = hashlib.sha256()
        for name in ("spectrum.csv", "spectrum.json", "synth.json"):
            digest.update((workdir / name).read_bytes())
        return digest.hexdigest()

    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert run(first) == run(second)
    _passed(10, "deterministic command line output")
