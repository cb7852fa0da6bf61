import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import pstnet.synthesis as synthesis
from pstnet import (
    NetworkSpec,
    SynthesisProblem,
    SynthesisSolution,
    check_pst,
    constraint_matrix,
    custom_profile,
    degeneracy_histogram,
    dispersion,
    effective_couplings,
    physical_parameters,
    solve_weights,
    uniform_profile,
    verify_synthesis,
)


def dense_square_weights(n):
    """Square-system weights from lstsq on the dense cosine matrix."""
    target = np.ones(n // 2)
    target[-1] = 0.0
    weights, *_ = np.linalg.lstsq(constraint_matrix(n, n // 2), target, rcond=None)
    return weights


class TestSolveWeights:
    def test_hand_solved_minimal_case(self):
        # N=4, M=2: cos(pi/2) A_1 + cos(pi) A_2 = C and -A_1 + A_2 = 0,
        # so A_2 = -C and A_1 = A_2
        solution = solve_weights(SynthesisProblem(4, 2, 1.0))
        assert solution.weights == pytest.approx([-1.0, -1.0], abs=1e-12)
        assert solution.residual < 1e-12

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_square_systems_solve_exactly(self, n):
        solution = solve_weights(SynthesisProblem(n, n // 2, 1.0))
        assert solution.residual < 1e-10

    def test_eight_modes_give_exact_dyadic_weights(self):
        solution = solve_weights(SynthesisProblem(8, 4, 1.0))
        assert solution.weights == (-1.5, -2.0, -1.5, -1.0)
        assert solution.couplings == (1.0, 1.0, 1.0, 0.0)
        assert solution.residual == 0.0

    def test_zero_target_gives_zero_weights(self):
        solution = solve_weights(SynthesisProblem(8, 4, 0.0))
        assert np.abs(np.asarray(solution.weights)).max() < 1e-14

    def test_underdetermined_picks_minimum_norm(self):
        square = solve_weights(SynthesisProblem(8, 4, 1.0))
        wide = solve_weights(SynthesisProblem(8, 6, 1.0))
        assert wide.residual < 1e-10
        assert np.linalg.norm(wide.weights) <= np.linalg.norm(square.weights) + 1e-9

    def test_overconstrained_reports_residual(self):
        solution = solve_weights(SynthesisProblem(8, 2, 1.0))
        assert solution.residual > solution.tolerance

    def test_linearity_in_target(self):
        one = np.asarray(solve_weights(SynthesisProblem(12, 6, 1.0)).weights)
        two = np.asarray(solve_weights(SynthesisProblem(12, 6, 2.0)).weights)
        assert np.abs(two - 2.0 * one).max() < 1e-12

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SynthesisProblem(7, 4, 1.0)
        with pytest.raises(ValueError):
            SynthesisProblem(8, 0, 1.0)

    @pytest.mark.parametrize("strength", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_strength(self, strength):
        with pytest.raises(ValueError, match="target strength must be finite"):
            SynthesisProblem(8, 4, strength)


class TestSquareTransform:
    """M = N/2 is solved by one inverse real FFT, not by lstsq."""

    def test_weights_match_dense_lstsq(self):
        for n in range(4, 129, 2):
            got = np.asarray(solve_weights(SynthesisProblem(n, n // 2, 1.0)).weights)
            assert np.abs(got - dense_square_weights(n)).max() <= 1e-12 * n, n

    def test_exact_cosine_sums_at_1024_modes(self):
        n, half = 1024, 512
        weights = solve_weights(SynthesisProblem(n, half, 1.0)).weights
        with mpmath.workdps(30):
            table = [mpmath.cospi(mpmath.mpf(2 * j) / n) for j in range(n)]
            a = [mpmath.mpf(w) for w in weights]
            sums = [
                mpmath.fdot(a, [table[k * r % n] for k in range(1, half + 1)])
                for r in range(1, half + 1)
            ]
        target = [1] * (half - 1) + [0]
        assert max(float(abs(j - t)) for j, t in zip(sums, target)) <= 1e-13

    def test_square_systems_build_no_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense solve of a square system")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(synthesis, "constraint_matrix", refuse)
        for n in (4, 10, 1024):
            assert solve_weights(SynthesisProblem(n, n // 2, 1.0)).residual <= 1e-14

    @pytest.mark.parametrize("n", [8, 64, 1024])
    def test_synthesized_ring_is_the_uniform_ring(self, n):
        solution = solve_weights(SynthesisProblem(n, n // 2, 1.0))
        synthesized = NetworkSpec(n, custom_profile(solution.couplings))
        uniform = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        assert (
            degeneracy_histogram(dispersion(synthesized)).bins
            == degeneracy_histogram(dispersion(uniform)).bins
        )
        report = check_pst(synthesized, 0)
        assert report.is_pst
        assert abs(report.z_pst - math.pi / 2) <= 1e-14
        assert abs(report.amplitude_at_zpst + 1.0) <= 1e-14


class TestRelativeTolerance:
    @pytest.mark.parametrize(
        "strength,tolerance", [(0.5, 1e-8), (1.0, 1e-8), (1e8, 1.0), (-1e8, 1.0)]
    )
    def test_tolerance_scales_with_the_target(self, strength, tolerance):
        assert solve_weights(SynthesisProblem(8, 6, strength)).tolerance == tolerance

    def test_large_target_passes_on_its_rounding(self):
        solution = solve_weights(SynthesisProblem(8, 6, 1e8))
        assert 1e-8 < solution.residual <= 1e-15 * 1e8 * 8
        assert verify_synthesis(solution).is_pst


class TestEffectiveCouplings:
    @pytest.mark.parametrize("n", [8, 12, 64, 1024])
    def test_fft_matches_the_cosine_matrix(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 3, n // 2, n // 2 + 3, n + 5, 3 * n):
            a = rng.normal(size=m)
            want = constraint_matrix(n, m) @ a
            assert np.abs(effective_couplings(a, n) - want).max() <= 1e-12 * np.abs(a).sum(), m

    def test_zero_weights(self):
        assert np.abs(effective_couplings(np.zeros(4), 8)).max() == 0.0

    @pytest.mark.parametrize("n,m", [(8, 4), (12, 6)])
    def test_resynthesis_hits_uniform_target(self, n, m):
        solution = solve_weights(SynthesisProblem(n, m, 1.0))
        j = effective_couplings(solution.weights, n)
        assert np.abs(j[:-1] - 1.0).max() < 1e-10
        assert abs(j[-1]) < 1e-10

    def test_single_harmonic(self):
        j = effective_couplings([1.0], 8)
        expected = [math.cos(2.0 * math.pi * r / 8) for r in range(1, 4)] + [-1.0]
        assert j == pytest.approx(expected, abs=1e-15)

    def test_alternating_row_is_exact(self):
        b = constraint_matrix(8, 5)
        assert np.array_equal(b[-1], np.array([-1.0, 1.0, -1.0, 1.0, -1.0]))

    def test_stored_couplings_match_resynthesis(self):
        solution = solve_weights(SynthesisProblem(12, 6, 1.0))
        again = effective_couplings(solution.weights, 12)
        assert np.abs(np.asarray(solution.couplings) - again).max() < 1e-12

    def test_all_couplings_real(self):
        j = effective_couplings([0.3, -1.2, 0.8], 12)
        assert j.dtype == np.float64


class TestPhysicalParameters:
    def test_formula_inversion(self):
        base = SynthesisSolution((2.0,), (0.0,), 0.0, 1e-8)
        pairs = physical_parameters(base, 100.0)
        assert pairs.g[0] == pytest.approx(10.0, abs=1e-12)
        assert pairs.detuning[0] == 100.0
        assert pairs.ratio[0] == pytest.approx(10.0, abs=1e-12)

    def test_zero_weight_decouples(self):
        base = SynthesisSolution((0.0,), (0.0,), 0.0, 1e-8)
        pairs = physical_parameters(base, 50.0)
        assert pairs.g[0] == 0.0
        assert math.isinf(pairs.ratio[0])

    def test_negative_zero_weight_decouples_at_the_positive_detuning(self):
        base = SynthesisSolution((-0.0, 0.0), (0.0, 0.0), 0.0, 1e-8)
        pairs = physical_parameters(base, 50.0)
        assert pairs.g == (0.0, 0.0)
        assert all(math.isinf(r) for r in pairs.ratio)
        assert pairs.detuning == (50.0, 50.0)

    def test_a_weight_whose_g_underflows_decouples_without_a_warning(self):
        base = SynthesisSolution((5e-324, -3.0), (0.0, 0.0), 0.0, 1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = physical_parameters(base, 1.0)
        assert pairs.g[0] == 0.0 and math.isinf(pairs.ratio[0])
        assert pairs.detuning == (1.0, -1.0)

    def test_columns_have_one_entry_per_weight(self):
        solution = solve_weights(SynthesisProblem(12, 9, 1.0))
        pairs = physical_parameters(solution, 150.0)
        columns = (pairs.g, pairs.detuning, pairs.ratio)
        assert [len(c) for c in columns] == [9, 9, 9]
        assert all(type(x) is float for c in columns for x in c)

    def test_weights_rebuilt_from_parameters(self):
        solution = solve_weights(SynthesisProblem(8, 4, 1.0))
        pairs = physical_parameters(solution, 200.0)
        rebuilt = [2.0 * g**2 / d for g, d in zip(pairs.g, pairs.detuning)]
        assert rebuilt == pytest.approx(list(solution.weights), abs=1e-12)

    def test_detuning_sign_follows_weight(self):
        solution = solve_weights(SynthesisProblem(12, 6, 1.0))
        pairs = physical_parameters(solution, 150.0)
        for weight, detuning in zip(solution.weights, pairs.detuning):
            if weight != 0.0:
                assert math.copysign(1.0, detuning) == math.copysign(1.0, weight)

    def test_dispersive_flag(self):
        solution = solve_weights(SynthesisProblem(8, 4, 1.0))
        pairs = physical_parameters(solution, 200.0, dispersive_min=10.0)
        assert pairs.min_dispersive_ratio >= 10.0
        assert pairs.min_dispersive_ratio == min(pairs.ratio)
        assert pairs.dispersive_ok is True
        cramped = physical_parameters(solution, 1.0, dispersive_min=10.0)
        assert cramped.dispersive_ok is False

    def test_rejects_bad_scale(self):
        for scale in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="delta_scale"):
                physical_parameters(solve_weights(SynthesisProblem(8, 4, 1.0)), scale)

    @pytest.mark.parametrize("floor", [math.inf, math.nan])
    def test_rejects_non_finite_dispersive_min(self, floor):
        with pytest.raises(ValueError, match="dispersive_min"):
            physical_parameters(
                solve_weights(SynthesisProblem(8, 4, 1.0)), 200.0, dispersive_min=floor
            )


class TestVerifySynthesis:
    def test_exact_solution_transfers(self):
        report = verify_synthesis(solve_weights(SynthesisProblem(8, 4, 1.0)))
        assert report.is_pst
        assert report.z_pst == pytest.approx(math.pi / 2, rel=1e-12)

    def test_larger_network(self):
        report = verify_synthesis(solve_weights(SynthesisProblem(12, 6, 1.0)))
        assert report.is_pst
        assert report.target == report.source + 6

    def test_refuses_large_residual(self):
        starved = solve_weights(SynthesisProblem(8, 2, 1.0))
        with pytest.raises(ValueError, match="residual"):
            verify_synthesis(starved)

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_advises_more_pairs_only_below_half(self, m):
        # a residual above tolerance with M >= N/2 is not cured by more pairs
        solution = replace(solve_weights(SynthesisProblem(8, m, 1.0)), residual=1.0)
        with pytest.raises(ValueError, match="residual 1.000e[+]00 ") as refused:
            verify_synthesis(solution)
        assert str(refused.value).endswith("relax the target")
        assert ("add auxiliary pairs" in str(refused.value)) == (m < 4)

    def test_refuses_nan_residual(self):
        exact = solve_weights(SynthesisProblem(8, 4, 1.0))
        with pytest.raises(ValueError, match="residual nan"):
            verify_synthesis(replace(exact, residual=math.nan))

    def test_checks_the_solution_on_its_own_ring(self, monkeypatch):
        # N = 2 len(couplings): a 12-mode solution is checked on 12 modes
        solution = solve_weights(SynthesisProblem(12, 6, 1.0))
        specs = []

        def check(spec, source):
            specs.append(spec)
            return check_pst(spec, source)

        monkeypatch.setattr(synthesis, "check_pst", check)
        report = verify_synthesis(solution)
        assert [spec.n_modes for spec in specs] == [12]
        assert specs[0].profile.couplings == solution.couplings
        assert (report.source, report.target) == (0, 6)
