import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pstnet.gaussian
from pstnet import (
    CovarianceState,
    NetworkSpec,
    SymplecticEvolution,
    TmsvParams,
    evolve_covariance,
    propagator,
    pst_distance,
    squeezing_factor,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_propagator,
    tmsv_covariance,
    uniform_profile,
)
from pstnet.cli import main

W_REF = 0.881374
N8 = NetworkSpec(8, uniform_profile(1.0, 3))
ZPST = pst_distance(1.0)


def epr_variance(state, j, k, quadrature):
    return squeezing_factor(state, j, k, quadrature) + 0.5


class TestTmsvCovariance:
    def test_zero_squeezing_is_vacuum(self):
        v = tmsv_covariance(TmsvParams(0.0, 0.0, (0, 1)), 4)
        assert np.abs(v.matrix - 0.5 * np.eye(8)).max() < 1e-14

    def test_epr_variances(self):
        # analytic oracle: squeezed combination e^{-2w}/2, stretched e^{+2w}/2
        state = tmsv_covariance(TmsvParams(W_REF, 0.0, (1, 2)), 8)
        squeezed = 0.5 * math.exp(-2.0 * W_REF)
        stretched = 0.5 * math.exp(2.0 * W_REF)
        assert epr_variance(state, 1, 2, "Q") == pytest.approx(squeezed, abs=1e-12)
        assert epr_variance(state, 1, 2, "P") == pytest.approx(squeezed, abs=1e-12)
        v = state.matrix
        sum_q = 0.5 * (v[2, 2] + v[4, 4] + 2.0 * v[2, 4])
        assert sum_q == pytest.approx(stretched, abs=1e-12)

    def test_pair_blocks_at_zero_phase(self):
        w = 0.4
        state = tmsv_covariance(TmsvParams(w, 0.0, (0, 1)), 2)
        v = state.matrix
        ch, sh = 0.5 * math.cosh(2 * w), 0.5 * math.sinh(2 * w)
        assert v[0, 0] == pytest.approx(ch, abs=1e-12)
        assert v[1, 1] == pytest.approx(ch, abs=1e-12)
        assert v[0, 2] == pytest.approx(sh, abs=1e-12)
        assert v[1, 3] == pytest.approx(-sh, abs=1e-12)
        assert v[0, 3] == 0.0 and v[1, 2] == 0.0

    def test_phase_rotates_cross_block(self):
        w, theta = 0.4, 0.7
        v = tmsv_covariance(TmsvParams(w, theta, (0, 1)), 2).matrix
        sh = 0.5 * math.sinh(2 * w)
        expected = sh * np.array(
            [
                [math.cos(theta), math.sin(theta)],
                [math.sin(theta), -math.cos(theta)],
            ]
        )
        assert np.abs(v[0:2, 2:4] - expected).max() < 1e-12

    def test_uninvolved_modes_stay_vacuum(self):
        v = tmsv_covariance(TmsvParams(0.7, 0.0, (1, 2)), 5).matrix
        for j in (0, 3, 4):
            block = v[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
            assert np.abs(block - 0.5 * np.eye(2)).max() < 1e-14

    def test_purity(self):
        v = tmsv_covariance(TmsvParams(W_REF, 0.3, (0, 1)), 6).matrix
        assert np.linalg.det(2.0 * v) == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            TmsvParams(-0.1, 0.0, (0, 1))
        with pytest.raises(ValueError):
            TmsvParams(0.5, 0.0, (2, 2))
        with pytest.raises(ValueError):
            tmsv_covariance(TmsvParams(0.5, 0.0, (0, 9)), 4)

    @pytest.mark.parametrize(
        "pair", [(0, 1, 2), (0.7, 1), (0,), (), 3, "01", (None, 1)],
        ids=["three", "float", "one", "empty", "scalar", "string", "none"],
    )
    def test_mode_pair_must_be_two_integer_indices(self, pair):
        with pytest.raises(ValueError, match="mode pair must be two integer mode indices"):
            TmsvParams(0.5, 0.0, pair)

    def test_integer_like_mode_pair_is_kept_as_ints(self):
        params = TmsvParams(0.5, 0.0, [np.int64(2), 5])
        assert params.mode_pair == (2, 5)
        assert all(type(i) is int for i in params.mode_pair)

    @pytest.mark.parametrize(
        "w,theta,name",
        [(math.inf, 0.0, "w"), (math.nan, 0.0, "w"), (0.5, math.nan, "theta"),
         (0.5, -math.inf, "theta")],
    )
    def test_non_finite_rejected(self, w, theta, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TmsvParams(w, theta, (0, 1))


class TestCovarianceState:
    def test_rejects_asymmetric(self):
        bad = 0.5 * np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            CovarianceState(bad)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            CovarianceState(0.1 * np.eye(4))

    def test_rejects_negative_definite(self):
        # -I/2 gives i Omega V the vacuum's eigenvalue magnitudes
        with pytest.raises(ValueError, match="covariance matrix is unphysical"):
            CovarianceState(-0.5 * np.eye(4))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, value):
        bad = 0.5 * np.eye(4)
        bad[1, 1] = value
        with pytest.raises(ValueError, match="covariance matrix is not finite"):
            CovarianceState(bad)

    @pytest.mark.parametrize("count", [3, 4])  # 4 = 2N: a stack as long as a side
    def test_rejects_a_stack(self, count):
        stack = np.array(random_covariances(np.random.default_rng(count), count, 2))
        message = "^covariance matrix must be square with even dimension$"
        with pytest.raises(ValueError, match=message):
            CovarianceState(stack)
        with pytest.raises(ValueError, match=message):
            symplectic_eigenvalues(stack)

    def test_vacuum_symplectic_spectrum(self):
        nus = symplectic_eigenvalues(CovarianceState(np.eye(6) / 2).matrix)
        assert nus == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)


class TestSymplecticFromPropagator:
    def test_identity(self):
        m = symplectic_from_propagator(propagator(N8, 0.0)).matrix
        assert np.abs(m - np.eye(16)).max() < 1e-12

    def test_transfer_is_signed_antipodal_permutation(self):
        evo = symplectic_from_propagator(propagator(N8, ZPST))
        perm = np.zeros((16, 16))
        for j in range(8):
            k = (j + 4) % 8
            perm[2 * j, 2 * k] = -1.0
            perm[2 * j + 1, 2 * k + 1] = -1.0
        assert np.abs(evo.matrix - perm).max() < 1e-10

    def test_negated_identity_is_symplectic(self):
        SymplecticEvolution(-np.eye(6))

    def test_rejects_nan(self):
        # a nan defect compares false against any bound
        with pytest.raises(ValueError, match="does not preserve the symplectic form"):
            SymplecticEvolution(np.full((2, 2), np.nan))

    def test_rejects_non_unitary(self):
        from types import SimpleNamespace

        fake = SimpleNamespace(matrix=np.eye(8) * 1.001)
        with pytest.raises(ValueError):
            symplectic_from_propagator(fake)

    @pytest.mark.parametrize("z", [0.2, 0.9, ZPST, 2.7])
    def test_symplectic_invariant(self, z):
        m = symplectic_from_propagator(propagator(N8, z)).matrix
        omega = symplectic_form(8)
        assert np.abs(m @ omega @ m.T - omega).max() < 1e-10


class TestEvolution:
    def test_identity_leaves_state(self):
        state = tmsv_covariance(TmsvParams(0.6, 0.0, (1, 2)), 8)
        evo = symplectic_from_propagator(propagator(N8, 0.0))
        out = evolve_covariance(state, evo)
        assert np.abs(out.matrix - state.matrix).max() < 1e-12

    @pytest.mark.parametrize("z", [0.3, 1.4])
    def test_vacuum_is_preserved_by_passive_maps(self, z):
        evo = symplectic_from_propagator(propagator(N8, z))
        out = evolve_covariance(CovarianceState(np.eye(16) / 2), evo)
        assert np.abs(out.matrix - 0.5 * np.eye(16)).max() < 1e-10

    def test_tmsv_blocks_move_to_antipodal_pair(self):
        initial = tmsv_covariance(TmsvParams(W_REF, 0.0, (1, 2)), 8)
        evo = symplectic_from_propagator(propagator(N8, ZPST))
        final = evolve_covariance(initial, evo)
        target = tmsv_covariance(TmsvParams(W_REF, 0.0, (5, 6)), 8)
        assert np.abs(final.matrix - target.matrix).max() < 1e-8

    def test_dimension_mismatch(self):
        evo = symplectic_from_propagator(propagator(N8, 0.5))
        with pytest.raises(ValueError):
            evolve_covariance(CovarianceState(np.eye(8) / 2), evo)

    def test_purity_preserved(self):
        state = tmsv_covariance(TmsvParams(0.5, 0.2, (0, 1)), 8)
        assert np.linalg.det(2.0 * state.matrix) == pytest.approx(1.0, abs=1e-8)
        evo = symplectic_from_propagator(propagator(N8, 1.1))
        out = evolve_covariance(state, evo)
        assert np.linalg.det(2.0 * out.matrix) == pytest.approx(1.0, abs=1e-8)


class TestSqueezingFactor:
    def test_vacuum_level(self):
        state = CovarianceState(np.eye(12) / 2)
        assert squeezing_factor(state, 0, 3, "Q") == 0.0
        assert squeezing_factor(state, 0, 3, "P") == 0.0

    def test_input_squeezing_matches_closed_form(self):
        # oracle: EPR variance of the squeezed pair is e^{-2w}/2
        for w in (0.25, 0.5, W_REF):
            state = tmsv_covariance(TmsvParams(w, 0.0, (1, 2)), 8)
            expected = 0.5 * (math.exp(-2.0 * w) - 1.0)
            assert squeezing_factor(state, 1, 2, "Q") == pytest.approx(
                expected, abs=1e-12
            )
            assert squeezing_factor(state, 1, 2, "P") == pytest.approx(
                expected, abs=1e-12
            )

    def test_reference_squeezing_value(self):
        state = tmsv_covariance(TmsvParams(W_REF, 0.0, (1, 2)), 8)
        assert squeezing_factor(state, 1, 2, "Q") == pytest.approx(-0.4142, abs=1e-4)

    def test_transferred_squeezing(self):
        initial = tmsv_covariance(TmsvParams(W_REF, 0.0, (1, 2)), 8)
        evo = symplectic_from_propagator(propagator(N8, ZPST))
        final = evolve_covariance(initial, evo)
        expected = 0.5 * (math.exp(-2.0 * W_REF) - 1.0)
        assert squeezing_factor(final, 5, 6, "Q") == pytest.approx(expected, abs=1e-8)
        assert squeezing_factor(final, 5, 6, "P") == pytest.approx(expected, abs=1e-8)
        assert squeezing_factor(final, 1, 2, "Q") == pytest.approx(0.0, abs=1e-8)

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError):
            squeezing_factor(CovarianceState(np.eye(8) / 2), 2, 2, "Q")
        with pytest.raises(ValueError):
            squeezing_factor(CovarianceState(np.eye(8) / 2), 0, 1, "X")


class TestConservationLaws:
    @pytest.mark.parametrize("n,pair", [(8, (0, 1)), (8, (2, 3)), (12, (1, 2))])
    def test_squeezing_conserved_at_transfer(self, n, pair):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        initial = tmsv_covariance(TmsvParams(0.6, 0.0, pair), n)
        evo = symplectic_from_propagator(propagator(spec, ZPST))
        final = evolve_covariance(initial, evo)
        shifted = tuple((m + n // 2) % n for m in pair)
        for quad in ("Q", "P"):
            assert squeezing_factor(final, *shifted, quad) == pytest.approx(
                squeezing_factor(initial, *pair, quad), abs=1e-8
            )

    def test_per_mode_heisenberg_floor(self):
        initial = tmsv_covariance(TmsvParams(W_REF, 0.0, (1, 2)), 8)
        for z in np.linspace(0.0, ZPST, 12):
            evo = symplectic_from_propagator(propagator(N8, float(z)))
            v = evolve_covariance(initial, evo).matrix
            for j in range(8):
                product = v[2 * j, 2 * j] * v[2 * j + 1, 2 * j + 1]
                assert product >= 0.25 - 1e-9


def random_covariances(rng, count, n_modes):
    """Mixed physical covariances M D M^T, M a random symplectic map.

    D is thermal (nu_k >= 1/2 per mode) and M a realified random unitary
    after single-mode squeezers, so the symplectic spectrum is the nu_k.
    """
    states = []
    for _ in range(count):
        z = rng.normal(size=(2, n_modes, n_modes))
        u = np.linalg.qr(z[0] + 1j * z[1])[0]
        squeeze = np.diag(np.exp(np.kron(rng.uniform(-1, 1, n_modes), [1.0, -1.0])))
        passive = symplectic_from_propagator(SimpleNamespace(matrix=u))
        m = passive.matrix @ squeeze
        thermal = np.diag(np.repeat(0.5 + rng.exponential(size=n_modes), 2))
        v = m @ thermal @ m.T
        states.append(0.5 * (v + v.T))
    return states


def beam_splitter(n_modes, j, k, angle):
    """Symplectic matrix of a beam splitter of mixing angle ``angle`` on modes j, k."""
    m = np.eye(2 * n_modes)
    c, s = math.cos(angle), math.sin(angle)
    for q in (0, 1):
        a, b = 2 * j + q, 2 * k + q
        m[a, a], m[a, b], m[b, a], m[b, b] = c, s, -s, c
    return m


@st.composite
def physical_covariances(draw):
    """Passive map times single-mode squeezers times a thermal state, 1-4 modes.

    A pure draw has no thermal excess, so nu = 1/2 on every mode: the
    spectrum is fully degenerate.  Otherwise some modes may still be pure.
    """
    n = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    z = np.array(draw(st.lists(unit, min_size=2 * n * n, max_size=2 * n * n)))
    z = z.reshape(2, n, n) + np.eye(n)  # keeps the QR input nonsingular
    u = np.linalg.qr(z[0] + 1j * z[1])[0]
    passive = symplectic_from_propagator(SimpleNamespace(matrix=u)).matrix
    r = draw(st.lists(unit, min_size=n, max_size=n))
    squeeze = np.diag(np.exp(np.kron(r, [1.0, -1.0])))
    excess = st.just(0.0) | st.floats(0.0, 3.0)
    pure = draw(st.booleans())
    nus = 0.5 + np.array([0.0 if pure else draw(excess) for _ in range(n)])
    m = passive @ squeeze
    v = m @ np.diag(np.repeat(nus, 2)) @ m.T
    return 0.5 * (v + v.T), np.sort(nus)


class TestSymplecticEigenvalues:
    @settings(max_examples=200, deadline=None)
    @given(physical_covariances())
    def test_matches_the_eigenvalues_of_i_omega_v(self, drawn):
        # i Omega V has eigenvalues +-nu_k (Williamson); an independent
        # general eigensolver, not the Cholesky route, is the oracle
        v, nus = drawn
        omega = symplectic_form(len(v) // 2)
        oracle = np.sort(np.abs(np.linalg.eigvals(1j * omega @ v)))[::2]
        values = symplectic_eigenvalues(v)
        bound = 1e-12 * np.linalg.norm(v, 2)
        assert np.abs(values - oracle).max() <= bound
        assert np.abs(values - nus).max() <= bound
        CovarianceState(v)

    @pytest.mark.parametrize("n_modes", [2, 3])
    @pytest.mark.parametrize("nu_max", [1e4, 1e5, 1e6])
    def test_pure_mode_mixed_with_a_hot_thermal_mode(self, n_modes, nu_max):
        # beam splitters mix a pure mode (nu = 1/2) with a thermal one, so
        # A^T A is not diagonal; an eigensolver of A^T A would lose nu_min
        # to about eps nu_max^2 (7e-9 at 1e4, 7e-7 at 1e5), past the floor
        nus = np.full(n_modes, 0.5)
        nus[-1] = nu_max
        mix = beam_splitter(n_modes, 0, n_modes - 1, 0.7)
        if n_modes == 3:
            mix = beam_splitter(n_modes, 1, 2, 0.3) @ mix
        v = mix @ np.diag(np.repeat(nus, 2)) @ mix.T
        v = 0.5 * (v + v.T)
        values = symplectic_eigenvalues(v)
        assert np.abs(values - nus).max() <= 1e-12 * nu_max
        assert abs(values[0] - 0.5) <= 1e-10
        CovarianceState(v)

    @pytest.mark.parametrize("n_modes", [1, 2, 3])
    @pytest.mark.parametrize("size", [1e-300, 1e160, 1e300])
    def test_entries_near_the_ends_of_the_float_range(self, n_modes, size):
        # nothing is squared, so tiny and huge covariances keep their
        # spectrum without a RuntimeWarning (which fails the run)
        eye = np.eye(2 * n_modes)
        assert symplectic_eigenvalues(size * eye) == pytest.approx([size] * n_modes, rel=1e-15)
        for v in random_covariances(np.random.default_rng(n_modes), 4, n_modes):
            scaled = symplectic_eigenvalues(size * v) / size
            assert np.abs(scaled - symplectic_eigenvalues(v)).max() <= 1e-12 * np.abs(v).max()
        if size < 1:  # below the vacuum floor
            with pytest.raises(ValueError, match="min symplectic eigenvalue"):
                CovarianceState(size * eye)
        else:
            CovarianceState(size * eye)

    @pytest.mark.parametrize("n_modes", [1, 2, 4])
    def test_vacuum_floor_tolerance(self, n_modes):
        # s I / 2 has nu = s / 2 on every mode; the floor is 1/2 - 1e-9
        eye = np.eye(2 * n_modes)
        inside = 0.5 - 0.5e-9
        assert symplectic_eigenvalues(inside * eye) == pytest.approx(inside, abs=1e-15)
        CovarianceState(inside * eye)
        with pytest.raises(ValueError, match="min symplectic eigenvalue"):
            CovarianceState((0.5 - 2e-9) * eye)


# nu - 1/2 on each side of the floor 1/2 - 1e-9: -2e-9 and -1e-8 fall below it
NU_OFFSETS = (0.0, 1e-12, 1e-10, -1e-10, -2e-9, 1e-8, -1e-8, 1e-3, 1.0)


@st.composite
def squeezed_states(draw):
    """A covariance P2 S P1 diag(nu) (P2 S P1)^T of 1-4 modes, |r| <= 3.5.

    P1, P2 are passive maps and S single-mode squeezers; each nu_k lies
    at 1/2 + one of ``NU_OFFSETS``, so some states reach below the floor.
    """
    n = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0)
    passives = []
    for _ in range(2):
        z = np.array(draw(st.lists(unit, min_size=2 * n * n, max_size=2 * n * n)))
        z = z.reshape(2, n, n) + np.eye(n)  # keeps the QR input nonsingular
        u = np.linalg.qr(z[0] + 1j * z[1])[0]
        passives.append(symplectic_from_propagator(SimpleNamespace(matrix=u)).matrix)
    r = draw(st.lists(st.floats(-3.5, 3.5), min_size=n, max_size=n))
    nus = 0.5 + np.array(draw(st.lists(st.sampled_from(NU_OFFSETS), min_size=n, max_size=n)))
    m = passives[1] @ np.diag(np.exp(np.kron(r, [1.0, -1.0]))) @ passives[0]
    v = m @ np.diag(np.repeat(nus, 2)) @ m.T
    return 0.5 * (v + v.T), nus.min()


def accepted(v):
    try:
        CovarianceState(v)
    except ValueError:
        return False
    return True


class TestBonaFideDecision:
    @settings(max_examples=600, deadline=None)
    @given(squeezed_states())
    def test_cholesky_decides_like_the_spectrum(self, drawn):
        # up to r = 3.5 rounding moves nu far less than the floor's 1e-9,
        # so both criteria give the true answer
        v, lowest = drawn
        floor = 0.5 - 1e-9
        assert accepted(v) == (symplectic_eigenvalues(v).min() >= floor) == (lowest >= floor)

    @pytest.mark.parametrize(
        "n_modes,width", [(8, 3), (64, 31)], ids=["readme", "gaussian-steps"]
    )
    def test_tmsv_computes_no_spectrum(self, tmp_path, monkeypatch, n_modes, width):
        calls = []
        spectrum = pstnet.gaussian.symplectic_eigenvalues

        def counted(matrix):
            calls.append(matrix.shape)
            return spectrum(matrix)

        monkeypatch.setattr(pstnet.gaussian, "symplectic_eigenvalues", counted)
        argv = ["tmsv", "--n", str(n_modes), "--profile", f"uniform:C=1,R={width}",
                "--w", "0.881374", "--pair", "1,2", "--z-max", "pi", "--dz", "0.01",
                "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert calls == []
        # a refusal reads the spectrum once, to word its message
        with pytest.raises(ValueError):
            CovarianceState(0.1 * np.eye(4))
        assert calls == [(4, 4)]

    def test_an_uncertified_state_is_refused_by_name(self):
        # at w = 7 V holds about 3e5 and rounding moves nu by about 1e-5:
        # the spectrum reads above the floor, the Cholesky fails
        s = pstnet.gaussian._squeeze_map(7.0, 0.0, 0, 1, 2)
        assert symplectic_eigenvalues(0.5 * s @ s.T).min() >= 0.5 - 1e-9
        message = (
            r"^covariance matrix is unphysical \(min symplectic eigenvalue [0-9.]+, but"
            r" physicality cannot be certified in double precision\)$"
        )
        with pytest.raises(ValueError, match=message):
            tmsv_covariance(TmsvParams(7.0, 0.0, (0, 1)), 2)
