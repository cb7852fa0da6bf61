import math

import numpy as np
import pytest

from pstnet import (
    NetworkSpec,
    Propagator,
    check_pst,
    closed_form_amplitude,
    coupling_matrix,
    custom_profile,
    evanescent_profile,
    ode_oracle,
    propagator,
    pst_distance,
    transfer_scan,
    uniform_profile,
)

N8 = NetworkSpec(8, uniform_profile(1.0, 3))
N12 = NetworkSpec(12, uniform_profile(1.0, 5))


def _random_spec(rng):
    n = int(rng.integers(2, 17))
    reach = int(rng.integers(1, n // 2 + 1))
    return NetworkSpec(n, custom_profile(rng.uniform(0.1, 1.0, size=reach)))


class TestPropagator:
    def test_identity_at_zero(self):
        u = propagator(N8, 0.0).matrix
        assert np.abs(u - np.eye(8)).max() < 1e-14

    def test_antipodal_arrival_with_phase(self):
        u = propagator(N8, math.pi / 2).matrix
        assert u[5, 1] == pytest.approx(-1.0, abs=1e-12)
        others = np.delete(u[:, 1], 5)
        assert np.abs(others).max() < 1e-12

    def test_revival_at_pi(self):
        u = propagator(N8, math.pi).matrix
        assert abs(u[1, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 0.37, math.pi / 2, 11.0])
    def test_unitary(self, z):
        u = propagator(N12, z).matrix
        assert np.abs(u @ u.conj().T - np.eye(12)).max() < 1e-10

    def test_circulant_structure(self):
        rng = np.random.default_rng(7)
        spec = _random_spec(rng)
        n = spec.n_modes
        u = propagator(spec, 1.3).matrix
        for j in range(n):
            for l in range(n):
                assert u[j, l] == pytest.approx(u[(j + 1) % n, (l + 1) % n], abs=1e-13)

    def test_agrees_with_dense_matrix_exponential(self):
        # independent route: eigendecomposition of the dense coupling matrix
        rng = np.random.default_rng(21)
        spec = _random_spec(rng)
        z = 0.9
        lam, vec = np.linalg.eigh(coupling_matrix(spec))
        expm = (vec * np.exp(-1j * lam * z)) @ vec.conj().T
        assert np.abs(propagator(spec, z).matrix - expm).max() < 1e-10

    def test_type_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Propagator(np.eye(4) * 2.0)

    def test_type_rejects_nan(self):
        # a nan defect compares false against any bound
        with pytest.raises(ValueError, match="propagator is not unitary"):
            Propagator(np.full((2, 2), np.nan))

    def test_rejects_non_finite_z(self):
        with pytest.raises(ValueError):
            propagator(N8, math.inf)


class TestClosedForm:
    def test_antipodal_at_pst_distance(self):
        assert closed_form_amplitude(8, 1.0, 4, math.pi / 2) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_destructive_interference_off_target(self):
        assert abs(closed_form_amplitude(8, 1.0, 2, math.pi / 2)) < 1e-12

    def test_n10_partial_transfer(self):
        # e^{-i8z} = +1 and e^{i2z} = -1 at z = pi/2
        value = closed_form_amplitude(10, 1.0, 5, math.pi / 2)
        assert value == pytest.approx(-0.8, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("z", [0.0, 0.3, math.pi / 2, 1.7])
    def test_matches_spectral_propagator(self, n, z):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        u = propagator(spec, z).matrix
        for d in range(n):
            assert closed_form_amplitude(n, 1.0, d, z) == pytest.approx(
                complex(u[d, 0]), abs=1e-12
            )

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            closed_form_amplitude(7, 1.0, 3, 0.5)


class TestPstDistance:
    def test_values(self):
        assert pst_distance(1.0) == pytest.approx(math.pi / 2, abs=0)
        assert pst_distance(2.0) == pytest.approx(math.pi / 4, abs=0)
        assert pst_distance(1.0, s=1) == pytest.approx(3 * math.pi / 2, abs=0)

    @pytest.mark.parametrize("strength,s", [(1e-320, 0), (5e-324, 0), (1e-300, 10**10)])
    def test_refuses_a_distance_that_overflows(self, strength, s):
        with pytest.raises(ValueError, match="is too small: the distance .* overflows"):
            pst_distance(strength, s)

    def test_phase_synchronization(self):
        # all three spectral blocks acquire the phases needed for transfer
        for n in (4, 8, 12, 16):
            for s in (0, 1):
                z = pst_distance(1.0, s)
                assert np.exp(2j * z) == pytest.approx(-1.0, abs=1e-12)
                assert np.exp(-1j * (n - 2) * z) == pytest.approx(-1.0, abs=1e-12)


class TestCheckPst:
    def test_n8_transfers(self):
        report = check_pst(N8, source=1)
        assert report.is_pst
        assert report.z_pst == pytest.approx(math.pi / 2)
        assert report.target == 5
        assert report.amplitude_at_zpst == pytest.approx(-1.0, abs=1e-10)
        assert report.max_transfer == pytest.approx(1.0, abs=1e-9)

    def test_n12_transfers(self):
        report = check_pst(N12, source=1)
        assert report.is_pst and report.target == 7

    def test_n10_fails(self):
        report = check_pst(NetworkSpec(10, uniform_profile(1.0, 4)), source=1)
        assert not report.is_pst
        assert report.z_pst is None
        assert abs(report.amplitude_at_zpst) ** 2 == pytest.approx(0.64, abs=1e-10)

    def test_evanescent_fails(self):
        report = check_pst(NetworkSpec(12, evanescent_profile(0.5, 5)), source=0)
        assert not report.is_pst

    @pytest.mark.parametrize(
        "spec",
        [
            NetworkSpec(8, custom_profile([0.0, 0.0, 0.0, 1.0])),
            NetworkSpec(2, uniform_profile(1.0, 1)),
        ],
        ids=["opposite-site-dimer-n8", "pair-n2"],
    )
    def test_transfer_is_read_from_the_amplitude(self, spec):
        report = check_pst(spec, source=0)
        assert report.is_pst
        assert report.z_pst == pytest.approx(math.pi / 2)
        assert report.amplitude_at_zpst == pytest.approx(-1j, abs=1e-12)

    def test_odd_n_unsupported(self):
        with pytest.raises(ValueError):
            check_pst(NetworkSpec(7, uniform_profile(1.0, 2)), source=0)

    @pytest.mark.parametrize("tol", [0.0, 1.0, math.inf, math.nan])
    def test_tol_outside_open_unit_interval_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            check_pst(N8, source=1, tol=tol)


class TestTransferScan:
    def test_recovers_pst_peak(self):
        result = transfer_scan(N8, 1, 5, z_max=math.pi)
        assert result.max_value == pytest.approx(1.0, abs=1e-10)
        assert result.z_at_max == pytest.approx(math.pi / 2, abs=1e-6)

    def test_trace_shape_and_bounds(self, scan_trace):
        _, zs, values = scan_trace(transfer_scan, N12, 0, 6, z_max=2.0, dz=0.01)
        assert zs[0] == pytest.approx(0.01)
        assert zs[-1] <= 2.0 + 1e-9
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0 + 1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            transfer_scan(N8, 0, 4, z_max=-1.0)
        with pytest.raises(ValueError):
            transfer_scan(N8, 0, 4, z_max=1.0, dz=2.0)

    @pytest.mark.parametrize(
        "z_max,dz,message",
        [
            (math.inf, 0.1, "z_max must be finite"),
            (math.nan, 0.1, "z_max must be finite"),
            (-math.inf, 0.1, "z_max must be finite"),
            (1.0, math.nan, "dz must be finite"),
            (1.0, math.inf, "dz must be finite"),
        ],
    )
    def test_rejects_non_finite_grid(self, z_max, dz, message):
        with pytest.raises(ValueError, match=message):
            transfer_scan(N8, 0, 4, z_max=z_max, dz=dz)

    def test_all_zero_couplings_need_an_explicit_step(self, scan_trace):
        spec = NetworkSpec(4, custom_profile([0.0, 0.0]))
        with pytest.raises(ValueError, match="every coupling is zero: the scan needs an explicit dz"):
            transfer_scan(spec, 0, 2, z_max=1.0)
        _, zs, values = scan_trace(transfer_scan, spec, 0, 2, z_max=1.0, dz=0.25)
        assert zs.size == 4 and values.max() <= 1e-30

    def test_default_step_is_clamped_to_the_range(self, scan_trace):
        assert transfer_scan(N8, 0, 4, z_max=1.0).dz == 0.01
        result, zs, _ = scan_trace(transfer_scan, N8, 0, 4, z_max=1e-3)
        assert result.dz == 1e-3
        assert zs.tolist() == [1e-3]


class TestOdeOracle:
    def test_zero_distance_is_identity(self):
        state = np.zeros(8, dtype=complex)
        state[2] = 1.0
        out = ode_oracle(N8, state, 0.0, 10)
        assert np.abs(out - state).max() == 0.0

    def test_single_photon_transfer(self):
        state = np.zeros(8, dtype=complex)
        state[1] = 1.0
        out = ode_oracle(N8, state, math.pi / 2, 4000)
        assert abs(out[5]) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)

    def test_norm_preserved_along_the_way(self):
        rng = np.random.default_rng(3)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        for z in (0.5, 1.5, 3.0):
            out = ode_oracle(N8, state, z, 3000)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-8)

    def test_refuses_coarse_steps_with_guidance(self):
        with pytest.raises(ValueError, match="steps >="):
            ode_oracle(N8, np.ones(8, dtype=complex), 10.0, 100)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_distance(self, z):
        # nan would slip past the step check and inf overflow its message
        with pytest.raises(ValueError, match="^z must be finite$"):
            ode_oracle(N8, np.ones(8, dtype=complex), z, 100)

    def test_matches_propagator_on_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            spec = _random_spec(rng)
            z = float(rng.uniform(0.2, 2.5))
            bound = np.abs(coupling_matrix(spec)).sum(axis=1).max()
            steps = max(1500, int(math.ceil(abs(z) * bound / 0.02)))
            columns = ode_oracle(spec, np.eye(spec.n_modes, dtype=complex), z, steps)
            assert np.abs(columns - propagator(spec, z).matrix).max() < 1e-6


class TestTransferInvariants:
    def test_antipodal_amplitude_independent_of_site(self):
        rng = np.random.default_rng(5)
        for n in (6, 8, 12):
            spec = NetworkSpec(n, custom_profile(rng.uniform(0.1, 1.0, size=n // 2)))
            for z in (0.4, 1.1, 2.9):
                u = propagator(spec, z).matrix
                mags = [abs(u[(j + n // 2) % n, j]) for j in range(n)]
                assert np.ptp(mags) < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_all_to_all_no_go_bound(self, n):
        # cross amplitude (1/N)|e^{-iC(N-1)z} - e^{iCz}| stays below 2/N
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2))
        zs = np.arange(0.01, 20.0, 0.01)
        from pstnet import offset_amplitudes

        amps = offset_amplitudes(spec, zs)[:, 1:]
        assert np.abs(amps).max() <= 2.0 / n + 1e-9
        if n > 2:
            assert np.abs(amps).max() < 1.0

    @pytest.mark.parametrize("n", [6, 10])
    def test_twice_odd_sizes_never_reach_unit_transfer(self, n):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        result = transfer_scan(spec, 0, n // 2, z_max=50.0, dz=0.01)
        assert result.max_value < 1.0 - 1e-3
