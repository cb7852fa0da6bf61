import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pstnet import (
    CatState,
    DegenerateCatError,
    NetworkSpec,
    cat_fidelity,
    cat_fidelity_scan,
    cat_normalization,
    custom_profile,
    evanescent_profile,
    photon_numbers,
    pst_distance,
    uniform_profile,
)

N8 = NetworkSpec(8, uniform_profile(1.0, 3))
N12 = NetworkSpec(12, uniform_profile(1.0, 5))
ZPST = pst_distance(1.0)


class TestPhotonNumbers:
    def test_initial_occupation(self):
        occ = photon_numbers(N8, 3, 0.0)
        assert occ[3] == pytest.approx(1.0, abs=1e-14)
        assert occ.sum() == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_transfer_n8(self):
        occ = photon_numbers(N8, 1, ZPST)
        assert occ[5] == pytest.approx(1.0, abs=1e-10)
        assert np.delete(occ, 5).max() < 1e-10

    def test_antipodal_transfer_n12(self):
        occ = photon_numbers(N12, 1, ZPST)
        assert occ[7] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "spec", [N8, N12, NetworkSpec(9, evanescent_profile(0.6, 4))]
    )
    def test_occupations_sum_to_one(self, spec):
        for z in np.linspace(0.0, 4.0, 17):
            occ = photon_numbers(spec, 0, float(z))
            assert occ.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            photon_numbers(N8, 8, 0.0)


@st.composite
def photon_inputs(draw):
    n = draw(st.integers(2, 24))
    reach = draw(st.integers(1, n // 2))
    couplings = draw(st.lists(st.floats(-2.0, 2.0), min_size=reach, max_size=reach))
    source = draw(st.integers(0, n - 1))
    zs = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=16))
    return NetworkSpec(n, custom_profile(couplings)), source, zs


@given(photon_inputs())
def test_an_array_of_z_is_the_stacked_one_z_calls(inputs):
    spec, source, zs = inputs
    got = photon_numbers(spec, source, np.array(zs))
    one_z = [photon_numbers(spec, source, z) for z in zs]
    assert all(row.shape == (spec.n_modes,) for row in one_z)
    assert got.shape == (len(zs), spec.n_modes)
    assert np.array_equal(got, np.stack(one_z))
    assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12


class TestCatNormalization:
    def test_vacuum_even_cat(self):
        assert cat_normalization(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_orthogonal_branch_limit(self):
        assert cat_normalization(40.0, 1.2) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-12
        )

    def test_odd_cat_at_unit_amplitude(self):
        expected = (2.0 - 2.0 * math.exp(-2.0)) ** -0.5
        value = cat_normalization(1.0, math.pi)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(0.7604, abs=1e-4)

    def test_degenerate_corner_rejected(self):
        with pytest.raises(DegenerateCatError):
            cat_normalization(0.0, math.pi)
        with pytest.raises(DegenerateCatError):
            cat_normalization(1e-7, math.pi + 1e-9)

    def test_complex_alpha_rejected(self):
        with pytest.raises(ValueError):
            cat_normalization(1.0 + 0.5j, 0.0)

    def test_cat_state_carries_normalization(self):
        cat = CatState(1.0, math.pi)
        assert cat.normalization == pytest.approx(
            cat_normalization(1.0, math.pi), abs=0
        )
        with pytest.raises(DegenerateCatError):
            CatState(0.0, math.pi)

    @pytest.mark.parametrize("alpha", [40.0, -40.0, 26.7, 1e200])
    def test_alpha_whose_exponential_overflows_is_refused(self, alpha):
        # alpha^2 > 709: exp(alpha^2) in the fidelity would overflow to nan
        with pytest.raises(ValueError, match="is too large"):
            CatState(alpha, 0.0)
        with pytest.raises(ValueError, match="is too large"):
            cat_fidelity_scan(N12, 1, 7, alpha, 0.0, z_max=1.0)

    def test_largest_alpha_stays_finite(self):
        cat = CatState(26.6, 0.0)  # alpha^2 = 707.56
        with np.errstate(over="raise", invalid="raise"):
            values = cat.fidelity(np.array([1.0, -1.0, 1j, 0.3 - 0.2j]))
        assert np.isfinite(values).all()
        assert values[:2] == pytest.approx([1.0, 1.0], abs=1e-12)


class TestPstCatFidelity:
    """At a perfect-transfer distance the amplitude is -1."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("phi", [0.0, math.pi])
    def test_even_and_odd_cats_arrive_perfectly(self, alpha, phi):
        assert CatState(alpha, phi).fidelity(-1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0 / math.sqrt(2.0), 1.0])
    def test_phase_sensitive_cat_decays(self, alpha):
        assert CatState(alpha, math.pi / 2).fidelity(-1.0) == pytest.approx(
            math.exp(-4.0 * alpha**2), abs=1e-12
        )

    def test_reference_value(self):
        assert CatState(0.5, math.pi / 2).fidelity(-1.0) == pytest.approx(
            math.exp(-1.0), abs=1e-12
        )

    def test_strictly_decreasing_in_alpha(self):
        values = [CatState(a, math.pi / 2).fidelity(-1.0) for a in (0.2, 0.5, 0.9, 1.4, 2.0)]
        assert all(hi > lo for hi, lo in zip(values, values[1:]))

    def test_sign_of_alpha_irrelevant(self):
        for phi in (0.0, 1.0, math.pi / 2):
            assert CatState(0.8, phi).fidelity(-1.0) == pytest.approx(
                CatState(-0.8, phi).fidelity(-1.0), abs=1e-15
            )


class TestCatFidelity:
    def test_unit_at_origin(self):
        for phi in (0.0, math.pi / 2, math.pi, 1.1):
            assert cat_fidelity(N12, 3, 3, 0.7, phi, 0.0) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("phi", [0.0, math.pi])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_even_and_odd_cats_transfer(self, phi, alpha):
        assert cat_fidelity(N12, 1, 7, alpha, phi, ZPST) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_phase_sensitive_value_at_transfer(self):
        value = cat_fidelity(N12, 1, 7, 1.0 / math.sqrt(2.0), math.pi / 2, ZPST)
        assert value == pytest.approx(math.exp(-2.0), abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.9, 1.7])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, 2.2])
    def test_consistent_with_closed_form_at_transfer(self, alpha, phi):
        general = cat_fidelity(N12, 0, 6, alpha, phi, ZPST)
        assert general == pytest.approx(CatState(alpha, phi).fidelity(-1.0), abs=1e-10)

    def test_degenerate_parameters_propagate(self):
        with pytest.raises(DegenerateCatError):
            cat_fidelity(N12, 1, 7, 0.0, math.pi, 1.0)


class TestCatFidelityScan:
    def test_phase_sensitive_maximum(self):
        alpha = 1.0 / math.sqrt(2.0)
        result = cat_fidelity_scan(N12, 1, 7, alpha, math.pi / 2, z_max=2 * math.pi)
        # the best the phi = pi/2 cat can do is exp(-2 alpha^2), at the revival
        assert result.max_value == pytest.approx(math.exp(-2.0 * alpha**2), abs=1e-6)
        assert result.max_value == pytest.approx(0.36, abs=0.05)

    def test_small_alpha_phase_sensitive_maximum(self):
        result = cat_fidelity_scan(N12, 1, 7, 0.5, math.pi / 2, z_max=2 * math.pi)
        assert result.max_value == pytest.approx(0.6, abs=0.05)

    def test_even_cat_reaches_unity_at_transfer_distance(self):
        result = cat_fidelity_scan(N12, 1, 7, 1.0, 0.0, z_max=2 * math.pi)
        assert result.max_value == pytest.approx(1.0, abs=1e-9)
        assert result.z_at_max == pytest.approx(ZPST, abs=1e-5)

    def test_trace_is_bounded(self, scan_trace):
        _, _, values = scan_trace(cat_fidelity_scan, N12, 1, 7, 0.8, 0.3, z_max=3.0, dz=0.01)
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all(values >= 0.0)


class TestChecksWithoutAssert:
    @pytest.mark.parametrize(
        "alpha,phi", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan), (0.5, -math.inf)]
    )
    def test_non_finite_parameters_are_rejected(self, alpha, phi):
        with pytest.raises(ValueError, match="must be finite"):
            cat_fidelity_scan(N12, 1, 7, alpha, phi, z_max=1.0)
        with pytest.raises(ValueError, match="must be finite"):
            CatState(alpha, phi).fidelity(-1.0)

    def test_fidelity_above_one_raises_value_error(self):
        from pstnet.fock import _clamped

        assert _clamped(1.0 + 1e-13) == 1.0
        for bad in (1.0 + 1e-9, math.nan):
            with pytest.raises(ValueError, match="exceeds 1"):
                _clamped(bad)
