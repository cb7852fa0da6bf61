import math

import numpy as np
import pytest

from pstnet import (
    NetworkSpec,
    coupling_matrix,
    custom_profile,
    evanescent_profile,
    mu_from_separation,
    uniform_profile,
)


class TestUniformProfile:
    def test_constant_fill(self):
        assert uniform_profile(1.0, 3).couplings == (1.0, 1.0, 1.0)
        assert uniform_profile(1.0, 1).couplings == (1.0,)
        assert uniform_profile(2.0, 5).couplings == (2.0,) * 5

    @pytest.mark.parametrize("strength", [0.0, -1.0])
    def test_rejects_nonpositive_strength(self, strength):
        with pytest.raises(ValueError):
            uniform_profile(strength, 3)

    @pytest.mark.parametrize("reach", [0, -2, 1.5])
    def test_rejects_bad_range(self, reach):
        with pytest.raises(ValueError):
            uniform_profile(1.0, reach)


class TestEvanescentProfile:
    def test_powers_of_half(self):
        assert evanescent_profile(0.5, 3).couplings == (0.5, 0.25, 0.125)

    @pytest.mark.parametrize("mu", [0.524, 0.815])
    def test_power_law(self, mu):
        profile = evanescent_profile(mu, 6)
        expected = [mu**r for r in range(1, 7)]
        assert profile.couplings == pytest.approx(expected, abs=0)

    @pytest.mark.parametrize("mu", [0.0, 1.0, -0.1, 1.2])
    def test_rejects_mu_outside_unit_interval(self, mu):
        with pytest.raises(ValueError):
            evanescent_profile(mu, 3)


class TestMuFromSeparation:
    def test_analytic_half(self):
        assert mu_from_separation(math.log(2.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_zero_spacing_rejected(self):
        with pytest.raises(ValueError):
            mu_from_separation(1.0, 0.0)
        with pytest.raises(ValueError):
            mu_from_separation(0.0, 1.0)

    def test_inverts_to_fig_value(self):
        # numerically invert exp(-kappa d) = 0.524 for d, then map back
        spacing = -math.log(0.524)
        assert spacing == pytest.approx(0.646, abs=5e-4)
        assert mu_from_separation(1.0, spacing) == pytest.approx(0.524, abs=1e-12)


class TestProfileValidation:
    def test_custom_allows_arbitrary_finite(self):
        assert custom_profile([1.0, -0.3, 0.0]).couplings == (1.0, -0.3, 0.0)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            custom_profile([])
        with pytest.raises(ValueError):
            custom_profile([1.0, math.inf])


class TestNetworkSpec:
    def test_range_capped_at_half(self):
        with pytest.raises(ValueError):
            NetworkSpec(4, uniform_profile(1.0, 3))
        NetworkSpec(4, uniform_profile(1.0, 2))  # r = N/2 is allowed

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            NetworkSpec(1, uniform_profile(1.0, 1))


class TestCouplingMatrix:
    def test_ring_adjacency(self):
        spec = NetworkSpec(4, uniform_profile(1.0, 1))
        expected = np.array(
            [
                [0, 1, 0, 1],
                [1, 0, 1, 0],
                [0, 1, 0, 1],
                [1, 0, 1, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(coupling_matrix(spec), expected)

    def test_first_row_with_antipodal_gap(self):
        spec = NetworkSpec(8, uniform_profile(1.0, 3))
        assert np.array_equal(
            coupling_matrix(spec)[0], np.array([0, 1, 1, 1, 0, 1, 1, 1], dtype=float)
        )

    def test_opposite_site_not_double_added(self):
        spec = NetworkSpec(4, uniform_profile(1.0, 2))
        assert np.array_equal(coupling_matrix(spec)[0], np.array([0.0, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("n,reach", [(4, 2), (7, 3), (8, 3), (12, 6), (16, 5)])
    def test_exactly_symmetric_and_translation_invariant(self, n, reach):
        rng = np.random.default_rng(n * 31 + reach)
        spec = NetworkSpec(n, custom_profile(rng.uniform(0.1, 1.0, size=reach)))
        m = coupling_matrix(spec)
        assert np.array_equal(m, m.T)
        row_sums = m.sum(axis=1)
        assert np.allclose(row_sums, row_sums[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_collapse_profile_has_zero_antipodal_entry(self, n):
        spec = NetworkSpec(n, uniform_profile(1.0, n // 2 - 1))
        m = coupling_matrix(spec)
        assert all(m[j, (j + n // 2) % n] == 0.0 for j in range(n))
