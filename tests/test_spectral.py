import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pstnet import (
    DegeneracyBin,
    DegeneracyHistogram,
    NetworkSpec,
    Spectrum,
    collapsed_spectrum,
    coupling_matrix,
    custom_profile,
    default_bin_tolerance,
    degeneracy_histogram,
    dispersion,
    evanescent_profile,
    opposite_site_spectrum,
    uniform_profile,
)
from pstnet.lattice import coupling_row
from pstnet.spectral import degenerate_groups


def _spec(n, profile):
    return NetworkSpec(n, profile)


class TestDispersion:
    def test_three_block_collapse_n8(self):
        lam = dispersion(_spec(8, uniform_profile(1.0, 3))).eigenvalues
        assert lam[0] == pytest.approx(6.0, abs=1e-12)
        assert lam[[1, 3, 5, 7]] == pytest.approx([0.0] * 4, abs=1e-12)
        assert lam[[2, 4, 6]] == pytest.approx([-2.0] * 3, abs=1e-12)

    def test_nearest_neighbour_cosine(self):
        lam = dispersion(_spec(4, uniform_profile(1.0, 1))).eigenvalues
        assert lam == pytest.approx([2.0, 0.0, -2.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize(
        "n,profile",
        [
            (12, evanescent_profile(0.5, 6)),
            (8, uniform_profile(1.0, 4)),
            (9, custom_profile([0.7, 0.2, 0.4, 0.1])),
            (16, evanescent_profile(0.815, 5)),
        ],
    )
    def test_matches_dense_eigensolver(self, n, profile):
        spec = _spec(n, profile)
        by_formula = np.sort(dispersion(spec).eigenvalues)
        by_solver = np.sort(np.linalg.eigvalsh(coupling_matrix(spec)))
        assert np.abs(by_formula - by_solver).max() < 1e-9

    def test_mirror_symmetry_in_p(self):
        lam = dispersion(_spec(12, evanescent_profile(0.5, 6))).eigenvalues
        assert np.abs(lam[1:] - lam[1:][::-1]).max() < 1e-12


class TestCollapsedSpectrum:
    @pytest.mark.parametrize(
        "n,top,zeros,lows", [(8, 6.0, 4, 3), (12, 10.0, 6, 5), (4, 2.0, 2, 1)]
    )
    def test_block_counts(self, n, top, zeros, lows):
        lam = collapsed_spectrum(n, 1.0).eigenvalues
        assert lam[0] == top
        assert int((lam == 0.0).sum()) == zeros
        assert int((lam == -2.0).sum()) == lows

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 64, 1024, 4096])
    def test_matches_dispersion_elementwise(self, n):
        spec = _spec(n, uniform_profile(1.0, n // 2 - 1))
        assert dispersion(spec).eigenvalues == pytest.approx(
            collapsed_spectrum(n, 1.0).eigenvalues, abs=1e-12
        )

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            collapsed_spectrum(7, 1.0)


class TestOppositeSiteSpectrum:
    def test_values(self):
        lam8 = np.sort(opposite_site_spectrum(8, 1.0).eigenvalues)
        assert lam8 == pytest.approx([-1.0] * 7 + [7.0], abs=1e-12)
        lam4 = np.sort(opposite_site_spectrum(4, 1.0).eigenvalues)
        assert lam4 == pytest.approx([-1.0] * 3 + [3.0], abs=1e-12)

    def test_dispersion_cross_check(self):
        # all-to-all profile, independent code path through the FFT
        for n in (4, 8, 64, 1024, 4096):
            lam = dispersion(_spec(n, uniform_profile(1.0, n // 2))).eigenvalues
            assert lam == pytest.approx(
                opposite_site_spectrum(n, 1.0).eigenvalues, abs=1e-12
            )

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            opposite_site_spectrum(5, 1.0)


class TestSpectrumType:
    def test_rejects_asymmetric_lists(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 2.0, 3.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_eigenvalues(self, bad):
        with pytest.raises(ValueError, match="spectrum is not finite"):
            Spectrum((bad, -1.0, -1.0, -1.0))

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), (), 0.0])
    def test_rejects_input_that_is_not_one_dimensional(self, bad):
        with pytest.raises(ValueError, match="nonempty 1-D array"):
            Spectrum(bad)

    def test_eigenvalues_are_a_read_only_copy(self):
        source = np.array([3.0, -1.0, -1.0, -1.0])
        spectrum = Spectrum(source)
        source[0] = 0.0
        assert spectrum.eigenvalues.tolist() == [3.0, -1.0, -1.0, -1.0]
        assert spectrum.n_modes == 4
        with pytest.raises(ValueError):
            spectrum.eigenvalues[0] = 0.0

    def test_overflowing_couplings_are_rejected(self):
        with pytest.raises(ValueError, match="spectrum is not finite"):
            dispersion(_spec(4, custom_profile([1e308, 1e308])))

    def test_rejects_nonzero_trace(self):
        with pytest.raises(ValueError):
            Spectrum((1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "profile", [uniform_profile(1.0, 3), evanescent_profile(0.5, 4)]
    )
    def test_trace_free(self, profile):
        lam = dispersion(_spec(12, profile)).eigenvalues
        assert abs(lam.sum()) < 1e-10


class TestDegeneracyHistogram:
    def test_collapsed_n12_bins(self):
        hist = degeneracy_histogram(collapsed_spectrum(12, 1.0), 1e-9)
        assert [b.multiplicity for b in hist.bins] == [5, 6, 1]
        assert [b.eigenvalue for b in hist.bins] == pytest.approx([-2.0, 0.0, 10.0], abs=1e-12)

    def test_nearest_neighbour_band(self):
        # lambda_p = 2 cos(2 pi p / 12): doubly degenerate except both edges
        hist = degeneracy_histogram(dispersion(_spec(12, uniform_profile(1.0, 1))), 1e-9)
        assert [b.multiplicity for b in hist.bins] == [1, 2, 2, 2, 2, 2, 1]
        expected = sorted(2.0 * np.cos(2.0 * np.pi * p / 12) for p in range(7))
        assert [b.eigenvalue for b in hist.bins] == pytest.approx(expected, abs=1e-12)

    def test_evanescent_spectrum_is_broadened(self):
        hist = degeneracy_histogram(
            dispersion(_spec(12, evanescent_profile(0.5, 6))), 1e-9
        )
        assert len(hist.bins) > 3

    @pytest.mark.parametrize("n", [5, 8, 12])
    def test_multiplicities_sum_to_n(self, n):
        rng = np.random.default_rng(n)
        spec = _spec(n, custom_profile(rng.uniform(0.1, 1.0, size=n // 2)))
        hist = degeneracy_histogram(dispersion(spec))
        assert sum(b.multiplicity for b in hist.bins) == n

    def test_a_run_of_small_gaps_is_cut_at_the_tolerance(self):
        # sorted: -3.2, 0, 0, 0.8, 0.8, 1.6; every gap after the first is
        # below tol = 1, but the run spans 1.6, so it may not be one bin
        spectrum = Spectrum((-3.2, 0.0, 0.8, 1.6, 0.8, 0.0))
        hist = degeneracy_histogram(spectrum, 1.0)
        assert [b.multiplicity for b in hist.bins] == [1, 4, 1]
        assert [b.eigenvalue for b in hist.bins] == pytest.approx([-3.2, 0.4, 1.6], abs=1e-15)

    def test_loose_tolerance_on_the_evanescent_ring(self):
        # the lowest five eigenvalues span 0.069 in gaps below tol = 0.05
        spectrum = dispersion(_spec(12, evanescent_profile(0.815, 6)))
        hist = degeneracy_histogram(spectrum, 0.05)
        assert [b.multiplicity for b in hist.bins] == [3, 2, 4, 2, 1]
        assert [b.multiplicity for b in degeneracy_histogram(spectrum).bins] == [1, 2, 2, 2, 2, 2, 1]

    def test_type_validates_total(self):
        with pytest.raises(ValueError):
            DegeneracyHistogram(3, 1e-9, (DegeneracyBin(0.0, 2),))

    def test_default_tolerance_scales(self):
        spectrum = collapsed_spectrum(12, 1.0)
        assert default_bin_tolerance(spectrum) == pytest.approx(1e-8, rel=1e-12)


class TestFourierMatrix:
    def test_diagonalizes_coupling_matrix(self):
        # S[j, p] = exp(2i pi j p / N) / sqrt(N)
        spec = _spec(8, uniform_profile(1.0, 3))
        s = np.fft.ifft(np.eye(8), axis=0, norm="ortho")
        d = s.conj().T @ coupling_matrix(spec) @ s
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() < 1e-10
        assert np.abs(np.diag(d).real - dispersion(spec).eigenvalues).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 12, 16, 17])
def test_fourier_identity(n):
    # sum over a full period of any nonzero harmonic vanishes
    r = np.arange(n)
    for p in range(1, n):
        assert abs(np.exp(2j * np.pi * p * r / n).sum()) < 1e-12


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
def test_collapse_identity(n):
    for p in range(1, n):
        total = 1.0 + (-1.0) ** p + 2.0 * sum(
            np.cos(2.0 * np.pi * p * r / n) for r in range(1, n // 2)
        )
        assert abs(total) < 1e-11


@pytest.mark.parametrize("n", [8, 12, 16])
def test_uniform_has_more_zero_modes_than_evanescent(n):
    reach = n // 2 - 1
    uniform_zeros = int(
        (np.abs(collapsed_spectrum(n, 1.0).eigenvalues) < 1e-9).sum()
    )
    assert uniform_zeros == n // 2
    lam = dispersion(_spec(n, evanescent_profile(0.5, reach))).eigenvalues
    assert int((np.abs(lam) < 1e-9).sum()) < uniform_zeros


class TestFloatLimit:
    """Finite spectra whose sums of eigenvalues overflow a float."""

    def test_the_n9_row_builds_without_a_warning(self):
        # eigenvalues up to 1.7e308 in magnitude, whose plain sum overflows
        # though their sum scaled by max|lambda| is about -5.6e-17
        row = coupling_row(_spec(9, custom_profile([5e307, -5e307])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spectrum = Spectrum(np.fft.fft(row).real)
            hist = degeneracy_histogram(spectrum)
        assert [b.multiplicity for b in hist.bins] == [2, 3, 2, 2]
        _, starts = degenerate_groups(spectrum, hist.tolerance)
        for b, chunk in zip(hist.bins, np.split(np.sort(spectrum.eigenvalues), starts[1:])):
            assert b.eigenvalue == pytest.approx(4.0 * np.mean(chunk / 4.0), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 16),
        couplings=st.lists(
            st.floats(-1e308, 1e308) | st.sampled_from([5e307, -5e307, 1e308]),
            min_size=1,
            max_size=8,
        ),
        tolerance=st.none() | st.floats(1e-300, 1e308),
    )
    @example(n=7, couplings=[5e307, -5e307], tolerance=None)  # a bin at -1.5e308
    @example(n=2, couplings=[1e308], tolerance=None)  # a gap of 2e308
    @example(n=7, couplings=[8.500832248046666e-309], tolerance=8.5e-309)  # subnormal means
    def test_bin_means_keep_their_bits_unless_their_sum_overflows(self, n, couplings, tolerance):
        assume(len(couplings) <= n // 2)
        spec = _spec(n, custom_profile(couplings))
        with np.errstate(over="ignore", invalid="ignore"):
            assume(np.isfinite(np.fft.fft(coupling_row(spec)).real).all())
        spectrum = spec.spectrum
        hist = degeneracy_histogram(spectrum, tolerance)
        _, starts = degenerate_groups(spectrum, hist.tolerance)
        chunks = np.split(np.sort(spectrum.eigenvalues), starts[1:])
        assert [b.multiplicity for b in hist.bins] == [chunk.size for chunk in chunks]
        for b, chunk in zip(hist.bins, chunks):
            with np.errstate(over="ignore", invalid="ignore"):
                plain = chunk.mean()
            if math.isfinite(plain):  # bit for bit, the sign of a zero too
                assert np.float64(b.eigenvalue).view(np.int64) == plain.view(np.int64)
            else:  # finite, and within rounding of the exact mean
                top = np.abs(chunk).max()
                exact = math.fsum(chunk / top) / chunk.size
                assert abs(b.eigenvalue / top - exact) <= chunk.size * 2.0**-52
