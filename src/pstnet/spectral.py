"""Fourier-mode spectra of circulant coupling matrices.

A circulant matrix is diagonalized by the discrete Fourier transform,
so its eigenvalues are the DFT of its first row: ``dispersion`` is one
FFT of ``coupling_row``.  Because the row holds C_r at columns r and
N - r, the FFT equals the cosine sum

    lambda_p = sum_r w_r * C_r * cos(2 pi p r / N),   p = 0..N-1

with weight w_r = 2 except at the opposite-site separation r = N/2
(even N only), which enters once.  Two closed-form special cases are
provided: the uniform profile with range N/2 - 1, whose spectrum
collapses onto the three values {C(N-2), 0, -2C}, and the all-to-all
profile including r = N/2, which gives {C(N-1), -C}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import NetworkSpec, coupling_row


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a circulant coupling matrix, ordered by Fourier index p.

    The eigenvalues must be finite, real symmetric circulants satisfy
    ``lambda_p == lambda_{N-p}`` and have zero trace (the coupling
    matrix has an empty diagonal); all three are checked on construction.  The read-only array that ``as_array``
    returns is built once, here.
    """

    eigenvalues: tuple[float, ...]
    n_modes: int
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.array(self.eigenvalues, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", tuple(arr.tolist()))
        object.__setattr__(self, "_array", arr)
        if arr.shape != (self.n_modes,):
            raise ValueError("eigenvalue count must equal n_modes")
        if not np.isfinite(arr).all():
            raise ValueError("spectrum is not finite: the couplings overflow")
        scale = max(1.0, float(np.abs(arr).max()))
        mirrored = arr[(-np.arange(self.n_modes)) % self.n_modes]
        if np.abs(arr - mirrored).max() > 1e-9 * scale:
            raise ValueError("spectrum must satisfy lambda_p == lambda_{N-p}")
        if abs(arr.sum()) > 1e-9 * scale * self.n_modes:
            raise ValueError("spectrum of a zero-diagonal circulant must sum to 0")

    def as_array(self) -> np.ndarray:
        return self._array


@dataclass(frozen=True)
class DegeneracyHistogram:
    """Eigenvalues merged into degenerate bins.

    Each bin is a (representative, multiplicity) pair; representatives
    are bin means and multiplicities sum to the mode count.
    """

    bins: tuple[tuple[float, int], ...]
    tolerance: float
    n_modes: int

    def __post_init__(self):
        if sum(m for _, m in self.bins) != self.n_modes:
            raise ValueError("bin multiplicities must sum to n_modes")

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "tolerance": self.tolerance,
            "bins": [
                {"eigenvalue": v, "multiplicity": m} for v, m in self.bins
            ],
        }


def dispersion(spec: NetworkSpec) -> Spectrum:
    """All N eigenvalues of the coupling matrix: the FFT of its first row."""
    # Spectrum rejects an overflowed sum; numpy need not warn about it too
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.fft.fft(coupling_row(spec)).real
    return Spectrum(lam, spec.n_modes)


def collapsed_spectrum(n_modes: int, strength: float) -> Spectrum:
    """Three-block spectrum of the uniform profile with range N/2 - 1.

    lambda_0 = C(N-2); lambda_p = 0 for odd p (N/2 values) and -2C for
    even p != 0 (N/2 - 1 values).  Defined for even N >= 4.
    """
    if n_modes % 2 or n_modes < 4:
        raise ValueError("collapsed spectrum requires even n_modes >= 4")
    if not strength > 0:
        raise ValueError("strength must be positive")
    p = np.arange(n_modes)
    lam = np.where(p % 2 == 1, 0.0, -2.0 * strength)
    lam[0] = strength * (n_modes - 2)
    return Spectrum(tuple(lam), n_modes)


def opposite_site_spectrum(n_modes: int, strength: float) -> Spectrum:
    """Spectrum of the all-to-all profile including r = N/2.

    One eigenvalue C(N-1) at p = 0, the remaining N-1 all equal to -C.
    """
    if n_modes % 2:
        raise ValueError("opposite-site coupling requires even n_modes")
    if not strength > 0:
        raise ValueError("strength must be positive")
    lam = np.full(n_modes, -float(strength))
    lam[0] = strength * (n_modes - 1)
    return Spectrum(tuple(lam), n_modes)


def default_bin_tolerance(spectrum: Spectrum) -> float:
    return 1e-9 * max(1.0, float(np.abs(spectrum.as_array()).max()))


def degenerate_groups(spectrum: Spectrum, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of the eigenvalues and the start of each degenerate group.

    Returns ``order = argsort(lambda)`` and the indices into
    ``lambda[order]`` at which a group starts.  A group starts after a
    sorted gap wider than ``tol``, and again wherever a run of smaller
    gaps has drifted a further ``tol`` from the run's first member, so
    no group spans more than ``tol`` and eigenvalues farther apart than
    ``tol`` never share one.
    """
    lam = spectrum.as_array()
    order = np.argsort(lam)
    values = lam[order]
    fresh = np.concatenate(([True], values[1:] - values[:-1] > tol))
    base = np.maximum.accumulate(np.where(fresh, values, -np.inf))
    bins = np.floor((values - base) / tol)
    fresh[1:] |= bins[1:] != bins[:-1]
    return order, np.flatnonzero(fresh)


def degeneracy_histogram(
    spectrum: Spectrum, tolerance: float | None = None
) -> DegeneracyHistogram:
    """Merge eigenvalues into degenerate bins, each spanning at most ``tolerance``.

    The bins are the groups of ``degenerate_groups``; a bin's
    representative is the mean of its members.  By default the
    tolerance scales with the largest eigenvalue magnitude.
    """
    if tolerance is None:
        tolerance = default_bin_tolerance(spectrum)
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    order, starts = degenerate_groups(spectrum, tolerance)
    values = spectrum.as_array()[order]
    bins = tuple(
        (float(chunk.mean()), int(chunk.size))
        for chunk in np.split(values, starts[1:])
    )
    return DegeneracyHistogram(bins, float(tolerance), spectrum.n_modes)


def fourier_matrix(n_modes: int) -> np.ndarray:
    """Unitary symmetric DFT matrix S with S[j, p] = exp(2i pi j p / N) / sqrt(N).

    Conjugating the coupling matrix with S diagonalizes it and the
    diagonal reproduces the dispersion ordering by Fourier index p.
    """
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    j = np.arange(n_modes)
    return np.exp(2j * np.pi * np.outer(j, j) / n_modes) / np.sqrt(n_modes)
