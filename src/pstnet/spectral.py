"""Fourier-mode spectra of circulant coupling matrices.

A circulant matrix is diagonalized by the discrete Fourier transform,
so its eigenvalues are the DFT of its first row: ``dispersion`` is one
FFT of ``coupling_row``, computed once per ``NetworkSpec`` and held by
it (``NetworkSpec.spectrum``).  Because the row holds C_r at columns r
and N - r, the FFT equals the cosine sum

    lambda_p = sum_r w_r * C_r * cos(2 pi p r / N),   p = 0..N-1

with weight w_r = 2 except at the opposite-site separation r = N/2
(even N only), which enters once.  Two closed-form special cases are
provided: the uniform profile with range N/2 - 1, whose spectrum
collapses onto the three values {C(N-2), 0, -2C}, and the all-to-all
profile including r = N/2, which gives {C(N-1), -C}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a circulant coupling matrix, ordered by Fourier index p.

    ``eigenvalues`` is a read-only 1-D float array, copied on
    construction.  The eigenvalues must be finite, real symmetric
    circulants satisfy ``lambda_p == lambda_{N-p}`` and have zero trace
    (the coupling matrix has an empty diagonal); all three are checked
    on construction.  Besides its eigenvalues it holds two things:
    ``max_abs``, the largest magnitude max|lambda| that the checks
    compute, read by every amplitude call's overflow check, and the last
    ``plan`` asked for, whose arrays are read-only too.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.eigenvalues, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("spectrum is not finite: the couplings overflow")
        n = arr.size
        max_abs = float(np.abs(arr).max())
        scale = max(1.0, max_abs)
        mirrored = arr[(-np.arange(n)) % n]
        if np.abs(arr - mirrored).max() > 1e-9 * scale:
            raise ValueError("spectrum must satisfy lambda_p == lambda_{N-p}")
        if abs((arr / scale).sum()) > 1e-9 * n:
            raise ValueError("spectrum of a zero-diagonal circulant must sum to 0")
        object.__setattr__(self, "eigenvalues", _read_only(arr))
        object.__setattr__(self, "max_abs", max_abs)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def plan(self, tol: float, offset: int) -> Plan:
        """The ``Plan`` of the groups at ``tol`` for the offset d in 0..N-1.

        One plan is held at a time: a call with the tol and offset of the
        held plan returns it, and any other call builds its own and holds
        that instead, so the spectrum never holds more than O(N).
        """
        plan = self.__dict__.get("_plan")
        if plan is not None and plan.tol == tol and plan.offset == offset:
            return plan
        n = self.n_modes
        order, starts = degenerate_groups(self, tol)
        # (p d) mod N in integers keeps the Fourier phase exact for large p d
        phases = np.exp(2j * np.pi / n * (order * offset % n))
        weights = np.add.reduceat(phases, starts) / n
        mu = self.eigenvalues[order[starts]]
        plan = Plan(tol, int(offset), _read_only(mu), _read_only(weights))
        object.__setattr__(self, "_plan", plan)
        return plan


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Plan:
    """A spectrum's degenerate groups at one tol, weighted for one offset d.

    Read-only ``mu`` holds the first sorted eigenvalue of each group g and
    ``weights`` its w_g(d) = (1/N) sum_{p in g} exp(i 2 pi p d / N).
    """

    tol: float
    offset: int
    mu: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class DegeneracyBin:
    """Eigenvalues merged into one bin: their finite mean and their count, at least 1."""

    eigenvalue: float
    multiplicity: int

    def __post_init__(self):
        if not np.isfinite(self.eigenvalue):
            raise ValueError("bin eigenvalue must be finite")
        if not self.multiplicity >= 1:
            raise ValueError("bin multiplicity must be at least 1")


@dataclass(frozen=True)
class DegeneracyHistogram:
    """Eigenvalues merged into bins at a finite positive tolerance, of ``n_modes`` in all."""

    n_modes: int
    tolerance: float
    bins: tuple[DegeneracyBin, ...]

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and positive")
        if sum(b.multiplicity for b in self.bins) != self.n_modes:
            raise ValueError("bin multiplicities must sum to n_modes")


def dispersion(spec) -> Spectrum:
    """All N eigenvalues of a ``NetworkSpec``'s coupling matrix: the FFT of its first row.

    The spec computes its spectrum once and holds it, so every call on
    the same spec returns the same ``Spectrum``.
    """
    return spec.spectrum


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
    return Spectrum(lam)


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
    return Spectrum(lam)


def default_bin_tolerance(spectrum: Spectrum) -> float:
    return 1e-9 * max(1.0, spectrum.max_abs)


def degenerate_groups(spectrum: Spectrum, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of the eigenvalues and the start of each degenerate group.

    Returns ``order = argsort(lambda)`` and the indices into
    ``lambda[order]`` at which a group starts.  A group starts after a
    sorted gap wider than ``tol``, and again wherever a run of smaller
    gaps has drifted a further ``tol`` from the run's first member, so
    no group spans more than ``tol`` and eigenvalues farther apart than
    ``tol`` never share one.
    """
    order = np.argsort(spectrum.eigenvalues)
    values = spectrum.eigenvalues[order]
    with np.errstate(over="ignore"):  # a difference that overflows exceeds any tol
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
    representative is the mean of its members, or of them over 2^e, which
    brings the largest into [1, 2), where their sum overflows.  By
    default the tolerance scales with the largest eigenvalue magnitude.
    """
    if tolerance is None:
        tolerance = default_bin_tolerance(spectrum)
    if not 0 < tolerance < np.inf:
        raise ValueError("tolerance must be finite and positive")
    order, starts = degenerate_groups(spectrum, tolerance)
    bins = []
    for chunk in np.split(spectrum.eigenvalues[order], starts[1:]):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = chunk.mean()
        if not np.isfinite(mean):  # scale only here: a scaled subnormal mean rounds twice
            e = np.frexp(np.abs(chunk).max())[1] - 1
            mean = np.ldexp(np.ldexp(chunk, -e).mean(), e)
        bins.append(DegeneracyBin(float(mean), int(chunk.size)))
    return DegeneracyHistogram(spectrum.n_modes, float(tolerance), tuple(bins))
