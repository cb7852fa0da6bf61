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
from functools import cached_property

import numpy as np

from .lattice import NetworkSpec


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a circulant coupling matrix, ordered by Fourier index p.

    ``eigenvalues`` is a read-only 1-D float array, copied on
    construction.  The eigenvalues must be finite, real symmetric
    circulants satisfy ``lambda_p == lambda_{N-p}`` and have zero trace
    (the coupling matrix has an empty diagonal); all three are checked
    on construction.  What the amplitudes derive from it, the sort
    order, the sorted eigenvalues and the N roots of unity, is computed
    on first use and held as read-only arrays too, and so is the last
    ``plan`` asked for.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.array(self.eigenvalues, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-D array")
        if not np.isfinite(arr).all():
            raise ValueError("spectrum is not finite: the couplings overflow")
        n = arr.size
        scale = max(1.0, float(np.abs(arr).max()))
        mirrored = arr[(-np.arange(n)) % n]
        if np.abs(arr - mirrored).max() > 1e-9 * scale:
            raise ValueError("spectrum must satisfy lambda_p == lambda_{N-p}")
        if abs((arr / scale).sum()) > 1e-9 * n:
            raise ValueError("spectrum of a zero-diagonal circulant must sum to 0")
        object.__setattr__(self, "eigenvalues", _read_only(arr))

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def order(self) -> np.ndarray:
        """``argsort(eigenvalues)``."""
        return _read_only(np.argsort(self.eigenvalues))

    @cached_property
    def sorted_eigenvalues(self) -> np.ndarray:
        """``eigenvalues[order]``, ascending."""
        return _read_only(self.eigenvalues[self.order])

    @cached_property
    def roots(self) -> np.ndarray:
        """The N roots of unity ``exp(2j pi k / N)``, k = 0..N-1."""
        return _read_only(np.exp(2j * np.pi / self.n_modes * np.arange(self.n_modes)))

    def plan(self, tol: float, offset: int | None) -> Plan:
        """The ``Plan`` of the groups at ``tol`` for one offset, or every one.

        ``offset`` is an offset d in 0..N-1, or None for every offset at
        once.  One plan is held at a time: a call with the tol and offset
        of the held plan returns it, and any other call builds its own and
        holds that instead, so the spectrum never holds more than O(N).
        """
        plan = self.__dict__.get("_plan")
        if plan is not None and plan.tol == tol and plan.offset == offset:
            return plan
        n = self.n_modes
        order, starts = degenerate_groups(self, tol)
        mu = self.sorted_eigenvalues[starts]
        if offset is None:
            group = np.empty(n, dtype=np.intp)
            group[order] = np.repeat(np.arange(mu.size), np.diff(starts, append=n))
            plan = Plan(tol, None, _read_only(mu), group=_read_only(group))
        else:
            # (p d) mod N in integers keeps the Fourier phase exact for large p d
            weights = np.add.reduceat(self.roots[order * offset % n], starts) / n
            plan = Plan(tol, int(offset), _read_only(mu), weights=_read_only(weights))
        object.__setattr__(self, "_plan", plan)
        return plan


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Plan:
    """A spectrum's degenerate groups at one tol, and what one amplitude form needs.

    ``mu`` holds the first sorted eigenvalue of each group g.  For one
    offset d, ``weights`` holds w_g(d) = (1/N) sum_{p in g} exp(i 2 pi p
    d / N); for every offset at once (``offset`` None), ``group`` holds
    the group of each mode p, which gathers the G phases back to the N
    modes.  The other field is None, and every array is read-only.
    """

    tol: float
    offset: int | None
    mu: np.ndarray
    weights: np.ndarray | None = None
    group: np.ndarray | None = None


@dataclass(frozen=True)
class DegeneracyBin:
    """Eigenvalues merged into one bin: their mean and their count."""

    eigenvalue: float
    multiplicity: int


@dataclass(frozen=True)
class DegeneracyHistogram:
    """Eigenvalues merged into degenerate bins; multiplicities sum to ``n_modes``."""

    n_modes: int
    tolerance: float
    bins: tuple[DegeneracyBin, ...]

    def __post_init__(self):
        if sum(b.multiplicity for b in self.bins) != self.n_modes:
            raise ValueError("bin multiplicities must sum to n_modes")


def dispersion(spec: NetworkSpec) -> Spectrum:
    """All N eigenvalues of the coupling matrix: the FFT of its first row.

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
    return 1e-9 * max(1.0, float(np.abs(spectrum.eigenvalues).max()))


def degenerate_groups(spectrum: Spectrum, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort order of the eigenvalues and the start of each degenerate group.

    Returns ``order = argsort(lambda)`` (the spectrum's read-only
    ``order``) and the indices into ``lambda[order]`` at which a group
    starts.  A group starts after a sorted gap wider than ``tol``, and
    again wherever a run of smaller gaps has drifted a further ``tol``
    from the run's first member, so no group spans more than ``tol``
    and eigenvalues farther apart than ``tol`` never share one.
    """
    values = spectrum.sorted_eigenvalues
    with np.errstate(over="ignore"):  # a difference that overflows exceeds any tol
        fresh = np.concatenate(([True], values[1:] - values[:-1] > tol))
        base = np.maximum.accumulate(np.where(fresh, values, -np.inf))
        bins = np.floor((values - base) / tol)
    fresh[1:] |= bins[1:] != bins[:-1]
    return spectrum.order, np.flatnonzero(fresh)


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
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    _, starts = degenerate_groups(spectrum, tolerance)
    bins = []
    for chunk in np.split(spectrum.sorted_eigenvalues, starts[1:]):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = chunk.mean()
        if not np.isfinite(mean):  # scale only here: a scaled subnormal mean rounds twice
            e = np.frexp(np.abs(chunk).max())[1] - 1
            mean = np.ldexp(np.ldexp(chunk, -e).mean(), e)
        bins.append(DegeneracyBin(float(mean), int(chunk.size)))
    return DegeneracyHistogram(spectrum.n_modes, float(tolerance), tuple(bins))


def fourier_matrix(n_modes: int) -> np.ndarray:
    """Unitary symmetric DFT matrix S with S[j, p] = exp(2i pi j p / N) / sqrt(N).

    Conjugating the coupling matrix with S diagonalizes it and the
    diagonal reproduces the dispersion ordering by Fourier index p.
    """
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    j = np.arange(n_modes)
    return np.exp(2j * np.pi * np.outer(j, j) / n_modes) / np.sqrt(n_modes)
