"""Synthesis of the perfect-transfer coupling profile from auxiliary modes.

Pairs of far-detuned auxiliary modes, each coupled to every network
mode with strength g_k and a winding phase exp(i 2 pi k j / N), mediate
effective intra-network couplings.  After adiabatic elimination the
profile is a cosine series in the weights A_k = 2 |g_k|^2 / Delta_k:

    J_r = sum_{k=1..M} A_k cos(2 pi k r / N)

Requiring J_r = C for r = 1..N/2-1 and J_{N/2} = 0 gives N/2 linear
constraints, solvable exactly once M >= N/2 auxiliary pairs are
available.  The square case M = N/2, the paper's construction, is a
type-I discrete cosine transform in r and k; its exact weights come
from one inverse real FFT of length N.  Every other M takes minimum-norm
(M > N/2) or least-squares (M < N/2) weights from ``lstsq`` on the dense
cosine matrix.  The profile of any weights is one FFT of the weights
folded evenly mod N, so every residual measures the exact cosine sums,
not the rounded matrix.  The weights can be split back into physical
(g_k, Delta_k) pairs at a chosen detuning scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import NetworkSpec, custom_profile
from .propagation import PstReport, check_pst


@dataclass(frozen=True)
class SynthesisProblem:
    """Target uniform profile of strength C for an N-mode network using
    M auxiliary mode pairs.  ``tolerance`` bounds the residual relative
    to max(1, |C|)."""

    n_modes: int
    n_aux_pairs: int
    strength: float
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.n_modes % 2 or self.n_modes < 4:
            raise ValueError("synthesis requires even n_modes >= 4")
        if self.n_aux_pairs < 1:
            raise ValueError("need at least one auxiliary mode pair")
        if not math.isfinite(self.strength):
            raise ValueError("target strength must be finite")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class AuxiliaryMode:
    """Physical realization of one weight: coupling g, detuning, and
    dispersive ratio |Delta| / g (inf for decoupled modes)."""

    g: float
    detuning: float
    ratio: float


@dataclass(frozen=True)
class SynthesisSolution:
    """Weights A_k with the coupling profile they synthesize.

    ``residual`` is the largest constraint violation; solutions whose
    residual exceeds ``tolerance`` (the problem's tolerance times
    max(1, |C|)) must not be used for transfer.
    ``physical`` is filled in by :func:`physical_parameters`.
    """

    weights: tuple[float, ...]
    couplings: tuple[float, ...]
    residual: float
    tolerance: float
    physical: tuple[AuxiliaryMode, ...] | None = None
    min_dispersive_ratio: float | None = None
    dispersive_ok: bool | None = None


def constraint_matrix(n_modes: int, n_aux_pairs: int) -> np.ndarray:
    """Rows are the cosine constraints for r = 1..N/2.

    The last row, r = N/2, uses the exact alternating signs (-1)^k.
    """
    half = n_modes // 2
    k = np.arange(1, n_aux_pairs + 1)
    r = np.arange(1, half)
    rows = np.cos(2.0 * np.pi * np.outer(r, k) / n_modes)
    last = np.where(k % 2 == 0, 1.0, -1.0)
    return np.vstack([rows, last])


def effective_couplings(weights, n_modes: int) -> np.ndarray:
    """Profile J_r, r = 1..N/2, synthesized by the given weights.

    A_k cos(2 pi k r / N) is A_k / 2 times exp(+-i 2 pi k r / N), which
    depend on k only mod N.  Half of each weight is folded onto bin k
    mod N and half onto bin -k mod N, and J_r is the FFT of that even
    row, as the spectrum is the FFT of the coupling row.  For M = N/2
    the row is ``y - y_0`` from :func:`solve_weights`, so the FFT undoes
    its ``irfft`` up to one round trip's rounding.
    """
    halves = np.asarray(weights, dtype=float) / 2.0
    k = np.arange(1, halves.size + 1)
    row = np.bincount(k % n_modes, halves, n_modes) + np.bincount(-k % n_modes, halves, n_modes)
    return np.fft.fft(row).real[1 : n_modes // 2 + 1]


def solve_weights(problem: SynthesisProblem) -> SynthesisSolution:
    """Solve the cosine constraints for the auxiliary weights.

    Exactly determined for M = N/2 and solved there without a matrix:
    with h = N/2 and x = (0, J_1, ..., J_h), y = irfft(x, N) is the
    type-I cosine transform y_k = (x_0 + 2 sum_{0<r<h} x_r
    cos(pi k r / h) + (-1)^k x_h) / N, and choosing x_0 so that the
    k = 0 weight vanishes gives A_k = 2 (y_k - y_0) for k < h and
    A_h = y_h - y_0.  Minimum-norm (``lstsq``) for M > N/2;
    least-squares with a reported residual for M < N/2.  The residual
    is the largest violation of the exact cosine sums
    (:func:`effective_couplings`), not of the rounded cosine matrix:
    N = 1024, M = 600 reads 6.2e-12 where the matrix product reads
    2.0e-13.  The solution's tolerance is the problem's times
    max(1, |C|), since rounding scales with C.  An infeasible target
    shows up as a residual above that tolerance, never as an exception;
    so does a target whose couplings overflow (a residual of inf or nan).
    """
    n = problem.n_modes
    half = n // 2
    target = np.full(half, float(problem.strength))
    target[-1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if problem.n_aux_pairs == half:
            y = np.fft.irfft(np.concatenate(([0.0], target)), n)
            weights = 2.0 * (y[1 : half + 1] - y[0])
            weights[-1] = y[half] - y[0]
        else:
            b = constraint_matrix(n, problem.n_aux_pairs)
            weights, *_ = np.linalg.lstsq(b, target, rcond=None)
        couplings = effective_couplings(weights, n)
        residual = float(np.abs(couplings - target).max())
    return SynthesisSolution(
        weights=tuple(float(a) for a in weights),
        couplings=tuple(float(j) for j in couplings),
        residual=residual,
        tolerance=problem.tolerance * max(1.0, abs(problem.strength)),
    )


def physical_parameters(
    solution: SynthesisSolution,
    delta_scale: float,
    dispersive_min: float = 10.0,
) -> SynthesisSolution:
    """Split each weight into (g_k, Delta_k) at a common detuning scale.

    Detunings take the magnitude ``delta_scale`` with the sign of A_k
    and g_k = sqrt(|A_k| delta_scale / 2), so 2 g^2 / Delta rebuilds
    the weight.  Modes with zero weight decouple (g = 0).  Ratios
    |Delta| / g below ``dispersive_min`` are flagged, not rejected,
    since the adiabatic elimination is only trustworthy when the
    detuning dominates.
    """
    if not (math.isfinite(delta_scale) and delta_scale > 0):
        raise ValueError("delta_scale must be finite and positive")
    if not math.isfinite(dispersive_min):
        raise ValueError("dispersive_min must be finite")
    modes = []
    for a in solution.weights:
        if a == 0.0:
            modes.append(AuxiliaryMode(0.0, delta_scale, math.inf))
            continue
        detuning = math.copysign(delta_scale, a)
        g = math.sqrt(abs(a) * delta_scale / 2.0)
        modes.append(AuxiliaryMode(g, detuning, abs(detuning) / g))
    min_ratio = min(mode.ratio for mode in modes)
    return replace(
        solution,
        physical=tuple(modes),
        min_dispersive_ratio=min_ratio,
        dispersive_ok=bool(min_ratio >= dispersive_min),
    )


def verify_synthesis(solution: SynthesisSolution) -> PstReport:
    """Run the transfer check on the synthesized profile.

    Builds a custom profile from the couplings J_r, r = 1..N/2, on
    N = 2 len(couplings) modes and delegates to the antipodal transfer
    check.  Refuses unless the stored residual is at most the solution
    tolerance (a nan residual is refused too): other couplings do not
    realize the target.
    """
    if not solution.residual <= solution.tolerance:
        raise ValueError(
            f"synthesis residual {solution.residual:.3e} is not within tolerance "
            f"{solution.tolerance:.3e}; add auxiliary pairs (M >= N/2) or relax the target"
        )
    spec = NetworkSpec(2 * len(solution.couplings), custom_profile(solution.couplings))
    return check_pst(spec, source=0)
