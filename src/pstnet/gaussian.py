"""Continuous-variable transport of Gaussian states.

Quadratures are Q_j = (a_j + a_j^dag) / sqrt(2) and
P_j = (a_j - a_j^dag) / (i sqrt(2)), giving vacuum variance 1/2 per
quadrature.  Covariance matrices are 2N x 2N real symmetric in the
interleaved ordering (Q_0, P_0, ..., Q_{N-1}, P_{N-1}); the symplectic
form Omega is block diagonal with [[0, 1], [-1, 0]] per mode.

A linear-optics propagator U maps quadratures through the real
symplectic-orthogonal matrix with 2 x 2 blocks
[[Re U_jl, -Im U_jl], [Im U_jl, Re U_jl]], and covariances evolve as
V -> M V M^T.  Two-mode squeezing between modes (m, n) is quantified by
the squeezing factors

    S_Q = Var((Q_m - Q_n)/sqrt(2)) - 1/2
    S_P = Var((P_m + P_n)/sqrt(2)) - 1/2

which vanish for vacuum and are negative exactly when the combined
quadrature (relative position, total momentum) is squeezed.

``tmsv`` reads each pair's squeezing in closed form (``pair_squeezing``)
from the few offsets its pairs need, checking the input covariance once;
the dense chain ``symplectic_from_propagator`` -> ``evolve_covariance``
is its reference.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .propagation import Propagator, offset_amplitudes


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form in the interleaved quadrature ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    q = np.arange(0, 2 * n_modes, 2)
    omega[q, q + 1] = 1.0
    omega[q + 1, q] = -1.0
    return omega


def _square_even(v: np.ndarray, name: str = "covariance matrix") -> None:
    if v.ndim != 2 or v.shape[0] != v.shape[1] or v.shape[0] % 2:
        raise ValueError(f"{name} must be square with even dimension")


def symplectic_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of one covariance matrix (each value once).

    The nu_k come in ascending order.  With V = L L^T (Cholesky),
    i Omega V is similar to the Hermitian i A, A = L^T Omega L, whose
    eigenvalues are +-nu_k (Weedbrook et al., RMP 84, 621, 2012).  One
    ``eigvalsh`` of i A lists them in ascending order, so its upper half
    is each nu_k once.  Nothing is squared: the nu_k carry an absolute
    error of O(eps nu_max), as from an SVD of A, also where a pure state
    makes them degenerate or a pure mode is mixed with a strongly
    thermal one.

    A V that is not positive definite raises LinAlgError.
    ``CovarianceState`` decides physicality without this spectrum and
    reads it only to word a refusal.
    """
    _square_even(matrix)
    lower = np.linalg.cholesky(matrix)
    n_modes = len(matrix) // 2
    a = lower.T @ symplectic_form(n_modes) @ lower
    return np.linalg.eigvalsh(1j * a)[n_modes:]


# the vacuum floor 1/2 of the symplectic spectrum, less an absolute 1e-9
_FLOOR = 0.5 - 1e-9


def _refusal(v: np.ndarray) -> str:
    """Why V + i _FLOOR Omega has no Cholesky factor, worded from the spectrum."""
    try:
        nu_min = symplectic_eigenvalues(v).min()
    except np.linalg.LinAlgError as exc:
        return str(exc)
    if nu_min < _FLOOR:
        return f"min symplectic eigenvalue {nu_min}"
    return (
        f"min symplectic eigenvalue {nu_min}, but physicality cannot be"
        " certified in double precision"
    )


@dataclass(frozen=True)
class TmsvParams:
    """Two-mode squeezing of strength w >= 0 and phase theta on a mode pair."""

    w: float
    theta: float
    mode_pair: tuple[int, int]

    def __post_init__(self):
        for name in ("w", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.w >= 0:
            raise ValueError("squeezing strength w must be nonnegative")
        pair = tuple(self.mode_pair) if np.iterable(self.mode_pair) else ()
        if len(pair) != 2 or not all(isinstance(i, numbers.Integral) for i in pair):
            raise ValueError("mode pair must be two integer mode indices")
        pair = (int(pair[0]), int(pair[1]))
        if pair[0] == pair[1]:
            raise ValueError("mode pair must be two distinct modes")
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "mode_pair", pair)


@dataclass(frozen=True)
class CovarianceState:
    """One real symmetric 2N x 2N covariance matrix, vacuum variance 1/2.

    Construction refuses a stack and enforces finite entries, symmetry
    (1e-12) and physicality: the minimum symplectic eigenvalue must
    reach the vacuum floor 1/2 up to 1e-9.  By Williamson's theorem
    nu_min >= c exactly when V + i c Omega >= 0, the bona fide condition
    (Simon, Mukunda and Dutta, PRA 49, 1567, 1994), so one Cholesky of
    V + i (1/2 - 1e-9) Omega decides and no spectrum is computed unless
    it fails.  The two criteria decide alike while the floor's 1e-9
    exceeds the rounding of V, up to squeezing r of about 4; beyond it
    both are rounding-dominated, and a refusal whose spectrum reads at
    or above the floor says that physicality cannot be certified in
    double precision.
    """

    matrix: np.ndarray

    def __post_init__(self):
        v = np.array(self.matrix, dtype=float)
        _square_even(v)
        if not np.isfinite(v).all():
            raise ValueError("covariance matrix is not finite")
        if np.abs(v - v.T).max() > 1e-12:
            raise ValueError("covariance matrix must be symmetric")
        try:
            np.linalg.cholesky(v + 1j * _FLOOR * symplectic_form(len(v) // 2))
        except np.linalg.LinAlgError:
            raise ValueError(f"covariance matrix is unphysical ({_refusal(v)})") from None
        v.setflags(write=False)
        object.__setattr__(self, "matrix", v)

    @property
    def n_modes(self) -> int:
        return len(self.matrix) // 2


@dataclass(frozen=True)
class SymplecticEvolution:
    """Real 2N x 2N quadrature map; M Omega M^T = Omega to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        _square_even(m, "symplectic matrix")
        omega = symplectic_form(m.shape[0] // 2)
        if not np.abs(m @ omega @ m.T - omega).max() <= 1e-10:
            raise ValueError("matrix does not preserve the symplectic form")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _squeeze_map(w: float, theta: float, m: int, n: int, n_modes: int) -> np.ndarray:
    """Quadrature action of the two-mode squeezer on modes (m, n)."""
    s = np.eye(2 * n_modes)
    ch = math.cosh(w) * np.eye(2)
    sh = math.sinh(w) * np.array(
        [[math.cos(theta), math.sin(theta)], [math.sin(theta), -math.cos(theta)]]
    )
    for a, b in ((m, n), (n, m)):
        s[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] = ch
        s[2 * a : 2 * a + 2, 2 * b : 2 * b + 2] = sh
    return s


def tmsv_covariance(params: TmsvParams, n_modes: int) -> CovarianceState:
    """Two-mode squeezed vacuum on the given pair, vacuum elsewhere.

    The covariance is the squeezer's quadrature map applied to the
    vacuum, V = S (I/2) S^T.  For theta = 0 the pair blocks read
    cosh(2w)/2 on the diagonal with cross-correlations +-sinh(2w)/2;
    a nonzero theta rotates the cross block.
    """
    m, n = params.mode_pair
    if not (0 <= m < n_modes and 0 <= n < n_modes):
        raise ValueError(f"mode pair {params.mode_pair} out of range for N={n_modes}")
    try:
        s = _squeeze_map(params.w, params.theta, m, n, int(n_modes))
    except OverflowError:  # math.cosh(w) beyond w = 710
        raise ValueError("covariance matrix is not finite") from None
    # a strong squeezer overflows to inf, which CovarianceState refuses
    with np.errstate(over="ignore", invalid="ignore"):
        v = 0.5 * s @ s.T
    return CovarianceState(v)


def symplectic_from_propagator(u: Propagator) -> SymplecticEvolution:
    """Quadrature-space image of a mode-space propagator.

    With a_j(z) = sum_l U_jl a_l(0) the quadratures map through
    Q' = Re(U) Q - Im(U) P and P' = Im(U) Q + Re(U) P, interleaved per
    mode.  For this realified U, M Omega M^T = Omega is the same condition
    as U U^dag = I, so the symplectic check of ``SymplecticEvolution``
    also rejects a non-unitary input.
    """
    u = u.matrix  # each entry's block [[Re, -Im], [Im, Re]]
    return SymplecticEvolution(np.kron(u.real, np.eye(2)) + np.kron(u.imag, [[0, -1], [1, 0]]))


def evolve_covariance(
    state: CovarianceState, evolution: SymplecticEvolution
) -> CovarianceState:
    """Propagate a covariance matrix: V -> M V M^T."""
    if len(evolution.matrix) != len(state.matrix):
        raise ValueError("dimension mismatch between state and evolution")
    v = evolution.matrix @ state.matrix @ evolution.matrix.T
    return CovarianceState(0.5 * (v + v.T))


def squeezing_factor(
    state: CovarianceState, j: int, k: int, quadrature: str = "Q"
) -> float:
    """EPR-combination variance minus the vacuum level 1/2.

    quadrature "Q" uses the relative position (Q_j - Q_k)/sqrt(2),
    "P" the total momentum (P_j + P_k)/sqrt(2).  Negative values mean
    squeezing below vacuum; zero is the vacuum level.
    """
    n = state.n_modes
    if j == k:
        raise ValueError("squeezing factor needs two distinct modes")
    if not (0 <= j < n and 0 <= k < n):
        raise ValueError("mode indices out of range")
    v = state.matrix
    q = quadrature.upper()
    if q == "Q":
        a, b, sign = 2 * j, 2 * k, -1.0
    elif q == "P":
        a, b, sign = 2 * j + 1, 2 * k + 1, 1.0
    else:
        raise ValueError("quadrature must be 'Q' or 'P'")
    variance = 0.5 * (v[a, a] + v[b, b] + 2.0 * sign * v[a, b])
    return variance - 0.5


def pair_squeezing(spec, zs, v: CovarianceState, mode_pair, pairs) -> list[np.ndarray]:
    """S_Q and S_P columns of each pair (j, k) of the ring ``spec`` at the distances ``zs``.

    A passive U keeps the vacuum, so with (m, n) = ``mode_pair`` the input
    pair each column is a quadratic form in a = U_jm - U_km, b = U_jn - U_kn,
    g = U_jm + U_km and h = U_jn + U_kn (Weedbrook et al., RMP 84, 621,
    Sec. II):

        S_Q = e/2 (|a|^2 + |b|^2) + Re(c a b),  S_P = e/2 (|g|^2 + |h|^2) - Re(c g h)

    with e = V[0, 0] - 1/2 = sinh(w)^2 and c = V[0, 2] + i V[0, 3] =
    sinh(2w)/2 e^{i theta} from ``v``, the input pair's checked 4 x 4
    covariance, its modes in the pair's order: ``tmsv_covariance`` of
    the squeezing on modes (0, 1) of two.  A caller checks it once for
    any number of grids.  U_jl is the amplitude at the offset
    (j - l) mod N, and the at most four distinct offsets of each pair
    come from one ``offset_amplitudes`` call with their tuple, whose
    weights are checked to make every U(z) unitary once per spectrum
    and offsets; as a unitary keeps a physical state physical, no
    output covariance is checked.
    """
    if v.n_modes != 2:
        raise ValueError("input covariance must be the squeezed pair's, 4 x 4")
    if len(set(mode_pair)) != 2:
        raise ValueError("mode pair must be two distinct modes")
    n = spec.n_modes
    for j, k in pairs:
        if j == k:
            raise ValueError("squeezing factor needs two distinct modes")
        if not all(0 <= i < n for i in (*mode_pair, j, k)):
            raise ValueError("mode indices out of range")
    offsets = sorted({(i - l) % n for pair in pairs for i in pair for l in mode_pair})
    if not offsets:
        return []
    amps = offset_amplitudes(spec, zs, offset=tuple(offsets)).T
    # U_jl of each pair, [pair, j or k, m or n]
    u = amps[[[[offsets.index((i - l) % n) for l in mode_pair] for i in pair] for pair in pairs]]
    v = v.matrix
    e, c = v[0, 0] - 0.5, complex(v[0, 2], v[0, 3])
    # (a, b) and (g, h) of each pair, [pair, Q or P, first or second]
    a, b = np.stack((u[:, 0] - u[:, 1], u[:, 0] + u[:, 1]), axis=1).transpose(2, 0, 1, 3)
    norm = a.real**2 + a.imag**2 + b.real**2 + b.imag**2
    return list((0.5 * e * norm + [[1.0], [-1.0]] * (c * a * b).real).reshape(-1, norm.shape[-1]))
