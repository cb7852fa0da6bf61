"""Discrete-variable transport: single photons and coherent-state cats.

For a single photon injected in mode m the occupation of mode j is
``|U_jm(z)|^2``.  A cat state, the normalized superposition of two
coherent branches with real amplitude ``alpha`` and relative phase
``phi``, transfers with fidelity

    F = | 2 N^2 exp(-alpha^2) [ exp(u* alpha^2)
                                 + cos(phi) exp(-u* alpha^2) ] |^2

where u is the transition amplitude between the chosen modes and
N = (2 + 2 exp(-2 alpha^2) cos(phi))^(-1/2).  The free propagation
constant only adds a global phase and is fixed to zero.  At a
perfect-transfer distance u = -1 and the even (phi = 0) and odd
(phi = pi) cats arrive with unit fidelity, while the phi = pi/2 cat
is capped at exp(-4 alpha^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import NetworkSpec
from .propagation import ScanResult, mode_offset, offset_amplitudes, scan_offset


class DegenerateCatError(ValueError):
    """Cat state parameters too close to the vanishing odd-cat limit."""


def _real_scalar(value, name: str) -> float:
    if np.iscomplexobj(value):
        raise ValueError(f"{name} must be real")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def cat_normalization(alpha: float, phi: float) -> float:
    """Normalization (2 + 2 exp(-2 alpha^2) cos(phi))^(-1/2).

    Rejects the degenerate corner near alpha = 0, phi = pi where the
    superposition collapses to the zero vector.
    """
    a = _real_scalar(alpha, "alpha")
    p = _real_scalar(phi, "phi")
    denom = 2.0 + 2.0 * math.exp(-2.0 * a * a) * math.cos(p)
    if denom <= 1e-12 or (abs(a) < 1e-6 and abs(p - math.pi) < 1e-6):
        raise DegenerateCatError(
            "cat state is degenerate near alpha=0, phi=pi (zero-norm superposition)"
        )
    return denom ** -0.5


# largest alpha^2 whose exp(alpha^2) in the fidelity stays finite
_MAX_ALPHA_SQUARED = 709.0


@dataclass(frozen=True)
class CatState:
    """Superposition of coherent branches +alpha and -alpha with phase phi.

    ``alpha^2`` may not exceed 709: the fidelity evaluates
    ``exp(u* alpha^2)`` with |u| up to 1, which overflows beyond that.
    """

    alpha: float
    phi: float
    normalization: float = field(init=False)

    def __post_init__(self):
        norm = cat_normalization(self.alpha, self.phi)
        object.__setattr__(self, "alpha", float(self.alpha))
        if not self.alpha * self.alpha <= _MAX_ALPHA_SQUARED:
            raise ValueError(
                f"alpha = {self.alpha:g} is too large: the fidelity needs "
                f"exp(alpha^2), which overflows for alpha^2 > {_MAX_ALPHA_SQUARED:g}"
            )
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "normalization", norm)

    def fidelity(self, u):
        """Transfer fidelity for the amplitude u, elementwise over an array."""
        a2 = self.alpha * self.alpha
        norm = self.normalization
        uc = np.conj(u)
        bracket = np.exp(uc * a2) + math.cos(self.phi) * np.exp(-uc * a2)
        return np.abs(2.0 * norm * norm * math.exp(-a2) * bracket) ** 2


def photon_numbers(spec: NetworkSpec, input_mode: int, z: float) -> np.ndarray:
    """Occupation of every mode for a single photon injected in ``input_mode``."""
    n = spec.n_modes
    if not 0 <= input_mode < n:
        raise ValueError(f"input_mode {input_mode} out of range for N={n}")
    amps = offset_amplitudes(spec, [z])[0]
    return np.abs(amps[(np.arange(n) - input_mode) % n]) ** 2


def _clamped(f: float) -> float:
    if not f <= 1.0 + 1e-12:
        raise ValueError(f"fidelity {f} exceeds 1 beyond rounding slack")
    return min(f, 1.0)


def cat_fidelity(
    spec: NetworkSpec,
    source: int,
    target: int,
    alpha: float,
    phi: float,
    z: float,
) -> float:
    """Transfer fidelity of a cat from ``source`` onto ``target`` at distance z."""
    d = mode_offset(spec, source, target)
    cat = CatState(alpha, phi)
    u = offset_amplitudes(spec, [z], offset=d)[0]
    return _clamped(float(cat.fidelity(u)))


def pst_cat_fidelity(alpha: float, phi: float) -> float:
    """Closed-form fidelity at a perfect-transfer distance (amplitude -1)."""
    return _clamped(float(CatState(alpha, phi).fidelity(-1.0)))


def cat_fidelity_scan(
    spec: NetworkSpec,
    source: int,
    target: int,
    alpha: float,
    phi: float,
    z_max: float,
    dz: float | None = None,
    on_block=None,
) -> ScanResult:
    """Scan cat-transfer fidelity over (0, z_max] with local refinement.

    Same grid, refinement and ``on_block`` blocks as the
    transfer-probability scan (``scan_offset``).
    """
    d = mode_offset(spec, source, target)
    scan = scan_offset(spec, d, CatState(alpha, phi).fidelity, z_max, dz, on_block)
    return replace(scan, max_value=_clamped(scan.max_value))
