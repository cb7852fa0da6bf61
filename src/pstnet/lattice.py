"""Geometry of circulant waveguide networks.

A network is a ring of ``n_modes`` identical single-mode waveguides in
which every mode couples to its r-th neighbours, r = 1..R, with strength
``C_r`` (units of inverse propagation length).  The resulting coupling
matrix is real, symmetric and circulant; everything else in the package
builds on it.  A profile is its tuple of couplings and nothing more:
``uniform_profile``, ``evanescent_profile`` and ``custom_profile`` only
differ in how they fill it.

Modes are indexed 0..N-1 internally.  The command line front end
translates to and from 1-based labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import Spectrum


@dataclass(frozen=True)
class CouplingProfile:
    """Coupling strengths for neighbour separations r = 1..R.

    ``couplings[r-1]`` is the strength between modes r apart on the
    ring.  Construction only requires at least one entry, all finite;
    ``uniform_profile`` and ``evanescent_profile`` check their own
    parameters.
    """

    couplings: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(c) for c in self.couplings)
        object.__setattr__(self, "couplings", values)
        if not values:
            raise ValueError("profile needs at least one coupling")
        if not all(math.isfinite(c) for c in values):
            raise ValueError("couplings must be finite")

    @property
    def interaction_range(self) -> int:
        """Largest neighbour separation R covered by the profile."""
        return len(self.couplings)

    @property
    def max_strength(self) -> float:
        return max(abs(c) for c in self.couplings)


def uniform_profile(strength: float, interaction_range: int) -> CouplingProfile:
    """Constant coupling ``strength`` out to ``interaction_range`` neighbours."""
    if not isinstance(interaction_range, (int, np.integer)) or interaction_range < 1:
        raise ValueError("interaction_range must be a positive integer")
    if not strength > 0:
        raise ValueError("uniform coupling strength must be positive")
    return CouplingProfile((float(strength),) * int(interaction_range))


def evanescent_profile(mu: float, interaction_range: int) -> CouplingProfile:
    """Exponentially decaying couplings ``C_r = mu**r`` with 0 < mu < 1."""
    if not isinstance(interaction_range, (int, np.integer)) or interaction_range < 1:
        raise ValueError("interaction_range must be a positive integer")
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie strictly between 0 and 1")
    couplings = tuple(float(mu) ** r for r in range(1, int(interaction_range) + 1))
    return CouplingProfile(couplings)


def custom_profile(couplings) -> CouplingProfile:
    """Profile with explicitly listed couplings for r = 1..len(couplings)."""
    return CouplingProfile(tuple(float(c) for c in couplings))


def ring_size(n_modes, interaction_range: int) -> int:
    """``n_modes`` as an int, once it is at least 2 and R <= N // 2.

    ``NetworkSpec`` checks itself with it; a caller can check a range R
    with it before a profile builds R couplings.
    """
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 2:
        raise ValueError("n_modes must be an integer >= 2")
    n = int(n_modes)
    if interaction_range > n // 2:
        raise ValueError(f"profile range {interaction_range} exceeds N//2 = {n // 2}")
    return n


@dataclass(frozen=True)
class NetworkSpec:
    """A circulant network: mode count plus coupling profile.

    The profile range may not exceed N // 2; the separation r = N/2
    (even N) addresses each opposite-site pair once.  The spec is
    immutable, so its ``spectrum`` is computed on first use and then
    held: every amplitude of one run reads the same one.
    """

    n_modes: int
    profile: CouplingProfile

    def __post_init__(self):
        n = ring_size(self.n_modes, self.profile.interaction_range)
        object.__setattr__(self, "n_modes", n)

    @cached_property
    def spectrum(self) -> Spectrum:
        """The ``spectral.Spectrum`` of the ring: the FFT of ``coupling_row``.

        Computed once, on first use; ``spectral.dispersion`` returns it.
        The FFT may round lambda_p and lambda_{N-p} apart, so lambda_p is
        written into lambda_{N-p} for 0 < p < N/2: the spectrum is mirror
        symmetric bit for bit.  A spectrum that overflows raises on every
        use, since nothing is held until the ``Spectrum`` has passed its
        checks.
        """
        # Spectrum rejects an overflowed sum; numpy need not warn about it too
        with np.errstate(over="ignore", invalid="ignore"):
            lam = np.fft.fft(coupling_row(self)).real
        n = self.n_modes
        lam[n - 1 : n // 2 : -1] = lam[1 : (n + 1) // 2]
        return Spectrum(lam)


def coupling_row(spec: NetworkSpec) -> np.ndarray:
    """First row of the coupling matrix: ``C_r`` at columns r and N - r.

    The diagonal is zero.  For even N the opposite-site entry r = N/2 is
    its own mirror, so it is written once.
    """
    n = spec.n_modes
    r = np.arange(1, spec.profile.interaction_range + 1)
    row = np.zeros(n)
    row[r] = row[n - r] = spec.profile.couplings
    return row


def circulant(column) -> np.ndarray:
    """Circulant matrix whose (i, j) entry is ``column[(i - j) % N]``."""
    i = np.arange(len(column))
    return np.asarray(column)[(i[:, None] - i) % len(column)]


def coupling_matrix(spec: NetworkSpec) -> np.ndarray:
    """Real symmetric circulant coupling matrix of the network.

    It is the circulant of ``coupling_row``: entry (j, (j+r) mod N)
    equals C_r.  The row is its own mirror (entry r equals entry N - r),
    so it is also the first column and the matrix is symmetric.
    """
    return circulant(coupling_row(spec))
