"""Transition amplitudes and transfer checks for circulant networks.

The amplitude evolution equation

    d a_j / dz = -i sum_r C_r (a_{j+r} + a_{j-r})

is solved exactly in the Fourier basis: a mode with eigenvalue
``lambda_p`` only acquires the phase ``exp(-i lambda_p z)``, so the
site-to-site transition amplitude is

    U_jl(z) = (1/N) sum_p exp(-i lambda_p z) exp(i 2 pi p (j - l) / N)

which depends on j and l through the offset d = (j - l) mod N only.
This spectral sum is exact for any z; a Runge-Kutta integrator of the
amplitude equation is provided purely as an independent cross-check.

The spectrum has few distinct values (three for the collapse profile
below), so the phase is evaluated once per distinct eigenvalue mu_g.
``spectral.degenerate_groups`` groups the sorted eigenvalues that lie
within ``tol = min(default_bin_tolerance, 1e-13 / max(1, max|z|))`` of
their group's first member mu_g.  All N offsets at once (``transport``,
``tmsv``, the dense propagator) gather the G phases back to the N modes
before the inverse FFT; one offset (the scans) sums them once per group:

    u_d(z) = sum_g w_g(d) exp(-i mu_g z),
    w_g(d) = (1/N) sum_{p in g} exp(i 2 pi p d / N)

Replacing each member by mu_g moves its phase by at most tol * |z| <=
1e-13, so both forms differ from the sum over all N modes by at most
1e-13 plus rounding, and eigenvalues that are distinct at that
resolution are never merged.

With the uniform profile of range N/2 - 1 the spectrum collapses onto
three values and the propagator has a closed form.  At the distances
``(2s+1) pi / (2C)`` and for mode counts divisible by four the full
amplitude, with phase -1, arrives at the diametrically opposite site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import NetworkSpec, circulant, coupling_matrix
from .spectral import default_bin_tolerance, degenerate_groups, dispersion

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# phase factors exp(-i mu_g z) held at once by the single-offset sum
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Propagator:
    """Complex N x N transition-amplitude matrix at distance z.

    Unitarity (to 1e-10) is checked on construction; the matrix is
    circulant by construction and frozen against accidental writes.
    """

    matrix: np.ndarray
    z: float

    def __post_init__(self):
        u = np.array(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("propagator matrix must be square")
        defect = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
        if defect > 1e-10:
            raise ValueError(f"propagator is not unitary (defect {defect:.2e})")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PstReport:
    """Outcome of a perfect-transfer check between antipodal sites.

    ``is_pst`` is true when the antipodal transfer probability at the
    candidate distance ``pi / (2 C_max)`` reaches 1 - tol, for any
    profile; ``z_pst`` is set only then.  ``amplitude_at_zpst`` is the
    antipodal amplitude at the candidate distance regardless of the
    outcome.  ``max_transfer`` and ``z_at_max`` come from a bounded scan
    of the transfer probability.
    """

    is_pst: bool
    z_pst: float | None
    source: int
    target: int
    amplitude_at_zpst: complex
    max_transfer: float
    z_at_max: float

    def __post_init__(self):
        if not -1e-12 <= self.max_transfer <= 1.0 + 1e-12:
            raise ValueError("max_transfer must lie in [0, 1] up to rounding slack")

    def to_dict(self) -> dict:
        return {
            "is_pst": self.is_pst,
            "z_pst": self.z_pst,
            "source": self.source,
            "target": self.target,
            "amplitude_at_zpst": [
                self.amplitude_at_zpst.real,
                self.amplitude_at_zpst.imag,
            ],
            "max_transfer": self.max_transfer,
            "z_at_max": self.z_at_max,
        }


@dataclass(frozen=True)
class ScanResult:
    """Grid scan of a figure of merit over propagation distance.

    ``zs`` and ``values`` hold the grid trace; ``max_value`` and
    ``z_at_max`` include the local golden-section refinement around the
    best grid point, so they may improve slightly on the grid maximum.
    ``dz`` is the grid step the scan used.
    """

    max_value: float
    z_at_max: float
    zs: np.ndarray
    values: np.ndarray
    dz: float


def offset_amplitudes(spec: NetworkSpec, zs, *, offset: int | None = None) -> np.ndarray:
    """Transition amplitudes at each distance, for every offset or for one.

    Without ``offset`` returns an array of shape (len(zs), N) whose [i, d]
    entry is the amplitude between any two modes separated by d (mod N)
    at distance zs[i].  Column 0 is the return amplitude.  With
    ``offset=d`` (an integer, 0 <= d < N) returns the 1-D array of
    column d alone.

    Both forms evaluate the phases at the distinct eigenvalues only
    (see the module docstring): every offset gathers them back to the N
    modes for one inverse FFT per z, one offset sums them against its
    group weights in blocks of at most ``_BLOCK`` entries, so its memory
    stays O(len(zs)) for any N.  Each merged eigenvalue moves by at most
    its group's span s_g <= tol, so either result differs from the sum
    over all N modes by at most ``max_g s_g * max|z| <= 1e-13`` plus
    rounding.
    """
    spectrum = dispersion(spec)
    lam = spectrum.as_array()
    n = spec.n_modes
    if offset is not None and not (isinstance(offset, (int, np.integer)) and 0 <= offset < n):
        raise ValueError(f"offset must be an integer in 0..{n - 1}, got {offset!r}")
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    reach = float(np.abs(zs).max(initial=1.0))
    tol = min(default_bin_tolerance(spectrum), 1e-13 / reach)
    order, starts = degenerate_groups(spectrum, tol)
    mu = lam[order[starts]]
    if offset is None:
        group = np.empty(n, dtype=np.intp)
        group[order] = np.repeat(np.arange(mu.size), np.diff(starts, append=n))
        return np.fft.ifft(np.exp(-1j * np.outer(zs, mu))[:, group], axis=1)
    # (p d) mod N in integers keeps the Fourier phase exact for large p d
    weights = np.add.reduceat(np.exp(2j * np.pi / n * (order * offset % n)), starts) / n
    rows = max(1, _BLOCK // mu.size)
    out = np.empty(zs.size, dtype=complex)
    for i in range(0, zs.size, rows):
        out[i : i + rows] = np.exp(-1j * np.outer(zs[i : i + rows], mu)) @ weights
    return out


def propagator(spec: NetworkSpec, z: float) -> Propagator:
    """Exact propagator built from the Fourier-mode phase factors."""
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    return Propagator(circulant(offset_amplitudes(spec, [z])[0]), float(z))


def closed_form_amplitude(n_modes: int, strength: float, offset: int, z: float) -> complex:
    """Analytic amplitude for the uniform profile with range N/2 - 1.

    Valid for even N.  The offset is reduced mod N; only the return
    site (d = 0) and the opposite site (d = N/2) carry delta terms:

        U = (1/N) [ exp(-iC(N-2)z) + (N/2)(d0 - dh)
                    + exp(i2Cz) ((N/2)(d0 + dh) - 1) ]

    with d0, dh indicators for d = 0 and d = N/2.
    """
    if n_modes % 2:
        raise ValueError("closed form requires even n_modes")
    if not strength > 0:
        raise ValueError("strength must be positive")
    d = offset % n_modes
    d0 = 1.0 if d == 0 else 0.0
    dh = 1.0 if d == n_modes // 2 else 0.0
    half = n_modes / 2.0
    value = (
        np.exp(-1j * strength * (n_modes - 2) * z)
        + half * (d0 - dh)
        + np.exp(2j * strength * z) * (half * (d0 + dh) - 1.0)
    )
    return complex(value / n_modes)


def pst_distance(strength: float, s: int = 0) -> float:
    """Perfect-transfer distances (2s + 1) pi / (2 C), s = 0, 1, 2, ..."""
    if not strength > 0:
        raise ValueError("strength must be positive")
    if s < 0:
        raise ValueError("s must be a nonnegative integer")
    return (2 * s + 1) * math.pi / (2.0 * strength)


def check_pst(
    spec: NetworkSpec,
    source: int,
    tol: float = 1e-9,
    z_scan_max: float | None = None,
    dz: float | None = None,
) -> PstReport:
    """Check for perfect transfer from ``source`` to its antipode.

    Perfect transfer at z means ``|U_{N/2,0}(z)| = 1``.  The check
    succeeds, for any profile, when the antipodal transfer probability
    at the candidate distance ``pi / (2 C_max)`` reaches 1 - tol, with
    0 < tol < 1 (tol >= 1 would let every ring pass).  The report
    always carries the candidate amplitude and the maximum transfer
    found by a bounded scan (default reach: eight candidate distances).
    """
    n = spec.n_modes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for N={n}")
    target = antipode(n, source)
    if not 0 < tol < 1:
        raise ValueError("tol must satisfy 0 < tol < 1")
    c_ref = spec.profile.max_strength
    z_ref = pst_distance(c_ref)
    amp = complex(offset_amplitudes(spec, [z_ref], offset=n // 2)[0])
    is_pst = abs(amp) ** 2 >= 1.0 - tol
    if z_scan_max is None:
        z_scan_max = 8.0 * z_ref
    scan = transfer_scan(spec, source, target, z_scan_max, dz)
    return PstReport(
        is_pst=is_pst,
        z_pst=z_ref if is_pst else None,
        source=source,
        target=target,
        amplitude_at_zpst=amp,
        max_transfer=scan.max_value,
        z_at_max=scan.z_at_max,
    )


def _golden_max(f, lo: float, hi: float, iterations: int = 40):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iterations):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def z_grid(z_max: float, dz: float, first: float) -> np.ndarray:
    """Grid ``first, first + dz, ...`` up to ``z_max`` inclusive.

    Scans start at ``first = dz``; the CLI traces start at 0.  This is
    the one place that checks that both are finite, ``z_max > 0`` and
    ``0 < dz <= z_max``.
    """
    if not math.isfinite(z_max):
        raise ValueError("z_max must be finite")
    if not z_max > 0:
        raise ValueError("z_max must be positive")
    if not math.isfinite(dz):
        raise ValueError("dz must be finite")
    if not 0 < dz <= z_max:
        raise ValueError("dz must satisfy 0 < dz <= z_max")
    grid = np.arange(first, z_max + 0.5 * dz, dz)
    return grid[grid <= z_max * (1.0 + 1e-12)]


def mode_offset(spec: NetworkSpec, source: int, target: int) -> int:
    """Offset ``(target - source) mod N`` of two checked mode indices."""
    n = spec.n_modes
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("mode indices out of range")
    return (target - source) % n


def antipode(n_modes: int, index: int) -> int:
    """Mode diametrically opposite ``index``; needs an even mode count."""
    if n_modes % 2:
        raise ValueError("antipodal transfer needs an even number of modes")
    return (index + n_modes // 2) % n_modes


def scan_offset(
    spec: NetworkSpec, offset: int, merit, z_max: float, dz: float | None = None
) -> ScanResult:
    """Scan ``merit(u)`` of the amplitude u at ``offset`` over (0, z_max].

    ``merit`` maps amplitudes to values elementwise: it receives the grid
    column as an array and each refinement amplitude as a scalar.  The
    step defaults to ``min(0.01 / C_max, z_max)``.  The best grid point
    is refined by 40 golden-section iterations in a +-2dz window, one
    single-z amplitude evaluation per point.  A ring whose couplings are
    all zero has no default step.
    """
    if dz is None:
        c_max = spec.profile.max_strength
        if not c_max > 0:
            raise ValueError("every coupling is zero: the scan needs an explicit dz")
        dz = min(0.01 / c_max, z_max)
    zs = z_grid(z_max, dz, dz)
    values = merit(offset_amplitudes(spec, zs, offset=offset))
    i = int(np.argmax(values))
    lo = max(zs[i] - 2.0 * dz, zs[0] * 1e-3)
    hi = min(zs[i] + 2.0 * dz, z_max)
    z_best, v_best = _golden_max(
        lambda z: merit(offset_amplitudes(spec, [z], offset=offset)[0]), lo, hi
    )
    if v_best < values[i]:
        z_best, v_best = zs[i], values[i]
    return ScanResult(float(v_best), float(z_best), zs, values, float(dz))


def transfer_scan(
    spec: NetworkSpec,
    source: int,
    target: int,
    z_max: float,
    dz: float | None = None,
) -> ScanResult:
    """Scan the transfer probability |U_target,source|^2 over (0, z_max].

    Grid and refinement as in ``scan_offset``.
    """
    d = mode_offset(spec, source, target)
    # builtin abs, not np.abs: on the scalar refinement points the two can
    # round differently, and one ulp moves the argmax of a flat peak
    return scan_offset(spec, d, lambda u: abs(u) ** 2, z_max, dz)


def ode_oracle(spec: NetworkSpec, amplitudes, z: float, steps: int) -> np.ndarray:
    """Runge-Kutta reference integration of the amplitude equation.

    Integrates d a / dz = -i M a with the classic fourth-order scheme,
    where M is the dense coupling matrix.  ``amplitudes`` may be a
    single N-vector or an (N, k) stack of columns.  Used as an
    independent cross-check of the spectral propagator, never as the
    primary path.

    The step size must resolve the fastest phase: |z| / steps times the
    largest eigenvalue magnitude (bounded by the Gershgorin row sum)
    has to stay below 0.1, otherwise the call is refused.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError("steps must be a positive integer")
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape[0] != spec.n_modes:
        raise ValueError("amplitude vector length must equal n_modes")
    m = coupling_matrix(spec)
    bound = float(np.abs(m).sum(axis=1).max())
    h = z / steps
    if abs(h) * bound >= 0.1:
        needed = math.ceil(10.0 * abs(z) * bound) + 1
        raise ValueError(
            f"steps={steps} too coarse for z={z}: need |z/steps| * "
            f"max|lambda| < 0.1, i.e. steps >= {needed}"
        )

    def deriv(v):
        return -1j * (m @ v)

    for _ in range(int(steps)):
        k1 = deriv(a)
        k2 = deriv(a + 0.5 * h * k1)
        k3 = deriv(a + 0.5 * h * k2)
        k4 = deriv(a + h * k3)
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a
