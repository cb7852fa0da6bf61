"""Transition amplitudes and transfer checks for circulant networks.

The amplitude evolution equation

    d a_j / dz = -i sum_r C_r (a_{j+r} + a_{j-r})

is solved exactly in the Fourier basis: a mode with eigenvalue
``lambda_p`` only acquires the phase ``exp(-i lambda_p z)``, so the
site-to-site transition amplitude is

    U_jl(z) = (1/N) sum_p exp(-i lambda_p z) exp(i 2 pi p (j - l) / N)

which depends on j and l through the offset d = (j - l) mod N only.
This spectral sum is exact for any z.  All N offsets at once
(``transport``, ``tmsv``, the dense propagator) are the sum as written:
the phases of the N modes and one inverse FFT per z.

One offset d (the scans) needs one column, and the spectrum has few
distinct values (three for the collapse profile below), so there the
phase is evaluated once per distinct eigenvalue mu_g.
``spectral.degenerate_groups`` groups the sorted eigenvalues that lie
within ``tol`` of their group's first member mu_g, where tol is
``1e-13 / max(1, max|z|)`` rounded down to a power of two, and the sum
runs once per group:

    u_d(z) = sum_g w_g(d) exp(-i mu_g z),
    w_g(d) = (1/N) sum_{p in g} exp(i 2 pi p d / N)

A ``NetworkSpec`` computes its spectrum once and holds it, and the
spectrum holds the last plan: the groups at one tol with the weights
of one offset, whose phases take (p d) mod N in integers.  A call with
the same tol and offset computes only the phase sum.  Every reach in one
octave has the same tol, so the single-z calls of a golden-section
refinement share one FFT, one sort and one plan, and the per-block calls
of a scan one plan per octave of z.

Replacing each member by mu_g moves its phase by at most tol * |z| <=
1e-13, and eigenvalues that are distinct at that resolution are never
merged.  One offset differs from the sum over all N modes by at most

    tol * max|z| + c * eps * max|mu z|

with c a small constant; every offset at once carries only the second
term.  It is the rounding of the phase arguments mu z themselves, which
any floating-point exp(-i mu z) carries, and it dominates on long grids
(6.6e-12 at z = 5000 on the evanescent N = 12, mu = 0.815 ring).  On an
evenly spaced grid the one-offset sum reads its phases from a two-level
table, anchor phases times a shared table of step phases, with a
first-order correction for the rounding gap between the grid and the
table; a block of points off the grid and single points take one exp
per phase.

With the uniform profile of range N/2 - 1 the spectrum collapses onto
three values and the propagator has a closed form.  At the distances
``(2s+1) pi / (2C)`` and for mode counts divisible by four the full
amplitude, with phase -1, arrives at the diametrically opposite site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import NetworkSpec, circulant
from .spectral import dispersion

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# grid points per scan block, and phase factors exp(-i mu_g z) held at
# once by the single-offset sum
_BLOCK = 1 << 16
# largest first-order phase gap |mu_g delta| that the two-level table
# corrects; the neglected second-order term (mu delta)^2 / 2 is below 1e-16
_GRID_DRIFT = 1e-8
# golden-section iterations that refine a scan's best grid point
_GOLDEN_ITERATIONS = 40


@dataclass(frozen=True)
class Propagator:
    """Complex N x N transition-amplitude matrix.

    Unitarity (to 1e-10) is checked on construction and the matrix is
    frozen against accidental writes.  ``propagator(spec, z)`` builds
    the circulant one of a network at distance z.
    """

    matrix: np.ndarray

    def __post_init__(self):
        u = np.array(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("propagator matrix must be square")
        defect = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
        if not defect <= 1e-10:
            raise ValueError(f"propagator is not unitary (defect {defect:.2e})")
        u.setflags(write=False)
        object.__setattr__(self, "matrix", u)


@dataclass(frozen=True)
class PstReport:
    """Outcome of a perfect-transfer check between antipodal sites.

    ``is_pst`` is true when the antipodal transfer probability at the
    candidate distance ``pi / (2 C_max)`` reaches 1 - tol, for any
    profile; ``z_pst`` is set only then, and deciding at the candidate
    alone is a known defect (see ``check_pst``).  ``amplitude_at_zpst``
    is the antipodal amplitude at the candidate distance regardless of
    the outcome.  ``max_transfer`` and ``z_at_max`` come from a bounded
    scan of the transfer probability.
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


@dataclass(frozen=True)
class ScanResult:
    """Grid scan of a figure of merit over propagation distance.

    ``max_value`` and ``z_at_max`` include the local golden-section
    refinement around the best grid point, so they may improve slightly
    on the grid maximum.  ``dz`` is the grid step the scan used.  The
    grid trace itself is not kept: ``scan_offset`` hands it to its
    ``on_block`` callback one block at a time.
    """

    max_value: float
    z_at_max: float
    dz: float


def offset_amplitudes(spec: NetworkSpec, zs, *, offset: int | None = None) -> np.ndarray:
    """Transition amplitudes at each distance, for every offset or for one.

    Without ``offset`` returns an array of shape (len(zs), N) whose [i, d]
    entry is the amplitude between any two modes separated by d (mod N)
    at distance zs[i].  Column 0 is the return amplitude.  With
    ``offset=d`` (an integer, 0 <= d < N) returns the 1-D array of
    column d alone.

    Every z must be finite, and so must ``max|lambda| * max(1, max|z|)``,
    with max|lambda| the one ``Spectrum.max_abs`` holds.
    Every offset is the inverse FFT of the N phases exp(-i lambda_p z).
    One offset evaluates its phases at the distinct eigenvalues only and
    differs from the sum over all N modes by at most the module
    docstring's bound.  The spectrum is the one ``spec`` holds, grouped at
    the power of two ``tol`` at or below ``1e-13 / max(1, max|z|)``; the
    spectrum holds the groups and the weights of this offset until a call
    with another tol or offset replaces them (``Spectrum.plan``).  It sums
    in blocks of about ``_BLOCK`` entries, so its memory is O(len(zs)) for
    any N, and on an evenly spaced ``zs`` reads ``_group_sum``'s table.
    """
    spectrum = dispersion(spec)
    n = spec.n_modes
    if offset is not None and not (isinstance(offset, (int, np.integer)) and 0 <= offset < n):
        raise ValueError(f"offset must be an integer in 0..{n - 1}, got {offset!r}")
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    # one z, the refinement's call, is read without an array reduction;
    # nan propagates through max, so both refuse every non-finite z
    reach = abs(float(zs[0])) if zs.size == 1 else float(np.abs(zs).max(initial=1.0))
    if not math.isfinite(reach):
        raise ValueError("z must be finite")
    reach = max(1.0, reach)
    top = spectrum.max_abs
    if not math.isfinite(top * reach):
        raise ValueError(f"the phase lambda z overflows: max|lambda| {top:g} at max|z| {reach:g}")
    if offset is None:
        return np.fft.ifft(np.exp(-1j * np.outer(zs, spectrum.eigenvalues)), axis=1)
    # 2^floor(log2(1e-13 / reach)): one tol for every reach of an octave
    plan = spectrum.plan(math.ldexp(0.5, math.frexp(1e-13 / reach)[1]), offset)
    if zs.size == 1:  # _direct_sum's product, without its output array and loop
        return np.exp(-1j * np.outer(zs, plan.mu)) @ plan.weights
    return _group_sum(zs, plan.mu, plan.weights)


def _direct_sum(zs, mu, weights, out) -> None:
    """``out = sum_g weights_g exp(-i mu_g zs)``, one ``exp`` per phase."""
    rows = max(1, _BLOCK // mu.size)
    for i in range(0, zs.size, rows):
        out[i : i + rows] = np.exp(-1j * np.outer(zs[i : i + rows], mu)) @ weights


def _group_sum(zs, mu, weights) -> np.ndarray:
    """``sum_g weights_g exp(-i mu_g z)`` at every z, from a two-level table on grids.

    The points are taken in rows of ``width = min(isqrt(len(zs)),
    _BLOCK // G)``, so z_k with k = a width + b lies near the row's first
    point plus ``t_b = b h``, h the mean spacing.  A row's phases are the
    products of its G anchor phases and a shared ``G x width`` table of
    exp(-i mu_g t_b), one matrix product, and the first-order term
    ``-i delta_k sum_g weights_g mu_g (...)`` (a second product) restores
    the gap delta_k between z_k and anchor + t_b, so an evenly spaced
    grid computes O(len(zs) / width + width) exponentials per group
    instead of len(zs).  A block whose ``max|delta| * max|mu|`` exceeds
    ``_GRID_DRIFT`` (its points are not evenly spaced), a short grid and
    the tail of fewer than ``width`` points use one ``exp`` per phase.
    A block holds about ``_BLOCK / 4`` points (anchor phases, where G
    exceeds width) of four complex temporaries each, the memory of one
    direct block.
    """
    out = np.empty(zs.size, dtype=complex)
    width = min(math.isqrt(zs.size), _BLOCK // mu.size)
    if width < 2:
        _direct_sum(zs, mu, weights, out)
        return out
    steps = np.arange(width) * ((zs[-1] - zs[0]) / (zs.size - 1))
    table = np.exp(-1j * np.outer(mu, steps))
    mu_max = float(np.abs(mu).max())
    span = max(1, _BLOCK // (4 * max(width, mu.size))) * width
    full = zs.size - zs.size % width
    for i in range(0, full, span):
        z = zs[i : min(i + span, full)].reshape(-1, width)
        block = out[i : i + z.size].reshape(z.shape)
        delta = z - z[:, :1] - steps
        # written so that nan (a non-finite grid) fails the test
        if not float(np.abs(delta).max()) * mu_max <= _GRID_DRIFT:
            _direct_sum(z.ravel(), mu, weights, block.reshape(-1))
            continue
        anchors = np.exp(-1j * np.outer(z[:, 0], mu)) * weights
        np.matmul(anchors, table, out=block)
        slope = (anchors * mu) @ table
        slope *= delta
        block -= 1j * slope
    _direct_sum(zs[full:], mu, weights, out[full:])
    return out


def propagator(spec: NetworkSpec, z: float) -> Propagator:
    """Exact propagator built from the Fourier-mode phase factors."""
    return Propagator(circulant(offset_amplitudes(spec, [z])[0]))


def pst_distance(strength: float, s: int = 0) -> float:
    """Perfect-transfer distances (2s + 1) pi / (2 C), s = 0, 1, 2, ...

    A strength so small that the distance overflows is refused.
    """
    if not strength > 0:
        raise ValueError("strength must be positive")
    if s < 0:
        raise ValueError("s must be a nonnegative integer")
    z = (2 * s + 1) * math.pi / (2.0 * strength)
    if not math.isfinite(z):
        raise ValueError(
            f"strength {strength:g} is too small: the distance "
            "(2s + 1) pi / (2 C) overflows"
        )
    return z


def check_pst(spec: NetworkSpec, source: int, tol: float = 1e-9) -> PstReport:
    """Check for perfect transfer from ``source`` to its antipode.

    Perfect transfer at z means ``|U_{N/2,0}(z)| = 1``.  The check
    succeeds, for any profile, when the antipodal transfer probability
    at the candidate distance ``pi / (2 C_max)`` reaches 1 - tol, with
    0 < tol < 1 (tol >= 1 would let every ring pass).  The report
    always carries the candidate amplitude and the maximum transfer
    found by a scan of (0, 8 pi / (2 C_max)], eight candidate distances,
    at the default step of ``scan_offset``.  Known defect: only the
    candidate decides ``is_pst``, so ``custom:1,0.5`` at N = 4, which
    transfers fully at z = pi, is misreported with ``max_transfer`` 1.0
    next to ``is_pst`` false.  A strength so small that the scan reach
    overflows is refused before any amplitude is computed.
    """
    n = spec.n_modes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for N={n}")
    target = antipode(n, source)
    if not 0 < tol < 1:
        raise ValueError("tol must satisfy 0 < tol < 1")
    c_ref = spec.profile.max_strength
    z_ref = pst_distance(c_ref)
    reach = 8.0 * z_ref
    if not math.isfinite(reach):
        raise ValueError(
            f"strength {c_ref:g} is too small: the scan reach 8 pi / (2 C) overflows"
        )
    amp = complex(offset_amplitudes(spec, [z_ref], offset=n // 2)[0])
    is_pst = abs(amp) ** 2 >= 1.0 - tol
    scan = transfer_scan(spec, source, target, reach)
    return PstReport(
        is_pst=is_pst,
        z_pst=z_ref if is_pst else None,
        source=source,
        target=target,
        amplitude_at_zpst=amp,
        max_transfer=scan.max_value,
        z_at_max=scan.z_at_max,
    )


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_ITERATIONS):
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def grid_points(z_max: float, dz: float, first: float) -> int:
    """Number of points of the grid ``first, first + dz, ...`` up to ``z_max``.

    Both bounds must be finite, ``z_max > 0`` and ``0 < dz <= z_max``;
    numpy must be able to index the points, and there may be at most
    2^52 of them: beyond that dz is below the float64 spacing of z near
    z_max and neighbouring points round to the same z.  The count is
    ``np.arange(first, z_max + 0.5 dz, dz)``'s, less the points of its
    last half step that lie beyond ``z_max``.
    """
    z_max, dz, first = float(z_max), float(dz), float(first)
    if not math.isfinite(z_max):
        raise ValueError("z_max must be finite")
    if not z_max > 0:
        raise ValueError("z_max must be positive")
    if not math.isfinite(dz):
        raise ValueError("dz must be finite")
    if not 0 < dz <= z_max:
        raise ValueError("dz must satisfy 0 < dz <= z_max")
    # Python floats: the quotient may overflow to inf, which is refused
    points = (z_max + 0.5 * dz - first) / dz
    if not points <= np.iinfo(np.intp).max:
        raise ValueError(
            f"dz = {dz:g} is too small for z_max = {z_max:g}: the grid would "
            f"have {points:.3g} points, more than numpy can index"
        )
    if not points <= 2.0**52:
        raise ValueError(
            f"dz = {dz:g} is too small for z_max = {z_max:g}: the grid would "
            f"have {points:.3g} points, more than 2^52, so neighbouring points "
            f"would round to the same z"
        )
    count = math.ceil(points)
    step = (first + dz) - first
    # the grid increases, so the points beyond z_max are its last ones
    while first + (count - 1) * step > z_max * (1.0 + 1e-12):
        count -= 1
    return count


def z_grid(z_max: float, dz: float, first: float) -> np.ndarray:
    """Grid ``first, first + dz, ...`` up to ``z_max`` inclusive, as one array.

    The reference that the tests hold ``z_blocks`` to bit for bit; every
    run reads its grid from ``z_blocks``.  ``grid_points`` refuses a
    grid that cannot be built.
    """
    grid_points(z_max, dz, first)
    grid = np.arange(first, z_max + 0.5 * dz, dz)
    return grid[grid <= z_max * (1.0 + 1e-12)]


def z_blocks(z_max: float, dz: float, first: float, size: int = _BLOCK):
    """Yield ``z_grid(z_max, dz, first)`` in consecutive blocks of ``size`` points.

    Only the last block may be shorter.  Point i is
    ``first + i * ((first + dz) - first)``, the value numpy's ``arange``
    fills in (it writes point 1 as ``first + dz``, the same value for
    the starts 0 and dz used here), and there are ``grid_points`` of
    them, so the blocks join to ``z_grid``'s array bit for bit.  Only
    one block is held at a time, whatever the grid's size.
    """
    first = float(first)
    count = grid_points(z_max, dz, first)
    step = (first + float(dz)) - first
    for start in range(0, count, size):
        yield first + np.arange(start, min(start + size, count)) * step


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


def default_step(spec: NetworkSpec, z_max: float) -> float:
    """A scan's grid step when none is given: ``min(0.01 / C_max, z_max)``.

    There is none for a ring whose couplings are all zero, nor for one
    whose spectrum overflows: ``spec.spectrum`` refuses it.
    """
    c_max = spec.profile.max_strength
    if not c_max > 0:
        raise ValueError("every coupling is zero: the scan needs an explicit dz")
    spec.spectrum  # computed here, so that an overflow is refused before the scan
    return min(0.01 / c_max, z_max)


def scan_offset(
    spec: NetworkSpec,
    offset: int,
    merit,
    z_max: float,
    dz: float | None = None,
    on_block=None,
) -> ScanResult:
    """Scan ``merit(u)`` of the amplitude u at ``offset`` over (0, z_max].

    The grid ``dz, 2 dz, ...`` of ``z_grid(z_max, dz, dz)`` is evaluated
    one block of at most ``_BLOCK`` points at a time (``z_blocks``), one
    ``offset_amplitudes`` call per block, so the scan's memory stays
    bounded for any z_max and dz.  ``merit`` maps amplitudes to values
    elementwise: it receives a block's amplitudes as an array and each
    refinement amplitude as a scalar.  ``on_block(zs, values)``, when
    given, receives every block in grid order; only the running maximum
    is kept, the first of equal values as with ``np.argmax`` over the
    whole grid.  The step defaults to ``default_step(spec, z_max)``.
    The best grid point is refined by ``_GOLDEN_ITERATIONS``
    golden-section iterations in a +-2dz window, one single-z amplitude
    evaluation per point.
    """
    dz = default_step(spec, z_max) if dz is None else dz
    grid_z = grid_v = None
    for zs in z_blocks(z_max, dz, dz):
        values = merit(offset_amplitudes(spec, zs, offset=offset))
        i = int(np.argmax(values))
        if grid_v is None or values[i] > grid_v:
            grid_z, grid_v = zs[i], values[i]
        if on_block is not None:
            on_block(zs, values)
    lo = max(grid_z - 2.0 * dz, dz * 1e-3)
    hi = min(grid_z + 2.0 * dz, z_max)
    z_best, v_best = _golden_max(
        lambda z: merit(offset_amplitudes(spec, [z], offset=offset)[0]), lo, hi
    )
    if v_best < grid_v:
        z_best, v_best = grid_z, grid_v
    return ScanResult(float(v_best), float(z_best), float(dz))


def transfer_scan(
    spec: NetworkSpec,
    source: int,
    target: int,
    z_max: float,
    dz: float | None = None,
    on_block=None,
) -> ScanResult:
    """Scan the transfer probability |U_target,source|^2 over (0, z_max].

    Grid, refinement and ``on_block`` as in ``scan_offset``.
    """
    d = mode_offset(spec, source, target)
    # builtin abs, not np.abs: on the scalar refinement points the two can
    # round differently, and one ulp moves the argmax of a flat peak
    return scan_offset(spec, d, lambda u: abs(u) ** 2, z_max, dz, on_block)

