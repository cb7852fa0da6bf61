"""Transition amplitudes and transfer checks for circulant networks.

The amplitude evolution equation

    d a_j / dz = -i sum_r C_r (a_{j+r} + a_{j-r})

is solved exactly in the Fourier basis: a mode with eigenvalue
``lambda_p`` only acquires the phase ``exp(-i lambda_p z)``, so the
site-to-site transition amplitude is

    U_jl(z) = (1/N) sum_p exp(-i lambda_p z) exp(i 2 pi p (j - l) / N)

which depends on j and l through the offset d = (j - l) mod N only.
This spectral sum is exact for any z.  All N offsets at once
(``transport``, the dense propagator) are the sum as written: the
phases of the N modes and one inverse FFT per z.

One offset d (the scans) needs one column, a few offsets (``tmsv``'s
pairs) a few, and the spectrum has few distinct values (three for the
collapse profile below), so there the phase is evaluated once per
distinct eigenvalue mu_g.  The sorted eigenvalues are grouped where
they are exactly equal, with no tolerance, and the sum runs once per
group:

    u_d(z) = sum_g w_g(d) exp(-i mu_g z),
    w_g(d) = (1/N) sum_{p in g} exp(i 2 pi p d / N)

The weights of every offset sum to the z = 0 identity, which is checked
once where they are built; with real eigenvalues it makes every U(z)
unitary, so no z is checked.

A ``NetworkSpec`` computes its spectrum once and holds it, mirror
symmetric bit for bit, so the two roundings of one eigenvalue never
split a group.  The module holds the groups and weights of the last
spectrum and offset asked for (``_offset_weights``), whose phases take
(p d) mod N in integers, so the single-z calls of a golden-section
refinement and the per-block calls of a scan share one sort.

Every member of a group has the group's eigenvalue, so one offset is
the sum over all N modes up to rounding, as every offset at once is:
both differ from the exact sum by at most

    c * eps * max(1, max|mu z|)

with c a small constant.  The rounding of the phase arguments mu z
themselves, which any floating-point exp(-i mu z) carries, dominates
on long grids (6.6e-12 at z = 5000 on the evanescent N = 12,
mu = 0.815 ring).  On an evenly spaced grid the one-offset sum reads
its phases from a two-level table, anchor phases times a shared table
of step phases, with a first-order correction for the rounding gap
between the grid and the table; a tuple, a block of points off the
grid and single points take one exp per phase.

With the uniform profile of range N/2 - 1 the spectrum collapses onto
three values and the propagator has a closed form.  At the distances
``(2s+1) pi / (2C)`` and for mode counts divisible by four the full
amplitude, with phase -1, arrives at the diametrically opposite site.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import NetworkSpec, circulant
from .spectral import Spectrum, dispersion

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


def offset_amplitudes(
    spec: NetworkSpec, zs, *, offset: int | tuple[int, ...] | None = None
) -> np.ndarray:
    """Transition amplitudes at each distance, for every offset, for one or for a few.

    Without ``offset`` returns an array of shape (len(zs), N) whose [i, d]
    entry is the amplitude between any two modes separated by d (mod N)
    at distance zs[i].  Column 0 is the return amplitude.  With
    ``offset=d`` (an integer, 0 <= d < N) returns the 1-D array of
    column d alone; with a nonempty tuple of such integers, the
    (len(zs), k) array of its k columns in the tuple's order.

    Every z must be finite, and so must ``max|lambda| * max(1, max|z|)``,
    with max|lambda| the one ``Spectrum.max_abs`` holds.
    Every offset is the inverse FFT of the N phases exp(-i lambda_p z).
    One offset or a tuple, at one z or many, evaluates its phases at the
    distinct eigenvalues of the spectrum ``spec`` holds, weighted by
    ``_offset_weights``, through the one entry ``_group_sum``, and equals
    the sum over all N modes up to the rounding of the module
    docstring's bound.  Its memory is O(len(zs) k) for any N.
    """
    spectrum = dispersion(spec)
    n = spec.n_modes
    offsets = offset if isinstance(offset, tuple) and offset else (offset,)
    if offset is not None and not all(
        isinstance(d, (int, np.integer)) and 0 <= d < n for d in offsets
    ):
        raise ValueError(
            f"offset must be an integer in 0..{n - 1} or a nonempty tuple of them, got {offset!r}"
        )
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
    return _group_sum(zs, *_offset_weights(spectrum, offset))


@functools.lru_cache(maxsize=1)
def _offset_weights(spectrum: Spectrum, offset) -> tuple[np.ndarray, np.ndarray]:
    """``_group_weights``'s mu_g and weights, checked, read-only and held.

    ``weights`` is a vector for an integer offset and G x k for a tuple,
    each column bit for bit its integer's vector.  Each column must sum
    to the z = 0 identity (1 for d = 0, else 0) within 1e-10: with the
    real eigenvalues ``Spectrum`` checks, every U(z) is then unitary, so
    this check, once per build, stands for a per-z one.  Only the last
    spectrum and offset are held.
    """
    offsets = np.atleast_1d(offset)
    mu, weights = _group_weights(spectrum, offsets)
    defect = float(np.abs(weights.sum(axis=0) - (offsets == 0)).max())
    if not defect <= 1e-10:
        raise ValueError(f"propagator is not unitary (defect {defect:.2e})")
    if not isinstance(offset, tuple):
        weights = weights[:, 0]
    mu.setflags(write=False)
    weights.setflags(write=False)
    return mu, weights


def _group_weights(spectrum: Spectrum, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct eigenvalues mu_g and their G x k weights w_g(d) for the offsets d.

    A group g is a run of exactly equal sorted eigenvalues: mu_g is its
    value and w_g(d) its (1/N) sum_{p in g} exp(i 2 pi p d / N).
    """
    n = spectrum.n_modes
    order = np.argsort(spectrum.eigenvalues)
    values = spectrum.eigenvalues[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    # (p d) mod N in integers keeps the Fourier phase exact for large p d
    phases = np.exp(2j * np.pi / n * (np.multiply.outer(order, offsets) % n))
    return values[starts], np.add.reduceat(phases, starts) / n


def _direct_sum(zs, mu, weights, out) -> None:
    """``out = sum_g weights_g exp(-i mu_g zs)``, one ``exp`` per phase.

    A BLAS product's bits depend on its row count: a weight vector keeps
    the 1-D ``@`` of the one-offset goldens, G x k weights ``np.einsum``,
    whose rows do not depend on the block they are cut from.
    """
    rows = max(1, _BLOCK // mu.size)
    for i in range(0, zs.size, rows):
        # np.outer's product, without its ravel calls
        phases = np.exp(-1j * (zs[i : i + rows, None] * mu))
        if weights.ndim == 1:
            out[i : i + rows] = phases @ weights
        else:
            np.einsum("zg,gk->zk", phases, weights, out=out[i : i + rows])


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
    ``_GRID_DRIFT`` (its points are not evenly spaced), the tail of
    fewer than ``width`` points, one z, a short grid (``width < 2``) and
    every tuple of offsets take ``_direct_sum``.  The table's bits depend
    on where a grid is cut (4-point blocks of ``z_grid(pi, 0.01, 0)``
    move 273 of 315 entries of offset N/2 at uniform N = 8 and 293 at
    evanescent N = 12; summed directly, the tuple ``(0, 1, N/2)`` moves 0
    of 945), so a tuple never reads it: ``tmsv``'s bytes must not depend
    on its z-block size.  A block holds about ``_BLOCK / 4`` points
    (anchor phases, where G exceeds width) of four complex temporaries
    each, the memory of one direct block.
    """
    out = np.empty((zs.size, *weights.shape[1:]), dtype=complex)
    width = min(math.isqrt(zs.size), _BLOCK // mu.size)
    if width < 2 or weights.ndim == 2:
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
    next to ``is_pst`` false.  An all-zero ring, or a strength so small
    that the scan reach overflows, is refused before any amplitude is computed.
    """
    n = spec.n_modes
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for N={n}")
    target = antipode(n, source)
    if not 0 < tol < 1:
        raise ValueError("tol must satisfy 0 < tol < 1")
    c_ref = spec.profile.max_strength
    if not c_ref > 0:
        raise ValueError("every coupling is zero: there is no transfer distance pi / (2 C)")
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

