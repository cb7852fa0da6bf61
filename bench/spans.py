"""Spans around pstnet's public functions, installed from outside the package.

``Tracer.install`` wraps each function named in ``LAYERS`` and rebinds the
wrapper at every binding site: the defining module and every other
``pstnet`` module that imported the function by name (``cli`` imports
library functions, ``fock`` imports ``offset_amplitudes``, ``synthesis``
imports ``check_pst``).  Patching only the defining module would silently
drop those calls.

Only whole public calls are spanned, never per-element helpers such as
``cli._fmt``, and no memory tracing is done: both would distort the
timings being explained.  A layer's self time is the time inside its
spans minus the time inside their child spans.  The program runs on one
thread and has no queues or retries, so there is no wait time to report.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

LAYERS = {
    "lattice": ("uniform_profile", "evanescent_profile", "custom_profile", "coupling_matrix"),
    "spectral": ("dispersion", "degeneracy_histogram", "collapsed_spectrum",
                 "opposite_site_spectrum"),
    "propagation": ("offset_amplitudes", "propagator", "transfer_scan", "check_pst"),
    "fock": ("cat_fidelity_scan", "cat_fidelity", "photon_numbers", "cat_normalization"),
    "gaussian": ("tmsv_covariance", "symplectic_from_propagator", "evolve_covariance",
                 "squeezing_factor"),
    "synthesis": ("solve_weights", "physical_parameters", "verify_synthesis"),
    "cli": ("main",),
}


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    args: tuple


class Tracer:
    """Records one span per call of a wrapped function, kept in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"pstnet.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("pstnet"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _wrap(self, layer: str, name: str, original):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(layer, name, start, end, parent, args)

        span.__wrapped__ = original
        return span

    def reset(self) -> list[Span]:
        """Hand over the recorded spans and start an empty list."""
        done = list(self.spans)
        self.spans.clear()
        return done


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self time, calls and work counts of one traced pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s, inner in zip(spans, child_time):
        out[f"{s.layer}.self_s"] += (s.end - s.start) - inner
        out[f"{s.layer}.calls"] += 1

    points = single = 0
    cos_terms = 0
    dispersion_calls = 0
    distinct = set()
    steps = 0
    for s in spans:
        if s.name == "offset_amplitudes":  # pstnet passes (spec, zs) positionally
            spec, zs = s.args
            count = len(zs) if hasattr(zs, "__len__") else 1
            single += count == 1
            points += count * spec.n_modes
        elif s.name == "dispersion":
            spec = s.args[0]
            dispersion_calls += 1
            cos_terms += spec.n_modes * spec.profile.interaction_range
            distinct.add(spec)
        elif s.name == "evolve_covariance":
            steps += 1
    out["propagation.single_z_calls"] = single
    out["propagation.amplitude_points"] = points
    # complex128 phase array plus its inverse FFT, from array sizes
    out["propagation.bytes_computed"] = 2 * 16 * points
    out["spectral.cos_terms"] = cos_terms
    out["spectral.unique_ratio"] = len(distinct) / dispersion_calls if dispersion_calls else 1.0
    out["gaussian.self_s_per_step"] = out["gaussian.self_s"] / steps if steps else 0.0
    return out
