"""In-memory span tracer over the package's public functions.

The tracer replaces a function at the module where its caller looks the
name up: ``pipeline`` and ``design`` bind imported names directly
(``from .simulate import simulate_nonlinear``), so patching the defining
module alone would record nothing.  Methods are patched on their class.
Spans stay in memory while a pass runs; :meth:`Tracer.layers` folds them
into per-layer calls, self times and counts after the pass, and ``run.py``
writes the raw spans out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager

PHASES = ("pipeline.pretrain", "pipeline.train", "pipeline.design", "pipeline.test")

# (layer, module, attribute): the call site each wrapper replaces.
PHASE_SITES = (
    ("pipeline.pretrain", "diagfilter.pipeline", "cmd_pretrain"),
    ("pipeline.train", "diagfilter.pipeline", "cmd_train"),
    ("pipeline.design", "diagfilter.pipeline", "cmd_design"),
    ("pipeline.test", "diagfilter.pipeline", "cmd_test"),
)
LAYER_SITES = PHASE_SITES + (
    ("pipeline.run_all", "diagfilter.pipeline", "cmd_run_all"),
    ("model.build_context", "diagfilter.pipeline", "build_context"),
    ("simulate.nonlinear", "diagfilter.pipeline", "simulate_nonlinear"),
    ("simulate.linear", "diagfilter.pipeline", "simulate_linear"),
    ("design.gram", "diagfilter.pipeline", "gram_matrix"),
    ("design.q_matrix", "diagfilter.pipeline", "q_matrix"),
    ("design.pretrain", "diagfilter.pipeline", "pretrain_multivariate"),
    ("design.univariate", "diagfilter.pipeline", "design_univariate"),
    ("design.multivariate", "diagfilter.pipeline", "design_multivariate"),
    ("design.worst_case", "diagfilter.pipeline", "worst_case_alpha"),
    ("design.worst_case", "diagfilter.pipeline", "steady_state_margin"),
    ("solvers.qp", "diagfilter.design", "solve_qp"),
    ("solvers.lp", "diagfilter.design", "solve_lp"),
    ("runtime.filter", "diagfilter.runtime", "ResidualFilter.run"),
    ("runtime.detector", "diagfilter.runtime", "Detector.evaluate"),
    ("runtime.calibrate", "diagfilter.pipeline", "calibrate_threshold"),
    ("matio.write", "diagfilter.matio", "save_matrix"),
    ("matio.write", "diagfilter.matio", "save_trajectory"),
    ("matio.write", "diagfilter.matio", "save_residual_trace"),
    ("matio.write", "diagfilter.matio", "save_filter"),
    ("matio.read", "diagfilter.matio", "load_matrix"),
    ("matio.read", "diagfilter.matio", "load_trajectory"),
    ("matio.read", "diagfilter.matio", "load_filter"),
)


def _file_bytes(path, sidecar: bool) -> int:
    from diagfilter.matio import sidecar_path

    paths = [path, sidecar_path(path)] if sidecar else [path]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _rk4_steps(args) -> int:
    plant, dist = args[0], args[1]
    horizon = dist.horizon if hasattr(dist, "horizon") else dist.spec.horizon
    return int(round(horizon / plant.t_s)) * int(round(plant.t_s / plant.dt))


def _counts(layer: str, attr: str, args, result) -> dict:
    """Work done by one call, read from its arguments and result."""
    if layer == "simulate.nonlinear":
        return {"rk4_steps": _rk4_steps(args)}
    if layer in ("solvers.qp", "solvers.lp"):
        return {"iterations": int(result.iterations), "optimal": int(result.status == "optimal")}
    if layer == "runtime.filter":
        return {"samples": int(args[1].shape[-1])}
    if layer in ("matio.write", "matio.read"):
        return {"bytes": _file_bytes(args[0], attr in ("save_trajectory", "load_trajectory"))}
    return {}


class Span:
    __slots__ = ("layer", "parent", "phase", "start", "end", "counts", "error")

    def __init__(self, layer: str, parent: int, phase: str | None):
        self.layer, self.parent, self.phase = layer, parent, phase
        self.start = self.end = 0.0
        self.counts: dict = {}
        self.error: str | None = None


class Tracer:
    """Records one span per call of each patched function while installed."""

    def __init__(self, sites=LAYER_SITES, after_phase=None):
        self.sites = sites
        # Called with the span after each outermost phase call returns,
        # outside every span.
        self.after_phase = after_phase
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans, self._stack = [], []

    def _wrap(self, layer: str, attr: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            phase = layer if layer in PHASES else (spans[parent].phase if parent >= 0 else None)
            span = Span(layer, parent, phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = time.perf_counter()
                span.counts = _counts(layer, attr, args, result)
                return result
            finally:
                stack.pop()
                if self.after_phase and layer in PHASES and not any(
                    spans[i].layer in PHASES for i in stack
                ):
                    self.after_phase(span)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every call site for the duration of the block, then restore."""
        self.reset()
        saved = []
        try:
            for layer, module_name, attr in self.sites:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, name, original))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    def records(self) -> list[dict]:
        """The spans as plain dicts, times relative to the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"layer": s.layer, "parent": s.parent, "phase": s.phase, "start": s.start - t0,
             "end": s.end - t0, "counts": s.counts, "error": s.error}
            for s in self.spans
        ]

    def layers(self) -> dict:
        """Per-layer calls, errors, self time (total and per phase) and counts."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict = {}
        for i, span in enumerate(self.spans):
            rec = out.setdefault(
                span.layer, {"calls": 0, "errors": {}, "self_s": 0.0, "phase_self_s": {}}
            )
            self_s = (span.end - span.start) - child_time[i]
            rec["calls"] += 1
            rec["self_s"] += self_s
            phase = span.phase or "none"
            rec["phase_self_s"][phase] = rec["phase_self_s"].get(phase, 0.0) + self_s
            if span.error:
                rec["errors"][span.error] = rec["errors"].get(span.error, 0) + 1
            for key, value in span.counts.items():
                rec[key] = rec.get(key, 0) + value
        return out
