"""One workload process: set up, then timed passes on request.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It prints JSON lines
on stdout: ``{"event": "ready", ...}`` as soon as set-up is done (imports,
config validation, ``build_context`` and, for ``redesign``, the one-time
training run), with a host-speed reading taken once imports and
``build_context`` are done.  With ``--setup-only`` it exits there.
Otherwise it runs one timed pass for each ``pass`` line on stdin and answers
``{"event": "pass"}``; on ``stop`` (or end of input) it prints
``{"event": "done", ...}`` with every pass's timings, gate verdicts and, for
traced passes, per-layer records and spans.  Between passes ``run.py`` times
fresh set-ups, so passes and set-ups sample the host's speed over the whole
run.

Every pass timing is a ``hostspeed.sample``: its seconds plus the host-speed
kernel readings taken right before and after it.  The kernels run before each
pass and after each pipeline phase; the time they take inside a pass is
subtracted from the pass's wall time.  Traced passes read them only after the
whole pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from gate import DESIGN_FILES, RUN_ALL_FILES, Gate, load_reference
from hostspeed import LIN_PHASES, sample, speed
from spans import LAYER_SITES, PHASE_SITES, Tracer
from workloads import WORKLOADS, config_digest

TEST_EVERY = 3  # redesign: one held-out test after every 3rd design pass


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class SpeedClock:
    """The host-speed readings of one process, in order, and the phase samples between them."""

    def __init__(self):
        self.speeds: list[dict] = []
        self.costs: list[float] = []  # seconds each reading took
        self.phases: dict[str, dict] = {}

    def tick(self) -> None:
        t0 = time.perf_counter()
        self.speeds.append(speed())
        self.costs.append(time.perf_counter() - t0)

    def after_phase(self, span) -> None:
        before = self.speeds[-1]
        self.tick()
        kind = "lin" if span.layer in LIN_PHASES else "sim"
        self.phases[span.layer] = sample(span.end - span.start, kind, [before, self.speeds[-1]])

    def timed(self, fn, kind: str) -> tuple[dict, dict]:
        """Run ``fn``; its wall time less the kernels run inside it, and its phase samples."""
        first, self.phases = len(self.speeds), {}
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        inside = sum(self.costs[first:])
        if len(self.speeds) == first:
            self.tick()
        return sample(wall - inside, kind, self.speeds[first - 1:]), self.phases


def run_pass(wl, pipeline, cfg, out: Path, jobs: int, tracer: Tracer, clock: SpeedClock,
             gate: Gate) -> dict:
    """One timed pass plus its gate; the gate runs outside the timed region."""
    if wl.kind == "run-all":
        shutil.rmtree(out, ignore_errors=True)
    rec: dict = {"traced": tracer.sites is LAYER_SITES, "problems": []}
    if wl.kind == "run-all":
        body, kind = (lambda: pipeline.cmd_run_all(cfg, out, jobs=jobs)), "sim"
    else:
        body, kind = (lambda: pipeline.cmd_design(cfg, out)), "lin"
    try:
        with tracer.installed():
            rec["experiment_s"], phases = clock.timed(body, kind)
    except Exception:
        rec["problems"].append(traceback.format_exc(limit=3))
        return rec
    design = [phases[p] for p in ("pipeline.pretrain", "pipeline.design") if p in phases]
    if design:
        rec["design_s"] = {"s": sum(s["s"] for s in design), "kind": "lin",
                           "k": [k for s in design for k in s["k"]]}
    if wl.kind == "run-all" and "pipeline.train" in phases:
        rec["train_s"] = phases["pipeline.train"]
        rec["test_s"] = phases["pipeline.test"]
    if rec["traced"]:
        rec["layers"] = tracer.layers()
        rec["spans"] = tracer.records()
    try:
        rec["problems"] += gate.check_design(out)
        if wl.kind == "run-all":
            rec["problems"] += gate.check_test(out)
            rec["problems"] += gate.check_repeatable(out, RUN_ALL_FILES)
        else:
            rec["problems"] += gate.check_repeatable(out, DESIGN_FILES)
    except (OSError, KeyError, ValueError) as exc:
        rec["problems"].append(f"report unreadable: {exc!r}")
    return rec


def run_test(pipeline, cfg, out: Path, tracer: Tracer, clock: SpeedClock, gate: Gate) -> dict:
    rec: dict = {"problems": []}
    try:
        with tracer.installed():
            _, phases = clock.timed(lambda: pipeline.cmd_test(cfg, out), "sim")
        rec["test_s"] = phases["pipeline.test"]
        rec["problems"] += gate.check_test(out)
    except Exception:
        rec["problems"].append(traceback.format_exc(limit=3))
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out = Path(args.out)

    from diagfilter import pipeline

    cfg = pipeline.ExperimentConfig.from_file(args.config)
    ctx = pipeline.build_context(cfg)
    # The kernels read here are timed inside the set-up; run.py subtracts them.
    t0 = time.perf_counter()
    ready: dict = {"event": "ready", "speed": speed()}
    kernel_s = time.perf_counter() - t0
    if wl.kind == "redesign":
        t1 = time.perf_counter()
        pipeline.cmd_train(cfg, out, jobs=args.jobs)
        t2 = time.perf_counter()
        ready["train_s"] = sample(t2 - t1, "sim", [ready["speed"], speed()])
        kernel_s += time.perf_counter() - t2
    ready["kernel_s"] = kernel_s
    emit(ready)
    if args.setup_only:
        return 0

    raw = json.loads(Path(args.config).read_text())
    gate = Gate(load_reference(args.reference, wl.family, cfg.seed, config_digest(raw)), ctx)
    clock = SpeedClock()
    phase_timer = Tracer(PHASE_SITES, after_phase=clock.after_phase)
    layer_tracer = Tracer(LAYER_SITES)
    pass_dir = out / "pass" if wl.kind == "run-all" else out
    passes, tests = [], []
    for line in sys.stdin:
        if line.strip() != "pass":
            break
        traced = bool(args.trace) and len(passes) % 2 == 1
        clock.tick()  # a set-up may have run since the last reading
        passes.append(
            run_pass(wl, pipeline, cfg, pass_dir, args.jobs,
                     layer_tracer if traced else phase_timer, clock, gate)
        )
        if wl.kind == "redesign" and len(passes) % TEST_EVERY == 0:
            # A user checks a settled design on the held-out runs; spread over
            # the window, these give test_s samples from the whole run.
            tests.append(run_test(pipeline, cfg, pass_dir, phase_timer, clock, gate))
        emit({"event": "pass"})
    if wl.kind == "redesign" and not tests:
        tests.append(run_test(pipeline, cfg, pass_dir, phase_timer, clock, gate))

    done: dict = {"event": "done", "passes": passes, "tests": tests, "speeds": clock.speeds}
    # The --jobs pool's workers are waited-for children: their peak counts too.
    done["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
