"""diagfilter benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload uni-assisted --seed 0 --seconds 35 --trace 0

Run from the repository root.  The program is used from ``src/`` as
checked out; nothing is installed.  Each run

1. writes the workload's config for ``--seed`` (see ``workloads.py``);
2. times a fixed reference kernel (``hostspeed.sim_kernel_s``, 20000
   steps), so host drift shows beside the metrics;
3. starts the worker process and times it from spawn to its "ready" line,
   then, for ``--seconds``, has it run timed passes one at a time; between
   passes it times more fresh set-ups (``--setup-only`` workers), spread
   over the window;
4. times the reference kernel again, prints one JSON line with the
   environment header, every sample and the gate's findings, then the
   result line the contract asks for.  A traced run also writes its raw
   spans to ``perfbench/_work/spans-<workload>-seed<seed>.json``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Any failed pass makes the result
``correct: false`` and the exit code 1.

Timings are corrected for the host's speed (``hostspeed.py``): each is the
median over the run's samples of seconds at the speed kernels' nominal
speed; the detail line also gives each one's raw median.  Per-layer times
are medians over traced passes, as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import sample, scaled, scaled_median, sim_kernel_s  # noqa: E402
from workloads import THREAD_ENV, WORKLOADS, config_seed, family_config  # noqa: E402

# Fresh-interpreter set-ups of an untraced run go between passes while they
# have taken less than SETUP_SHARE of the run so far, and number at least
# MIN_SETUPS.  So they spread over the window as the passes do, and a set-up
# of about 1 s is sampled about 10 times, a redesign one (2-4 s: it trains) 5.
SETUP_SHARE = 0.3
MIN_SETUPS = 5
MIN_PASSES = 2
# The header's before/after host-speed reading: a longer run of the simulator kernel.
REFERENCE_ITERATIONS = 20000
RUN_LIMIT_S = 170.0


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": THREAD_ENV,
    }


def _metric_values(layers: dict) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""

    def rec(layer):
        return layers.get(layer, {})

    def calls(layer):
        return rec(layer).get("calls", 0)

    def self_s(layer):
        return rec(layer).get("self_s", 0.0)

    nl = rec("simulate.nonlinear")
    steps = nl.get("rk4_steps", 0)
    qp = rec("solvers.qp")
    out = {
        "simulate.nonlinear.calls": (calls("simulate.nonlinear"), "count"),
        "simulate.nonlinear.rk4_steps": (steps, "count"),
        "simulate.nonlinear.train.self_s": (nl.get("phase_self_s", {}).get("pipeline.train", 0.0), "s"),
        "simulate.nonlinear.test.self_s": (nl.get("phase_self_s", {}).get("pipeline.test", 0.0), "s"),
        "simulate.nonlinear.us_per_step": (1e6 * self_s("simulate.nonlinear") / steps if steps else 0.0, "us"),
        "solvers.qp.optimal_ratio": (qp.get("optimal", 0) / qp["calls"] if qp.get("calls") else 0.0, "ratio"),
        "solvers.qp.errors": (qp.get("errors", {}).get("SolverError", 0), "count"),
    }
    for layer in ("simulate.linear", "design.q_matrix", "design.univariate", "design.multivariate",
                  "solvers.qp", "solvers.lp", "runtime.filter", "matio.write", "matio.read",
                  "model.build_context"):
        out[f"{layer}.calls"] = (calls(layer), "count")
    for layer, key in (("solvers.qp", "iterations"), ("solvers.lp", "iterations"),
                       ("runtime.filter", "samples")):
        out[f"{layer}.{key}"] = (rec(layer).get(key, 0), "count")
    for layer in ("matio.write", "matio.read"):
        out[f"{layer}.bytes"] = (rec(layer).get("bytes", 0), "B")
    for layer in ("simulate.linear", "design.gram", "design.q_matrix", "design.pretrain",
                  "design.univariate", "design.multivariate", "design.worst_case", "solvers.qp",
                  "solvers.lp", "runtime.filter", "runtime.detector", "runtime.calibrate",
                  "matio.write", "matio.read", "model.build_context", "pipeline.run_all",
                  "pipeline.pretrain", "pipeline.train", "pipeline.design", "pipeline.test"):
        out[f"{layer}.self_s"] = (self_s(layer), "s")
    return out


EXACT_UNITS = ("count", "B", "ratio")
TIMED = ("experiment_s", "design_s", "train_s", "test_s")


def _setup_seconds(setup: dict) -> float:
    """A set-up's seconds at nominal speed: its start by the plain-Python kernel
    and, on redesign, its training as ``train_s`` is (hostspeed.py)."""
    return scaled(setup["start"]) + (scaled(setup["train_s"]) if setup["train_s"] else 0.0)


def summarize(wl, trace: int, setups: list, done: dict) -> tuple[dict, dict, list]:
    """Metrics of the run (name -> {value, unit}), their samples, and problems."""
    passes = done["passes"]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    problems += [f"test {i}: {msg}" for i, t in enumerate(done["tests"]) for msg in t["problems"]]
    good = [p for p in passes if not p["problems"]]
    timed = {name: [p[name] for p in good if name in p] for name in TIMED}
    if wl.kind == "redesign":
        # Every end-to-end metric is reported on every workload: on redesign
        # train_s is the training inside each set-up, test_s the held-out tests.
        timed["train_s"] = [s["train_s"] for s in setups]
        timed["test_s"] = [t["test_s"] for t in done["tests"] if not t["problems"]]
    metrics: dict = {}
    samples: dict = {"speeds": done["speeds"], "setup_s": setups}
    if not trace:
        raw = {}
        for name in TIMED:
            metrics[name] = {"value": scaled_median(timed[name]) if timed[name] else 0.0, "unit": "s"}
            raw[name] = statistics.median(s["s"] for s in timed[name]) if timed[name] else 0.0
            samples[name] = timed[name]
        metrics["setup_s"] = {"value": statistics.median(map(_setup_seconds, setups)), "unit": "s"}
        raw["setup_s"] = statistics.median(s["s"] for s in setups)
        metrics["peak_rss_mb"] = {"value": done["peak_rss_mb"], "unit": "MB"}
        samples["peak_rss_mb"] = [done["peak_rss_mb"]]
        samples["raw_median_s"] = raw
        return metrics, samples, problems

    traced = [p for p in good if p["traced"]]
    per_pass = [_metric_values(p["layers"]) for p in traced]
    for name, (_, unit) in (per_pass[0].items() if per_pass else ()):
        values = [m[name][0] for m in per_pass]
        if unit in EXACT_UNITS and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes: {values}")
        # Counts are equal across passes (or a problem was recorded above);
        # times are the median over traced passes, as measured.
        metrics[name] = {"value": values[0] if unit in EXACT_UNITS else statistics.median(values),
                         "unit": unit}
        samples[name] = values
    # Each traced pass against the untraced passes on either side of it, so
    # that host drift between the two halves of the run cancels.
    passes_s = [(p["traced"], scaled(p["experiment_s"])) for p in good]
    overheads = []
    for i, (was_traced, value) in enumerate(passes_s):
        near = [v for flag, v in passes_s[max(i - 1, 0):i + 2] if not flag]
        if was_traced and near:
            overheads.append(value - statistics.fmean(near))
    metrics["trace.overhead_s"] = {
        "value": statistics.median(overheads) if overheads else 0.0, "unit": "s"}
    samples["trace.overhead_s"] = overheads
    samples["trace.experiment_s"] = [p["experiment_s"]["s"] for p in traced]
    samples["trace.self_sum_s"] = [sum(r["self_s"] for r in p["layers"].values()) for p in traced]
    return metrics, samples, problems


def _spawn(cmd, env, limit_s, stdin=None):
    proc = subprocess.Popen(cmd, env=env, stdin=stdin, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(limit_s, 1.0), proc.kill)
    timer.start()
    return proc, timer


def _stop(proc, timer) -> None:
    timer.cancel()
    proc.kill()
    proc.wait()


def _message(proc, event: str) -> dict:
    line = proc.stdout.readline()
    msg = json.loads(line) if line else {}
    if msg.get("event") != event:
        raise RuntimeError(f"worker exited with code {proc.wait()} before '{event}'")
    return msg


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "diagfilter" / "pipeline.py").is_file():
        print(f"no diagfilter sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]
    jobs = wl.jobs or len(os.sched_getaffinity(0))
    work = HERE / "_work" / f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(family_config(wl.family, args.seed), sort_keys=True, indent=2))
    header = environment()
    kernel_before = sim_kernel_s(REFERENCE_ITERATIONS)

    setups = []

    def set_up(setup_only: bool):
        """Spawn a worker; its seconds to the ready line, less its kernel readings, are a set-up."""
        rep = len(setups)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", wl.name,
               "--config", str(cfg_path), "--out", str(work / f"w{rep}"),
               "--reference", str(args.reference), "--jobs", str(jobs), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc, timer = _spawn(cmd + ["--setup-only"] * setup_only, env,
                             RUN_LIMIT_S - (t0 - started), None if setup_only else subprocess.PIPE)
        try:
            msg = _message(proc, "ready")
            wall = time.perf_counter() - t0 - msg["kernel_s"]
            train = msg.get("train_s")
            rest = sample(wall - (train["s"] if train else 0.0), "py", [msg["speed"]])
            setups.append({"s": wall, "start": rest, "train_s": train})
            if setup_only and proc.wait() != 0:
                raise RuntimeError(f"set-up {rep} exited with code {proc.returncode}")
        except BaseException:
            _stop(proc, timer)
            raise
        if not setup_only:
            return proc, timer
        _stop(proc, timer)
        shutil.rmtree(work / f"w{rep}", ignore_errors=True)
        return None

    done, failure, worker = None, None, None
    try:
        start = time.perf_counter()
        worker = set_up(False)
        proc = worker[0]
        # setup_s is an end-to-end metric: a traced run needs only its worker.
        setup_share = 0.0 if args.trace else SETUP_SHARE
        setup_spent = time.perf_counter() - start
        passes, loop_s = 0, []
        while True:
            t0 = time.perf_counter()
            proc.stdin.write("pass\n")
            proc.stdin.flush()
            _message(proc, "pass")
            passes += 1
            t1 = time.perf_counter()
            if setup_spent < setup_share * (t1 - start):
                set_up(True)
                setup_spent += time.perf_counter() - t1
            loop_s.append(time.perf_counter() - t0)
            # The set-ups still owed to MIN_SETUPS count against the window too.
            owed = max(MIN_SETUPS - len(setups), 0) * setup_spent / len(setups) if setup_share else 0.0
            if passes >= MIN_PASSES and (
                time.perf_counter() + statistics.median(loop_s) + owed > start + args.seconds
            ):
                break
        while setup_share and len(setups) < MIN_SETUPS:
            set_up(True)
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        done = _message(proc, "done")
        if proc.wait() != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    except (OSError, ValueError, RuntimeError) as exc:
        failure = str(exc)
    finally:
        if worker is not None:
            _stop(*worker)
        shutil.rmtree(work, ignore_errors=True)
    kernel_after = sim_kernel_s(REFERENCE_ITERATIONS)

    header["reference_kernel_s"] = {"before": kernel_before, "after": kernel_after}
    detail = {"workload": wl.name, "seed": args.seed, "config_seed": config_seed(args.seed),
              "trace": args.trace, "seconds": args.seconds, "jobs": jobs, "header": header}
    if failure is not None:
        detail["problems"] = [failure]
        print(json.dumps(detail))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics, samples, problems = summarize(wl, args.trace, setups, done)
    if args.trace:
        spans = HERE / "_work" / f"spans-{wl.name}-seed{args.seed}.json"
        spans.write_text(json.dumps([p.pop("spans") for p in done["passes"] if "spans" in p]))
        detail["spans_file"] = str(spans.relative_to(root))
    attempts = done["passes"] + done["tests"]
    attempted = len(attempts)
    failed = sum(bool(a["problems"]) for a in attempts)
    if problems and not failed:
        failed = 1
    detail.update(samples=samples, problems=problems, fail_rate=failed / attempted)
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the worker is killed and the work
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(HERE / "reference.json"),
                    help="recorded answers the gate checks against")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
