"""Run every workload of BENCHMARK.json and print its metrics in one table.

    python3 perfbench/report.py [--seeds 0 11] [--trace 0 1] [--save perfbench/BASELINE.json]

Run from the repository root.  For each workload, seed and trace setting it
runs ``run.py`` once, for ``run_seconds``, and prints each metric with its
unit, the median the run reported, the raw median of a speed-corrected
timing and the number of samples behind it, plus the run's fail rate.
``--save`` writes every run's full output (environment header, samples,
result line) to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", nargs="+", type=int, default=[0])
    ap.add_argument("--trace", nargs="+", type=int, default=[0])
    ap.add_argument("--save")
    args = ap.parse_args(argv)

    runs, status = [], 0
    for trace in args.trace:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in args.seeds:
                cmd = [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
                lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
                if proc.returncode != 0 or len(lines) < 2:
                    status = 1
                    print(f"{workload} seed {seed} trace {trace}: FAILED (exit {proc.returncode})")
                    print(proc.stdout[-2000:], proc.stderr[-2000:])
                    runs.append({"workload": workload, "seed": seed, "trace": trace,
                                 "exit": proc.returncode, "lines": lines})
                    continue
                detail, result = lines[-2], lines[-1]
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "detail": detail, "result": result})
                kernel = detail["header"]["reference_kernel_s"]
                print(f"\n{workload}  seed {seed}  trace {trace}  fail_rate {detail['fail_rate']:.3f}"
                      f"  ({result['failed']}/{result['attempted']} passes failed)"
                      f"  reference kernel {kernel['before']:.4f}s -> {kernel['after']:.4f}s")
                raw = detail["samples"].get("raw_median_s", {})
                for name, m in result["metrics"].items():
                    n = len(detail["samples"].get(name, []))
                    also = f"  raw {raw[name]:.6g}" if name in raw else ""
                    print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s} n={n}{also}")
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
