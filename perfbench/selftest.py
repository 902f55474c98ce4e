"""Self-test of the benchmark itself, on the small ``tiny`` workload.

    python3 perfbench/selftest.py        # from the repository root, ~1 minute

Checks that

* an untraced run emits every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric;
* self times are non-negative and, within each traced pass, sum to no more
  than the pass's wall time;
* feeding the gate a wrong expected value fails every pass (fail rate 1),
  sets ``correct`` to false and makes the exit code non-zero;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def run(*extra: str, cwd: Path = ROOT) -> tuple[int, list[dict]]:
    cmd = [sys.executable, str(Path(HERE.name) / "run.py"), "--workload", "tiny", "--seed", "1",
           "--seconds", "2", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
    return proc.returncode, lines


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = HERE / "_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run("--trace", str(trace))
            detail, result = lines[-2], lines[-1]
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"trace {trace}: run passes the gate")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"trace {trace}: every {key} metric emitted with its unit")
            if trace:
                selfs = [m["value"] for n, m in result["metrics"].items() if n.endswith("self_s")]
                check(min(selfs) >= 0.0, "self times are non-negative")
                s = detail["samples"]
                check(all(a <= b for a, b in zip(s["trace.self_sum_s"], s["trace.experiment_s"]))
                      and s["trace.self_sum_s"], "self times sum to at most the pass wall time")

        table = json.loads((HERE / "reference.json").read_text())
        for entry in table["tiny"].values():
            entry["objective"] *= 1.001
        wrong = work / "wrong_reference.json"
        wrong.write_text(json.dumps(table))
        code, lines = run("--trace", "0", "--reference", str(wrong))
        detail, result = lines[-2], lines[-1]
        check(code != 0 and not result["correct"], "wrong reference: run fails")
        check(result["failed"] == result["attempted"] and detail["fail_rate"] == 1.0,
              "wrong reference: fail_rate is 1")

        bare = work / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run("--trace", "0", cwd=bare)
        check(code != 0 and not lines, "without the sources: non-zero exit, no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
