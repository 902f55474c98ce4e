#!/usr/bin/env python3
"""End-to-end experiment: train, design, persist, reload, test.

Runs the full orchestration at reduced scale into a scratch directory,
then plays auditor: re-opens the persisted filter artefact, lets the
loader re-verify the decoupling identity and the model hash, and reads
the calibration from the design report and the detection report the way
a downstream consumer would.
"""

import argparse
import json
from pathlib import Path

from diagfilter import ExperimentConfig, cmd_run_all, default_config
from diagfilter.matio import load_filter
from diagfilter.pipeline import build_context


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo_run", help="experiment directory")
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    raw = default_config()
    raw["seed"] = args.seed
    raw["train"].update({"m": 4, "horizon_seconds": 5.0})
    raw["test"].update({"runs": 2, "horizon_seconds": 20.0, "onset_seconds": 10.0})
    cfg = ExperimentConfig.from_dict(raw)

    out = Path(args.out)
    print(f"=== running every phase into {out}/ ===")
    summary = cmd_run_all(cfg, out)

    print("\n=== artefacts on disk ===")
    for p in sorted(out.rglob("*")):
        if p.is_file():
            print(f"  {p.relative_to(out)}  ({p.stat().st_size} bytes)")

    print("\n=== auditing the persisted filter ===")
    ctx = build_context(cfg)
    design, model_hash = load_filter(
        out / "filter.txt", expected_hash=ctx.model_hash, stacked=ctx.stacked
    )
    print(f"loader re-verified decoupling + model hash {model_hash[:16]}...")
    cal = json.loads((out / "design_report.json").read_text())["calibration"]
    print(f"mode {design.mode}, branch {design.branch}")
    print(f"calibration: tau* = {cal['tau_star']:.3e}, "
          f"threshold = {cal['threshold']:.6f}, window = {cal['window']} samples")

    print("\n=== detection report ===")
    report = json.loads((out / "test" / "report.json").read_text())
    print(f"false alarms: {report['false_alarms']}/{len(report['per_run'])}")
    print(f"detections:   {report['detections']}/{len(report['per_run'])}")
    for entry in report["per_run"]:
        atk = entry["attack"]
        latency = atk.get("latency")
        latency_txt = f"{latency:.1f} s" if latency is not None else "n/a"
        print(f"  run seed {entry['seed']}: clean alarm {entry['clean']['alarm']}, "
              f"attack alarm {atk['alarm']} (latency {latency_txt})")

    print(f"\nsummary phases: {sorted(summary)}")


if __name__ == "__main__":
    main()
