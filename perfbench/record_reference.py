"""Record the gate's reference answers for every workload family and panel seed.

    PYTHONPATH=src python3 perfbench/record_reference.py

Runs ``cmd_run_all`` with ``--jobs 1`` on the config of every family (``uni``,
``mv``, ``tiny``) and panel seed, and writes the design
objective, ``tau_star``, threshold and each test run's ``max_energy`` into
``perfbench/reference.json``.  Re-run it only when a workload's config
changes, never to make a failing program pass: the recorded values are the
answers of the commit that recorded them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import reference_entry  # noqa: E402
from workloads import PANEL, THREAD_ENV, config_digest, family_config  # noqa: E402


def main() -> int:
    os.environ.update(THREAD_ENV)
    from diagfilter import pipeline

    path = HERE / "reference.json"
    table = {}
    work = HERE / "_work" / "record"
    bad = 0
    for family in ("uni", "mv", "tiny"):
        entries = table.setdefault(family, {})
        for index in range(PANEL):
            raw = json.loads(json.dumps(family_config(family, index)))
            shutil.rmtree(work, ignore_errors=True)
            pipeline.cmd_run_all(pipeline.ExperimentConfig.from_dict(raw), work, jobs=1)
            entry = reference_entry(work)
            entry["digest"] = config_digest(raw)
            entries[str(raw["seed"])] = entry
            ok = entry["false_alarms"] == 0 and entry["detections"] == entry["runs"]
            bad += not ok
            print(family, raw["seed"], "ok" if ok else "GATE INVARIANT FAILS", flush=True)
            path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
