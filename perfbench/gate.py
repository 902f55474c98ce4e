"""Correctness gate applied to every timed pass.

A pass counts as failed, never as fast, when any of these does not hold:

* the held-out test reports no false alarm and detects every attacked run;
* the design objective, ``tau_star``, the threshold and each test run's
  ``max_energy`` match the values recorded at the benchmark's first commit
  (``reference.json``) within ``RTOL``;
* ``filter.txt`` reloads through ``matio.load_filter`` with the stacked
  system, which re-checks the unknown-input decoupling;
* the report files are byte-identical to those of the run's first pass
  (every pass of a run uses the same seed).

``RTOL`` absorbs the ~1e-17 output drift a reordered or batched simulator
may bring, even after the design QPs amplify it by their conditioning, and
still catches a wrong answer: the smallest model change the roadmap
discusses (a 10x coarser plant step) moves these values by far more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Relative only: the design objectives are 1e-15 .. 1e-10, so any absolute
# floor would hide a wrong objective.
RTOL = 1e-6

RUN_ALL_FILES = (
    "summary.json",
    "design_report.json",
    "filter.txt",
    "train/training_summary.json",
    "test/report.json",
)
DESIGN_FILES = ("design_report.json", "filter.txt")


def load_reference(path: str | Path, family: str, seed: int, digest: str) -> dict:
    """The recorded answers for one config; raises ``KeyError`` if absent or stale."""
    entry = json.loads(Path(path).read_text())[family][str(seed)]
    if entry["digest"] != digest:
        raise KeyError(
            f"reference for {family}/{seed} was recorded for another config "
            f"({entry['digest']} != {digest}); re-run record_reference.py"
        )
    return entry


def _close(name: str, got: float, want: float) -> list[str]:
    if math.isclose(got, want, rel_tol=RTOL):
        return []
    return [f"{name}: got {got!r}, reference {want!r}"]


class Gate:
    def __init__(self, reference: dict, ctx):
        self.reference = reference
        self.ctx = ctx
        self._first: dict[str, bytes] = {}

    def check_design(self, out: Path) -> list[str]:
        from diagfilter import matio
        from diagfilter.errors import ConfigError

        report = json.loads((out / "design_report.json").read_text())
        cal = report["calibration"]
        problems = (
            _close("objective", report["objective"], self.reference["objective"])
            + _close("tau_star", cal["tau_star"], self.reference["tau_star"])
            + _close("threshold", cal["threshold"], self.reference["threshold"])
        )
        try:
            matio.load_filter(
                out / "filter.txt", expected_hash=self.ctx.model_hash, stacked=self.ctx.stacked
            )
        except ConfigError as exc:
            problems.append(f"filter.txt does not reload: {exc}")
        return problems

    def check_test(self, out: Path) -> list[str]:
        report = json.loads((out / "test" / "report.json").read_text())
        problems = []
        if report["false_alarms"] != 0:
            problems.append(f"false_alarms = {report['false_alarms']}")
        if report["detections"] != report["runs"]:
            problems.append(f"detections = {report['detections']} of {report['runs']} runs")
        want = self.reference["max_energy"]
        if len(report["per_run"]) != len(want):
            return problems + [f"{len(report['per_run'])} test runs, reference has {len(want)}"]
        for j, (entry, (clean, attack)) in enumerate(zip(report["per_run"], want)):
            problems += _close(f"run {j} clean max_energy", entry["clean"]["max_energy"], clean)
            problems += _close(f"run {j} attack max_energy", entry["attack"]["max_energy"], attack)
        return problems

    def check_repeatable(self, out: Path, files) -> list[str]:
        """Compare report bytes with the first pass that produced them."""
        problems = []
        for name in files:
            data = (out / name).read_bytes()
            first = self._first.setdefault(name, data)
            if data != first:
                problems.append(f"{name} differs from the first pass of this run")
        return problems


def reference_entry(out: Path) -> dict:
    """Extract the values the gate checks from a finished run-all directory."""
    design = json.loads((out / "design_report.json").read_text())
    test = json.loads((out / "test" / "report.json").read_text())
    return {
        "objective": design["objective"],
        "tau_star": design["calibration"]["tau_star"],
        "threshold": design["calibration"]["threshold"],
        "max_energy": [
            [e["clean"]["max_energy"], e["attack"]["max_energy"]] for e in test["per_run"]
        ],
        "false_alarms": test["false_alarms"],
        "detections": test["detections"],
        "runs": test["runs"],
    }
