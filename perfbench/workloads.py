"""Workload definitions: each maps a benchmark seed to one experiment config.

Every workload starts from a config shipped with the package
(``default_config`` or ``multivariate_default_config``) and scales only the
run counts and horizons, so a change to the package defaults (plant step,
filter order, margin, ...) reaches the benchmark.  The scaled horizons keep
the shape the workloads exist for -- a wide batch of short training
instances and a narrow batch of longer test runs -- while a whole pass fits
a few seconds on a 2-vCPU host: short passes give each run many samples,
and the host's speed drifts over windows of seconds.

Seeds come from a fixed panel: ``--seed n`` selects panel entry ``n % PANEL``
and writes config seed ``BASE_SEED + 1000 * (n % PANEL)``.  Seed 0 is the
package's default seed.  ``reference.json`` holds the answers recorded for
every panel entry, so the correctness gate can check any ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

PANEL = 16
BASE_SEED = 2024

# One BLAS thread per process, in every process the benchmark starts.  The
# matrices here are tens of rows wide: with two OpenBLAS threads on a 2-vCPU
# host the design phase ran 3-5x slower and its pass time spread 2x, and the
# --jobs pool would put four threads on two cores.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # key of the config family in reference.json
    kind: str  # "run-all" or "redesign"
    jobs: int  # --jobs passed to run-all / train; 0 means one per usable CPU


# Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("uni-assisted", "uni", "run-all", 1),
        Workload("mv-assisted", "mv", "run-all", 0),
        Workload("redesign", "uni", "redesign", 1),
        # Not in BENCHMARK.json: a small univariate run-all for the self-test.
        Workload("tiny", "tiny", "run-all", 1),
    )
}


def config_seed(seed: int) -> int:
    return BASE_SEED + 1000 * (int(seed) % PANEL)


def family_config(family: str, seed: int) -> dict:
    """The experiment config of one family for benchmark seed ``seed``."""
    from diagfilter.pipeline import default_config, multivariate_default_config

    if family == "uni":
        cfg = default_config()
        cfg["train"].update(m=6, horizon_seconds=2.5)
        cfg["test"].update(runs=1, horizon_seconds=5.0, onset_seconds=2.5)
    elif family == "mv":
        cfg = multivariate_default_config()
        # 2.5 s instances give this design too little data: 2 of the first
        # 7 panel seeds raised a false alarm on the held-out clean run.
        cfg["train"].update(m=8, horizon_seconds=5.0)
        cfg["test"].update(runs=1, horizon_seconds=5.0, onset_seconds=2.5)
    elif family == "tiny":
        cfg = default_config()
        cfg["train"].update(m=2, horizon_seconds=2.5)
        cfg["test"].update(runs=1, horizon_seconds=4.0, onset_seconds=2.0)
    else:
        raise KeyError(family)
    cfg["seed"] = config_seed(seed)
    return cfg


def config_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
