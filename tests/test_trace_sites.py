"""The benchmark's trace sites still see the calls they were placed for.

``perfbench/spans.py`` patches each traced function at the module where
its caller looks the name up; a caller that moved leaves the site patched
but never called, and its layer reads 0 in every traced benchmark run.  The
benchmark's files are only read here.
"""

import importlib.util
import sys
from pathlib import Path

import diagfilter.config as config
import diagfilter.pipeline as pipeline

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_a_call_over_a_univariate_and_a_multivariate_run(tmp_path):
    spans, workloads = perfbench_module("spans"), perfbench_module("workloads")
    tracer = spans.Tracer(spans.LAYER_SITES)
    calls: dict[str, int] = {}
    forms = {}
    for family in ("tiny", "mv"):
        cfg = config.ExperimentConfig.from_dict(workloads.family_config(family, 0))
        with tracer.installed():
            pipeline.cmd_run_all(cfg, tmp_path / family)
        for layer, record in tracer.layers().items():
            calls[layer] = calls.get(layer, 0) + record["calls"]
        forms[family] = (tracer.layers()["design.q_matrix"]["calls"], cfg.train["m"])
    silent = sorted({layer for layer, *_ in spans.LAYER_SITES} - {k for k, n in calls.items() if n})
    assert not silent, f"layers that recorded no call: {silent}"
    # the design makes one form per training run, where the pipeline calls it
    assert forms == {"tiny": (2, 2), "mv": (8, 8)}
