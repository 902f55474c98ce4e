"""Command-line front end for the experiment pipeline.

Subcommands mirror the pipeline phases; every invocation reads one JSON
configuration and writes into one experiment directory:

    diagfilter run-all  --config experiment.json --out runs/exp1
    diagfilter pretrain --config experiment.json --out runs/exp1
    diagfilter train    --config experiment.json --out runs/exp1
    diagfilter design   --config experiment.json --out runs/exp1
    diagfilter test     --config experiment.json --out runs/exp1

``--seed`` and ``--mode`` override the corresponding configuration fields,
which keeps A/B comparisons (pure vs. data-assisted, different seeds) to a
single flag; the design reads both, so ``test`` takes the values its filter
was designed with.  Each phase integrates all of its plant runs as one
batch in one process.  Exit codes: 0 success, 2 infeasible design, 3
simulation blow-up, 4 configuration error, 5 solver failure.
"""

from __future__ import annotations

import argparse
import sys

from . import config, pipeline
from .errors import (
    ConfigError,
    DetectorInfeasibleError,
    NoFilterError,
    SimulationBlowUp,
    SolverError,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_SIMULATION = 3
EXIT_CONFIG = 4
EXIT_SOLVER = 5

_MODE_NAMES = {"pure": "pure_model", "assisted": "data_assisted"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagfilter",
        description="Design and evaluate anomaly-diagnosis filters for "
        "multi-area frequency-control models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    phases = {
        "pretrain": "solve the attack-visibility programs (multivariate attacks)",
        "train": "run healthy paired simulations and learn the mismatch statistics",
        "design": "synthesise the filter and calibrate the detector",
        "test": "evaluate the designed filter on held-out runs",
        "run-all": "execute every phase in order",
    }
    for name, help_text in phases.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment JSON file")
        cmd.add_argument("--out", required=True, help="experiment output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the top-level seed")
        cmd.add_argument(
            "--mode",
            choices=sorted(_MODE_NAMES),
            default=None,
            help="override the design mode",
        )
        cmd.add_argument(
            "--dump-matrices",
            action="store_true",
            help="also write the continuous-time model matrices as CSV",
        )
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    overrides = {"seed": args.seed, "mode": _MODE_NAMES.get(args.mode)}
    cfg = config.ExperimentConfig.from_file(
        args.config, {key: value for key, value in overrides.items() if value is not None}
    )
    if args.dump_matrices:
        pipeline.dump_model_matrices(pipeline.build_context(cfg), args.out)
        print(f"wrote model matrices under {args.out}/model_matrices")

    if args.command == "pretrain":
        report = pipeline.cmd_pretrain(cfg, args.out)
        print(
            f"pretrain: best program j={report['j_star']} "
            f"margin {report['gamma_star']:.6g}; table in pretrain_report.json"
        )
    elif args.command == "train":
        summary = pipeline.cmd_train(cfg, args.out)
        largest = max(run["max_abs_mismatch"] for run in summary["instances"])
        print(
            f"train: {summary['m']} instances, {summary['horizon_samples']} samples each; "
            f"largest mismatch {largest:.6g}"
        )
    elif args.command == "design":
        design = pipeline.cmd_design(cfg, args.out)
        print(
            f"design: mode {design.mode}, branch {design.branch}, "
            f"objective {design.objective:.6g}; artefact in filter.txt"
        )
    elif args.command == "test":
        report = pipeline.cmd_test(cfg, args.out)
        print(
            f"test: {report['false_alarms']} false alarm(s), "
            f"{report['detections']}/{report['runs']} detection(s), "
            f"threshold {report['threshold']:.6g}"
        )
    else:
        summary = pipeline.cmd_run_all(cfg, args.out)
        test = summary["test"]
        print(
            f"run-all: {test['false_alarms']} false alarm(s), "
            f"{test['detections']}/{test['runs']} detection(s); "
            f"artefacts under {args.out}"
        )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationBlowUp as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (DetectorInfeasibleError, NoFilterError) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
