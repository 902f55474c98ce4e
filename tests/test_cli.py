"""Command-line interface: subcommands, overrides, exit codes."""

import json

import numpy as np
import pytest

from diagfilter.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_SOLVER,
    build_parser,
    main,
)
from diagfilter.pipeline import default_config


def tiny_config() -> dict:
    cfg = default_config()
    cfg["train"].update({"m": 2, "horizon_seconds": 5.0})
    cfg["test"].update({"runs": 1, "horizon_seconds": 15.0, "onset_seconds": 5.0})
    return cfg


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_parser_covers_all_phases():
    parser = build_parser()
    for phase in ("pretrain", "train", "design", "test", "run-all"):
        args = parser.parse_args([phase, "--config", "c.json", "--out", "o"])
        assert args.command == phase
        assert args.seed is None and args.mode is None
    args = parser.parse_args(
        ["train", "--config", "c.json", "--out", "o", "--seed", "7", "--mode", "pure"]
    )
    assert (args.seed, args.mode) == (7, "pure")


def test_run_all_succeeds_and_reports(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "exp"
    code = main(["run-all", "--config", cfg_path, "--out", str(out)])
    assert code == EXIT_OK
    assert "detection(s)" in capsys.readouterr().out
    assert (out / "summary.json").exists()
    stored = json.loads((out / "config.json").read_text())
    assert stored["mode"] == "data_assisted"


def test_phase_sequence_matches_run_all(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "phased")
    for phase in ("train", "design", "test"):
        assert main([phase, "--config", cfg_path, "--out", out]) == EXIT_OK
    assert "false alarm" in capsys.readouterr().out


def test_mode_and_seed_overrides(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "pure"
    code = main(
        ["design", "--config", cfg_path, "--out", str(out), "--mode", "pure", "--seed", "99"]
    )
    assert code == EXIT_OK
    report = json.loads((out / "design_report.json").read_text())
    assert report["mode"] == "pure_model"
    # pure mode never reads training data, so no train/ directory appears
    assert not (out / "train").exists()


def test_dump_matrices_flag(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "dump"
    code = main(
        ["design", "--config", cfg_path, "--out", str(out), "--mode", "pure", "--dump-matrices"]
    )
    assert code == EXIT_OK
    assert (out / "model_matrices" / "A.csv").exists()


def test_missing_config_exits_config_code(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_mode_value_exits_config_code(tmp_path):
    cfg = tiny_config()
    cfg["mode"] = "hybrid"
    cfg_path = write_config(tmp_path, cfg)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_removed_jobs_flag_is_rejected(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    with pytest.raises(SystemExit):
        main(["train", "--config", cfg_path, "--out", str(tmp_path / "o"), "--jobs", "1"])
    assert not (tmp_path / "o").exists()


def test_univariate_pretrain_exits_config_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    code = main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "multivariate" in capsys.readouterr().err


def test_test_without_artefact_exits_config_code(tmp_path):
    cfg_path = write_config(tmp_path, tiny_config())
    assert main(["test", "--config", cfg_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_simulation_blowup_exits_simulation_code(tmp_path, capsys, monkeypatch):
    cfg_path = write_config(tmp_path, tiny_config())
    import diagfilter.pipeline as pipeline
    from diagfilter.errors import SimulationBlowUp

    def exploding(plant, batch):
        raise SimulationBlowUp(1.25, 1e7, "run 1", run=1)

    monkeypatch.setattr(pipeline, "simulate_nonlinear", exploding)
    code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation failure" in err
    assert "training instance 1, seed 2025" in err


def test_diverging_plant_exits_simulation_code(tmp_path, capsys):
    # an integration step far beyond the plant's RK4 stability limit
    cfg = tiny_config()
    cfg["plant"].update(t_s=500.0, dt=5.0)
    cfg["train"].update(horizon_seconds=500.0)
    cfg["filter"].update(window_seconds=500.0)
    cfg["test"].update(horizon_seconds=1000.0, onset_seconds=500.0)
    cfg_path = write_config(tmp_path, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_SIMULATION
    assert "simulation failure" in capsys.readouterr().err


def test_solver_failure_exits_solver_code(tmp_path, capsys, monkeypatch):
    # a numerical failure in synthesis is not an infeasible design
    cfg_path = write_config(tmp_path, tiny_config())
    out = str(tmp_path / "o")
    assert main(["train", "--config", cfg_path, "--out", out]) == EXIT_OK
    import diagfilter.pipeline as pipeline
    from diagfilter.errors import SolverError

    def failing(*args, **kwargs):
        raise SolverError("KKT certification failed")

    monkeypatch.setattr(pipeline, "design_univariate", failing)
    code = main(["design", "--config", cfg_path, "--out", out])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "infeasible" not in err


def test_design_under_another_filter_order_exits_config_code(tmp_path, capsys):
    # the persisted average form was built for d_n 3; d_n 2 rebuilds smaller
    # forms from the same trajectories, which must not reach the drift check
    cfg = tiny_config()
    out = str(tmp_path / "o")
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", out]) == EXIT_OK
    cfg["filter"]["d_n"] = 2
    code = main(["design", "--config", write_config(tmp_path, cfg), "--out", out])
    assert code == EXIT_CONFIG
    assert "re-run the training phase" in capsys.readouterr().err


def test_rank_deficient_training_form_designs(tmp_path):
    # large disturbances on two short instances give a rank-deficient
    # mismatch form; the design is well posed and must not fail on it
    cfg = tiny_config()
    cfg["train"]["sigma"] = 0.3
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert main(["train", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert main(["design", "--config", cfg_path, "--out", out]) == EXIT_OK


def test_empty_attack_polytope_exits_config_code(tmp_path, capsys):
    from diagfilter.pipeline import multivariate_default_config

    cfg = multivariate_default_config()
    cfg["attack"]["polytope_a"] = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    cfg["attack"]["polytope_b"] = [1.0, 1.0]
    cfg_path = write_config(tmp_path, cfg)
    code = main(["pretrain", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "polytope" in capsys.readouterr().err


def test_dc_tracking_under_multivariate_attack_exits_config_code(tmp_path, capsys):
    from diagfilter.pipeline import multivariate_default_config

    cfg = multivariate_default_config()
    cfg["filter"]["track_steady_state"] = True
    cfg_path = write_config(tmp_path, cfg)
    code = main(["run-all", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "track_steady_state" in capsys.readouterr().err


def test_invisible_attack_set_exits_infeasible_code(tmp_path, capsys):
    # a zero basis admits only the zero bias: nothing to detect
    from diagfilter.pipeline import multivariate_default_config

    cfg = multivariate_default_config()
    cfg["attack"]["basis"] = [[0.0, 0.0, 0.0]] * 5
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    code = main(["pretrain", "--config", cfg_path, "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert "infeasible design" in capsys.readouterr().err
    # the margin table is still written for post-mortem inspection
    report = json.loads((out / "pretrain_report.json").read_text())
    assert not report["feasible"]
