"""Command-line interface: subcommands, overrides, exit codes."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagfilter.config as config
import diagfilter.pipeline as pipeline
from diagfilter.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SIMULATION,
    EXIT_SOLVER,
    build_parser,
    main,
)
from diagfilter.errors import SimulationBlowUp
from diagfilter.config import default_config, multivariate_default_config


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


def tree(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("earlier_horizon", [2.5, 5.0])
def test_a_rerun_with_fewer_runs_leaves_no_files_of_the_earlier_run(tmp_path, earlier_horizon):
    # a directory trained on four runs and tested on two, then re-run on two
    # and one into the same --out, designs and reads as a fresh one
    def config(name, m, horizon, runs):
        cfg = default_config()
        cfg["train"].update(m=m, horizon_seconds=horizon)
        cfg["test"].update(runs=runs, horizon_seconds=4.0, onset_seconds=2.0)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    earlier, later = config("earlier", 4, earlier_horizon, 2), config("later", 2, 2.5, 1)
    reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
    assert main(["run-all", "--config", earlier, "--out", reused]) == EXIT_OK
    assert main(["run-all", "--config", later, "--out", reused]) == EXIT_OK
    assert main(["train", "--config", later, "--out", reused]) == EXIT_OK
    assert main(["design", "--config", later, "--out", reused]) == EXIT_OK
    assert main(["run-all", "--config", later, "--out", fresh]) == EXIT_OK
    assert tree(Path(reused)) == tree(Path(fresh))


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


def test_filter_order_above_the_training_samples_designs_only_without_training(tmp_path):
    # 5 s of training at t_s = 0.5 s give 10 samples; a model-only design
    # reads none, and --mode applies before the configuration is checked
    cfg = tiny_config()
    cfg["filter"]["d_n"] = 11
    cfg_path = write_config(tmp_path, cfg)
    assisted, pure = tmp_path / "assisted", tmp_path / "pure"
    assert main(["train", "--config", cfg_path, "--out", str(assisted)]) == EXIT_CONFIG
    assert not assisted.exists()
    assert main(["design", "--config", cfg_path, "--out", str(pure), "--mode", "pure"]) == EXIT_OK


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


@pytest.mark.parametrize("case", ["config-is-a-directory", "model-is-a-directory", "model-not-json"])
def test_config_that_cannot_be_read_as_json_exits_config_code(tmp_path, capsys, case):
    cfg = tiny_config()
    model = tmp_path / "model.json"
    if case == "model-is-a-directory":
        model.mkdir()
    else:
        model.write_text('{"areas": [')
    cfg["model_path"] = "model.json"
    del cfg["model"]
    cfg_path = write_config(tmp_path, cfg)
    if case == "config-is-a-directory":
        cfg_path = str(tmp_path / "as-directory")
        Path(cfg_path).mkdir()
    code = main(["design", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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

    def exploding(plant, batch):
        raise SimulationBlowUp(1.25, 1e7, "run 1", run=1)

    monkeypatch.setattr(pipeline, "simulate_nonlinear", exploding)
    code = main(["train", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation failure" in err
    assert "training instance 1, seed 2025" in err


def test_test_phase_blowup_names_the_held_out_run(tmp_path, capsys, monkeypatch):
    # the test batch interleaves [clean_0, attack_0, clean_1, attack_1], so
    # its run 3 is the attacked copy of held-out run 1
    cfg = tiny_config()
    cfg["test"]["runs"] = 2
    cfg_path = write_config(tmp_path, cfg)
    out = str(tmp_path / "o")
    for phase in ("train", "design"):
        assert main([phase, "--config", cfg_path, "--out", out]) == EXIT_OK

    def exploding(plant, batch):
        raise SimulationBlowUp(1.25, 1e7, "run 3", run=3)

    monkeypatch.setattr(pipeline, "simulate_nonlinear", exploding)
    assert main(["test", "--config", cfg_path, "--out", out]) == EXIT_SIMULATION
    assert "held-out run 1, seed 102025, attacked copy" in capsys.readouterr().err
    with pytest.raises(SimulationBlowUp) as err:
        pipeline.cmd_test(config.ExperimentConfig.from_file(cfg_path), out)
    assert (err.value.run, err.value.time, err.value.norm) == (3, 1.25, 1e7)


def test_diverging_plant_exits_simulation_code(tmp_path, capsys):
    # an integration step far beyond the plant's RK4 stability limit; three
    # training samples, as the filter order d_n 3 needs
    cfg = tiny_config()
    cfg["plant"].update(t_s=500.0, dt=5.0)
    cfg["train"].update(horizon_seconds=1500.0)
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


def test_design_under_another_filter_order_needs_no_retrain(tmp_path, capsys):
    # no training file depends on the filter: d_n 2 forms smaller forms from
    # the runs trained under d_n 3 and designs what a fresh run-all designs
    cfg = tiny_config()
    out = tmp_path / "o"
    assert main(["train", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
    assert "largest mismatch" in capsys.readouterr().out
    cfg["filter"]["d_n"] = 2
    cfg_path = write_config(tmp_path, cfg)
    assert main(["design", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert main(["run-all", "--config", cfg_path, "--out", str(tmp_path / "fresh")]) == EXIT_OK
    for name in ("filter.txt", "design_report.json"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes(), name


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
    # the support LPs find the empty polytope: every phase that solves them
    # exits 4 before it writes a report, and a design solves them before it
    # reads a training run, with or without them; training reads no attack
    # set, so run-all trains before its design exits, and a test finds no
    # filter
    cfg = multivariate_default_config()
    cfg["train"].update(m=2, horizon_seconds=2.5)
    cfg["attack"]["polytope_a"] = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    cfg["attack"]["polytope_b"] = [1.0, 1.0]
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "o"
    for phase in (["pretrain"], ["design"], ["design", "--mode", "pure"], ["run-all"]):
        code = main([*phase, "--config", cfg_path, "--out", str(out)])
        assert code == EXIT_CONFIG, phase
        assert "configuration error: attack polytope is empty" in capsys.readouterr().err
        assert not (out / "pretrain_report.json").exists()
    assert (out / "train" / "training_summary.json").exists()
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert main(["design", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    assert "attack polytope is empty" in capsys.readouterr().err
    assert main(["test", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    assert "no filter artefact" in capsys.readouterr().err
    assert not (out / "pretrain_report.json").exists()


def test_dc_tracking_under_multivariate_attack_exits_config_code(tmp_path, capsys):
    from diagfilter.config import multivariate_default_config

    cfg = multivariate_default_config()
    cfg["filter"]["track_steady_state"] = True
    cfg_path = write_config(tmp_path, cfg)
    code = main(["run-all", "--config", cfg_path, "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "track_steady_state" in capsys.readouterr().err


def test_invisible_attack_set_exits_infeasible_code(tmp_path, capsys):
    # a zero basis admits only the zero bias: nothing to detect
    from diagfilter.config import multivariate_default_config

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


# One field of a tiny run-all at a time, under either attack kind, addressed
# by its path through the config: every field of config.FIELDS and a set
# of model fields.  Values at each field's limits are tried, and in every
# field types, signs, zero, null, non-finite values and an integer too large
# for a float, as well as the key left out and an unknown key beside it.
LIMITS = {
    "seed": [0, 1],
    "mode": ["pure_model", "hybrid"],
    "plant.t_s": [0.25, 0.0, 2.5],
    "plant.dt": [0.5, 0.25, 0.0],
    "plant.deadband": [0.0, -0.001],
    "plant.agc_limits": [None, [-1e-30, 1e-30], [0.0, 0.0], [0.02, -0.02], [[-0.02, 0.02]]],
    "plant.sine_ties": [False, "false"],
    "plant.rate_limit": [None, 0.004, 0.0],
    "filter.d_n": [5, 6],
    "filter.pole": [0.999, -0.999, 1.0, -1.0],
    "filter.margin": [0.0],
    "filter.window_seconds": [0.5, 100.0],
    "filter.track_steady_state": [False],
    "train.m": [1, 3],
    "train.horizon_seconds": [1.5, 1.0, 5.0],
    "train.sigma": [0.0, -0.02],
    "train.hold_seconds": [0.3, 0.0],
    "train.channels": [[0, 2], [2, 3], [0.5], [True]],
    "test.runs": [2],
    "test.horizon_seconds": [2.5, 2.0],
    "test.onset_seconds": [3.5, 4.0, 2.7],
    "attack.channel": [1],
    "attack.magnitude": [-0.1],
    "attack.polytope_b": [[2.0], [1.5, 1.5]],
}
FIELD_EDGES = {
    **{tuple(f.name.split(".")): LIMITS.get(f.name, []) for f in config.FIELDS},
    ("model", "areas", 0, "id"): [4, 1.5],
    ("model", "areas", 0, "inertia"): [2.5, 1e-320],
    ("model", "areas", 0, "damping"): [0.0, -1.0],
    ("model", "areas", 0, "bias"): [0.0],
    ("model", "areas", 0, "agc_gain"): [0.0, 1e308],
    ("model", "areas", 0, "ace_attack_gain"): [0.6],
    ("model", "areas", 0, "generators", 0, "droop"): [0.1, 0.0],
    ("model", "areas", 0, "generators", 0, "participation"): [0.5],
    ("model", "areas", 0, "neighbors", "2"): [0.6, 0.0],
    ("model", "attacks", 0, "area"): [2, 1.5],
    ("model", "attacks", 0, "neighbor"): [3, 2.7],
}
HUGE, LEFT_OUT, BESIDE = 10**400, "<key left out>", "<unknown key beside it>"
ANY_FIELD = [None, True, "abc", "1", [], {}, 0, -1, 1, 2.7, float("nan"), float("inf"), HUGE]
ANY_FIELD += [LEFT_OUT, BESIDE]
EXIT_CODES = {EXIT_OK, EXIT_INFEASIBLE, EXIT_SIMULATION, EXIT_CONFIG, EXIT_SOLVER}


def tiny_run_all_config(kind: str = "univariate") -> dict:
    cfg = default_config() if kind == "univariate" else multivariate_default_config()
    cfg["train"].update({"m": 2, "horizon_seconds": 2.5})
    cfg["test"].update({"runs": 1, "horizon_seconds": 4.0, "onset_seconds": 2.0})
    return cfg


EDITS = st.sampled_from(list(FIELD_EDGES)).flatmap(
    lambda field: st.tuples(st.just(field), st.sampled_from(FIELD_EDGES[field] + ANY_FIELD))
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["univariate", "multivariate"]), edit=EDITS)
@example(kind="univariate", edit=(("filter", "d_n"), 6))
@example(kind="univariate", edit=(("plant", "t_s"), 0))
@example(kind="univariate", edit=(("train", "m"), "abc"))
@example(kind="univariate", edit=(("filter", "pole"), "x"))
@example(kind="univariate", edit=(("plant", "deadband"), None))
@example(kind="univariate", edit=(("plant", "dt"), None))
@example(kind="univariate", edit=(("filter", "margin"), None))
@example(kind="univariate", edit=(("test", "onset_seconds"), None))
@example(kind="univariate", edit=(("train", "m"), 2.7))
@example(kind="univariate", edit=(("test", "runs"), 1.5))
@example(kind="univariate", edit=(("seed",), -1))
@example(kind="univariate", edit=(("model", "areas", 0, "inertia"), float("nan")))
@example(kind="univariate", edit=(("model", "attacks", 0, "neighbor"), 2.7))
@example(kind="univariate", edit=(("train", "hold_seconds"), 1e-15))
@example(kind="univariate", edit=(("train", "hold_seconds"), 1e-300))
@example(kind="univariate", edit=(("plant", "deadbnad"), 0.5))
@example(kind="multivariate", edit=(("attack", "polytope_b"), LEFT_OUT))
@example(kind="univariate", edit=(("plant", "t_s"), HUGE))
@example(kind="univariate", edit=(("attack", "magnitude"), HUGE))
def test_one_field_edit_is_rejected_up_front_or_runs(kind, edit):
    (*parents, key), value = edit

    def holder(cfg):
        for name in parents:
            cfg = cfg[name]
        return cfg

    cfg = tiny_run_all_config(kind)
    if value == LEFT_OUT:
        holder(cfg).pop(key, None)
    elif value == BESIDE:
        holder(cfg)[f"{key}x"] = holder(cfg).get(key)
    else:
        holder(cfg)[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        # a plant step beyond RK4's stability limit overflows before it is stopped
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run-all", "--config", write_config(Path(tmp), cfg), "--out", str(out)])
        assert code in EXIT_CODES
        if code == EXIT_CONFIG:
            assert not out.exists()
        if code == EXIT_OK:
            # values stay as given; a field left out holds its default
            stored = json.loads((out / "config.json").read_text())
            assert holder(stored).items() >= holder(cfg).items()
    # outside the model: an unknown key (an attack field of the other kind
    # included), a required field left out, and an integer too large for a
    # float in any but a whole-number field
    fields = {f.name: f for f in config.FIELDS if f.kind in (None, kind)}
    field = fields.get(".".join(map(str, edit[0])))
    malformed = value == BESIDE or (
        value != LEFT_OUT
        if field is None
        else value == LEFT_OUT and field.default is ... or value == HUGE and field.rule != "whole"
    )
    if parents[:1] != ["model"] and malformed:
        assert code == EXIT_CONFIG


@pytest.mark.parametrize("hold", [1e-15, 1e-300, 5e-324])
def test_hold_whose_draws_cannot_fit_exits_config_code(tmp_path, capsys, hold):
    # each run's draw holds ceil(horizon / hold) + 1 rows: one 2.5 s training
    # draw takes 53 PiB at 1e-15, its row count passes numpy's dimension
    # limit at 1e-300, and horizon / hold is infinite at 5e-324
    cfg = tiny_run_all_config()
    cfg["train"]["hold_seconds"] = hold
    out = tmp_path / "o"
    code = main(["run-all", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "train.hold_seconds" in capsys.readouterr().err
    assert not out.exists()
