"""End-to-end pipeline phases on a scaled-down experiment."""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import diagfilter.design as design_module
import diagfilter.pipeline as pipeline_module
import diagfilter.solvers as solvers_module
from diagfilter.design import design_multivariate, design_univariate
from diagfilter.errors import ConfigError, DetectorInfeasibleError
from diagfilter.matio import load_matrix, load_trajectory
from diagfilter.pipeline import (
    TEST_SEED_OFFSET,
    ExperimentConfig,
    build_context,
    cmd_design,
    cmd_pretrain,
    cmd_run_all,
    cmd_test,
    cmd_train,
    default_config,
    load_training_bundle,
    multivariate_default_config,
)


def small_config() -> dict:
    cfg = default_config()
    cfg["train"].update({"m": 3, "horizon_seconds": 5.0})
    cfg["test"].update({"runs": 2, "horizon_seconds": 20.0, "onset_seconds": 10.0})
    return cfg


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = ExperimentConfig.from_dict(small_config())
    summary = cmd_run_all(cfg, out)
    return cfg, out, summary


def test_config_validation_rejects_defects():
    for mutate in (
        lambda c: c.update(mode="hybrid"),
        lambda c: c["train"].update(m=0),
        lambda c: c["test"].update(runs=0),
        lambda c: c["filter"].update(margin=-1.0),
        lambda c: c["filter"].update(d_n=0),
        lambda c: c["filter"].update(pole=1.5),
        lambda c: c["train"].update(horizon_seconds=5.3),
        lambda c: c["test"].update(onset_seconds=100.0),
        lambda c: c["attack"].update(kind="replay"),
    ):
        cfg = default_config()
        mutate(cfg)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)
    with pytest.raises(ConfigError, match="missing section"):
        ExperimentConfig.from_dict({"seed": 1})


def test_partial_config_inherits_defaults():
    base = default_config()
    cfg = ExperimentConfig.from_dict({"model": base["model"], "attack": base["attack"]})
    assert cfg.seed == base["seed"]
    assert cfg.plant["t_s"] == 0.5
    assert cfg.filter["d_n"] == 3
    assert cfg.mode == "data_assisted"


def test_dc_tracking_default_follows_the_attack_kind():
    # a multivariate config that leaves the key (or the whole section) out
    # gets the only value it may hold, and its stored config says so
    mv = multivariate_default_config()
    without_key = json.loads(json.dumps(mv))
    del without_key["filter"]["track_steady_state"]
    without_section = {k: v for k, v in mv.items() if k != "filter"}
    for raw in (without_key, without_section):
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.to_dict()["filter"]["track_steady_state"] is False
    uni = {k: v for k, v in default_config().items() if k != "filter"}
    assert ExperimentConfig.from_dict(uni).filter["track_steady_state"] is True


def test_model_path_indirection(tmp_path):
    base = default_config()
    (tmp_path / "model.json").write_text(json.dumps(base["model"]))
    raw = {"model_path": "model.json", "attack": base["attack"], "seed": 5}
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_file(cfg_file)
    assert cfg.model == base["model"]
    assert cfg.seed == 5
    raw["model_path"] = "missing.json"
    cfg_file.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(cfg_file)


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        ExperimentConfig.from_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        ExperimentConfig.from_file(bad)


def test_run_all_writes_every_artefact(completed_run):
    _, out, summary = completed_run
    expected = [
        "config.json",
        "model_matrices/A.csv",
        "model_matrices/B_d.csv",
        "model_matrices/B_f.csv",
        "model_matrices/C.csv",
        "model_matrices/D_f.csv",
        "train/qbar.csv",
        "train/training_summary.json",
        "filter.txt",
        "design_report.json",
        "test/report.json",
        "summary.json",
    ]
    for rel in expected:
        assert (out / rel).exists(), rel
    for i in range(3):
        assert (out / f"train/traj_{i:03d}.csv").exists()
        assert (out / f"train/traj_{i:03d}.meta.json").exists()
    for j in range(2):
        assert (out / f"test/clean_{j:02d}.csv").exists()
        assert (out / f"test/attack_{j:02d}.csv").exists()
    assert load_matrix(out / "model_matrices/A.csv").shape == (19, 19)
    assert set(summary) == {"train", "design", "test"}


def test_training_outputs_are_coherent(completed_run):
    cfg, out, summary = completed_run
    train = summary["train"]
    assert train["m"] == 3
    assert train["horizon_samples"] == 10
    seeds = [inst["seed"] for inst in train["instances"]]
    assert seeds == [cfg.seed + i for i in range(3)]
    t, y, meta = load_trajectory(out / "train/traj_001.csv")
    assert meta["seed"] == cfg.seed + 1
    assert y.shape == (25, 10)
    assert np.allclose(t, np.arange(1, 11) * 0.5)
    qbar = load_matrix(out / "train/qbar.csv")
    assert qbar.shape == (176, 176)
    assert np.min(np.linalg.eigvalsh(qbar)) > -1e-9


def test_design_report_and_artefact_agree(completed_run):
    _, out, summary = completed_run
    report = json.loads((out / "design_report.json").read_text())
    assert report["mode"] == "data_assisted"
    dominance = report["dominance"]
    # the rule cmd_design enforces, on the ridged objectives it compares
    assert dominance["ridged_ratio"] == dominance["assisted_ridged"] / dominance["pure_ridged"]
    assert dominance["ridged_ratio"] <= 1.0 + 1e-6
    table = [(b["coeff_index"], b["sign"]) for b in report["branch_report"]]
    assert table == [(j, s) for j in range(4) for s in (1, -1)]
    branch = report["branch"]
    chosen = report["branch_report"][table.index((branch["coeff_index"], branch["sign"]))]
    assert chosen["status"] == "optimal"
    assert chosen["objective"] == report["objective"]
    cal = report["calibration"]
    assert cal["threshold"] == cal["tau_star"] + cal["margin"]
    assert cal["window"] == 20
    artefact = (out / "filter.txt").read_text()
    assert artefact.splitlines()[0] == "residual-filter-v1"
    assert json.dumps(cal, sort_keys=True) in artefact


def test_test_report_structure_and_seed_policy(completed_run):
    cfg, out, summary = completed_run
    report = summary["test"]
    assert report["runs"] == 2
    assert len(report["per_run"]) == 2
    seeds = [run["seed"] for run in report["per_run"]]
    assert seeds == [cfg.seed + TEST_SEED_OFFSET + j for j in range(2)]
    # the injected bias is orders of magnitude above any healthy energy here
    assert report["detections"] == 2
    for run in report["per_run"]:
        assert run["attack"]["alarm"]
        assert run["attack"]["alarm_time"] >= report["onset_seconds"]
        assert run["attack"]["latency"] >= 0.0
    trace = (out / "test/attack_00.csv").read_text().splitlines()
    assert trace[0] == "t,r,energy,alarm"
    assert len(trace) == 1 + 40


def test_design_rejects_tampered_training_average(completed_run, tmp_path):
    cfg, out, _ = completed_run
    clone = tmp_path / "clone"
    clone.mkdir()
    shutil.copytree(out / "train", clone / "train")
    qbar_path = clone / "train/qbar.csv"
    mat = load_matrix(qbar_path)
    mat[0, 0] += 1e-6
    from diagfilter.matio import save_matrix

    save_matrix(qbar_path, mat)
    with pytest.raises(ConfigError, match="disagrees"):
        cmd_design(cfg, clone)


def test_test_phase_needs_only_the_artefact(completed_run, tmp_path):
    cfg, out, summary = completed_run
    isolated = tmp_path / "isolated"
    isolated.mkdir()
    (isolated / "filter.txt").write_text((out / "filter.txt").read_text())
    report = cmd_test(cfg, isolated)
    assert report["detections"] == summary["test"]["detections"]
    assert report["per_run"] == summary["test"]["per_run"]


def test_test_phase_rejects_model_drift(completed_run, tmp_path):
    cfg, out, _ = completed_run
    drifted_raw = json.loads(json.dumps(cfg.to_dict()))
    drifted_raw["model"]["areas"][0]["inertia"] = 5.5
    drifted = ExperimentConfig.from_dict(drifted_raw)
    spot = tmp_path / "drift"
    spot.mkdir()
    (spot / "filter.txt").write_text((out / "filter.txt").read_text())
    with pytest.raises(ConfigError, match="different model"):
        cmd_test(drifted, spot)


def test_trace_alarm_column_is_the_detector_decision(tmp_path):
    # with the attack on from t = 0 the energy clears the threshold during
    # the warm-up, where the detector never alarms; the trace must agree
    raw = small_config()
    raw["train"].update({"m": 2, "horizon_seconds": 2.5})
    raw["test"].update({"runs": 1, "horizon_seconds": 4.0, "onset_seconds": 0.0})
    cmd_run_all(ExperimentConfig.from_dict(raw), tmp_path)
    report = json.loads((tmp_path / "test/report.json").read_text())
    trace = np.loadtxt(tmp_path / "test/attack_00.csv", delimiter=",", skiprows=1)
    t, energy, alarm = trace[:, 0], trace[:, 2], trace[:, 3]
    warmup = raw["filter"]["d_n"]
    assert (energy[:warmup] > report["threshold"]).any()
    assert not alarm[:warmup].any()
    assert np.array_equal(alarm[warmup:], energy[warmup:] > report["threshold"])
    assert t[np.argmax(alarm)] == report["per_run"][0]["attack"]["alarm_time"]


def test_test_phase_requires_artefact(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config())
    with pytest.raises(ConfigError, match="design phase"):
        cmd_test(cfg, tmp_path)


def test_pure_mode_designs_without_training(tmp_path):
    raw = small_config()
    raw["mode"] = "pure_model"
    cfg = ExperimentConfig.from_dict(raw)
    design = cmd_design(cfg, tmp_path)
    assert design.mode == "pure_model"
    report = json.loads((tmp_path / "design_report.json").read_text())
    assert report["dominance"] is None
    assert report["calibration"]["tau_star"] == 0.0
    assert report["calibration"]["threshold"] == pytest.approx(0.0005)


def test_pretraining_rejects_univariate_hypothesis(tmp_path):
    cfg = ExperimentConfig.from_dict(small_config())
    with pytest.raises(ConfigError, match="multivariate"):
        cmd_pretrain(cfg, tmp_path)


def test_pretraining_writes_margin_table(tmp_path):
    cfg = ExperimentConfig.from_dict(multivariate_default_config())
    report = cmd_pretrain(cfg, tmp_path)
    stored = json.loads((tmp_path / "pretrain_report.json").read_text())
    assert stored == report
    assert report["feasible"]
    assert report["j_star"] == 3
    assert report["gamma_star"] == pytest.approx(0.3, abs=1e-6)
    assert len(report["gammas"]) == 8


@pytest.fixture(scope="module")
def mv_trained(tmp_path_factory):
    raw = multivariate_default_config()
    raw["train"].update(m=2, horizon_seconds=2.5)
    cfg = ExperimentConfig.from_dict(raw)
    out = tmp_path_factory.mktemp("mv")
    cmd_train(cfg, out)
    return cfg, out


def test_univariate_design_factors_the_decoupling_equalities_once(
    completed_run, tmp_path, monkeypatch
):
    # the assisted design and its model-only baseline share one SVD
    cfg, out, _ = completed_run
    shutil.copytree(out / "train", tmp_path / "train")
    stacked = build_context(cfg).stacked
    svd = scipy.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counted)
    cmd_design(cfg, tmp_path)
    # the decoupling rows barH' nbar = 0 and the DC row
    assert shapes == [(stacked.barH.shape[1] + 1, stacked.n_vars)]


def test_multivariate_design_shares_one_phase_one_and_factorisation(
    mv_trained, tmp_path, monkeypatch
):
    # the baseline QP runs over the assisted QP's constraints at its final
    # floor: one SVD of their equalities and one phase-one LP serve both
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    solved = record_qps(monkeypatch)
    phase_one, equalities = [], []
    solve_lp = solvers_module.solve_lp
    factor_equalities = solvers_module.factor_equalities

    def counted_lp(*args, **kwargs):
        phase_one.append(args)
        return solve_lp(*args, **kwargs)

    def counted_factor(a_eq, b_eq):
        equalities.append(a_eq.shape)
        return factor_equalities(a_eq, b_eq)

    monkeypatch.setattr(solvers_module, "solve_lp", counted_lp)
    monkeypatch.setattr(solvers_module, "factor_equalities", counted_factor)
    cmd_design(cfg, tmp_path)
    assert len(solved) == 2
    problem = solved[0][0]
    assert solved[1][0].a_eq is problem.a_eq
    assert len(phase_one) == 1
    # working sets are factored in the null-space coordinates, fewer columns
    assert [shape for shape in equalities if shape[1] == problem.n] == [problem.a_eq.shape]
    report = json.loads((tmp_path / "design_report.json").read_text())
    assert report["branch_report"] is None
    assert report["dominance"]["ridged_ratio"] <= 1.0 + 1e-6


@pytest.mark.parametrize("kind", ["univariate", "multivariate"])
def test_baseline_of_a_design_pass_is_the_baseline_designed_alone(
    kind, completed_run, mv_trained, tmp_path, monkeypatch
):
    cfg, out = completed_run[:2] if kind == "univariate" else mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    name = f"design_{kind}"
    design = getattr(pipeline_module, name)
    designs = []

    def recorded(*args, **kwargs):
        designs.append(design(*args, **kwargs))
        return designs[-1]

    monkeypatch.setattr(pipeline_module, name, recorded)
    cmd_design(cfg, tmp_path)
    monkeypatch.undo()
    assisted, baseline = designs
    ctx = build_context(cfg)
    pole = float(cfg.filter["pole"])
    if kind == "univariate":
        track = bool(cfg.filter["track_steady_state"])
        alone = design_univariate(ctx.stacked, None, pole=pole, track_steady_state=track)
    else:
        alone = design_multivariate(
            ctx.stacked,
            None,
            ctx.attack_model,
            assisted.branch["program"],
            pole=pole,
            gamma=assisted.diagnostics["gamma"],
        )
    assert baseline.mode == "pure_model"
    assert np.array_equal(baseline.nbar, alone.nbar)
    assert np.array_equal(baseline.objective, alone.objective)


def record_qps(monkeypatch) -> list:
    """Record ``(problem, solution)`` of every design QP."""
    solved = []
    solve_qp = design_module.solve_qp

    def recorded(problem):
        sol = solve_qp(problem)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(design_module, "solve_qp", recorded)
    return solved


def test_multivariate_design_solves_two_qps(mv_trained, tmp_path, monkeypatch):
    # the data-assisted design and its model-only baseline, one QP each
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    solved = record_qps(monkeypatch)
    cmd_design(cfg, tmp_path)
    assert len(solved) == 2


def test_multivariate_design_certificates_read_the_stopping_multipliers(
    mv_trained, tmp_path, monkeypatch
):
    # the bound was fixed before measuring.  Clipping the stopping
    # multipliers (about -1e-9) at zero moved their error into stationarity,
    # 4e-10 on this run; the multipliers as computed leave round-off.
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    solved = record_qps(monkeypatch)
    cmd_design(cfg, tmp_path)
    assert solved
    for _, sol in solved:
        assert sol.status == "optimal"
        assert sol.residuals["stationarity"] <= 1e-12
        assert sol.residuals["dual_sign"] <= 1e-6


def test_design_that_loses_to_its_baseline_is_rejected(completed_run, tmp_path, monkeypatch):
    # a baseline of half the assisted filter has a quarter of its objective:
    # at the training scale, below the assisted one by much less than 1e-9
    cfg, out, _ = completed_run
    shutil.copytree(out / "train", tmp_path / "train")
    design_univariate = pipeline_module.design_univariate
    assisted = []

    def halved(stacked, qbar, **kwargs):
        design = design_univariate(stacked, qbar, **kwargs)
        if qbar is not None:
            assisted.append(design)
        else:
            design.nbar = 0.5 * assisted[0].nbar
        return design

    monkeypatch.setattr(pipeline_module, "design_univariate", halved)
    with pytest.raises(DetectorInfeasibleError, match="lost to the model-only baseline"):
        cmd_design(cfg, tmp_path)


def test_training_is_byte_deterministic(tmp_path):
    raw = small_config()
    raw["train"]["m"] = 2
    cfg = ExperimentConfig.from_dict(raw)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cmd_train(cfg, out_a)
    cmd_train(cfg, out_b)
    names = [p.name for p in sorted((out_a / "train").iterdir())]
    match, mismatch, errors = filecmp.cmpfiles(
        out_a / "train", out_b / "train", names, shallow=False
    )
    assert not mismatch and not errors
    assert len(match) == len(names)


def test_training_bundle_round_trip(completed_run):
    cfg, out, _ = completed_run
    ctx = build_context(cfg)
    bundle = load_training_bundle(ctx, out)
    assert len(bundle.q_list) == 3
    assert bundle.qbar.shape == (176, 176)
    stored = load_matrix(out / "train/qbar.csv")
    assert np.array_equal(bundle.qbar, stored)


def test_univariate_design_does_not_import_the_lp_backend(completed_run, tmp_path):
    # no univariate run solves an LP, so a fresh process must not pay for
    # importing scipy.optimize
    cfg, out, _ = completed_run
    shutil.copytree(out / "train", tmp_path / "train")
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg.to_dict()))
    script = (
        "import sys\n"
        "from diagfilter.pipeline import ExperimentConfig, build_context, cmd_design\n"
        "cfg = ExperimentConfig.from_file(sys.argv[1])\n"
        "build_context(cfg)\n"
        "cmd_design(cfg, sys.argv[2])\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    src = Path(design_module.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script, str(cfg_file), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "filter.txt").exists()
    assert done.stdout.strip() == "False"
