"""End-to-end pipeline phases on a scaled-down experiment."""

import filecmp
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg

import diagfilter.design as design_module
import diagfilter.pipeline as pipeline_module
import diagfilter.solvers as solvers_module
from diagfilter.cli import EXIT_CONFIG, EXIT_OK, main
from diagfilter.design import design_multivariate, design_univariate
from diagfilter.errors import (
    ConfigError,
    DetectorInfeasibleError,
    SimulationBlowUp,
)
from diagfilter.matio import (
    load_filter,
    load_matrix,
    load_trajectory,
    save_trajectory,
    sidecar_path,
)
from diagfilter.config import (
    FIELDS,
    TEST_SEED_OFFSET,
    ExperimentConfig,
    default_config,
    multivariate_default_config,
)
from diagfilter.pipeline import (
    build_context,
    cmd_design,
    cmd_pretrain,
    cmd_run_all,
    cmd_test,
    cmd_train,
    load_training_bundle,
)
from diagfilter.shiftpoly import pole_polynomial
from diagfilter.solvers import Solution


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


@pytest.mark.parametrize(
    "mode, section, key",
    [
        ("data_assisted", "train", "m"),
        ("data_assisted", "test", "runs"),
        # data-assisted, d_n beyond the training samples is rejected first
        ("pure_model", "filter", "d_n"),
    ],
)
def test_count_whose_arrays_cannot_fit_is_rejected_before_any_is_made(mode, section, key):
    # never run such a config: only the checks up front are exercised
    cfg = default_config()
    cfg["mode"] = mode
    cfg[section][key] = 10**400
    if key == "m":
        # the held-out seeds bound train.m; at that bound a long horizon
        # sizes each run's output record past any memory
        cfg["train"].update(m=TEST_SEED_OFFSET, horizon_seconds=1e6)
    with pytest.raises(ConfigError, match=f"arrays sized by {section}.{key}"):
        build_context(ExperimentConfig.from_dict(cfg))


def test_count_bound_is_the_physical_memory(monkeypatch):
    # default config: a run's output record and signature are 25 x 20 floats
    # each and its disturbance draw 11 x (3 + 3), 8,528 bytes together; the
    # 20 x 20 Gram matrix and four 176 x 176 forms add 994,432 bytes once.
    # 62,837 runs fit in 512 MiB, 62,838 do not
    page = 4096
    monkeypatch.setattr(
        os, "sysconf", {"SC_PAGE_SIZE": page, "SC_PHYS_PAGES": 2**29 // page}.get
    )
    cfg = default_config()
    cfg["train"]["m"] = 62_837
    build_context(ExperimentConfig.from_dict(cfg))
    cfg["train"]["m"] = 62_838
    with pytest.raises(ConfigError, match="0.5 GiB of physical memory"):
        build_context(ExperimentConfig.from_dict(cfg))


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


def test_readme_configuration_table_lists_the_fields_of_the_table():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    # the second paragraph below the heading, rows of | section | fields | contents |
    rows = text.partition("## Configuration")[2].split("\n\n")[2].splitlines()[2:]
    listed = {}
    for row in rows:
        section, names = row.split("|")[1:3]
        listed[" ".join(section.replace("`", "").split())] = re.findall(r"`(\w+)`", names)
    fields: dict = {"model": []}
    for field in FIELDS:
        section, _, key = field.name.rpartition(".")
        group = " ".join(filter(None, [section or "top level", field.kind]))
        fields.setdefault(group, []).append(key)
    assert listed == fields


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
    # training stores its plant runs and their summary, nothing formed for a filter
    assert not list((out / "train").glob("qbar*"))
    assert load_matrix(out / "model_matrices/A.csv").shape == (19, 19)
    assert set(summary) == {"train", "design", "test"}


def test_training_outputs_are_coherent(completed_run):
    cfg, out, summary = completed_run
    train = summary["train"]
    assert train["m"] == 3
    assert train["horizon_samples"] == 10
    # 3 runs of 10 samples, 500 RK4 steps of 1 ms per 0.5 s sample
    assert train["rk4_run_steps"] == 3 * 10 * 500
    seeds = [inst["seed"] for inst in train["instances"]]
    assert seeds == [cfg.seed + i for i in range(3)]
    t, y, meta = load_trajectory(out / "train/traj_001.csv")
    assert meta["seed"] == cfg.seed + 1
    assert y.shape == (25, 10)
    assert np.allclose(t, np.arange(1, 11) * 0.5)
    assert set(train) == {
        "m", "horizon_samples", "t_s", "model_hash", "instances", "rk4_run_steps"
    }
    assert all(set(inst) == {"seed", "max_abs_mismatch"} for inst in train["instances"])
    bundle = load_training_bundle(build_context(cfg), out)
    assert [inst["max_abs_mismatch"] for inst in train["instances"]] == [
        float(np.max(np.abs(sig))) for sig in bundle.signatures
    ]
    assert bundle.qbar.shape == (176, 176)
    assert np.min(np.linalg.eigvalsh(bundle.qbar)) > -1e-9


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
    # the artefact holds the calibrated tau_star; its record the margin and window
    tag, *lines = (out / "filter.txt").read_text().splitlines()
    assert tag == "residual-filter-v2"
    entries = dict(line.split(": ", 1) for line in lines)
    assert float(entries["tau_star"]) == cal["tau_star"]
    record = json.loads(entries["config"])
    assert record["filter.margin"] == cal["margin"]
    assert record["filter.window_seconds"] / record["plant.t_s"] == cal["window"]


def test_test_report_structure_and_seed_policy(completed_run):
    cfg, out, summary = completed_run
    report = summary["test"]
    assert report["runs"] == 2
    assert len(report["per_run"]) == 2
    # a clean and an attacked copy of each run, 40 samples of 500 steps; the
    # copies share the 20 samples before the onset, integrated once
    assert report["rk4_run_steps"] == 2 * 20 * 500 + 2 * 2 * 20 * 500
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


def test_test_phase_rejects_a_filter_without_its_design_record(completed_run, tmp_path):
    cfg, out, _ = completed_run
    lines = (out / "filter.txt").read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith("config:")]
    (tmp_path / "filter.txt").write_text("".join(kept))
    with pytest.raises(ConfigError, match=r"seed = \(not recorded\).*re-run the design phase$"):
        cmd_test(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["filter.txt"]


def test_test_phase_refuses_a_filter_that_contradicts_its_design_record(completed_run, tmp_path):
    # an artefact in the format that stored the pole, denominator and
    # calibration beside the record, with another pole and margin there: the
    # test ran that filter and detector, not the one the record describes
    cfg, out, _ = completed_run
    design, model_hash = load_filter(out / "filter.txt")
    calibration = json.loads((out / "design_report.json").read_text())["calibration"]
    calibration["margin"] = 1.0

    def fmt(values):
        return " ".join(format(float(v), ".17g") for v in values)

    lines = [
        "residual-filter-v1",
        f"d_n: {design.d_n}",
        "pole: 0.6",
        f"n_r: {design.n_r}",
        f"mode: {design.mode}",
        f"track_steady_state: {int(design.track_steady_state)}",
        f"objective: {design.objective!r}",
        f"model_hash: {model_hash}",
        "branch: " + json.dumps(design.branch, sort_keys=True),
        "calibration: " + json.dumps(calibration, sort_keys=True),
        "config: " + json.dumps(cfg.design_record(), sort_keys=True),
        "a_coeffs: " + fmt(pole_polynomial(0.6, design.d_n)),
        "nbar: " + fmt(design.nbar),
    ]
    (tmp_path / "filter.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="not a residual-filter-v2 artefact"):
        cmd_test(cfg, tmp_path)
    # the record's own pole edited: refused against the configuration
    text = (out / "filter.txt").read_text()
    edited = text.replace('"filter.pole": 0.5', '"filter.pole": 0.6')
    assert edited != text
    (tmp_path / "filter.txt").write_text(edited)
    refusal = "designed with filter.pole = 0.6, the configuration gives 0.5"
    with pytest.raises(ConfigError, match=refusal):
        cmd_test(cfg, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["filter.txt"]


def _with_key(key, value):
    """Set one key of a stored pretrain report."""

    def damage(report: Path) -> None:
        stored = json.loads(report.read_text())
        stored[key] = value
        report.write_text(json.dumps(stored))

    return damage


def _solved_for_another_polytope(report: Path) -> None:
    # a polytope further out along its normal, whose margins are twice these
    raw = edited(mv_reuse_config(), ("attack", "polytope_b"), [3.0])
    cmd_pretrain(ExperimentConfig.from_dict(raw), report.parent)


STORED_REPORTS = [
    pytest.param(Path.unlink, id="missing"),
    pytest.param(lambda report: report.write_bytes(report.read_bytes()[:40]), id="truncated"),
    pytest.param(lambda report: report.write_bytes(b"[1, 2]\n"), id="not-an-object"),
    *(
        pytest.param(_with_key(key, value), id=name)
        for name, key, value in [
            ("j-star-past-the-programs", "j_star", 99),
            ("j-star-zero", "j_star", 0),
            ("j-star-not-whole", "j_star", 3.0),
            ("short-gammas", "gammas", [0.3]),
            ("gammas-not-numbers", "gammas", ["0.3"] * 8),
            ("short-statuses", "statuses", []),
            ("statuses-not-lp-verdicts", "statuses", ["done"] * 8),
            ("j-star-not-the-best", "j_star", 5),
            ("gamma-star-not-the-best-margin", "gamma_star", 0.123),
            ("feasible-false", "feasible", False),
            ("gammas-infinite", "gammas", [math.inf] * 8),
            ("gammas-past-the-float-range", "gammas", [10**400] * 8),
        ]
    ),
    pytest.param(_solved_for_another_polytope, id="solved-for-another-polytope"),
]


@pytest.mark.parametrize("damage", STORED_REPORTS)
def test_a_stored_pretrain_report_changes_no_design_output(mv_reuse_base, tmp_path, damage):
    # the design solves the support LPs itself and never reads the report
    # back: whatever is stored there, it writes what run-all wrote
    run = tmp_path / "run"
    shutil.copytree(mv_reuse_base, run)
    report = run / "pretrain_report.json"
    damage(report)
    assert not report.exists() or report.read_bytes() != (
        mv_reuse_base / "pretrain_report.json"
    ).read_bytes()
    assert main(["design", "--config", str(run / "config.json"), "--out", str(run)]) == EXIT_OK
    for name in ("pretrain_report.json", "filter.txt", "design_report.json"):
        assert (run / name).read_bytes() == (mv_reuse_base / name).read_bytes(), name


@pytest.mark.parametrize(
    "branch",
    [
        '{"coeff_index": 1, "sign": 1}',
        "[1, 2]",
        '{"coeff_index": 1, "program": 99, "sign": -1}',
        '{"coeff_index": 9, "program": 3, "sign": -1}',
        '{"coeff_index": 1, "program": 3, "sign": 0}',
        '{"coeff_index": 1, "program": 5, "sign": -1}',
        '{"coeff_index": 1.0, "program": 3, "sign": -1}',
    ],
    ids=["no-program", "not-an-object", "program-past-the-programs", "coeff-past-the-order",
         "sign-zero", "program-of-another-pair", "coeff-not-an-integer"],
)
def test_a_filter_branch_no_multivariate_design_chooses_is_malformed(
    mv_reuse_base, tmp_path, capsys, branch
):
    run = tmp_path / "run"
    shutil.copytree(mv_reuse_base, run)
    text = (run / "filter.txt").read_text()
    assert 'branch: {"coeff_index": 1, "program": 3, "sign": -1}\n' in text
    edited = re.sub(r"(?m)^branch: .*$", "branch: " + branch, text)
    (run / "filter.txt").write_text(edited)
    code = main(["test", "--config", str(run / "config.json"), "--out", str(run)])
    assert code == EXIT_CONFIG
    assert "malformed filter artefact: branch" in capsys.readouterr().err
    assert tree(run / "test") == tree(mv_reuse_base / "test")


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
    # the design pass calls the design function once; the design carries the
    # baseline it was checked against
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
    [assisted] = designs
    baseline = assisted.baseline
    ctx = build_context(cfg)
    pole = float(cfg.filter["pole"])
    if kind == "univariate":
        track = bool(cfg.filter["track_steady_state"])
        alone = design_univariate(ctx.stacked, None, pole=pole, track_steady_state=track)
    else:
        alone = design_multivariate(
            ctx.stacked, None, ctx.attack_model, assisted.branch["program"], pole=pole
        )
        assert alone.diagnostics["gamma"] == assisted.diagnostics["gamma"]
    assert assisted.mode == "data_assisted"
    assert baseline.mode == "pure_model"
    assert np.array_equal(baseline.nbar, alone.nbar)
    assert np.array_equal(baseline.objective, alone.objective)
    report = json.loads((tmp_path / "design_report.json").read_text())
    assert report["dominance"] == assisted.diagnostics["dominance"]


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


def record_lps(monkeypatch) -> list:
    """Record the arguments of every LP: the design module's and the QP solver's."""
    solved = []
    for module in (design_module, solvers_module):

        def recorded(*args, solve_lp=module.solve_lp, **kwargs):
            solved.append(args)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr(module, "solve_lp", recorded)
    return solved


def test_each_visibility_lp_is_solved_once(mv_trained, tmp_path, monkeypatch):
    # a design solves one support LP per mirror pair of programs itself, a
    # stored report beside it or not, and each once: the QP starts from their
    # floor, and the only other LP is the phase-one LP that the assisted
    # design and its baseline share
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    ctx = build_context(cfg)
    cmd_pretrain(ctx, tmp_path)
    support_lp = design_module._support_lp
    pairs = []

    def recorded(stacked, attack, j):
        pairs.append(j)
        return support_lp(stacked, attack, j)

    monkeypatch.setattr(design_module, "_support_lp", recorded)
    solved = record_lps(monkeypatch)
    cmd_design(ctx, tmp_path)
    assert pairs == list(range(1, 2 * ctx.stacked.d_n + 2, 2))
    assert len(solved) == ctx.stacked.d_n + 2


def test_an_unbounded_support_lp_is_an_empty_polytope(mv_trained, tmp_path, monkeypatch):
    # one pair's support LP unbounded: the attack polytope is empty, and
    # neither the pretrain nor a design over it writes a report
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    support_lp = design_module._support_lp

    def unbounded_at_3(stacked, attack, j):
        return Solution("unbounded") if j == 3 else support_lp(stacked, attack, j)

    monkeypatch.setattr(design_module, "_support_lp", unbounded_at_3)
    with pytest.raises(ConfigError, match="attack polytope is empty"):
        cmd_pretrain(cfg, tmp_path)
    with pytest.raises(ConfigError, match="attack polytope is empty"):
        cmd_design(cfg, tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["train"]


def test_a_stored_infeasible_pretrain_means_no_design(tmp_path):
    # an all-zero attack basis leaves no direction to detect: pretraining
    # stores its report and fails, and a design, which solves the programs
    # itself, fails as the pretrain does, before it writes a filter, rather
    # than shipping an all-zero filter
    raw = multivariate_default_config()
    raw["mode"] = "pure_model"
    raw["attack"]["basis"] = np.zeros(np.shape(raw["attack"]["basis"])).tolist()
    cfg = ExperimentConfig.from_dict(raw)
    with pytest.raises(DetectorInfeasibleError, match="nonpositive"):
        cmd_pretrain(cfg, tmp_path)
    assert not json.loads((tmp_path / "pretrain_report.json").read_text())["feasible"]
    with pytest.raises(DetectorInfeasibleError, match="nonpositive"):
        cmd_design(cfg, tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pretrain_report.json"]


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


def test_multivariate_design_report_gives_both_qps_certificates(
    mv_trained, tmp_path, monkeypatch
):
    cfg, out = mv_trained
    shutil.copytree(out / "train", tmp_path / "train")
    solved = record_qps(monkeypatch)
    cmd_design(cfg, tmp_path)
    report = json.loads((tmp_path / "design_report.json").read_text())
    # the assisted design's QP, then its baseline's
    for name, (_, sol) in zip(("assisted", "baseline"), solved, strict=True):
        assert report["qp"][name] == {
            "iterations": sol.iterations,
            "kkt_residuals": sol.residuals,
        }
        assert sol.iterations > 0
        assert set(sol.residuals) == {
            "primal_eq", "primal_ineq", "stationarity", "complementarity", "dual_sign"
        }


def test_univariate_design_report_has_no_qp_entry(completed_run):
    _, out, _ = completed_run
    assert "qp" not in json.loads((out / "design_report.json").read_text())


def test_run_all_builds_one_context_and_writes_the_phases_bytes(tmp_path, monkeypatch):
    raw = multivariate_default_config()
    raw["train"].update(m=2, horizon_seconds=2.5)
    raw["test"].update(runs=1, horizon_seconds=5.0, onset_seconds=2.5)
    cfg = ExperimentConfig.from_dict(raw)
    build = pipeline_module.build_context
    built = []

    def recorded(config):
        ctx = build(config)
        built.append((ctx, pickle.dumps(ctx)))
        return ctx

    monkeypatch.setattr(pipeline_module, "build_context", recorded)
    cmd_run_all(cfg, tmp_path / "all")
    assert len(built) == 1
    # the phases read the context they are given and leave it as it was
    ctx, before = built[0]
    assert pickle.dumps(ctx) == before
    monkeypatch.undo()

    phases = tmp_path / "phases"
    phases.mkdir()
    (phases / "config.json").write_text((tmp_path / "all" / "config.json").read_text())
    pipeline_module.dump_model_matrices(build_context(cfg), phases)
    cmd_pretrain(cfg, phases)
    cmd_train(cfg, phases)
    cmd_design(cfg, phases)
    cmd_test(cfg, phases)
    files = sorted(
        p.relative_to(tmp_path / "all") for p in (tmp_path / "all").rglob("*") if p.is_file()
    )
    files.remove(Path("summary.json"))
    assert files == sorted(
        p.relative_to(phases) for p in phases.rglob("*") if p.is_file()
    )
    match, mismatch, errors = filecmp.cmpfiles(
        tmp_path / "all", phases, [str(f) for f in files], shallow=False
    )
    assert not mismatch and not errors


def test_design_that_loses_to_its_baseline_is_rejected(completed_run, tmp_path, monkeypatch):
    # a baseline of half the assisted filter has a quarter of its objective:
    # at the training scale, below the assisted one by much less than 1e-9
    cfg, out, _ = completed_run
    shutil.copytree(out / "train", tmp_path / "train")
    branch_search = design_module._branch_search
    searched = []

    def halved(stacked, problem, form, mode, *args):
        searched.append(branch_search(stacked, problem, form, mode, *args))
        if mode == "pure_model":
            searched[-1].nbar = 0.5 * searched[0].nbar
        return searched[-1]

    monkeypatch.setattr(design_module, "_branch_search", halved)
    with pytest.raises(DetectorInfeasibleError, match="lost to the model-only baseline"):
        cmd_design(cfg, tmp_path)
    assert [design.mode for design in searched] == ["data_assisted", "pure_model"]
    assert not (tmp_path / "filter.txt").exists()


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
    # the design forms the average from the stored runs, in run order, and
    # reports the traces of what it designed on
    cfg, out, _ = completed_run
    ctx = build_context(cfg)
    bundle = load_training_bundle(ctx, out)
    assert np.array_equal(bundle.gram, design_module.gram_matrix(ctx.a_coeffs, ctx.train_samples))
    forms = [design_module.q_matrix(ctx.stacked, sig, bundle.gram) for sig in bundle.signatures]
    assert len(forms) == 3
    assert bundle.qbar.shape == (176, 176)
    assert np.array_equal(bundle.qbar, sum(forms) / len(forms))
    assert bundle.q_trace == [float(np.trace(q)) for q in forms]
    paths, runs = pipeline_module._training_runs(ctx, out / "train")
    outputs = [load_trajectory(path)[1] for path in paths]
    again = pipeline_module._training_bundle(ctx, [dist for dist, _ in runs], outputs)
    assert np.array_equal(again.qbar, bundle.qbar)
    report = json.loads((out / "design_report.json").read_text())
    assert report["qbar_trace"] == float(np.trace(bundle.qbar))
    assert report["q_trace"] == [float(np.trace(q)) for q in forms]


def test_training_bundle_memory_does_not_grow_by_a_form_per_run(tmp_path):
    # the design adds each training form into one sum as it makes it, so four
    # times the runs add their output records and signatures, about a KiB
    # each here, and not a 176 x 176 form (247,808 bytes) each
    raw = default_config()
    raw["train"].update(m=16, horizon_seconds=2.5)
    cmd_train(ExperimentConfig.from_dict(raw), tmp_path)
    peaks = []
    for m in (4, 16):
        raw["train"]["m"] = m
        ctx = build_context(ExperimentConfig.from_dict(raw))
        tracemalloc.start()
        try:
            load_training_bundle(ctx, tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    form = 8 * ctx.stacked.n_vars**2
    assert peaks[1] - peaks[0] < 2 * form, peaks


def test_univariate_design_does_not_import_the_lp_backend(completed_run, tmp_path):
    # no univariate run solves an LP, so a fresh process must not pay for
    # importing scipy.optimize
    cfg, out, _ = completed_run
    shutil.copytree(out / "train", tmp_path / "train")
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(cfg.to_dict()))
    script = (
        "import sys\n"
        "from diagfilter.config import ExperimentConfig\n"
        "from diagfilter.pipeline import build_context, cmd_design\n"
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


def test_multivariate_training_does_not_import_the_lp_backend(tmp_path):
    # training reads no attack set and solves no LP, so a fresh `train`
    # process under a multivariate attack must not import scipy.optimize
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(mv_reuse_config()))
    script = (
        "import sys\n"
        "from diagfilter.cli import main\n"
        "code = main(['train', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    src = Path(design_module.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script, str(cfg_file), str(tmp_path / "run")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run/train/training_summary.json").exists()
    assert done.stdout.splitlines()[-1] == "0 False"


# --- held-out plant runs read back --------------------------------------------


def reuse_config() -> dict:
    cfg = default_config()
    cfg["train"].update(m=2, horizon_seconds=2.5)
    cfg["test"].update(runs=1, horizon_seconds=4.0, onset_seconds=2.0)
    return cfg


def tree(directory: Path) -> dict:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def record_simulations(monkeypatch) -> list:
    """The runs of each call of ``pipeline.simulate_nonlinear``, one list per call."""
    simulate = pipeline_module.simulate_nonlinear
    calls = []

    def recorded(plant, batch):
        calls.append(list(batch.runs))
        return simulate(plant, batch)

    monkeypatch.setattr(pipeline_module, "simulate_nonlinear", recorded)
    return calls


def edited(raw: dict, field: tuple, value) -> dict:
    raw = json.loads(json.dumps(raw))
    *parents, key = field
    holder = raw
    for name in parents:
        holder = holder[name]
    holder[key] = value
    return raw


@pytest.fixture(scope="module")
def reuse_base(tmp_path_factory):
    out = tmp_path_factory.mktemp("reuse_base")
    cmd_run_all(ExperimentConfig.from_dict(reuse_config()), out)
    return out


def mv_reuse_config() -> dict:
    cfg = multivariate_default_config()
    cfg["train"].update(m=2, horizon_seconds=2.5)
    cfg["test"].update(runs=1, horizon_seconds=5.0, onset_seconds=2.5)
    return cfg


@pytest.fixture(scope="module")
def mv_reuse_base(tmp_path_factory):
    out = tmp_path_factory.mktemp("mv_reuse_base")
    cmd_run_all(ExperimentConfig.from_dict(mv_reuse_config()), out)
    return out


class Edit(NamedTuple):
    """A one-field edit of a base run and what it redoes over that run's files."""

    value: object
    training: int  # training runs cmd_train integrates again, of 2
    stale_training: bool  # cmd_design over the base training runs is rejected
    held_out: int  # held-out runs cmd_test integrates again
    stale_filter: bool  # cmd_test over the base filter is rejected


# One edit of every field of config.FIELDS, keyed by its name.  A field's
# edit reaches the runs whose sidecars record it: the plant, the seed and
# the load noise every run, the attack and its onset only the attacked
# held-out copy, and the filter no run.  It makes a design over the base
# training runs fail when it moves their inputs, and a test over the base
# filter fail when the design reads it.  The univariate model has one
# attack channel, so its channel has no other value.  Rows run from the
# fields that reach held-out runs to those that reach none, then the
# multivariate fields, edited on the multivariate base.
EDITS = {
    "seed": Edit(7, 2, True, 2, True),
    "plant.t_s": Edit(0.25, 2, True, 2, True),
    "plant.dt": Edit(0.0005, 2, True, 2, True),
    "plant.deadband": Edit(0.0, 2, True, 2, True),
    "plant.agc_limits": Edit([-0.03, 0.03], 2, True, 2, True),
    "plant.sine_ties": Edit(False, 2, True, 2, True),
    "plant.rate_limit": Edit(0.004, 2, True, 2, True),
    "train.sigma": Edit(0.01, 2, True, 2, True),
    "train.hold_seconds": Edit(0.5, 2, True, 2, True),
    "train.channels": Edit([0, 2], 2, True, 2, True),
    "test.horizon_seconds": Edit(5.0, 0, False, 2, False),
    "test.onset_seconds": Edit(3.0, 0, False, 1, False),
    "attack.magnitude": Edit(-0.1, 0, False, 1, False),
    "test.runs": Edit(2, 0, False, 2, False),
    "filter.margin": Edit(0.001, 0, False, 0, True),
    "filter.pole": Edit(0.3, 0, False, 0, True),
    "filter.d_n": Edit(2, 0, False, 0, True),
    "filter.window_seconds": Edit(5.0, 0, False, 0, True),
    "train.m": Edit(3, 1, True, 0, True),
    "mode": Edit("pure_model", 0, False, 0, True),
    "filter.track_steady_state": Edit(False, 0, False, 0, True),
    "train.horizon_seconds": Edit(5.0, 2, True, 0, True),
    "attack.channel": Edit(0, 0, False, 0, False),
    "attack.basis": Edit(
        [[0.2, 0.2, 0.0], [0.0, 0.3, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.2]],
        0,
        False,
        1,
        True,
    ),
    "attack.polytope_a": Edit([[2.0, 1.0, 1.0]], 0, False, 1, True),
    "attack.polytope_b": Edit([2.0], 0, False, 1, True),
}
# the model enters every run by its hash
MODEL_EDIT = (("model", "areas", 0, "inertia"), Edit(2.5, 2, True, 2, True))
MULTIVARIATE = {field.name for field in FIELDS if field.kind == "multivariate"}


def edit_rows(column: str, model: bool = True) -> list:
    """``(path, value, outcome)`` of every edit, with ``column``'s outcome."""
    rows = [(tuple(name.split(".")), edit.value, edit) for name, edit in EDITS.items()]
    rows += [(MODEL_EDIT[0], MODEL_EDIT[1].value, MODEL_EDIT[1])] if model else []
    return [(path, value, getattr(edit, column)) for path, value, edit in rows]


def base_of(request, field: tuple) -> tuple[dict, Path]:
    """The configuration and the run-all directory an edit of ``field`` starts from."""
    if ".".join(map(str, field)) in MULTIVARIATE:
        return mv_reuse_config(), request.getfixturevalue("mv_reuse_base")
    return reuse_config(), request.getfixturevalue("reuse_base")


def test_every_field_states_what_its_edit_redoes():
    assert set(EDITS) == {field.name for field in FIELDS}
    # a test over the base filter fails exactly for the fields the design reads
    assert {name for name, edit in EDITS.items() if edit.stale_filter} == {
        field.name for field in FIELDS if field.design
    }


def test_a_second_test_reads_every_run_back_and_rewrites_test_byte_for_byte(
    reuse_base, tmp_path, monkeypatch
):
    shutil.copytree(reuse_base, tmp_path / "run")
    names = sorted(p.name for p in (tmp_path / "run/test").iterdir())
    assert names == [
        "attack_00.csv",
        "clean_00.csv",
        "plant_attack_00.csv",
        "plant_attack_00.meta.json",
        "plant_clean_00.csv",
        "plant_clean_00.meta.json",
        "report.json",
    ]
    calls = record_simulations(monkeypatch)
    report = cmd_test(ExperimentConfig.from_dict(reuse_config()), tmp_path / "run")
    assert calls == []
    assert tree(tmp_path / "run") == tree(reuse_base)
    # counted as a fresh call integrates the batch: the copies share 4 samples
    assert report["rk4_run_steps"] == 4 * 500 + 2 * 4 * 500


def test_plant_run_sidecar_records_every_simulator_input(reuse_base):
    _, _, meta = load_trajectory(reuse_base / "test/plant_attack_00.csv")
    assert set(meta) == {"seed", "model_hash", "plant", "disturbance", "attack", "digest"}
    assert meta["seed"] == default_config()["seed"] + TEST_SEED_OFFSET
    assert meta["plant"] == {
        "t_s": 0.5,
        "dt": 0.001,
        "agc_limits": [-0.02, 0.02],
        "deadband": 0.001,
        "sine_ties": True,
        "rate_limit": None,
        "blowup_norm": 1e6,
    }
    assert meta["disturbance"] == {
        "kind": "gaussian",
        "sigma": 0.02,
        "hold_seconds": 1.0,
        "channels": [0, 1, 2],
        "horizon_seconds": 4.0,
    }
    assert meta["attack"] == {"bias": [0.1], "onset_seconds": 2.0}
    _, _, clean = load_trajectory(reuse_base / "test/plant_clean_00.csv")
    assert clean["attack"] == {"bias": None, "onset_seconds": 0.0}
    # a training run's sidecar comes from the same builder
    _, _, train = load_trajectory(reuse_base / "train/traj_001.csv")
    assert set(train) == set(meta)
    assert train["seed"] == default_config()["seed"] + 1
    assert train["attack"] == clean["attack"]


@pytest.mark.parametrize("field, value, integrated", edit_rows("held_out"))
def test_a_retest_over_the_base_runs_writes_what_a_fresh_directory_writes(
    request, tmp_path, monkeypatch, field, value, integrated
):
    raw, base = base_of(request, field)
    cfg = ExperimentConfig.from_dict(edited(raw, field, value))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cmd_run_all(cfg, fresh)
    # the edited run's phases up to the design, then the base run's test/
    shutil.copytree(fresh, reused, ignore=shutil.ignore_patterns("test"))
    shutil.copytree(base / "test", reused / "test")
    calls = record_simulations(monkeypatch)
    cmd_test(cfg, reused)
    assert sum(len(runs) for runs in calls) == integrated
    assert len(calls) == (1 if integrated else 0)
    assert tree(reused) == tree(fresh)


DAMAGES = ["digit", "truncated", "no sidecar"]


def damage_run(path: Path, damage: str) -> None:
    """Flip a digit of a stored plant run, cut it in half or delete its sidecar."""
    text = path.read_text()
    if damage == "digit":
        lines = text.splitlines(keepends=True)
        fields = lines[3].split(",")
        i = next(i for i, c in enumerate(fields[1]) if c.isdigit())
        fields[1] = fields[1][:i] + str((int(fields[1][i]) + 1) % 10) + fields[1][i + 1:]
        lines[3] = ",".join(fields)
        path.write_text("".join(lines))
    elif damage == "truncated":
        path.write_text(text[: len(text) // 2])
    else:
        sidecar_path(path).unlink()


@pytest.mark.parametrize("damage", DAMAGES)
def test_a_damaged_plant_run_is_integrated_again_never_read(
    reuse_base, tmp_path, monkeypatch, damage
):
    run = tmp_path / "run"
    shutil.copytree(reuse_base, run)
    damage_run(run / "test/plant_attack_00.csv", damage)
    calls = record_simulations(monkeypatch)
    cmd_test(ExperimentConfig.from_dict(reuse_config()), run)
    assert [len(runs) for runs in calls] == [1]
    assert calls[0][0][1].bias is not None
    assert tree(run) == tree(reuse_base)


def test_raising_the_test_runs_integrates_only_the_new_runs(reuse_base, tmp_path, monkeypatch):
    raw = edited(reuse_config(), ("test", "runs"), 3)
    cfg = ExperimentConfig.from_dict(raw)
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cmd_run_all(cfg, fresh)
    shutil.copytree(reuse_base, reused)
    calls = record_simulations(monkeypatch)
    report = cmd_test(cfg, reused)
    assert len(calls) == 1
    first = cfg.seed + TEST_SEED_OFFSET
    assert [dist.seed for dist, _ in calls[0]] == [first + 1, first + 1, first + 2, first + 2]
    # every held-out run counts, the reused one included
    assert report["rk4_run_steps"] == 3 * (4 * 500 + 2 * 4 * 500)
    assert tree(reused / "test") == tree(fresh / "test")


def test_a_blowup_among_the_runs_integrated_again_names_its_held_out_run(
    reuse_base, tmp_path, monkeypatch
):
    run = tmp_path / "run"
    shutil.copytree(reuse_base, run)
    raw = edited(reuse_config(), ("test", "runs"), 2)
    cmd_test(ExperimentConfig.from_dict(raw), run)
    # a new magnitude leaves both clean copies stored: the batch integrated
    # is [attack_0, attack_1], and its run 1 is the attacked copy of run 1
    cfg = ExperimentConfig.from_dict(edited(raw, ("attack", "magnitude"), 0.2))
    batches = []

    def exploding(plant, batch):
        batches.append(len(batch.runs))
        raise SimulationBlowUp(1.25, 1e7, "run 1", run=1)

    monkeypatch.setattr(pipeline_module, "simulate_nonlinear", exploding)
    detail = "held-out run 1, seed 102025, attacked copy"
    with pytest.raises(SimulationBlowUp, match=detail) as err:
        cmd_test(cfg, run)
    assert batches == [2]
    assert (err.value.run, err.value.time, err.value.norm) == (3, 1.25, 1e7)


def test_multivariate_retest_reintegrates_only_what_its_design_moves(
    mv_reuse_base, tmp_path, monkeypatch
):
    # a margin-only redesign keeps the least-visible bias: every run is read
    # back.  An edit of the attack set moves it, and the attacked copy is
    # integrated again (the attack rows of EDITS).
    raw = mv_reuse_config()
    margin = ExperimentConfig.from_dict(edited(raw, ("filter", "margin"), 0.001))
    cmd_run_all(margin, tmp_path / "margin_fresh")
    shutil.copytree(mv_reuse_base, tmp_path / "margin")
    cmd_design(margin, tmp_path / "margin")
    calls = record_simulations(monkeypatch)
    cmd_test(margin, tmp_path / "margin")
    assert calls == []
    assert tree(tmp_path / "margin/test") == tree(tmp_path / "margin_fresh/test")


def test_training_runs_are_read_in_run_order(tmp_path, monkeypatch):
    # from run 1,000 on, name order would read traj_1000 between traj_100
    # and traj_101 and average the forms in another order than cmd_train
    raw = edited(reuse_config(), ("train", "m"), 1001)
    ctx = build_context(ExperimentConfig.from_dict(raw))
    t = np.arange(1, ctx.train_samples + 1) * ctx.t_s
    paths, runs = pipeline_module._training_runs(ctx, tmp_path / "train")
    paths[0].parent.mkdir()
    for i, (path, run) in enumerate(zip(paths, runs)):
        y = np.full((ctx.model_d.n_y, ctx.train_samples), float(i))
        meta = {**pipeline_module._run_meta(ctx, *run), "digest": pipeline_module._digest(t, y)}
        save_trajectory(path, t, y, meta)
    read = []

    class Recorded(Exception):
        pass

    def recorded(ctx, specs, outputs):
        read.extend((spec.seed, y[0, 0]) for spec, y in zip(specs, outputs))
        raise Recorded

    monkeypatch.setattr(pipeline_module, "_training_bundle", recorded)
    with pytest.raises(Recorded):
        load_training_bundle(ctx, tmp_path)
    assert read == [(ctx.cfg.seed + i, i) for i in range(1001)]


# --- training runs and the pretrain report read back --------------------------


def test_training_seeds_stay_below_the_held_out_seeds():
    # run i draws seed + i and held-out run j seed + TEST_SEED_OFFSET + j
    raw = edited(default_config(), ("train", "m"), TEST_SEED_OFFSET + 1)
    bounds = re.escape(f"train.m must lie in [1, {TEST_SEED_OFFSET}]")
    with pytest.raises(ConfigError, match=bounds):
        ExperimentConfig.from_dict(raw)
    ExperimentConfig.from_dict(edited(raw, ("train", "m"), TEST_SEED_OFFSET))


@pytest.mark.parametrize(
    "field, value", [(field, value) for field, value, stale in edit_rows("stale_training") if stale]
)
def test_design_over_stale_training_runs_is_rejected_and_writes_nothing(
    request, tmp_path, monkeypatch, field, value
):
    raw, base = base_of(request, field)
    run = tmp_path / "run"
    shutil.copytree(base, run)
    calls = record_simulations(monkeypatch)
    cfg = ExperimentConfig.from_dict(edited(raw, field, value))
    with pytest.raises(ConfigError, match="re-run the training phase$"):
        cmd_design(cfg, run)
    assert calls == []
    assert tree(run) == tree(base)


@pytest.mark.parametrize(
    "field, value",
    [(field, value) for field, value, stale in edit_rows("stale_training") if not stale],
)
def test_design_over_training_runs_an_edit_leaves_valid_reads_them_back(
    request, tmp_path, monkeypatch, field, value
):
    # a filter edit among them: no training file depends on the filter
    raw, base = base_of(request, field)
    cfg = ExperimentConfig.from_dict(edited(raw, field, value))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cmd_run_all(cfg, fresh)
    shutil.copytree(base / "train", reused / "train")
    calls = record_simulations(monkeypatch)
    cmd_design(cfg, reused)
    assert calls == []
    for name in ("filter.txt", "design_report.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("damage", DAMAGES)
def test_design_over_a_damaged_training_run_is_rejected_and_writes_nothing(
    reuse_base, tmp_path, monkeypatch, damage
):
    run = tmp_path / "run"
    shutil.copytree(reuse_base, run)
    damage_run(run / "train/traj_001.csv", damage)
    damaged = tree(run)
    calls = record_simulations(monkeypatch)
    with pytest.raises(ConfigError, match="traj_001.csv: .*re-run the training phase$"):
        cmd_design(ExperimentConfig.from_dict(reuse_config()), run)
    assert calls == []
    assert tree(run) == damaged


@pytest.mark.parametrize("field, value, stale", edit_rows("stale_filter", model=False))
def test_a_test_over_the_base_filter_runs_only_under_the_fields_it_was_designed_with(
    request, tmp_path, monkeypatch, field, value, stale
):
    raw, base = base_of(request, field)
    run = tmp_path / "run"
    shutil.copytree(base, run)
    calls = record_simulations(monkeypatch)
    cfg = ExperimentConfig.from_dict(edited(raw, field, value))
    if not stale:
        cmd_test(cfg, run)
        return
    name = ".".join(field)
    with pytest.raises(ConfigError, match=f"designed with {name} = .*; re-run the design phase$"):
        cmd_test(cfg, run)
    assert calls == []
    assert tree(run) == tree(base)


@pytest.mark.parametrize("field, value, integrated", edit_rows("training"))
def test_a_retrain_over_the_base_runs_writes_what_a_fresh_directory_writes(
    request, tmp_path, monkeypatch, field, value, integrated
):
    raw, base = base_of(request, field)
    cfg = ExperimentConfig.from_dict(edited(raw, field, value))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cmd_train(cfg, fresh)
    shutil.copytree(base / "train", reused / "train")
    calls = record_simulations(monkeypatch)
    cmd_train(cfg, reused)
    assert [len(runs) for runs in calls] == ([integrated] if integrated else [])
    assert tree(reused) == tree(fresh)
    # the training files change exactly where a design over the base runs is rejected
    stale = {path: stale for path, _, stale in edit_rows("stale_training")}[field]
    assert (tree(fresh / "train") != tree(base / "train")) == stale


def test_an_unchanged_retrain_reads_every_run_back(reuse_base, tmp_path, monkeypatch):
    shutil.copytree(reuse_base, tmp_path / "run")
    calls = record_simulations(monkeypatch)
    summary = cmd_train(ExperimentConfig.from_dict(reuse_config()), tmp_path / "run")
    assert calls == []
    assert tree(tmp_path / "run") == tree(reuse_base)
    # counted as a fresh directory integrates both runs
    assert summary["rk4_run_steps"] == 2 * 5 * 500


def test_raising_train_m_integrates_only_the_new_runs(reuse_base, tmp_path, monkeypatch):
    cfg = ExperimentConfig.from_dict(edited(reuse_config(), ("train", "m"), 4))
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    cmd_train(cfg, fresh)
    shutil.copytree(reuse_base / "train", reused / "train")
    calls = record_simulations(monkeypatch)
    summary = cmd_train(cfg, reused)
    assert [[dist.seed for dist, _ in runs] for runs in calls] == [[cfg.seed + 2, cfg.seed + 3]]
    assert summary["rk4_run_steps"] == 4 * 5 * 500
    assert tree(reused) == tree(fresh)


def test_a_training_blowup_names_its_instance_and_seed(reuse_base, tmp_path, monkeypatch):
    # runs 0-1 are read back, so the integrated batch is [run 2, run 3]
    shutil.copytree(reuse_base / "train", tmp_path / "train")
    cfg = ExperimentConfig.from_dict(edited(reuse_config(), ("train", "m"), 4))

    def exploding(plant, batch):
        raise SimulationBlowUp(0.75, 1e7, "run 1", run=1)

    monkeypatch.setattr(pipeline_module, "simulate_nonlinear", exploding)
    with pytest.raises(SimulationBlowUp, match=f"training instance 3, seed {cfg.seed + 3}") as err:
        cmd_train(cfg, tmp_path)
    assert (err.value.run, err.value.time, err.value.norm) == (3, 0.75, 1e7)


def test_design_re_runs_a_pretrain_solved_for_another_attack_set(
    mv_trained, tmp_path, monkeypatch
):
    cfg, out = mv_trained
    base = tmp_path / "base"
    shutil.copytree(out, base)
    cmd_design(cfg, base)
    pretrain = pipeline_module.pretrain_multivariate
    solved = []

    def recorded(stacked, attack):
        solved.append(attack.polytope_b.tolist())
        return pretrain(stacked, attack)

    monkeypatch.setattr(pipeline_module, "pretrain_multivariate", recorded)
    # every design solves the pretrain once, beside a report solved for its
    # own attack set or for another
    cmd_design(cfg, base)
    assert solved == [cfg.attack["polytope_b"]]
    # a polytope further out raises the certified margin
    further = ExperimentConfig.from_dict(edited(cfg.to_dict(), ("attack", "polytope_b"), [3.0]))
    fresh = tmp_path / "fresh"
    shutil.copytree(out, fresh)
    cmd_design(further, fresh)
    solved.clear()
    cmd_design(further, base)
    assert solved == [[3.0]]
    report = json.loads((base / "design_report.json").read_text())
    assert report["pretrain"]["gamma_star"] == pytest.approx(0.6, abs=1e-6)
    assert tree(base) == tree(fresh)
