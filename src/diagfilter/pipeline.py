"""Experiment orchestration: pretrain, train, design and test from one config.

One JSON configuration describes the whole experiment -- model, plant
nonlinearities, filter order, attack hypothesis, training and test settings
-- and a single top-level seed pins every random draw.  Each phase writes
its outputs into the experiment directory:

    out/
      config.json            canonical copy of the resolved configuration
      model_matrices/        continuous-time A, B_d, B_f, C, D_f as CSV
      pretrain_report.json   visibility margins (multivariate attacks only)
      train/traj_XXX.csv     sampled plant outputs, one file per instance
      train/qbar.csv         averaged mismatch quadratic form
      train/training_summary.json
      filter.txt             the designed filter artefact (+ calibration)
      design_report.json
      test/clean_XX.csv, test/attack_XX.csv   residual traces
      test/report.json

The trajectory files are the contract between training and design: the
design phase re-derives the mismatch signatures from them (re-running the
abstract model from the recorded seeds) and cross-checks the persisted
average.  The test phase reads only the artefact and fresh simulations.

Seed policy: training instance ``i`` uses ``seed + i``; held-out test run
``j`` uses ``seed + 100000 + j``, a disjoint range so test disturbances are
out-of-sample by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matio
from .agc import areas_from_dict, areas_to_dict
from .design import (
    AttackModel,
    FilterDesign,
    average_q,
    design_multivariate,
    design_univariate,
    gram_matrix,
    mismatch_signature,
    pretrain_multivariate,
    q_matrix,
    quadratic_value,
    regularised_value,
    steady_state_margin,
    worst_case_alpha,
)
from .errors import ConfigError, DetectorInfeasibleError, SimulationBlowUp
from .lti import DaeSystem, LinearModel, StackedSystem, assemble_dae, build_stacked, zoh_discretize
from .runtime import Detector, ResidualFilter, calibrate_threshold
from .shiftpoly import pole_polynomial
from .simulate import (
    AttackSpec,
    DisturbanceSpec,
    PlantConfig,
    RunBatch,
    simulate_linear,
    simulate_nonlinear,
)

TEST_SEED_OFFSET = 100_000


# --- configuration ------------------------------------------------------------


def default_config() -> dict:
    """The canonical three-area experiment with a single corrupted tie reading."""
    from .agc import three_area_default, univariate_topology

    return {
        "seed": 2024,
        "mode": "data_assisted",
        "model": areas_to_dict(three_area_default(), univariate_topology()),
        "plant": {
            "t_s": 0.5,
            "dt": 0.001,
            "deadband": 0.001,
            "agc_limits": [-0.02, 0.02],
            "sine_ties": True,
            "rate_limit": None,
        },
        "filter": {
            # margin sits between the healthy energy spread of the
            # training-aware filter (~2e-5 at this scale) and the healthy
            # energies of the model-only baseline (~4e-4 .. 9e-4), so the
            # two modes separate on held-out runs
            "d_n": 3,
            "pole": 0.5,
            "margin": 0.0005,
            "window_seconds": 10.0,
            "track_steady_state": True,
        },
        "train": {
            "m": 100,
            "horizon_seconds": 10.0,
            "sigma": 0.02,
            "hold_seconds": 1.0,
            "channels": None,
        },
        "test": {"runs": 10, "horizon_seconds": 60.0, "onset_seconds": 30.0},
        "attack": {"kind": "univariate", "channel": 0, "magnitude": 0.1},
    }


def multivariate_default_config() -> dict:
    """Coordinated-bias variant: three basis attacks on five tie readings."""
    from .agc import multivariate_topology, three_area_default

    cfg = default_config()
    cfg["model"] = areas_to_dict(three_area_default(), multivariate_topology())
    cfg["filter"]["track_steady_state"] = False
    cfg["attack"] = {
        "kind": "multivariate",
        "basis": [
            [0.1, 0.1, 0.0],
            [0.0, 0.15, 0.0],
            [0.1, 0.25, 0.0],
            [0.0, 0.0, 0.1],
            [0.0, 0.0, 0.1],
        ],
        "polytope_a": [[1.0, 1.0, 1.0]],
        "polytope_b": [1.5],
    }
    return cfg


@dataclass
class ExperimentConfig:
    """Validated view of one experiment's JSON configuration."""

    model: dict
    plant: dict
    filter: dict
    train: dict
    test: dict
    attack: dict
    seed: int
    mode: str

    @staticmethod
    def from_dict(raw: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        raw = dict(raw)
        base = Path(base_dir)
        for section in ("model", "plant"):
            key = f"{section}_path"
            if section not in raw and key in raw:
                path = base / raw.pop(key)
                if not path.exists():
                    raise ConfigError(f"referenced {section} file not found: {path}")
                raw[section] = json.loads(path.read_text())
        defaults = default_config()
        missing = [k for k in ("model", "attack") if k not in raw]
        if missing:
            raise ConfigError(f"configuration missing section(s): {', '.join(missing)}")
        cfg = ExperimentConfig(
            model=raw["model"],
            plant={**defaults["plant"], **raw.get("plant", {})},
            # DC tracking is a univariate option: its default follows the attack
            filter={
                **defaults["filter"],
                "track_steady_state": raw["attack"].get("kind") != "multivariate",
                **raw.get("filter", {}),
            },
            train={**defaults["train"], **raw.get("train", {})},
            test={**defaults["test"], **raw.get("test", {})},
            attack=raw["attack"],
            seed=int(raw.get("seed", defaults["seed"])),
            mode=str(raw.get("mode", defaults["mode"])),
        )
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"configuration file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(raw, base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "model": self.model,
            "plant": self.plant,
            "filter": self.filter,
            "train": self.train,
            "test": self.test,
            "attack": self.attack,
        }

    def validate(self):
        if self.mode not in ("data_assisted", "pure_model"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if int(self.train["m"]) < 1:
            raise ConfigError("train.m must be >= 1")
        if int(self.test["runs"]) < 1:
            raise ConfigError("test.runs must be >= 1")
        if float(self.filter["margin"]) < 0:
            raise ConfigError("filter.margin must be nonnegative")
        if int(self.filter["d_n"]) < 1:
            raise ConfigError("filter.d_n must be >= 1")
        if not -1.0 < float(self.filter["pole"]) < 1.0:
            raise ConfigError("filter.pole must lie in (-1, 1)")
        t_s = float(self.plant["t_s"])
        for name, horizon in (
            ("train.horizon_seconds", float(self.train["horizon_seconds"])),
            ("test.horizon_seconds", float(self.test["horizon_seconds"])),
            ("filter.window_seconds", float(self.filter["window_seconds"])),
        ):
            if horizon <= 0 or abs(round(horizon / t_s) - horizon / t_s) > 1e-9:
                raise ConfigError(f"{name} must be a positive multiple of t_s")
        onset = float(self.test["onset_seconds"])
        if not 0 <= onset < float(self.test["horizon_seconds"]):
            raise ConfigError("test.onset_seconds must fall inside the test horizon")
        kind = self.attack.get("kind")
        if kind not in ("univariate", "multivariate"):
            raise ConfigError(f"unknown attack kind {kind!r}")
        if kind == "multivariate" and bool(self.filter["track_steady_state"]):
            raise ConfigError(
                "filter.track_steady_state applies to univariate attacks only; "
                "the multivariate design has no DC normalisation"
            )


# --- derived context ----------------------------------------------------------


@dataclass
class PipelineContext:
    """Everything derivable from the configuration, built once per phase."""

    cfg: ExperimentConfig
    model_c: LinearModel
    model_d: LinearModel
    dae: DaeSystem
    stacked: StackedSystem
    plant: PlantConfig
    attack_model: AttackModel
    a_coeffs: np.ndarray
    model_hash: str

    @property
    def t_s(self) -> float:
        return float(self.cfg.plant["t_s"])

    @property
    def train_samples(self) -> int:
        return int(round(float(self.cfg.train["horizon_seconds"]) / self.t_s))

    @property
    def window_samples(self) -> int:
        return int(round(float(self.cfg.filter["window_seconds"]) / self.t_s))

    def disturbance_spec(self, seed: int, horizon: float) -> DisturbanceSpec:
        channels = self.cfg.train["channels"]
        if channels is None:
            channels = tuple(range(self.model_c.n_d))
        return DisturbanceSpec(
            n_d=self.model_c.n_d,
            horizon=horizon,
            sigma=float(self.cfg.train["sigma"]),
            hold=float(self.cfg.train["hold_seconds"]),
            channels=tuple(int(c) for c in channels),
            seed=int(seed),
        )


def build_context(cfg: ExperimentConfig) -> PipelineContext:
    areas, topology = areas_from_dict(cfg.model)
    plant_cfg = cfg.plant
    plant = PlantConfig(
        areas=areas,
        attacks=topology,
        t_s=float(plant_cfg["t_s"]),
        dt=float(plant_cfg["dt"]),
        agc_limits=tuple(plant_cfg["agc_limits"]) if plant_cfg.get("agc_limits") else None,
        deadband=float(plant_cfg.get("deadband", 0.0)),
        sine_ties=bool(plant_cfg.get("sine_ties", False)),
        rate_limit=plant_cfg.get("rate_limit"),
    )
    plant.validate()
    model_c, _ = plant.assemble()
    model_d = zoh_discretize(model_c, plant.t_s)
    dae = assemble_dae(model_d)
    d_n = int(cfg.filter["d_n"])
    stacked = build_stacked(dae, d_n)
    atk = cfg.attack
    if atk["kind"] == "univariate":
        attack_model = AttackModel(kind="univariate")
    else:
        attack_model = AttackModel(
            kind="multivariate",
            basis=np.asarray(atk["basis"], dtype=float),
            polytope_a=np.asarray(atk["polytope_a"], dtype=float),
            polytope_b=np.asarray(atk["polytope_b"], dtype=float),
        )
    attack_model.validate_against(model_c.n_f)
    return PipelineContext(
        cfg=cfg,
        model_c=model_c,
        model_d=model_d,
        dae=dae,
        stacked=stacked,
        plant=plant,
        attack_model=attack_model,
        a_coeffs=pole_polynomial(float(cfg.filter["pole"]), d_n),
        model_hash=matio.model_config_hash(cfg.model),
    )


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def dump_model_matrices(ctx: PipelineContext, out_dir: str | Path) -> None:
    """Emit the continuous-time model matrices as CSV for external tooling."""
    target = Path(out_dir) / "model_matrices"
    target.mkdir(parents=True, exist_ok=True)
    for name, mat in (
        ("A", ctx.model_c.A),
        ("B_d", ctx.model_c.B_d),
        ("B_f", ctx.model_c.B_f),
        ("C", ctx.model_c.C),
        ("D_f", ctx.model_c.D_f),
    ):
        matio.save_matrix(target / f"{name}.csv", mat)


# --- pretrain -----------------------------------------------------------------


def cmd_pretrain(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Solve the visibility programs and persist the margin table.

    Raises:
        ConfigError: for univariate attack hypotheses (nothing to pretrain).
        DetectorInfeasibleError: when no program certifies positive margin.
    """
    ctx = build_context(cfg)
    if ctx.attack_model.kind != "multivariate":
        raise ConfigError("pretraining applies to multivariate attack models only")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = pretrain_multivariate(ctx.stacked, ctx.attack_model)
    report = {
        "gammas": [float(g) for g in result.gammas],
        "j_star": int(result.j_star),
        "gamma_star": float(result.gamma_star),
        "statuses": list(result.statuses),
        "feasible": bool(result.feasible),
    }
    _write_json(out / "pretrain_report.json", report)
    if not result.feasible:
        raise DetectorInfeasibleError(
            "no detectable attack direction: every visibility program is nonpositive",
            gammas=result.gammas,
        )
    return report


# --- train --------------------------------------------------------------------


def _instance_meta(ctx: PipelineContext, seed: int) -> dict:
    spec = ctx.disturbance_spec(seed, float(ctx.cfg.train["horizon_seconds"]))
    return {
        "seed": int(seed),
        "t_s": ctx.t_s,
        "attack": {"kind": "none"},
        "disturbance": {
            "kind": "gaussian",
            "sigma": spec.sigma,
            "hold_seconds": spec.hold,
            "channels": list(spec.channels),
            "horizon_seconds": spec.horizon,
        },
    }


def cmd_train(cfg: ExperimentConfig, out_dir: str | Path, jobs: int = 1) -> dict:
    """Run the paired healthy simulations and persist the mismatch statistics.

    All ``m`` plant runs are integrated as one batch.  ``jobs`` has no
    effect; it is accepted so callers that pass it keep working.
    """
    ctx = build_context(cfg)
    out = Path(out_dir)
    train_dir = out / "train"
    train_dir.mkdir(parents=True, exist_ok=True)
    m = int(cfg.train["m"])
    horizon = float(cfg.train["horizon_seconds"])
    seeds = [cfg.seed + i for i in range(m)]
    batch = RunBatch([(ctx.disturbance_spec(s, horizon), AttackSpec.none()) for s in seeds])
    try:
        results = simulate_nonlinear(ctx.plant, batch)
    except SimulationBlowUp as exc:
        detail = f"training instance {exc.run}, seed {seeds[exc.run]}"
        raise SimulationBlowUp(exc.time, exc.norm, detail, run=exc.run) from exc

    for i, (seed, traj) in enumerate(zip(seeds, results)):
        matio.save_trajectory(
            train_dir / f"traj_{i:03d}.csv", traj.t, traj.Y, _instance_meta(ctx, seed)
        )
    bundle = _training_bundle(ctx, seeds, [traj.Y for traj in results])
    matio.save_matrix(train_dir / "qbar.csv", bundle.qbar)
    summary = {
        "m": m,
        "horizon_samples": ctx.train_samples,
        "t_s": ctx.t_s,
        "model_hash": ctx.model_hash,
        "instances": [
            {
                "seed": int(seed),
                "max_abs_mismatch": float(np.max(np.abs(sig))),
                "q_trace": float(np.trace(q)),
            }
            for seed, sig, q in zip(seeds, bundle.signatures, bundle.q_list)
        ],
        "qbar_trace": float(np.trace(bundle.qbar)),
    }
    _write_json(train_dir / "training_summary.json", summary)
    return summary


@dataclass
class TrainingBundle:
    """Mismatch statistics of a training set: one signature and form per run."""

    q_list: list[np.ndarray]
    qbar: np.ndarray
    signatures: list[np.ndarray]


def _training_bundle(
    ctx: PipelineContext, seeds: list[int], outputs: list[np.ndarray]
) -> TrainingBundle:
    """Signatures, quadratic forms and their average for recorded plant runs.

    Run ``i`` is replayed on the abstract model from the disturbance drawn
    with ``seeds[i]``; its signature is the plant's ``outputs[i]`` less that
    replay.
    """
    horizon = float(ctx.cfg.train["horizon_seconds"])
    gram = gram_matrix(ctx.a_coeffs, ctx.train_samples)
    signatures, q_list = [], []
    for seed, y_plant in zip(seeds, outputs):
        spec = ctx.disturbance_spec(seed, horizon)
        reference = simulate_linear(ctx.model_d, spec, AttackSpec.none())
        sig = mismatch_signature(y_plant, reference.Y)
        signatures.append(sig)
        q_list.append(q_matrix(ctx.stacked, sig, gram))
    return TrainingBundle(q_list=q_list, qbar=average_q(q_list), signatures=signatures)


def load_training_bundle(ctx: PipelineContext, out_dir: str | Path) -> TrainingBundle:
    """Rebuild the mismatch statistics from the persisted trajectories.

    Re-runs the abstract model from each trajectory's recorded seed, forms
    the signatures and quadratic forms, and cross-checks the persisted
    average -- a stale or hand-edited training directory fails here.
    """
    train_dir = Path(out_dir) / "train"
    files = sorted(train_dir.glob("traj_*.csv"))
    if not files:
        raise ConfigError(f"no training trajectories under {train_dir}")
    seeds, outputs = [], []
    for f in files:
        _, y_plant, meta = matio.load_trajectory(f)
        if "seed" not in meta:
            raise ConfigError(f"{f}: missing seed in trajectory sidecar")
        if y_plant.shape != (ctx.model_d.n_y, ctx.train_samples):
            raise ConfigError(f"{f}: trajectory shape does not match the configuration")
        seeds.append(int(meta["seed"]))
        outputs.append(y_plant)
    bundle = _training_bundle(ctx, seeds, outputs)
    stored = matio.load_matrix(train_dir / "qbar.csv")
    if stored.shape != bundle.qbar.shape:
        raise ConfigError(
            f"persisted average mismatch form has shape {stored.shape}, the configured "
            f"filter needs {bundle.qbar.shape}; re-run the training phase"
        )
    drift = float(np.max(np.abs(stored - bundle.qbar)))
    if drift > 1e-9:
        raise ConfigError(
            f"persisted average mismatch form disagrees with the trajectories "
            f"(max deviation {drift:.3e}); re-run the training phase"
        )
    return bundle


# --- design -------------------------------------------------------------------


def _load_pretrain(out: Path) -> dict | None:
    path = out / "pretrain_report.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def cmd_design(cfg: ExperimentConfig, out_dir: str | Path) -> FilterDesign:
    """Synthesise the filter, calibrate the detector, write the artefact.

    ``pose(form, constraints)`` is the one design call of the configured
    attack kind (a multivariate attack first loads or runs pretraining for
    its program).  A data-assisted design is checked against the
    model-only baseline: the same design without the training form.  The
    model fixes the feasible set and the form only the objective, so the
    baseline is posed over the assisted design's constraints (for a
    multivariate attack, at its final floor) and reuses their reduction:
    one factorisation of the equalities and one phase-one start per call.
    Both are compared on the ridged form the design programs minimise
    (:func:`~diagfilter.design.regularised_value`).
    """
    ctx = build_context(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "data_assisted":
        bundle = load_training_bundle(ctx, out)
        qbar = bundle.qbar
        q_list = bundle.q_list
    else:
        qbar = None
        q_list = []

    pole = float(cfg.filter["pole"])
    if ctx.attack_model.kind == "univariate":
        track = bool(cfg.filter["track_steady_state"])

        def pose(form, constraints=None):
            return design_univariate(
                ctx.stacked, form, pole=pole, track_steady_state=track, constraints=constraints
            )

        pretrain_used = None
    else:
        report = _load_pretrain(out)
        if report is None:
            report = cmd_pretrain(cfg, out)
        j_star = int(report["j_star"])

        def pose(form, constraints=None):
            return design_multivariate(
                ctx.stacked, form, ctx.attack_model, j=j_star, pole=pole, constraints=constraints
            )

        pretrain_used = {"j_star": report["j_star"], "gamma_star": report["gamma_star"]}

    design = pose(qbar)
    dominance = None
    if qbar is not None:
        baseline = pose(None, design.constraints)
        # the assisted design minimises the ridged form over a set that holds
        # the baseline; compared relatively, as the forms are of order 1e-14
        # to 1e-10
        assisted_ridged = regularised_value(design.nbar, qbar)
        pure_ridged = regularised_value(baseline.nbar, qbar)
        if assisted_ridged > pure_ridged * (1.0 + 1e-6):
            raise DetectorInfeasibleError(
                "training-aware design lost to the model-only baseline on its own "
                f"objective ({assisted_ridged:.6e} > {pure_ridged:.6e}); "
                "the quadratic forms are inconsistent"
            )
        dominance = {
            "assisted_value": float(design.objective),
            "pure_value": float(quadratic_value(baseline.nbar, qbar)),
            "assisted_ridged": float(assisted_ridged),
            "pure_ridged": float(pure_ridged),
            "ridged_ratio": float(assisted_ridged / pure_ridged),
        }

    detector = calibrate_threshold(
        design, q_list, float(cfg.filter["margin"]), ctx.window_samples
    )
    calibration = {
        "tau_star": float(detector.tau_star),
        "margin": float(detector.margin),
        "window": int(detector.window),
        "warmup": int(detector.warmup),
        "threshold": float(detector.threshold),
    }
    matio.save_filter(out / "filter.txt", design, ctx.model_hash, calibration)
    report = {
        "mode": design.mode,
        "objective": float(design.objective),
        "branch": design.branch,
        "track_steady_state": bool(design.track_steady_state),
        "calibration": calibration,
        "dominance": dominance,
        "branch_report": design.diagnostics.get("branch_report"),
        "pretrain": pretrain_used,
        "model_hash": ctx.model_hash,
    }
    if "gamma" in design.diagnostics:
        report["gamma"] = float(design.diagnostics["gamma"])
    _write_json(out / "design_report.json", report)
    return design


# --- test ---------------------------------------------------------------------


def _test_attack(ctx: PipelineContext, design: FilterDesign) -> tuple[AttackSpec, dict]:
    onset = float(ctx.cfg.test["onset_seconds"])
    if ctx.attack_model.kind == "univariate":
        channel = int(ctx.cfg.attack.get("channel", 0))
        magnitude = float(ctx.cfg.attack.get("magnitude", 0.1))
        spec = AttackSpec.univariate(magnitude, onset, channel=channel)
        info = {"kind": "univariate", "channel": channel, "magnitude": magnitude}
        return spec, info
    alpha, value, status = worst_case_alpha(ctx.stacked, design, ctx.attack_model)
    if alpha is None:
        raise DetectorInfeasibleError(
            f"least-visible attack program ended {status}; polytope is not compact "
            "in the filter's response direction"
        )
    f_vec = ctx.attack_model.basis @ alpha
    mu, _ = steady_state_margin(design, ctx.dae.F, ctx.attack_model)
    info = {
        "kind": "multivariate",
        "alpha_star": [float(a) for a in alpha],
        "bias_vector": [float(v) for v in f_vec],
        "visibility_at_alpha": float(value),
        "steady_state_margin": float(mu),
    }
    return AttackSpec.multivariate(f_vec, onset), info


def cmd_test(cfg: ExperimentConfig, out_dir: str | Path) -> dict:
    """Held-out evaluation: clean and attacked runs through the detector."""
    ctx = build_context(cfg)
    out = Path(out_dir)
    artefact = out / "filter.txt"
    if not artefact.exists():
        raise ConfigError(f"no filter artefact at {artefact}; run the design phase first")
    design, _ = matio.load_filter(
        artefact, expected_hash=ctx.model_hash, stacked=ctx.stacked
    )
    cal = design.diagnostics.get("calibration") or {}
    if not cal:
        raise ConfigError(f"{artefact}: artefact carries no detector calibration")
    detector = Detector(
        tau_star=float(cal["tau_star"]),
        margin=float(cal["margin"]),
        window=int(cal["window"]),
        warmup=int(cal["warmup"]),
    )
    test_dir = out / "test"
    test_dir.mkdir(parents=True, exist_ok=True)

    attack, attack_info = _test_attack(ctx, design)
    runs = int(cfg.test["runs"])
    horizon = float(cfg.test["horizon_seconds"])
    onset = float(cfg.test["onset_seconds"])
    filt = ResidualFilter(design, ctx.dae.L)

    # one batch: a clean then an attacked copy of each held-out run
    seeds = [cfg.seed + TEST_SEED_OFFSET + j for j in range(runs)]
    batch = RunBatch(
        [(ctx.disturbance_spec(s, horizon), a) for s in seeds for a in (AttackSpec.none(), attack)]
    )
    trajs = iter(simulate_nonlinear(ctx.plant, batch))

    per_run = []
    false_alarms = 0
    detections = 0
    for j, seed in enumerate(seeds):
        entry: dict = {"seed": int(seed)}
        for label in ("clean", "attack"):
            traj = next(trajs)
            residuals = filt.run(traj.Y)
            verdict = detector.evaluate(residuals)
            alarm_time = (
                float(traj.t[verdict.first_index]) if verdict.first_index is not None else None
            )
            matio.save_residual_trace(
                test_dir / f"{label}_{j:02d}.csv",
                traj.t,
                residuals,
                verdict.energies,
                verdict.above,
            )
            entry[label] = {
                "alarm": bool(verdict.alarm),
                "alarm_time": alarm_time,
                "max_energy": float(verdict.max_energy),
            }
        if entry["clean"]["alarm"]:
            false_alarms += 1
        atk_time = entry["attack"]["alarm_time"]
        if atk_time is not None and atk_time >= onset:
            detections += 1
            entry["attack"]["latency"] = float(atk_time - onset)
        per_run.append(entry)

    report = {
        "runs": runs,
        "threshold": float(detector.threshold),
        "tau_star": float(detector.tau_star),
        "margin": float(detector.margin),
        "attack": attack_info,
        "onset_seconds": onset,
        "false_alarms": false_alarms,
        "detections": detections,
        "per_run": per_run,
        "mode": design.mode,
    }
    _write_json(test_dir / "report.json", report)
    return report


# --- run-all ------------------------------------------------------------------


def cmd_run_all(cfg: ExperimentConfig, out_dir: str | Path, jobs: int = 1) -> dict:
    """Execute every phase in order into one experiment directory.

    ``jobs`` has no effect; it is accepted so callers that pass it keep working.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx = build_context(cfg)
    _write_json(out / "config.json", cfg.to_dict())
    dump_model_matrices(ctx, out)
    summary: dict = {}
    if ctx.attack_model.kind == "multivariate":
        summary["pretrain"] = cmd_pretrain(cfg, out)
    if cfg.mode == "data_assisted":
        summary["train"] = cmd_train(cfg, out)
    design = cmd_design(cfg, out)
    summary["design"] = {"objective": float(design.objective), "branch": design.branch}
    summary["test"] = cmd_test(cfg, out)
    _write_json(out / "summary.json", summary)
    return summary
