"""Experiment orchestration: pretrain, train, design and test from one config.

One configuration (:mod:`~diagfilter.config`) describes the whole
experiment.  Each phase writes its outputs into one experiment directory,
laid out in README's "Artefacts": the configuration and model matrices, the
pretrain report, the training runs, the filter artefact and design report,
and the held-out plant runs, residual traces and test report.

Every plant run is stored with a sidecar recording each input the
simulator reads for it and a digest of its outputs.  Every phase reads a
stored run back, bit for bit, only when its sidecar records the inputs the
run would be integrated from; training and test integrate the rest, and
the design phase, which integrates nothing, fails on them.  Training
stores only plant runs, so no training file depends on the filter: the
design forms the mismatch signatures and their average from the training
runs, and solves the pretrain's support LPs itself: it writes their
report and no phase reads it back.  Held-out runs draw their disturbances
from seeds no training run uses (``config.TEST_SEED_OFFSET``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import matio
from .agc import areas_from_dict
from .config import TEST_SEED_OFFSET, ExperimentConfig, check_memory, hold_rows
from .config import default_config, multivariate_default_config  # noqa: F401 (re-exported)
from .design import (
    AttackModel,
    FilterDesign,
    PretrainResult,
    design_multivariate,
    design_univariate,
    gram_matrix,
    mismatch_signature,
    pretrain_multivariate,
    q_matrix,
    signature_energy,
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
    SampledTrajectory,
    simulate_linear,
    simulate_nonlinear,
)

# --- derived context ----------------------------------------------------------


@dataclass
class PipelineContext:
    """Everything derivable from the configuration.

    Each phase command takes a configuration or a context built from one;
    ``cmd_run_all`` builds it once and hands it to every phase.
    """

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
        return self.cfg.samples("train.horizon_seconds")

    @property
    def window_samples(self) -> int:
        return self.cfg.samples("filter.window_seconds")

    def disturbance_spec(self, seed: int, horizon: float) -> DisturbanceSpec:
        return DisturbanceSpec(
            n_d=self.model_c.n_d,
            horizon=horizon,
            sigma=float(self.cfg.train["sigma"]),
            hold=float(self.cfg.train["hold_seconds"]),
            channels=self.cfg.train["channels"],
            seed=int(seed),
        )


def _check_array_sizes(cfg: ExperimentConfig, model: LinearModel) -> None:
    """Reject counts whose arrays cannot fit in physical memory, before any is made.

    ``filter.d_n`` sizes the quadratic forms, ``((d_n + 1) (n_x + n_y))^2``
    floats each, four of them in flight while the design sums one per run.
    ``train.m`` and the training horizon size each run's output record and
    signature, besides the ``T x T`` Gram matrix and those forms once;
    ``test.runs`` and the test horizon the test output record, a clean and an
    attacked copy of each run.  ``train.hold_seconds`` sizes each run's
    disturbance draw, :func:`~diagfilter.config.hold_rows` rows of ``n_d``
    values and of one draw per channel.
    """
    forms = 4 * ((int(cfg.filter["d_n"]) + 1) * (model.n_x + model.n_y)) ** 2
    train_samples = cfg.samples("train.horizon_seconds")
    test_samples = cfg.samples("test.horizon_seconds")
    hold = float(cfg.train["hold_seconds"])
    channels = cfg.train["channels"]
    row = model.n_d + (model.n_d if channels is None else len(channels))
    train_draw = hold_rows(float(cfg.train["horizon_seconds"]), hold) * row
    test_draw = hold_rows(float(cfg.test["horizon_seconds"]), hold) * row
    check_memory(forms, "filter.d_n")
    check_memory(
        int(cfg.train["m"]) * (2 * model.n_y * train_samples + train_draw)
        + train_samples**2 + forms,
        "train.m, train.horizon_seconds and train.hold_seconds",
    )
    check_memory(
        2 * int(cfg.test["runs"]) * (model.n_y * test_samples + test_draw),
        "test.runs, test.horizon_seconds and train.hold_seconds",
    )


def build_context(cfg: ExperimentConfig) -> PipelineContext:
    areas, topology = areas_from_dict(cfg.model)
    plant = PlantConfig(areas=areas, attacks=topology, **cfg.plant)
    model_c, _ = plant.assemble()
    _check_array_sizes(cfg, model_c)
    model_d = zoh_discretize(model_c, plant.t_s)
    dae = assemble_dae(model_d)
    d_n = int(cfg.filter["d_n"])
    stacked = build_stacked(dae, d_n)
    atk = cfg.attack
    if atk["kind"] == "univariate":
        attack_model = AttackModel(kind="univariate")
        channel = atk["channel"]
        if not 0 <= channel < model_c.n_f:
            raise ConfigError(f"attack.channel {channel} outside 0..{model_c.n_f - 1}")
    else:
        # a multivariate attack's fields are the attack model's
        attack_model = AttackModel(**atk)
    attack_model.validate_against(model_c.n_f)
    ctx = PipelineContext(
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
    # the load disturbances against the model: a phase that would fail on
    # them fails here, before it writes anything
    ctx.disturbance_spec(cfg.seed, float(cfg.train["horizon_seconds"]))
    return ctx


def _context(cfg: ExperimentConfig | PipelineContext) -> PipelineContext:
    """The context a phase was given, or one built from its configuration.

    A phase reads the context and never changes it, so one built context
    serves every phase of a run.
    """
    return cfg if isinstance(cfg, PipelineContext) else build_context(cfg)


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


def cmd_pretrain(cfg: ExperimentConfig | PipelineContext, out_dir: str | Path) -> dict:
    """Solve the visibility programs and persist the margin table.

    The design phase runs it for a multivariate attack; no phase reads the
    table back.

    Raises:
        ConfigError: for univariate attack hypotheses (nothing to pretrain)
            and, before a report is written, an empty attack polytope.
        DetectorInfeasibleError: when no program certifies positive margin.
    """
    ctx = _context(cfg)
    if ctx.attack_model.kind != "multivariate":
        raise ConfigError("pretraining applies to multivariate attack models only")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atk = ctx.attack_model
    result = pretrain_multivariate(ctx.stacked, atk)
    # the margins and what the visibility programs are posed from, the
    # stacked system and the attack set
    report = {
        "gammas": [float(g) for g in result.gammas],
        "j_star": result.j_star,
        "gamma_star": result.gamma_star,
        "feasible": result.feasible,
        "model_hash": ctx.model_hash,
        "t_s": ctx.t_s,
        "d_n": ctx.stacked.d_n,
        "basis": atk.basis.tolist(),
        "polytope_a": atk.polytope_a.tolist(),
        "polytope_b": atk.polytope_b.tolist(),
    }
    _write_json(out / "pretrain_report.json", report)
    if not result.feasible:
        raise DetectorInfeasibleError(
            "no detectable attack direction: every visibility program is nonpositive"
        )
    return report


def _remove_stale(directory: Path, patterns: tuple[str, ...], kept: list[Path]) -> None:
    """Delete the files of a phase, and their sidecars, that this run does not
    keep, so that a directory re-run with fewer runs equals a fresh one."""
    names = {path.name for path in kept}
    for pattern in patterns:
        for path in directory.glob(pattern):
            if path.name not in names:
                path.unlink()
                matio.sidecar_path(path).unlink(missing_ok=True)


# --- plant runs ---------------------------------------------------------------


def _run_meta(ctx: PipelineContext, dist: DisturbanceSpec, atk: AttackSpec) -> dict:
    """The sidecar of a plant run: every input :func:`simulate_nonlinear` reads for it.

    The model enters by its hash, the plant by every other field of the
    built configuration.  Values are as JSON holds them, so the dict equals
    its stored copy.
    """
    meta = {
        "seed": dist.seed,
        "model_hash": ctx.model_hash,
        "plant": {k: v for k, v in vars(ctx.plant).items() if k not in ("areas", "attacks")},
        "disturbance": {
            "kind": dist.kind,
            "sigma": dist.sigma,
            "hold_seconds": dist.hold,
            "channels": dist.channels,
            "horizon_seconds": dist.horizon,
        },
        "attack": {
            "bias": None if atk.bias is None else [float(v) for v in atk.bias],
            "onset_seconds": atk.start,
        },
    }
    return json.loads(json.dumps(meta))


def _digest(t: np.ndarray, y: np.ndarray) -> str:
    """SHA-256 of a run's sample times and outputs, as float64 bytes."""
    return hashlib.sha256(np.vstack([t, y]).tobytes()).hexdigest()


def _stored_run(path: Path, meta: dict) -> SampledTrajectory | None:
    """The run stored at ``path`` if its sidecar records ``meta`` and the
    digest of the outputs read back; None for any other file or none."""
    try:
        t, y, stored = matio.load_trajectory(path)
    except (OSError, ValueError):
        return None
    return SampledTrajectory(t, y) if stored == {**meta, "digest": _digest(t, y)} else None


def _plant_runs(
    ctx: PipelineContext, paths: list[Path], runs: list, labels: list[str] | None = None
) -> list[SampledTrajectory]:
    """The plant run of each ``(disturbance, attack)`` pair, stored at its path.

    A run stored from the inputs it would be integrated from is read back;
    the others are integrated as one batch, whose bits do not depend on it,
    and stored.  ``labels`` name the runs for a blow-up; without them a run
    not read back raises :class:`ConfigError`.
    """
    metas = [_run_meta(ctx, *run) for run in runs]
    trajs = [_stored_run(path, meta) for path, meta in zip(paths, metas)]
    fresh = [i for i, traj in enumerate(trajs) if traj is None]
    if fresh and labels is None:
        raise ConfigError(
            f"{paths[fresh[0]]}: missing or not run from this configuration ({len(fresh)} "
            f"of {len(paths)} runs); re-run the training phase"
        )
    if fresh:
        try:
            results = simulate_nonlinear(ctx.plant, RunBatch([runs[i] for i in fresh]))
        except SimulationBlowUp as exc:
            run = fresh[exc.run]
            raise SimulationBlowUp(exc.time, exc.norm, labels[run], run=run) from exc
        for i, traj in zip(fresh, results):
            meta = {**metas[i], "digest": _digest(traj.t, traj.Y)}
            matio.save_trajectory(paths[i], traj.t, traj.Y, meta)
            trajs[i] = traj
    return trajs


def _training_runs(ctx: PipelineContext, train_dir: Path) -> tuple[list[Path], list]:
    """The stored path and the inputs of each of the ``train.m`` training runs."""
    horizon = float(ctx.cfg.train["horizon_seconds"])
    seeds = [ctx.cfg.seed + i for i in range(int(ctx.cfg.train["m"]))]
    paths = [train_dir / f"traj_{i:03d}.csv" for i in range(len(seeds))]
    return paths, [(ctx.disturbance_spec(s, horizon), AttackSpec()) for s in seeds]


# --- train --------------------------------------------------------------------


def cmd_train(
    cfg: ExperimentConfig | PipelineContext, out_dir: str | Path, jobs: int = 1
) -> dict:
    """Run the healthy plant simulations and persist them with their mismatch sizes.

    Stored runs whose inputs are unchanged are read back; the rest are
    integrated as one batch.  ``rk4_run_steps`` counts all ``m`` runs, as a
    fresh directory integrates them.  ``jobs`` has no effect; it is
    accepted so callers that pass it keep working.
    """
    ctx = _context(cfg)
    train_dir = Path(out_dir) / "train"
    train_dir.mkdir(parents=True, exist_ok=True)
    paths, runs = _training_runs(ctx, train_dir)
    labels = [f"training instance {i}, seed {dist.seed}" for i, (dist, _) in enumerate(runs)]
    trajs = _plant_runs(ctx, paths, runs, labels)
    _remove_stale(train_dir, ("traj_*.csv",), paths)
    signatures = _signatures(ctx, [dist for dist, _ in runs], [traj.Y for traj in trajs])
    summary = {
        "m": len(runs),
        "horizon_samples": ctx.train_samples,
        "t_s": ctx.t_s,
        "model_hash": ctx.model_hash,
        "instances": [
            {"seed": int(dist.seed), "max_abs_mismatch": float(np.max(np.abs(sig)))}
            for (dist, _), sig in zip(runs, signatures)
        ],
        "rk4_run_steps": RunBatch(runs).run_steps(ctx.plant),
    }
    _write_json(train_dir / "training_summary.json", summary)
    return summary


@dataclass
class TrainingBundle:
    """A training set's average form, each run's signature and form trace, and the Gram matrix."""

    qbar: np.ndarray
    signatures: list[np.ndarray]
    q_trace: list[float]
    gram: np.ndarray


def _signatures(
    ctx: PipelineContext, specs: list[DisturbanceSpec], outputs: list[np.ndarray]
) -> list[np.ndarray]:
    """Each run's plant ``outputs[i]`` less its replay on the abstract model
    from the disturbance ``specs[i]``, which depends on the model alone."""
    return [
        mismatch_signature(y_plant, simulate_linear(ctx.model_d, spec, AttackSpec()).Y)
        for spec, y_plant in zip(specs, outputs)
    ]


def _training_bundle(
    ctx: PipelineContext, specs: list[DisturbanceSpec], outputs: list[np.ndarray]
) -> TrainingBundle:
    """Signatures and the average of their quadratic forms for recorded plant
    runs, each form added into one sum in the order given, then dropped."""
    gram = gram_matrix(ctx.a_coeffs, ctx.train_samples)
    signatures = _signatures(ctx, specs, outputs)
    total, q_trace = np.zeros((ctx.stacked.n_vars, ctx.stacked.n_vars)), []
    for q in (q_matrix(ctx.stacked, sig, gram) for sig in signatures):
        total += q
        q_trace.append(float(np.trace(q)))
    return TrainingBundle(total / len(signatures), signatures, q_trace, gram)


def load_training_bundle(ctx: PipelineContext, out_dir: str | Path) -> TrainingBundle:
    """Form the mismatch statistics from the stored training runs.

    Reads back exactly the runs ``traj_000`` .. ``traj_{m-1}`` that
    :func:`cmd_train` stores from this configuration: a missing, damaged or
    stale run fails here, and none is integrated.
    """
    paths, runs = _training_runs(ctx, Path(out_dir) / "train")
    trajs = _plant_runs(ctx, paths, runs)
    return _training_bundle(ctx, [dist for dist, _ in runs], [traj.Y for traj in trajs])


# --- design -------------------------------------------------------------------


def cmd_design(cfg: ExperimentConfig | PipelineContext, out_dir: str | Path) -> FilterDesign:
    """Synthesise the filter, calibrate the detector, write the artefact.

    One design call of the configured attack kind.  A multivariate attack
    first runs :func:`cmd_pretrain`, whose errors end the design, before it
    reads any training run, so an empty attack polytope is reported as such
    with or without them.  The design starts from the floor of the result's
    best program instead of solving its support LP again; the report's
    ``pretrain`` block is that result's ``j_star`` and ``gamma_star``.  A
    data-assisted design carries the model-only baseline it was checked
    against (:attr:`~diagfilter.design.FilterDesign.baseline`); the report
    copies that check's values and the baseline's QP record.
    """
    ctx = _context(cfg)
    cfg = ctx.cfg
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    pretrain = None
    if ctx.attack_model.kind == "multivariate":
        pretrain = PretrainResult(np.array(cmd_pretrain(ctx, out)["gammas"]))
    bundle = load_training_bundle(ctx, out) if cfg.mode == "data_assisted" else None
    qbar = bundle.qbar if bundle else None

    pole = float(cfg.filter["pole"])
    if ctx.attack_model.kind == "univariate":
        track = bool(cfg.filter["track_steady_state"])
        design = design_univariate(ctx.stacked, qbar, pole=pole, track_steady_state=track)
        pretrain_used = None
    else:
        design = design_multivariate(
            ctx.stacked, qbar, ctx.attack_model, pretrain.j_star, pole=pole, pretrain=pretrain
        )
        pretrain_used = {"j_star": pretrain.j_star, "gamma_star": pretrain.gamma_star}

    sigs = bundle.signatures if bundle else []
    energies = [signature_energy(ctx.stacked, design.nbar, sig, bundle.gram) for sig in sigs]
    detector = calibrate_threshold(design, energies, float(cfg.filter["margin"]), ctx.window_samples)
    calibration = {**asdict(detector), "threshold": detector.threshold}
    matio.save_filter(
        out / "filter.txt", design, ctx.model_hash, cfg.design_record(), detector.tau_star
    )
    report = {
        "mode": design.mode,
        "objective": float(design.objective),
        "branch": design.branch,
        "track_steady_state": bool(design.track_steady_state),
        "calibration": calibration,
        "dominance": design.diagnostics.get("dominance"),
        "branch_report": design.diagnostics.get("branch_report"),
        "pretrain": pretrain_used,
        "model_hash": ctx.model_hash,
    }
    if bundle:
        # the training form the design minimised, and each run's share of it
        report["qbar_trace"] = float(np.trace(qbar))
        report["q_trace"] = bundle.q_trace
    if "qp" in design.diagnostics:
        # the multivariate design's floor and QPs: iterations and KKT residuals
        report["gamma"] = float(design.diagnostics["gamma"])
        report["qp"] = {
            "assisted": design.diagnostics["qp"],
            "baseline": None if design.baseline is None else design.baseline.diagnostics["qp"],
        }
    _write_json(out / "design_report.json", report)
    return design


# --- test ---------------------------------------------------------------------


def _test_attack(ctx: PipelineContext, design: FilterDesign) -> tuple[AttackSpec, dict]:
    onset = float(ctx.cfg.test["onset_seconds"])
    if ctx.attack_model.kind == "univariate":
        channel = int(ctx.cfg.attack["channel"])
        magnitude = float(ctx.cfg.attack["magnitude"])
        bias = np.zeros(ctx.model_c.n_f)
        bias[channel] = magnitude
        info = {"kind": "univariate", "channel": channel, "magnitude": magnitude}
        return AttackSpec(bias, onset), info
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
    return AttackSpec(f_vec, onset), info


def cmd_test(cfg: ExperimentConfig | PipelineContext, out_dir: str | Path) -> dict:
    """Held-out evaluation: clean and attacked runs through the detector.

    Each plant run is stored as ``test/plant_{clean,attack}_XX.csv``.  A
    re-test reads a stored run back when its sidecar records the inputs the
    run would be integrated from and its outputs match their digest, and
    integrates the rest; when none is left the simulator is not called.  The
    report does not depend on which runs were read back: ``rk4_run_steps``
    counts the whole held-out batch, as a fresh call integrates it.  The
    filter is tested only under the model and field values it was designed for.
    """
    ctx = _context(cfg)
    cfg = ctx.cfg
    out = Path(out_dir)
    artefact = out / "filter.txt"
    if not artefact.exists():
        raise ConfigError(f"no filter artefact at {artefact}; run the design phase first")
    record = cfg.design_record()
    design, _ = matio.load_filter(
        artefact, expected_hash=ctx.model_hash, stacked=ctx.stacked, expected_config=record
    )
    # the detector the design calibrated: the margin and window are the
    # record's, just matched against this configuration
    detector = Detector(
        tau_star=design.diagnostics["tau_star"],
        margin=float(cfg.filter["margin"]),
        window=ctx.window_samples,
        warmup=design.d_n,
    )
    test_dir = out / "test"
    test_dir.mkdir(parents=True, exist_ok=True)

    attack, attack_info = _test_attack(ctx, design)
    runs = int(cfg.test["runs"])
    horizon = float(cfg.test["horizon_seconds"])
    onset = float(cfg.test["onset_seconds"])
    filt = ResidualFilter(design, ctx.dae.L)

    # a clean then an attacked copy of each held-out run
    seeds = [cfg.seed + TEST_SEED_OFFSET + j for j in range(runs)]
    labels = ("clean", "attack")
    batch = RunBatch(
        [(ctx.disturbance_spec(s, horizon), a) for s in seeds for a in (AttackSpec(), attack)]
    )
    plant_runs = [test_dir / f"plant_{label}_{j:02d}.csv" for j in range(runs) for label in labels]
    names = [f"held-out run {j}, seed {s}" for j, s in enumerate(seeds)]
    copies = [f"{name}, {copy} copy" for name in names for copy in ("clean", "attacked")]
    trajs = _plant_runs(ctx, plant_runs, batch.runs, copies)

    per_run, written = [], []
    false_alarms = 0
    detections = 0
    for j, seed in enumerate(seeds):
        entry: dict = {"seed": int(seed)}
        for label, traj in zip(labels, trajs[2 * j : 2 * j + 2]):
            residuals = filt.run(traj.Y)
            verdict = detector.evaluate(residuals)
            alarm_time = (
                float(traj.t[verdict.first_index]) if verdict.first_index is not None else None
            )
            trace = test_dir / f"{label}_{j:02d}.csv"
            written.append(trace)
            matio.save_residual_trace(trace, traj.t, residuals, verdict.energies, verdict.above)
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
    _remove_stale(test_dir, ("clean_*.csv", "attack_*.csv", "plant_*.csv"), written + plant_runs)

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
        "rk4_run_steps": batch.run_steps(ctx.plant),
    }
    _write_json(test_dir / "report.json", report)
    return report


# --- run-all ------------------------------------------------------------------


def cmd_run_all(cfg: ExperimentConfig, out_dir: str | Path, jobs: int = 1) -> dict:
    """Execute every phase in order into one experiment directory.

    The context is built once and handed to every phase.  The design phase
    runs the pretrain of a multivariate attack, so its support LPs are
    solved once, after training; its report stays in
    ``pretrain_report.json``.  ``jobs`` has no effect; it is accepted so
    callers that pass it keep working.
    """
    ctx = build_context(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg.to_dict())
    dump_model_matrices(ctx, out)
    summary: dict = {}
    if cfg.mode == "data_assisted":
        summary["train"] = cmd_train(ctx, out)
    design = cmd_design(ctx, out)
    summary["design"] = {"objective": float(design.objective), "branch": design.branch}
    summary["test"] = cmd_test(ctx, out)
    _write_json(out / "summary.json", summary)
    return summary
