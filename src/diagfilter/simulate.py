"""Disturbance generation and linear / nonlinear plant simulation.

Two simulators share one input convention so their sampled outputs can be
subtracted channel by channel:

* :func:`simulate_linear` runs the exact sampled recursion of a discrete
  model and stands in for the abstract design model;
* :func:`simulate_nonlinear` integrates the continuous AGC dynamics with a
  fixed-step RK4 scheme plus a menu of actuator nonlinearities, and stands
  in for the physics the design model does not capture.  It is the
  package's one RK4 engine: it integrates a :class:`RunBatch` of runs side
  by side, one state row per run, and a run's trajectory is bitwise the
  same whatever batch it is integrated in.  A single run is a batch of one.

With every nonlinearity switched off the two agree to integrator accuracy,
which pins down the alignment of sampling instants, held inputs and attack
onset used throughout the package: sample k lives at t = k*t_s for
k = 1..T, and inputs are held constant on [k*t_s, (k+1)*t_s).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agc import AreaParams, AttackTopology, ModelIndex, assemble_multiarea
from .errors import ConfigError, SimulationBlowUp
from .lti import LinearModel, zoh_discretize


@dataclass
class DisturbanceSpec:
    """Recipe for an exogenous load-disturbance signal.

    ``kind="gaussian"`` draws zero-mean normal values with standard deviation
    ``sigma``, redrawn every ``hold`` seconds and held constant in between
    (piecewise-constant load fluctuation).  ``kind="step"`` applies a single
    deterministic step of ``step_value`` at ``step_time``.  Only the listed
    ``channels`` (load inputs) are driven; the rest stay zero.
    """

    n_d: int
    horizon: float
    kind: str = "gaussian"
    sigma: float = 0.02
    hold: float = 1.0
    channels: tuple[int, ...] = (0,)
    seed: int = 0
    step_value: float = 0.0
    step_time: float = 0.0

    def validate(self):
        if self.kind not in ("gaussian", "step"):
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.kind == "gaussian" and self.hold <= 0:
            raise ConfigError("hold interval must be positive")
        if self.kind == "gaussian" and self.sigma < 0:
            raise ConfigError("sigma must be nonnegative")
        for ch in self.channels:
            if not 0 <= ch < self.n_d:
                raise ConfigError(f"disturbance channel {ch} outside 0..{self.n_d - 1}")


@dataclass
class DisturbanceSignal:
    """Realised disturbance; piecewise constant, queryable at arbitrary times."""

    spec: DisturbanceSpec
    values: np.ndarray  # (n_holds, n_d) held values for the gaussian kind

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate at the given times; returns (n_d, len(times))."""
        times = np.asarray(times, dtype=float)
        spec = self.spec
        if spec.kind == "gaussian":
            j = np.floor(times / spec.hold + 1e-9).astype(int)
            j = np.clip(j, 0, self.values.shape[0] - 1)
            return self.values[j].T
        out = np.zeros((spec.n_d, times.size))
        on = times >= spec.step_time - 1e-12
        for ch in spec.channels:
            out[ch, on] = spec.step_value
        return out

    def held_samples(self, t_s: float, n_samples: int) -> np.ndarray:
        """Values held over [k*t_s, (k+1)*t_s) for k = 0..n_samples-1."""
        return self.sample(np.arange(n_samples) * t_s)


def gen_disturbance(spec: DisturbanceSpec) -> DisturbanceSignal:
    """Draw a disturbance realisation; identical seeds give identical signals."""
    spec.validate()
    if spec.kind == "gaussian":
        n_holds = int(np.ceil(spec.horizon / spec.hold)) + 1
        rng = np.random.default_rng(spec.seed)
        draws = rng.normal(0.0, spec.sigma, size=(n_holds, len(spec.channels)))
        values = np.zeros((n_holds, spec.n_d))
        for k, ch in enumerate(spec.channels):
            values[:, ch] = draws[:, k]
    else:
        values = np.zeros((1, spec.n_d))
    return DisturbanceSignal(spec=spec, values=values)


@dataclass
class AttackSpec:
    """Constant-bias telemetry attack switched on at ``start`` seconds.

    ``kind="none"`` keeps every channel clean.  ``kind="univariate"`` biases
    one channel by ``value``; ``kind="multivariate"`` applies the full bias
    vector ``values``.
    """

    kind: str = "none"
    value: float = 0.0
    channel: int = 0
    values: np.ndarray | None = None
    start: float = 0.0

    @staticmethod
    def none() -> "AttackSpec":
        return AttackSpec(kind="none")

    @staticmethod
    def univariate(value: float, start: float, channel: int = 0) -> "AttackSpec":
        return AttackSpec(kind="univariate", value=value, channel=channel, start=start)

    @staticmethod
    def multivariate(values: np.ndarray, start: float) -> "AttackSpec":
        return AttackSpec(
            kind="multivariate", values=np.asarray(values, dtype=float), start=start
        )

    def bias_vector(self, n_f: int) -> np.ndarray:
        if self.kind == "none":
            return np.zeros(n_f)
        if self.kind == "univariate":
            if not 0 <= self.channel < n_f:
                raise ConfigError(f"attack channel {self.channel} outside 0..{n_f - 1}")
            vec = np.zeros(n_f)
            vec[self.channel] = self.value
            return vec
        vec = np.asarray(self.values, dtype=float).ravel()
        if vec.size != n_f:
            raise ConfigError(f"attack vector has {vec.size} entries, model has {n_f}")
        return vec

    def sample(self, times: np.ndarray, n_f: int) -> np.ndarray:
        """Attack vector at the given times; returns (n_f, len(times))."""
        times = np.asarray(times, dtype=float)
        out = np.zeros((n_f, times.size))
        if self.kind == "none":
            return out
        on = times >= self.start - 1e-12
        out[:, on] = self.bias_vector(n_f)[:, None]
        return out


@dataclass
class SampledTrajectory:
    """Sampled output record: column k holds y at t = (k+1)*t_s."""

    t: np.ndarray
    Y: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.Y.shape[1]


def _resolve_signal(dist) -> DisturbanceSignal:
    if isinstance(dist, DisturbanceSpec):
        return gen_disturbance(dist)
    return dist


def simulate_linear(
    model: LinearModel, dist: DisturbanceSignal | DisturbanceSpec, atk: AttackSpec
) -> SampledTrajectory:
    """Run the exact discrete recursion from a zero initial state.

    ``x[k+1] = A x[k] + B_d d[k] + B_f f[k]`` with inputs held over the
    sampling interval, and ``y[k] = C x[k] + D_f f[k]`` reported for
    k = 1..T where T = horizon / t_s.
    """
    if model.dt is None:
        raise ConfigError("simulate_linear expects a discrete-time model")
    signal = _resolve_signal(dist)
    t_s = model.dt
    horizon = signal.spec.horizon
    n_samples = int(round(horizon / t_s))
    if abs(n_samples * t_s - horizon) > 1e-9:
        raise ConfigError("horizon must be a multiple of the sampling time")
    d_held = signal.held_samples(t_s, n_samples)
    t_grid = np.arange(1, n_samples + 1) * t_s
    f_held = atk.sample(np.arange(n_samples) * t_s, model.n_f)
    f_at_sample = atk.sample(t_grid, model.n_f)

    x = np.zeros(model.n_x)
    Y = np.empty((model.n_y, n_samples))
    for k in range(n_samples):
        x = model.A @ x + model.B_d @ d_held[:, k] + model.B_f @ f_held[:, k]
        Y[:, k] = model.C @ x + model.D_f @ f_at_sample[:, k]
    meta = {
        "t_s": t_s,
        "horizon": horizon,
        "kind": "linear",
        "seed": signal.spec.seed,
    }
    return SampledTrajectory(t=t_grid, Y=Y, meta=meta)


@dataclass
class PlantConfig:
    """Continuous AGC plant with a menu of actuator nonlinearities.

    All switches off reproduces the linear model exactly (up to RK4 error).

    Args:
        areas, attacks: same building blocks as the abstract model.
        t_s: output sampling period (s).
        dt: fixed RK4 integration step (s); must divide ``t_s``.
        agc_limits: clamp range (lo, hi) for the AGC command state.
        deadband: full width of the symmetric governor dead-band on the
            frequency input (p.u.); 0 disables it.
        sine_ties: replace the linearised tie-line coupling by the sine of
            an internal angle difference.
        rate_limit: cap on the AGC command slew rate (p.u./s).
        blowup_norm: abort threshold on the state infinity norm.
    """

    areas: list[AreaParams]
    attacks: AttackTopology
    t_s: float = 0.5
    dt: float = 1e-3
    agc_limits: tuple[float, float] | None = None
    deadband: float = 0.0
    sine_ties: bool = False
    rate_limit: float | None = None
    blowup_norm: float = 1e6

    def validate(self):
        if self.t_s <= 0 or self.dt <= 0:
            raise ConfigError("t_s and dt must be positive")
        steps = self.t_s / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError("dt must divide t_s")
        if self.agc_limits is not None and not self.agc_limits[0] < self.agc_limits[1]:
            raise ConfigError("agc_limits must satisfy lo < hi")
        if self.deadband < 0:
            raise ConfigError("deadband must be nonnegative")
        if self.rate_limit is not None and self.rate_limit <= 0:
            raise ConfigError("rate_limit must be positive")

    def assemble(self) -> tuple[LinearModel, ModelIndex]:
        return assemble_multiarea(self.areas, self.attacks)

    def sampled_model(self) -> LinearModel:
        """The abstract (linear, ZOH-sampled) counterpart of this plant."""
        model, _ = self.assemble()
        return zoh_discretize(model, self.t_s)


def _deadband(x: np.ndarray, width: float) -> np.ndarray:
    half = 0.5 * width
    return np.sign(x) * np.maximum(np.abs(x) - half, 0.0)


@dataclass
class RunBatch:
    """Plant runs integrated side by side, one (disturbance, attack) pair each.

    Disturbance specs are realised on construction; :attr:`horizon` checks
    that the batch holds runs of one shared horizon.
    """

    runs: list[tuple[DisturbanceSignal, AttackSpec]]

    def __post_init__(self):
        self.runs = [(_resolve_signal(dist), atk) for dist, atk in self.runs]

    @property
    def horizon(self) -> float:
        horizons = {signal.spec.horizon for signal, _ in self.runs}
        if len(horizons) != 1:
            raise ConfigError(f"a batch needs runs of one shared horizon, got {sorted(horizons)}")
        return horizons.pop()


def _apply(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``mat @ row`` for each row, summed in one order whatever the batch.

    BLAS forms (``rows @ mat.T``, ``mat @ rows.T``) pick kernels by batch
    width and so change a run's last bits with the batch it is in.
    """
    return np.einsum("mj,ij->mi", rows, mat)


def simulate_nonlinear(plant: PlantConfig, batch: RunBatch) -> list[SampledTrajectory]:
    """Integrate the nonlinear plant for every run of a batch at once.

    Fixed-step RK4 from a zero initial state; the state holds one row per
    run.  Inputs are evaluated once per integration step (they are piecewise
    constant and their switching times align with the step grid).  The
    attack bias reaches the AGC integrator through the assembled B_f and is
    added to the measured outputs through D_f, matching the corrupted-ACE
    routing of the abstract model.  A single run is a batch of one.

    Returns:
        one sampled trajectory per run, in batch order.

    Raises:
        SimulationBlowUp: if a run's state infinity norm exceeds the config
            cap; the error names the first such run (its ``run`` index).
    """
    plant.validate()
    model, index = plant.assemble()
    n_x, n_f = model.n_x, model.n_f

    t_s, dt = plant.t_s, plant.dt
    horizon = batch.horizon
    n_samples = int(round(horizon / t_s))
    if abs(n_samples * t_s - horizon) > 1e-9:
        raise ConfigError("horizon must be a multiple of the sampling time")
    per_sample = int(round(t_s / dt))
    n_steps = n_samples * per_sample

    # (step, run, channel) tables of the inputs u = (d, f); b_u maps u into the state
    step_times = np.arange(n_steps) * dt
    sample_times = np.arange(1, n_samples + 1) * t_s
    u_steps = np.stack(
        [np.vstack([sig.sample(step_times), atk.sample(step_times, n_f)]).T
         for sig, atk in batch.runs],
        axis=1,
    )
    f_at_samples = np.stack([atk.sample(sample_times, n_f).T for _, atk in batch.runs], axis=1)
    b_u = np.hstack([model.B_d, model.B_f])

    agc_rows = np.array([index.agc_row[a] for a in index.area_ids], dtype=int)
    limits, rate = plant.agc_limits, plant.rate_limit
    n_theta = index.tie_rows.size if plant.sine_ties else 0

    def rhs(state: np.ndarray, drive: np.ndarray) -> np.ndarray:
        x = state[:, :n_x]
        dx = _apply(x, model.A) + drive
        out = np.empty_like(state)
        if plant.deadband > 0.0:
            omega = x.take(index.gov_omega, axis=1)
            banded = _deadband(omega, plant.deadband)
            dx[:, index.gov_rows] += index.gov_droop_coef * (banded - omega)
        if plant.sine_ties:
            theta = state[:, n_x:]
            dtheta = x.take(index.tie_omega_own, axis=1) - x.take(index.tie_omega_other, axis=1)
            dx[:, index.tie_rows] += index.tie_coef * (np.cos(theta) - 1.0) * dtheta
            out[:, n_x:] = dtheta
        if limits is not None:
            lo, hi = limits
            agc = x.take(agc_rows, axis=1)
            d_agc = dx.take(agc_rows, axis=1)
            d_agc[(agc >= hi) & (d_agc > 0.0)] = 0.0
            d_agc[(agc <= lo) & (d_agc < 0.0)] = 0.0
            dx[:, agc_rows] = d_agc
        if rate is not None:
            dx[:, agc_rows] = np.minimum(np.maximum(dx.take(agc_rows, axis=1), -rate), rate)
        out[:, :n_x] = dx
        return out

    state = np.zeros((len(batch.runs), n_x + n_theta))
    Y = np.empty((n_samples, len(batch.runs), model.n_y))
    half = 0.5 * dt
    sixth = dt / 6.0
    k_out = 0
    for step in range(n_steps):
        # the inputs are held over the step, so all four stages share their term
        drive = _apply(u_steps[step], b_u)
        k1 = rhs(state, drive)
        k2 = rhs(state + half * k1, drive)
        k3 = rhs(state + half * k2, drive)
        k4 = rhs(state + dt * k3, drive)
        state = state + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if limits is not None:
            state[:, agc_rows] = np.minimum(
                np.maximum(state.take(agc_rows, axis=1), limits[0]), limits[1]
            )
        if (step + 1) % per_sample == 0:
            norms = np.abs(state).max(axis=1)
            over = np.flatnonzero(norms > plant.blowup_norm)
            if over.size:
                run = int(over[0])
                raise SimulationBlowUp((step + 1) * dt, norms[run], f"run {run}", run=run)
            Y[k_out] = _apply(state[:, :n_x], model.C) + _apply(f_at_samples[k_out], model.D_f)
            k_out += 1
    meta = {"t_s": t_s, "horizon": horizon, "kind": "nonlinear", "dt": dt}
    return [
        SampledTrajectory(sample_times.copy(), Y[:, i].T.copy(), {**meta, "seed": sig.spec.seed})
        for i, (sig, _) in enumerate(batch.runs)
    ]
