"""Disturbance generation and linear / nonlinear plant simulation.

Two simulators share one input convention so their sampled outputs can be
subtracted channel by channel:

* :func:`simulate_linear` runs the exact sampled recursion of a discrete
  model and stands in for the abstract design model;
* :func:`simulate_nonlinear` integrates the continuous AGC dynamics with a
  fixed-step RK4 scheme plus a menu of actuator nonlinearities, and stands
  in for the physics the design model does not capture.  It is the
  package's one RK4 engine: it integrates a :class:`RunBatch` of runs side
  by side, and a run's trajectory is bitwise the same whatever batch it is
  integrated in.  A single run is a batch of one.

With every nonlinearity switched off the two agree to integrator accuracy,
which pins down the alignment of sampling instants, held inputs and attack
onset used throughout the package: sample k lives at t = k*t_s for
k = 1..T, and inputs are held constant on [k*t_s, (k+1)*t_s).

Each RK4 stage of the engine is one product plus a few elementwise
operations.  A work array, one column per run, holds the permuted state,
the held inputs and the deadband feature (:class:`_StageLayout`); one matrix
built per call maps it to the whole derivative, and the sine-tie factor
and the AGC limits act on contiguous blocks of the result.  The product
is the ``np.matvec`` gufunc, one BLAS gemv per run: each run's sums are
formed by the same kernel in the same order whatever the batch width,
where one matrix-matrix product over the batch would pick its kernel and
blocking by width and move a run's last bits with its batch.

At the step counts of a training set the interpreter's fixed cost per numpy
call, not the flops, sets the simulator's speed, so the step loop keeps to
one call per arithmetic operation.  The state lives at the head of a first
work array, where stage 0 differentiates it in place; stages 1-3 build
their stage states in a second one.  Every switch and every view a stage
reads or writes is resolved once per call, and outputs are passed to the
ufuncs positionally (keyword parsing costs more than some of the
operations), except to ``np.minimum``/``np.maximum``, which numpy 2
deprecates a positional ``out`` for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agc import AreaParams, AttackTopology, ModelIndex, assemble_multiarea
from .errors import ConfigError, SimulationBlowUp
from .lti import LinearModel

# Signals switch a hair early, so that an instant computed as a float sum
# (k * hold, or a step time) reads the value that starts there.
_HOLD_EDGE = 1e-9  # in hold intervals
_ONSET_EDGE = 1e-12  # in seconds


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
            j = np.floor(times / spec.hold + _HOLD_EDGE).astype(int)
            j = np.clip(j, 0, self.values.shape[0] - 1)
            return self.values[j].T
        out = np.zeros((spec.n_d, times.size))
        on = times >= spec.step_time - _ONSET_EDGE
        for ch in spec.channels:
            out[ch, on] = spec.step_value
        return out

    def switch_times(self) -> np.ndarray:
        """The instants at which :meth:`sample` may change value."""
        spec = self.spec
        if spec.kind == "gaussian":
            return (np.arange(1, self.values.shape[0]) - _HOLD_EDGE) * spec.hold
        return np.array([spec.step_time - _ONSET_EDGE])

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
        on = times >= self.start - _ONSET_EDGE
        out[:, on] = self.bias_vector(n_f)[:, None]
        return out

    def switch_times(self) -> np.ndarray:
        """The instants at which :meth:`sample` may change value."""
        return np.empty(0) if self.kind == "none" else np.array([self.start - _ONSET_EDGE])


@dataclass
class SampledTrajectory:
    """Sampled output record: column k holds y at t = (k+1)*t_s."""

    t: np.ndarray
    Y: np.ndarray


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
    return SampledTrajectory(t=t_grid, Y=Y)


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


@dataclass
class _StageLayout:
    """Layout of the RK4 work array and the matrix that differentiates it.

    The work array holds, one column per run, ``[state | u | band]``:

    * the state, permuted so that the tie flows, the area frequencies and
      the AGC commands form contiguous blocks (``tie``, ``omega``, ``agc``),
      followed by the internal tie angles (``theta``) when ``sine_ties`` is on;
    * the held inputs ``u = (d, f)``;
    * with a deadband, ``clip(omega, +-deadband/2)`` per area (``band``):
      the dead-banded governor input is ``omega - clip(omega)``, so the
      governor rows take ``-droop * clip(omega)`` on top of their linear part.

    ``matrix`` maps the work array to the state derivative: ``A``,
    ``[B_d B_f]``, the droop coefficients of the band block and the
    frequency difference that drives each tie angle, as one ``matvec``
    per run (see the module docstring).  The sine-tie factor and the AGC
    limits then act elementwise on the derivative's blocks.
    """

    order: np.ndarray  # original index of each permuted plant state
    matrix: np.ndarray  # (n_state, n_work)
    tie: slice
    omega: slice
    agc: slice
    theta: slice
    u: slice
    band: slice


def _stage_layout(plant: PlantConfig, model: LinearModel, index: ModelIndex) -> _StageLayout:
    n_x, n_tie, n_area = model.n_x, index.tie_rows.size, len(index.area_ids)
    omega_rows = [index.omega_row[a] for a in index.area_ids]
    head = [*index.tie_rows.tolist(), *omega_rows, *(index.agc_row[a] for a in index.area_ids)]
    order = np.array(head + sorted(set(range(n_x)) - set(head)))
    pos = np.argsort(order)  # permuted position of each original state
    n_state = n_x + (n_tie if plant.sine_ties else 0)
    n_u = model.n_d + model.n_f
    n_band = n_area if plant.deadband > 0.0 else 0
    matrix = np.zeros((n_state, n_state + n_u + n_band))
    matrix[:n_x, :n_x] = model.A[np.ix_(order, order)]
    matrix[:n_x, n_state : n_state + n_u] = np.hstack([model.B_d, model.B_f])[order]
    if plant.sine_ties:
        angles = np.arange(n_x, n_state)
        matrix[angles, pos[index.tie_omega_own]] = 1.0
        matrix[angles, pos[index.tie_omega_other]] = -1.0
    if n_band:
        band_col = [n_state + n_u + omega_rows.index(w) for w in index.gov_omega]
        matrix[pos[index.gov_rows], band_col] = -index.gov_droop_coef
    return _StageLayout(
        order=order,
        matrix=matrix,
        tie=slice(0, n_tie),
        omega=slice(n_tie, n_tie + n_area),
        agc=slice(n_tie + n_area, n_tie + 2 * n_area),
        theta=slice(n_x, n_state),
        u=slice(n_state, n_state + n_u),
        band=slice(n_state + n_u, n_state + n_u + n_band),
    )


def _input_switches(
    batch: RunBatch, n_f: int, dt: float, n_steps: int
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Steps at which runs' held inputs ``u = (d, f)`` change, with new values.

    Maps a step to the runs whose inputs change there and their (n_u, runs)
    values from that step on; step 0 holds every run's initial inputs.
    Each run's inputs are evaluated at the steps next to the instants where
    its signals may switch (one step either way, for rounding), and a step
    enters only where a value changes.
    """
    changes: dict[int, list] = {}
    for run, (signal, atk) in enumerate(batch.runs):
        near = np.ceil(np.concatenate([signal.switch_times(), atk.switch_times()]) / dt)
        candidates = np.concatenate([[0.0], near - 1.0, near, near + 1.0])
        steps = np.unique(np.clip(candidates, 0, n_steps - 1)).astype(int)
        times = steps * dt
        u = np.vstack([signal.sample(times), atk.sample(times, n_f)])
        new = np.concatenate([[True], np.any(u[:, 1:] != u[:, :-1], axis=0)])
        for step, value in zip(steps[new], u[:, new].T):
            changes.setdefault(int(step), []).append((run, value))
    return {
        step: (np.array([run for run, _ in change]), np.array([value for _, value in change]).T)
        for step, change in changes.items()
    }


def simulate_nonlinear(plant: PlantConfig, batch: RunBatch) -> list[SampledTrajectory]:
    """Integrate the nonlinear plant for every run of a batch at once.

    Fixed-step RK4 from a zero initial state.  Each stage evaluates the
    derivative of every run with one ``np.matvec`` of a work array, a gemv
    per run so that a run's bits do not depend on its batch (see
    :class:`_StageLayout`), plus a few elementwise operations on contiguous
    blocks.  Stage 0 reads the state in place, at the head of the first of
    two work arrays; stages 1-3 write their stage states into the second.
    Each step holds the inputs sampled at its start; they are written into
    both work arrays only at the steps where they switch (hold boundaries
    and onsets, see :func:`_input_switches`).  The attack bias
    reaches the AGC integrator through the assembled B_f and is added to the
    measured outputs through D_f, matching the corrupted-ACE routing of the
    abstract model.  A single run is a batch of one.

    Returns:
        one sampled trajectory per run, in batch order.

    Raises:
        SimulationBlowUp: if a run's state infinity norm exceeds the config
            cap or is not finite at a sample; the error names the first such
            run (its ``run`` index).
    """
    plant.validate()
    model, index = plant.assemble()
    t_s, dt = plant.t_s, plant.dt
    horizon = batch.horizon
    n_samples = int(round(horizon / t_s))
    if abs(n_samples * t_s - horizon) > 1e-9:
        raise ConfigError("horizon must be a multiple of the sampling time")
    per_sample = int(round(t_s / dt))
    n_steps = n_samples * per_sample

    layout = _stage_layout(plant, model, index)
    switches = _input_switches(batch, model.n_f, dt, n_steps)
    sample_times = np.arange(1, n_samples + 1) * t_s
    f_at_samples = np.stack(
        [atk.sample(sample_times, model.n_f).T for _, atk in batch.runs], axis=1
    )
    c_state = model.C[:, layout.order]

    n_runs = len(batch.runs)
    matrix = layout.matrix
    n_state, n_work = matrix.shape
    state_work, stage_work = np.zeros((n_work, n_runs)), np.zeros((n_work, n_runs))
    state, stage_state = state_work[:n_state], stage_work[:n_state]
    helds = (state_work[layout.u], stage_work[layout.u])
    agc_state = state[layout.agc]
    k = np.empty((4, n_state, n_runs))
    k1, k2, k3, k4 = k
    acc = np.empty_like(state)
    cos_theta = np.empty_like(state[layout.theta])
    # rows: AGC state at or above its upper limit, at or below its lower one
    at_limit = np.empty((2, *agc_state.shape), dtype=bool)
    at_hi, at_lo = at_limit
    has_band, sine_ties = plant.deadband > 0.0, plant.sine_ties
    limits, rate = plant.agc_limits, plant.rate_limit
    # Every constant operand of the loop is an array of its operand's shape:
    # a Python float would cost each ufunc call a scalar conversion.
    band_hi = np.full(state_work[layout.band].shape, 0.5 * plant.deadband)
    band_lo = -band_hi
    lo, hi = limits if limits is not None else (-np.inf, np.inf)
    agc_lo, agc_hi, agc_zero = (np.full(agc_state.shape, v) for v in (lo, hi, 0.0))
    rate_hi = np.full(agc_state.shape, np.inf if rate is None else rate)
    rate_lo = -rate_hi
    two, sixth = np.full(state.shape, 2.0), np.full(state.shape, dt / 6.0)
    # Per stage: the previous stage's slope and the step taken along it
    # (None at stage 0), then the views of the stage's work array and slope.
    plan = ((state_work, None), (stage_work, 0.5 * dt), (stage_work, 0.5 * dt), (stage_work, dt))
    stages = [
        (
            None if h is None else k[i - 1],
            None if h is None else np.full(state.shape, h),
            work.T,
            k[i].T,
            work[layout.omega],
            work[layout.band],
            work[layout.theta],
            work[layout.agc],
            k[i][layout.tie],
            k[i][layout.agc],
        )
        for i, (work, h) in enumerate(plan)
    ]

    # the D_f feedthrough of every sample up front; C x joins it per sample
    Y = np.matvec(model.D_f, f_at_samples)
    for sample in range(n_samples):
        for step in range(sample * per_sample, (sample + 1) * per_sample):
            switch = switches.get(step)
            if switch is not None:
                runs, values = switch
                for held in helds:
                    held[:, runs] = values
            for prev, h, work_t, k_t, omega, band, theta, agc, k_tie, k_agc in stages:
                if prev is not None:
                    np.multiply(prev, h, stage_state)
                    np.add(stage_state, state, stage_state)
                if has_band:
                    np.minimum(omega, band_hi, out=band)
                    np.maximum(band, band_lo, out=band)
                np.matvec(matrix, work_t, k_t)
                if sine_ties:
                    # each tie row of A holds only the linear coupling tie_coef *
                    # (omega difference), which the sine law scales by cos(theta)
                    np.cos(theta, cos_theta)
                    np.multiply(k_tie, cos_theta, k_tie)
                if limits is not None:
                    np.greater_equal(agc, agc_hi, at_hi)
                    np.less_equal(agc, agc_lo, at_lo)
                    # skip both clamps while no AGC state sits at a limit
                    if np.count_nonzero(at_limit):
                        np.minimum(k_agc, agc_zero, out=k_agc, where=at_hi)
                        np.maximum(k_agc, agc_zero, out=k_agc, where=at_lo)
                if rate is not None:
                    np.minimum(k_agc, rate_hi, out=k_agc)
                    np.maximum(k_agc, rate_lo, out=k_agc)
            # state + dt/6 * (k1 + 2 (k2 + k3) + k4), in that operation order
            np.add(k2, k3, acc)
            np.multiply(acc, two, acc)
            np.add(acc, k1, acc)
            np.add(acc, k4, acc)
            np.multiply(acc, sixth, acc)
            np.add(state, acc, state)
            if limits is not None:
                np.maximum(agc_state, agc_lo, out=agc_state)
                np.minimum(agc_state, agc_hi, out=agc_state)
        norms = np.abs(state).max(axis=0)
        # a NaN norm (an overflow within the interval) counts as a blow-up
        over = np.flatnonzero(~(norms <= plant.blowup_norm))
        if over.size:
            run = int(over[0])
            raise SimulationBlowUp((step + 1) * dt, norms[run], f"run {run}", run=run)
        Y[sample] += np.matvec(c_state, state[: model.n_x].T)
    return [
        SampledTrajectory(sample_times.copy(), Y[:, i].T.copy()) for i in range(len(batch.runs))
    ]
