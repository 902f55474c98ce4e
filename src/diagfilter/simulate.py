"""Plant inputs and the linear / nonlinear plant simulators.

A run has two piecewise-constant inputs, one type each: a
:class:`DisturbanceSpec` is a load disturbance, drawn from its seed when the
spec is made, and an :class:`AttackSpec` is a bias vector on the attack
channels from an onset.  Both answer :meth:`sample` and :meth:`switch_times`,
which is all a simulator reads of them.

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

One stepper, built once per batch by :func:`_rk4_stepper`, owns the RK4
work array and advances it over any range of steps; the simulator is its
sample loop.  Each RK4 stage is one product plus a few elementwise
operations.  The work array, one column per run, holds the permuted state,
the held inputs and the deadband feature; one matrix maps it to the whole
derivative, and the sine-tie factor and the AGC limits act on contiguous
blocks of the result.  The product is the ``np.matvec`` gufunc, one BLAS
gemv per run: each run's sums are formed by the same kernel in the same
order whatever the batch width, where one matrix-matrix product over the
batch would pick its kernel and blocking by width and move a run's last
bits with its batch.

At the step counts of a training set the interpreter's fixed cost per numpy
call, not the flops, sets the simulator's speed, so the step loop keeps to
one call per arithmetic operation and to little interpreter work around
the calls.  Each stage has its own work array, the four stacked as one
``(4, n_work, runs)`` array; the state lives at the head of stage 0's,
where it is differentiated in place.  The stepper builds one program per
chunk mode (free, pinned and checked, below): the ``(ufunc, operands)``
calls of each step of a chunk, with every switch resolved and every view
bound, so a step runs its program call by call.  Outputs are passed to the
ufuncs positionally (keyword parsing costs more than some of the
operations), but for the checked step's masked clamps, which need a
``where``.  An in-place call passes one view object as its input and its
output: numpy skips its memory-overlap analysis for the same object, not
for two views of the same memory.  Each two-sided clamp (the deadband
feature, the rate limit, a pin, the checked AGC state) is one call of
numpy's ``clip`` ufunc, a pin's against the bounds 0 and +-inf:
``clip(x, 0, +inf)`` is bitwise ``np.maximum(x, 0)``, NaN included.  numpy
exposes that ufunc under no public name, so it is imported from its
private module: ``np.clip`` and ``ndarray.clip`` wrap it in Python-level
argument handling that costs more than the two-call clamp.  At the
package's default switches a step makes 29 numpy calls in a free chunk,
33 in a pinned one and 45 in a checked one.

The AGC limits cost little while a run's commands stay inside them or stay
at one.  A stepper call integrates its steps in chunks of
``_CHUNK_STEPS``, each either checked (every stage tests the AGC entries
against the limits and clamps the slopes of those at a limit, through
``where`` masks that change no bit while they are all false, and every
step clamps the AGC state) or fast (neither).  A fast step records its
four stages' AGC entries, before the RK4 combination moves the state, with
one copy into its own slot of the chunk's history: one strided view of the
stacked work arrays, or in a narrow batch the contiguous span of them from
stage 0's first AGC entry to stage 3's last, a cheaper operand.  At the end
of the chunk two reductions over the slots it used give every entry's
extremes, which are tested once.  A fast chunk is free unless an AGC entry
sits exactly at a limit at its start; then it is pinned: each stage clamps
the AGC slope with one ``clip`` against per-entry bounds, 0 on a pinned
entry's limit side and infinite elsewhere, where a checked stage clamps an
entry at a limit.  A fast chunk stands if every free entry's stage values
stayed strictly inside the limits, every pinned entry's stayed exactly at
its limit and the final AGC state lies within the limits: every stage test
would then have fired just where a pin clamped, and no clamp of the state
would have moved anything, so it performed exactly a checked chunk's
operations.  Any other fast chunk, a non-finite one included (a NaN
reaches both extremes), is restored from a snapshot of the work arrays
taken at its start (held inputs and all) and integrated again, checked;
the next chunk tries fast again and pins what the replay left at a limit.
A saturated run thus pays one replay where a command meets or leaves a
limit, and the pinned price in between.  Whether a chunk runs fast or
checked changes no bit, so neither do the chunk boundaries: any partition
of the steps into stepper calls leaves the work array bitwise the same.

That partition invariance lets twins share steps.  Runs with equal
disturbance specs, such as a held-out run and its attacked copy, hold equal
work columns until their inputs first differ; :func:`simulate_nonlinear`
integrates that shared prefix once per twin group and copies the columns
into the whole batch's stepper at the fork.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import partial
from math import prod

import numpy as np

# numpy gives its clip ufunc no public name.  One positional call clamps
# bitwise as max(min(x, hi), lo) for lo < hi (a test guards this); np.clip
# and ndarray.clip wrap it in argument handling that costs about as much as
# the two-call clamp it replaces.
from numpy._core.umath import clip

from .agc import AreaParams, AttackTopology, ModelIndex, assemble_multiarea
from .config import FIELDS, check_memory, hold_rows, whole_count
from .errors import ConfigError, SimulationBlowUp
from .lti import LinearModel

# Signals switch a hair early, so that an instant computed as a float sum
# (k * hold, or a step time) reads the value that starts there.
_HOLD_EDGE = 1e-9  # in hold intervals
_ONSET_EDGE = 1e-12  # in seconds

# RK4 steps per chunk of a sample interval (see simulate_nonlinear)
_CHUNK_STEPS = 50

# Floats up to which a fast step records the AGC stage values over a
# contiguous span (see _rk4_stepper): a strided operand costs a ufunc call
# about as much as 500 contiguous floats (numpy 2.4, 2-vCPU Xeon), so a span
# of up to half that wins, and the strided view takes the wider batches
_SPAN_FLOATS = 256

_SAMPLES_RULE = "horizon must be a multiple of the sampling time"

# each checked attribute of a DisturbanceSpec and the configuration field whose rule it follows
_RULES = {field.name: field for field in FIELDS}
_SPEC_FIELDS = dict(horizon="train.horizon_seconds", sigma="train.sigma", hold="train.hold_seconds",
                    channels="train.channels", seed="seed")


@dataclass
class DisturbanceSpec:
    """An exogenous load-disturbance signal, drawn when the spec is made.

    ``kind="gaussian"`` draws zero-mean normal values with standard deviation
    ``sigma``, redrawn every ``hold`` seconds and held constant in between
    (piecewise-constant load fluctuation); identical seeds give identical
    draws.  ``kind="step"`` applies a single deterministic step of
    ``step_value`` at ``step_time``.  Only the listed ``channels`` (load
    inputs) are driven, every one for ``None``; the rest stay zero.
    Construction raises ConfigError on an invalid spec (see ``_SPEC_FIELDS``)
    and on a draw that cannot fit in physical memory, before it is made.
    """

    n_d: int
    horizon: float
    kind: str = "gaussian"
    sigma: float = 0.02
    hold: float = 1.0
    channels: tuple[int, ...] | None = (0,)
    seed: int = 0
    step_value: float = 0.0
    step_time: float = 0.0
    # (n_holds, n_d) held values of the gaussian kind, one row of zeros for a step
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("gaussian", "step"):
            raise ConfigError(f"unknown disturbance kind {self.kind!r}")
        for attr, name in _SPEC_FIELDS.items():
            _RULES[name].check(getattr(self, attr))
        # whole numbers as ints, and null as every load input
        channels = range(self.n_d) if self.channels is None else self.channels
        self.channels = tuple(int(ch) for ch in channels)
        self.seed = int(self.seed)
        for ch in self.channels:
            if not 0 <= ch < self.n_d:
                raise ConfigError(f"disturbance channel {ch} outside 0..{self.n_d - 1}")
        if self.kind == "step":
            self.values = np.zeros((1, self.n_d))
            return
        n_holds = hold_rows(self.horizon, self.hold)
        check_memory(n_holds * (self.n_d + len(self.channels)), "the disturbance horizon and hold")
        rng = np.random.default_rng(self.seed)
        # numpy refuses a scale of -0.0, which the rule of sigma admits
        draws = rng.normal(0.0, abs(self.sigma), size=(n_holds, len(self.channels)))
        self.values = np.zeros((n_holds, self.n_d))
        for k, ch in enumerate(self.channels):
            self.values[:, ch] = draws[:, k]

    def sample(self, times: np.ndarray) -> np.ndarray:
        """Evaluate at the given times; returns (n_d, len(times))."""
        times = np.asarray(times, dtype=float)
        if self.kind == "gaussian":
            j = np.floor(times / self.hold + _HOLD_EDGE).astype(int)
            return self.values[np.clip(j, 0, self.values.shape[0] - 1)].T
        out = np.zeros((self.n_d, times.size))
        on = times >= self.step_time - _ONSET_EDGE
        for ch in self.channels:
            out[ch, on] = self.step_value
        return out

    def switch_times(self) -> np.ndarray:
        """The instants at which :meth:`sample` may change value."""
        if self.kind == "gaussian":
            return (np.arange(1, self.values.shape[0]) - _HOLD_EDGE) * self.hold
        return np.array([self.step_time - _ONSET_EDGE])


@dataclass
class AttackSpec:
    """Constant false-data bias on the attack channels from ``start`` seconds on.

    ``bias`` holds one entry per attack channel of the model; ``None`` keeps
    every channel clean.  Whether the vector stems from a univariate or a
    multivariate hypothesis is the design's business, not the simulator's.
    """

    bias: np.ndarray | None = None
    start: float = 0.0

    def sample(self, times: np.ndarray, n_f: int) -> np.ndarray:
        """Attack vector at the given times; returns (n_f, len(times))."""
        times = np.asarray(times, dtype=float)
        out = np.zeros((n_f, times.size))
        if self.bias is None:
            return out
        bias = np.asarray(self.bias, dtype=float).ravel()
        if bias.size != n_f:
            raise ConfigError(f"attack vector has {bias.size} entries, model has {n_f}")
        out[:, times >= self.start - _ONSET_EDGE] = bias[:, None]
        return out

    def switch_times(self) -> np.ndarray:
        """The instants at which :meth:`sample` may change value."""
        return np.empty(0) if self.bias is None else np.array([self.start - _ONSET_EDGE])


@dataclass
class SampledTrajectory:
    """Sampled output record: column k holds y at t = (k+1)*t_s."""

    t: np.ndarray
    Y: np.ndarray


def simulate_linear(
    model: LinearModel, dist: DisturbanceSpec, atk: AttackSpec
) -> SampledTrajectory:
    """Run the exact discrete recursion from a zero initial state.

    ``x[k+1] = A x[k] + B_d d[k] + B_f f[k]`` with inputs held over the
    sampling interval, and ``y[k] = C x[k] + D_f f[k]`` reported for
    k = 1..T where T = horizon / t_s.
    """
    if model.dt is None:
        raise ConfigError("simulate_linear expects a discrete-time model")
    t_s = model.dt
    n_samples = whole_count(dist.horizon, t_s, _SAMPLES_RULE)
    held_times = np.arange(n_samples) * t_s
    d_held = dist.sample(held_times)
    t_grid = np.arange(1, n_samples + 1) * t_s
    f_held = atk.sample(held_times, model.n_f)
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
    Construction validates the plant.

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

    def __post_init__(self):
        self.validate()
        # the reals as floats and the limits as a pair, as run sidecars record them
        self.t_s, self.dt, self.deadband = float(self.t_s), float(self.dt), float(self.deadband)
        self.agc_limits = None if self.agc_limits is None else tuple(self.agc_limits)
        self.rate_limit = None if self.rate_limit is None else float(self.rate_limit)

    def validate(self):
        """Check each switch by the rule of its ``plant`` field in the
        configuration table, then that ``lo < hi`` and that ``dt`` divides ``t_s``."""
        for field in (f for f in FIELDS if f.name.startswith("plant.")):
            field.check(getattr(self, field.name.removeprefix("plant.")))
        if self.agc_limits is not None and not self.agc_limits[0] < self.agc_limits[1]:
            raise ConfigError("agc_limits must satisfy lo < hi")
        self.counts(self.t_s)

    def counts(self, horizon: float) -> tuple[int, int]:
        """The samples in ``horizon`` and the RK4 steps in each, both whole or ConfigError."""
        return (
            whole_count(horizon, self.t_s, _SAMPLES_RULE),
            whole_count(self.t_s, self.dt, "dt must divide t_s"),
        )

    def assemble(self) -> tuple[LinearModel, ModelIndex]:
        return assemble_multiarea(self.areas, self.attacks)


@dataclass
class RunBatch:
    """Plant runs integrated side by side, one (disturbance, attack) pair each.

    :attr:`horizon` checks that the batch holds runs of one shared horizon.
    """

    runs: list[tuple[DisturbanceSpec, AttackSpec]]

    @property
    def horizon(self) -> float:
        horizons = {dist.horizon for dist, _ in self.runs}
        if len(horizons) != 1:
            raise ConfigError(f"a batch needs runs of one shared horizon, got {sorted(horizons)}")
        return horizons.pop()

    def run_steps(self, plant: PlantConfig) -> int:
        """Run-steps :func:`simulate_nonlinear` integrates on this batch.

        A step counts once per run it advances: the twins' shared prefix
        once per leader, then every run from the fork on.
        """
        n_steps = prod(plant.counts(self.horizon))
        leaders, _, fork = _shared_prefix(self, plant.attacks.n_f, plant.dt, n_steps)
        return len(leaders) * fork + len(self.runs) * (n_steps - fork)


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
    for run, (dist, atk) in enumerate(batch.runs):
        near = np.ceil(np.concatenate([dist.switch_times(), atk.switch_times()]) / dt)
        candidates = np.concatenate([[0.0], near - 1.0, near, near + 1.0])
        steps = np.unique(np.clip(candidates, 0, n_steps - 1)).astype(int)
        times = steps * dt
        u = np.vstack([dist.sample(times), atk.sample(times, n_f)])
        new = np.concatenate([[True], np.any(u[:, 1:] != u[:, :-1], axis=0)])
        for step, value in zip(steps[new], u[:, new].T):
            changes.setdefault(int(step), []).append((run, value))
    return {
        step: (np.array([run for run, _ in change]), np.array([value for _, value in change]).T)
        for step, change in changes.items()
    }


def _shared_prefix(
    batch: RunBatch, n_f: int, dt: float, n_steps: int
) -> tuple[list[int], np.ndarray, int]:
    """The twins of a batch and the steps they share.

    Runs whose disturbance specs are equal are twins: the draw is a function
    of the compared fields.  The first run of each group leads it.  The fork
    is the first step at which some run's held inputs differ from its
    leader's, read off :func:`_input_switches`; before it every twin's work
    column is bitwise its leader's.

    Returns:
        ``(leaders, column, fork)``: the leaders' batch indices in batch
        order, each run's leader as an index into them, and the fork step,
        0 for a batch without twins and ``n_steps`` for twins whose inputs
        never differ.
    """
    group: dict[tuple, int] = {}
    leaders, column = [], []
    for run, (dist, _) in enumerate(batch.runs):
        key = tuple(getattr(dist, f.name) for f in fields(dist) if f.compare)
        if key not in group:
            group[key] = len(leaders)
            leaders.append(run)
        column.append(group[key])
    column = np.array(column)
    if len(leaders) == len(batch.runs):
        return leaders, column, 0
    lead = np.array(leaders)[column]
    held = np.empty((batch.runs[0][0].n_d + n_f, len(batch.runs)))
    for step, (runs, values) in sorted(_input_switches(batch, n_f, dt, n_steps).items()):
        held[:, runs] = values  # step 0 sets every run's inputs
        if np.any(held != held[:, lead]):
            return leaders, column, step
    return leaders, column, n_steps


def _clear_of_limits(agc_max, agc_min, agc_state, below, above, lo: float, hi: float) -> bool:
    """Whether a chunk integrated without the AGC-limit tests stands as it is.

    Every stage's AGC value stayed strictly between its entry's bounds
    ``below`` and ``above``: inside ``(lo, hi)`` for a free entry, so no
    stage test would have fired, and exactly at the limit for an entry
    pinned there, so every test would have fired and clamped the slope as
    the pin did.  The chunk's final AGC state lies in ``[lo, hi]``, so no
    clamp would have moved it.  A NaN fails every test.
    """
    return (
        (below < agc_min).all()
        and (agc_max < above).all()
        and lo <= agc_state.min()
        and agc_state.max() <= hi
    )


def _rk4_stepper(
    plant: PlantConfig, model: LinearModel, index: ModelIndex, batch: RunBatch
) -> tuple[Callable[[int, int], None], np.ndarray, np.ndarray, np.ndarray]:
    """The RK4 work array of a batch and the stepper that advances it.

    The work array holds, one column per run, ``[state | u | band]``:

    * the state, permuted so that the tie flows, the area frequencies and
      the AGC commands form contiguous blocks (``tie``, ``omega``, ``agc``),
      followed by the internal tie angles (``theta``) when ``sine_ties`` is on;
    * the held inputs ``u = (d, f)``;
    * with a deadband, ``clip(omega, +-deadband/2)`` per area (``band``):
      the dead-banded governor input is ``omega - clip(omega)``, so the
      governor rows take ``-droop * clip(omega)`` on top of their linear part.

    One matrix maps the work array to the state derivative: ``A``,
    ``[B_d B_f]``, the droop coefficients of the band block and the
    frequency difference that drives each tie angle, as one ``matvec``
    per run (see the module docstring).  The sine-tie factor and the AGC
    limits then act elementwise on the derivative's blocks.  Each stage has
    its own work array, the four stacked as ``work``, ``(4, n_work, runs)``.

    Once per stepper, each chunk mode's steps are built as one program, the
    tuple of ``(ufunc, operands)`` calls each step of a chunk makes in
    order: the free, the pinned and the checked steps, every switch
    (deadband, sine ties, rate limit, pin clamp, limit tests, the record of
    the AGC stage values, state clamp) resolved while the calls are built.
    A fast step's calls differ from the chunk's other steps' only in the
    history slot they record into.  A step sets the held inputs that switch
    there and runs its calls; the constant operands, the pin bounds, the
    history and its extremes are arrays allocated here and filled in place.

    Returns:
        ``(advance, work, state, order)``.  ``advance(start, stop)``
        integrates steps ``start .. stop - 1`` in place, step ``j`` holding
        the inputs sampled at ``j * dt``; steps are advanced in order, each
        once, and any partition of them into calls leaves ``work`` bitwise
        the same.  ``state`` is the head of stage 0's work array, zero at
        first, and ``order`` the original index of each permuted plant state.
    """
    n_x, n_tie, n_area = model.n_x, index.tie_rows.size, len(index.area_ids)
    omega_rows = [index.omega_row[a] for a in index.area_ids]
    head = [*index.tie_rows.tolist(), *omega_rows, *(index.agc_row[a] for a in index.area_ids)]
    order = np.array(head + sorted(set(range(n_x)) - set(head)))
    pos = np.argsort(order)  # permuted position of each original state
    n_state = n_x + (n_tie if plant.sine_ties else 0)
    n_u = model.n_d + model.n_f
    n_band = n_area if plant.deadband > 0.0 else 0
    n_work = n_state + n_u + n_band
    tie, omega = slice(0, n_tie), slice(n_tie, n_tie + n_area)
    agc, theta = slice(n_tie + n_area, n_tie + 2 * n_area), slice(n_x, n_state)
    u, band = slice(n_state, n_state + n_u), slice(n_state + n_u, n_work)
    matrix = np.zeros((n_state, n_work))
    matrix[:n_x, :n_x] = model.A[np.ix_(order, order)]
    matrix[:n_x, u] = np.hstack([model.B_d, model.B_f])[order]
    if plant.sine_ties:
        angles = np.arange(n_x, n_state)
        matrix[angles, pos[index.tie_omega_own]] = 1.0
        matrix[angles, pos[index.tie_omega_other]] = -1.0
    if n_band:
        band_col = [n_state + n_u + omega_rows.index(w) for w in index.gov_omega]
        matrix[pos[index.gov_rows], band_col] = -index.gov_droop_coef

    dt = plant.dt
    n_steps = prod(plant.counts(batch.horizon))
    switches = _input_switches(batch, model.n_f, dt, n_steps)
    n_runs = len(batch.runs)
    # one work array per stage: stage 0 differentiates the state in place at
    # the head of the first, stages 1-3 build their stage states in the others
    work = np.zeros((4, n_work, n_runs))
    state = work[0, :n_state]
    helds = work[:, u]
    agc_state = state[agc]
    # every stage's AGC entries, which a fast step records in its slot of
    # the chunk's history: one strided view of the stacked work arrays; a
    # narrow batch records the contiguous span from stage 0's first AGC
    # entry to stage 3's last instead.  The extremes over the slots a chunk
    # used are reduced into agc_max and agc_min.
    span = slice(agc.start * n_runs, (3 * n_work + agc.stop) * n_runs)
    if span.stop - span.start <= _SPAN_FLOATS:
        extremes = np.empty((2, *work.shape))
        tracked, tracked_max, tracked_min = (a.reshape(-1)[span] for a in (work, *extremes))
        agc_max, agc_min = extremes[:, :, agc]
    else:
        tracked = work[:, agc]
        agc_max, agc_min = tracked_max, tracked_min = np.empty((2, *tracked.shape))
    history = np.empty((_CHUNK_STEPS, *tracked.shape))
    snapshot = np.empty_like(work)
    k = np.empty((4, n_state, n_runs))
    k1, k2, k3, k4 = k
    acc = np.empty_like(state)
    cos_theta = np.empty_like(state[theta])
    # rows: AGC state at or above its upper limit, at or below its lower one
    at_limit = np.empty((2, *agc_state.shape), dtype=bool)
    at_hi, at_lo = at_limit
    # a pinned chunk's slope bounds, filled at its start
    slope_lo, slope_hi = np.empty((2, *agc_state.shape))
    limits, rate = plant.agc_limits, plant.rate_limit
    # Every constant operand of the loop is an array of its operand's shape:
    # a Python float would cost each ufunc call a scalar conversion.
    band_hi = np.full(work[0, band].shape, 0.5 * plant.deadband)
    band_lo = -band_hi
    lo, hi = limits if limits is not None else (-np.inf, np.inf)
    agc_lo, agc_hi, agc_zero = (np.full(agc_state.shape, v) for v in (lo, hi, 0.0))
    rate_hi = np.full(agc_state.shape, np.inf if rate is None else rate)
    rate_lo = -rate_hi
    two, sixth = np.full(state.shape, 2.0), np.full(state.shape, dt / 6.0)

    def program(mode: str) -> tuple:
        """The ``(ufunc, operands)`` calls of each step of a chunk mode, one
        call tuple per step of a chunk: a fast step records the AGC stage
        values in its own slot of the history, the rest are alike."""
        stages = []
        for i, h in enumerate((None, 0.5 * dt, 0.5 * dt, dt)):
            stage_x, k_tie, k_agc = work[i, :n_state], k[i][tie], k[i][agc]
            if h is not None:  # the stage state along the previous slope
                stages += [
                    (np.multiply, (k[i - 1], np.full(state.shape, h), stage_x)),
                    (np.add, (stage_x, state, stage_x)),
                ]
            if n_band:
                stages.append((clip, (work[i, omega], band_lo, band_hi, work[i, band])))
            stages.append((np.matvec, (matrix, work[i].T, k[i].T)))
            if plant.sine_ties:
                # each tie row of A holds only the linear coupling stiffness *
                # (omega difference), which the sine law scales by cos(theta)
                stages += [
                    (np.cos, (work[i, theta], cos_theta)),
                    (np.multiply, (k_tie, cos_theta, k_tie)),
                ]
            if mode == "checked":
                # a where= mask that is all false changes no bit
                stages += [
                    (np.greater_equal, (work[i, agc], agc_hi, at_hi)),
                    (np.less_equal, (work[i, agc], agc_lo, at_lo)),
                    (partial(np.minimum, out=k_agc, where=at_hi), (k_agc, agc_zero)),
                    (partial(np.maximum, out=k_agc, where=at_lo), (k_agc, agc_zero)),
                ]
            elif mode == "pinned":
                stages.append((clip, (k_agc, slope_lo, slope_hi, k_agc)))
            if rate is not None:
                stages.append((clip, (k_agc, rate_lo, rate_hi, k_agc)))
        # state + dt/6 * (k1 + 2 (k2 + k3) + k4), in that operation order
        combination = [
            (np.add, (k2, k3, acc)),
            (np.multiply, (acc, two, acc)),
            (np.add, (acc, k1, acc)),
            (np.add, (acc, k4, acc)),
            (np.multiply, (acc, sixth, acc)),
            (np.add, (state, acc, state)),
        ]
        if mode == "checked":
            combination.append((clip, (agc_state, agc_lo, agc_hi, agc_state)))
        if limits is None or mode == "checked":
            return (tuple(stages + combination),) * _CHUNK_STEPS
        # the record precedes the combination, which moves stage 0's values
        return tuple(
            tuple([*stages, (np.positive, (tracked, slot)), *combination]) for slot in history
        )

    free, pinned, checked = (program(mode) for mode in ("free", "pinned", "checked"))
    switch_at = switches.get

    # chunks, fast or checked, pins and the replay: see the module docstring
    def advance(start: int, stop: int) -> None:
        checking = False
        while start < stop:
            end = min(start + _CHUNK_STEPS, stop)
            fast = limits is not None and not checking
            steps = checked if checking else free
            if fast:
                np.copyto(snapshot, work)
                np.equal(agc_state, agc_hi, at_hi)
                np.equal(agc_state, agc_lo, at_lo)
                below, above = agc_lo, agc_hi
                if np.count_nonzero(at_limit):
                    # a pinned slope may only leave its limit; its stage
                    # values must stay exactly there
                    steps = pinned
                    slope_lo[...] = np.where(at_lo, 0.0, -np.inf)
                    slope_hi[...] = np.where(at_hi, 0.0, np.inf)
                    pins = at_hi | at_lo
                    below = np.where(pins, np.nextafter(agc_state, -np.inf), agc_lo)
                    above = np.where(pins, np.nextafter(agc_state, np.inf), agc_hi)
            for step, calls in zip(range(start, end), steps):
                switch = switch_at(step)
                if switch is not None:
                    runs, values = switch
                    helds[:, :, runs] = values
                for f, args in calls:
                    f(*args)
            if fast:
                recorded = history[: end - start]
                np.maximum.reduce(recorded, 0, None, tracked_max)
                np.minimum.reduce(recorded, 0, None, tracked_min)
                if not _clear_of_limits(agc_max, agc_min, agc_state, below, above, lo, hi):
                    np.copyto(work, snapshot)
                    checking = True
                    continue
            checking = False
            start = end

    return advance, work, state, order


def simulate_nonlinear(plant: PlantConfig, batch: RunBatch) -> list[SampledTrajectory]:
    """Integrate the nonlinear plant for every run of a batch at once.

    Fixed-step RK4 from a zero initial state: the sample loop around a
    stepper (:func:`_rk4_stepper`), advanced one sample interval at a time,
    with the blow-up check and the outputs at each sample.  Each stage
    evaluates every run's derivative with one gemv per run, so a run's bits
    do not depend on its batch, and the AGC-limit tests run only in the
    chunks of steps where a run's AGC command meets or leaves a limit,
    bitwise as if every step were checked (see the module docstring).  The
    attack bias reaches the AGC integrator through the assembled B_f and is
    added to the measured outputs through D_f, matching the corrupted-ACE
    routing of the abstract model.  A single run is a batch of one.

    Twins, runs with equal disturbances such as a held-out run and its
    attacked copy, share their steps up to the first step at which their
    inputs differ (:func:`_shared_prefix`).  That prefix is integrated once,
    by a stepper over one leader per twin group; at the fork every run's work
    columns (all four stages, held inputs included) are copied from its
    leader's into the whole batch's stepper, which goes on from there.  By
    batch invariance and partition invariance this changes no bit.

    Returns:
        one sampled trajectory per run, in batch order.

    Raises:
        SimulationBlowUp: if a run's state infinity norm exceeds the config
            cap or is not finite at a sample; the error names the first such
            run (its ``run`` index).
    """
    plant.validate()
    model, index = plant.assemble()
    n_samples, per_sample = plant.counts(batch.horizon)
    n_steps = n_samples * per_sample
    leaders, column, fork = _shared_prefix(batch, model.n_f, plant.dt, n_steps)
    sample_times = np.arange(1, n_samples + 1) * plant.t_s
    f_at_samples = np.stack(
        [atk.sample(sample_times, model.n_f).T for _, atk in batch.runs], axis=1
    )
    # the D_f feedthrough of every sample up front; C x joins it per sample
    Y = np.matvec(model.D_f, f_at_samples)
    # (stepper runs, their batch indices, each run's stepper column, last step)
    segments = []
    if fork:
        segments.append((RunBatch([batch.runs[i] for i in leaders]), leaders, column, fork))
    if fork < n_steps:
        segments.append((batch, range(len(batch.runs)), slice(None), n_steps))
    start, work = 0, None
    for runs, run_ids, columns, stop in segments:
        advance, stepper_work, state, order = _rk4_stepper(plant, model, index, runs)
        if work is not None:  # the fork: each run continues from its leader
            stepper_work[...] = work[..., column]
        work, c_state = stepper_work, model.C[:, order]
        for sample in range(start // per_sample, -(-stop // per_sample)):
            end = (sample + 1) * per_sample
            advance(max(end - per_sample, start), min(end, stop))
            if end > stop:  # a fork inside the interval
                break
            norms = np.abs(state).max(axis=0)
            # a NaN norm (an overflow within the interval) counts as a blow-up
            over = np.flatnonzero(~(norms <= plant.blowup_norm))
            if over.size:
                run = int(run_ids[over[0]])
                raise SimulationBlowUp(end * plant.dt, norms[over[0]], f"run {run}", run=run)
            Y[sample] += np.matvec(c_state, state[: model.n_x].T)[columns]
        start = stop
    return [
        SampledTrajectory(sample_times.copy(), Y[:, i].T.copy()) for i in range(len(batch.runs))
    ]
