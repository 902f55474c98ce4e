"""Disturbance generation and the linear / nonlinear simulator pair."""

import inspect
from functools import partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diagfilter.simulate as simulate_module
from diagfilter.agc import multivariate_topology, three_area_default, univariate_topology
from diagfilter.errors import ConfigError, SimulationBlowUp
from diagfilter.lti import LinearModel, zoh_discretize
from diagfilter.simulate import (
    AttackSpec,
    DisturbanceSpec,
    PlantConfig,
    RunBatch,
    simulate_linear,
    simulate_nonlinear,
)
from refimpl import simulate_nonlinear_loop


def scalar_model(a: float, dt: float = 1.0) -> LinearModel:
    return LinearModel(
        A=np.array([[a]]),
        B_d=np.array([[1.0]]),
        B_f=np.array([[0.0]]),
        C=np.array([[1.0]]),
        D_f=np.array([[1.0]]),
        dt=dt,
    )


def default_plant(**kw) -> PlantConfig:
    kw.setdefault("t_s", 0.5)
    kw.setdefault("dt", 1e-3)
    kw.setdefault("attacks", univariate_topology())
    return PlantConfig(areas=three_area_default(), **kw)


def simulate_one(plant, dist, atk):
    return simulate_nonlinear(plant, RunBatch([(dist, atk)]))[0]


# on the runs below, dropping any one switch moves the outputs
# (the sine ties by ~1e-9, the others by ~1e-3)
ALL_SWITCHES = dict(agc_limits=(-0.002, 0.002), deadband=0.001, sine_ties=True, rate_limit=0.004)

# the engine has a separate branch for each switch
SWITCH_CASES = {
    "no-switches": {},
    "deadband": {"deadband": ALL_SWITCHES["deadband"]},
    "sine-ties": {"sine_ties": True},
    "agc-limits": {"agc_limits": ALL_SWITCHES["agc_limits"]},
    "rate-limit": {"rate_limit": ALL_SWITCHES["rate_limit"]},
    "all-switches": ALL_SWITCHES,
    "multivariate": {**ALL_SWITCHES, "attacks": multivariate_topology()},
}
# the engine resolves each switch once per call: the other on/off
# combinations of the four switches (pairs and triples)
SWITCH_NAMES = ("deadband", "sine_ties", "agc_limits", "rate_limit")
COMBINED_CASES = {
    "+".join(names): {name: ALL_SWITCHES[name] for name in names}
    for size in (2, 3)
    for names in combinations(SWITCH_NAMES, size)
}


def mixed_runs(width: int = 3, n_f: int = 1) -> list:
    attacks = (
        AttackSpec(),
        AttackSpec(0.1 * np.eye(n_f)[0], start=1.0),
        AttackSpec(np.linspace(-0.05, 0.05, n_f), start=2.2),
    )
    return [
        (
            DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, channels=(0, 1, 2), seed=11 + i),
            attacks[i % 3],
        )
        for i in range(width)
    ]


def switch_case(case: str, width: int) -> tuple[PlantConfig, list]:
    plant = default_plant(**{**SWITCH_CASES, **COMBINED_CASES}[case])
    return plant, mixed_runs(width, plant.attacks.n_f)


def assert_matches_the_loop(plant, runs):
    trajs = simulate_nonlinear(plant, RunBatch(runs))
    for (dist, atk), traj in zip(runs, trajs):
        reference = simulate_nonlinear_loop(plant, dist, atk)
        assert traj.Y.shape == reference.shape == (25, 6)
        assert np.max(np.abs(traj.Y - reference)) <= 1e-15


def test_gaussian_disturbance_is_seeded_and_held():
    spec = DisturbanceSpec(n_d=3, horizon=5.0, sigma=0.02, hold=1.0, channels=(0, 2), seed=9)
    again = DisturbanceSpec(n_d=3, horizon=5.0, sigma=0.02, hold=1.0, channels=(0, 2), seed=9)
    assert np.array_equal(spec.values, again.values)
    # the draw is one normal call on the seed's generator, in channel order
    draws = np.random.default_rng(9).normal(0.0, 0.02, size=(6, 2))
    assert np.array_equal(spec.values[:, [0, 2]], draws)
    # undriven channel stays zero, driven channels vary
    assert np.all(spec.values[:, 1] == 0.0)
    assert np.std(spec.values[:, 0]) > 0.0
    # held over each interval: t=0.25 and t=0.75 read the same draw
    v1 = spec.sample(np.array([0.25]))
    v2 = spec.sample(np.array([0.75]))
    v3 = spec.sample(np.array([1.25]))
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_step_disturbance_switches_on_exactly():
    spec = DisturbanceSpec(
        n_d=2, horizon=4.0, kind="step", step_value=0.3, step_time=1.5, channels=(1,)
    )
    vals = spec.sample(np.array([0.0, 1.4999, 1.5, 3.0]))
    assert np.array_equal(vals[0], [0, 0, 0, 0])
    assert np.allclose(vals[1], [0, 0, 0.3, 0.3])


def test_disturbance_spec_validation():
    with pytest.raises(ConfigError):
        DisturbanceSpec(n_d=1, horizon=1.0, kind="ramp")
    with pytest.raises(ConfigError):
        DisturbanceSpec(n_d=1, horizon=-1.0)
    with pytest.raises(ConfigError):
        DisturbanceSpec(n_d=1, horizon=1.0, channels=(3,))
    with pytest.raises(ConfigError):
        DisturbanceSpec(n_d=1, horizon=1.0, hold=0.0)


def test_attack_vector_layouts():
    times = np.array([1.9, 2.0, 2.5])
    assert np.array_equal(AttackSpec().sample(times, 3), np.zeros((3, 3)))
    assert AttackSpec().switch_times().size == 0
    attack = AttackSpec([0.0, 0.1, 0.0], start=2.0)
    with pytest.raises(ConfigError, match="attack vector has 3 entries, model has 1"):
        attack.sample(times, 1)
    # onset boundary: sample at exactly t=start is attacked
    vals = attack.sample(times, 3)
    assert np.array_equal(vals[1], [0.0, 0.1, 0.1])
    assert np.array_equal(vals[[0, 2]], np.zeros((2, 3)))
    assert attack.switch_times().tolist() == [2.0 - 1e-12]


def test_linear_step_response_matches_geometric_series():
    # x[k+1] = 0.5 x[k] + 1 from zero gives y[k] = 2 (1 - 0.5^k)
    model = scalar_model(0.5)
    spec = DisturbanceSpec(
        n_d=1, horizon=8.0, kind="step", step_value=1.0, step_time=0.0
    )
    traj = simulate_linear(model, spec, AttackSpec())
    k = np.arange(1, 9)
    assert np.array_equal(traj.t, k.astype(float))
    expected = 2.0 * (1.0 - 0.5**k)
    assert np.max(np.abs(traj.Y[0] - expected)) < 1e-14


def test_linear_attack_feedthrough_alignment():
    # pure feedthrough: output jumps exactly at the onset sample
    model = scalar_model(0.0)
    spec = DisturbanceSpec(n_d=1, horizon=6.0, kind="step", step_value=0.0)
    traj = simulate_linear(model, spec, AttackSpec([0.25], start=3.0))
    assert np.array_equal(traj.Y[0], [0, 0, 0.25, 0.25, 0.25, 0.25])


def test_linear_requires_discrete_model_and_aligned_horizon():
    cont = LinearModel(
        A=np.array([[-1.0]]),
        B_d=np.ones((1, 1)),
        B_f=np.zeros((1, 1)),
        C=np.ones((1, 1)),
        D_f=np.zeros((1, 1)),
    )
    spec = DisturbanceSpec(n_d=1, horizon=1.0)
    with pytest.raises(ConfigError):
        simulate_linear(cont, spec, AttackSpec())
    model = scalar_model(0.5)
    with pytest.raises(ConfigError):
        simulate_linear(
            model, DisturbanceSpec(n_d=1, horizon=1.3), AttackSpec()
        )


def test_nonlinear_reduces_to_linear_when_switches_off():
    plant = default_plant()
    spec = DisturbanceSpec(n_d=3, horizon=8.0, sigma=0.02, channels=(0, 1, 2), seed=7)
    atk = AttackSpec([0.1], start=4.0)
    lin = simulate_linear(zoh_discretize(plant.assemble()[0], plant.t_s), spec, atk)
    nl = simulate_one(plant, spec, atk)
    assert lin.Y.shape == nl.Y.shape == (25, 16)
    assert np.max(np.abs(lin.Y - nl.Y)) < 1e-9


def test_agc_saturation_clamps_command_state():
    step = DisturbanceSpec(
        n_d=3, horizon=8.0, kind="step", step_value=0.05, step_time=0.0
    )
    free = simulate_one(default_plant(), step, AttackSpec())
    clamped = simulate_one(
        default_plant(agc_limits=(-0.001, 0.001)), step, AttackSpec()
    )
    # output row 5 is area 1's AGC command
    assert np.abs(free.Y[5]).max() > 0.01
    assert np.abs(clamped.Y[5]).max() <= 0.001 + 1e-12


def test_deadband_changes_governor_response():
    spec = DisturbanceSpec(n_d=3, horizon=6.0, sigma=0.02, channels=(0, 1, 2), seed=3)
    plain = simulate_one(default_plant(), spec, AttackSpec())
    banded = simulate_one(default_plant(deadband=0.01), spec, AttackSpec())
    assert np.max(np.abs(plain.Y - banded.Y)) > 1e-6


def test_sine_tie_coupling_stays_near_linear_for_small_angles():
    spec = DisturbanceSpec(n_d=3, horizon=6.0, sigma=0.02, channels=(0, 1, 2), seed=3)
    plain = simulate_one(default_plant(), spec, AttackSpec())
    sine = simulate_one(default_plant(sine_ties=True), spec, AttackSpec())
    gap = np.max(np.abs(plain.Y - sine.Y))
    assert 0.0 < gap < 1e-3


def test_blowup_guard_raises_with_time():
    step = DisturbanceSpec(
        n_d=3, horizon=8.0, kind="step", step_value=0.05, step_time=0.0
    )
    with pytest.raises(SimulationBlowUp) as err:
        simulate_one(default_plant(blowup_norm=1e-4), step, AttackSpec())
    assert err.value.time > 0.0
    assert err.value.norm > 1e-4


@pytest.mark.parametrize("t_s, dt", [(500.0, 5.0), (1000.0, 10.0)])
def test_diverging_run_raises_instead_of_returning_nan(t_s, dt):
    # RK4 at this step is unstable on the plant: within one sample interval
    # the state overflows to inf and inf - inf gives NaN, whose norm compares
    # false against any cap
    step = DisturbanceSpec(n_d=3, horizon=t_s, kind="step", step_value=0.05, step_time=0.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowUp) as err:
        simulate_one(default_plant(t_s=t_s, dt=dt), step, AttackSpec())
    assert err.value.run == 0
    assert err.value.time == t_s
    assert np.isnan(err.value.norm)
    message = str(err.value)
    assert message.startswith(f"state is no longer finite (norm nan) at t={t_s:.3f} s")
    assert "smaller integration step dt" in message


def test_blowup_inside_a_batch_names_the_run():
    def step(value):
        spec = DisturbanceSpec(n_d=3, horizon=8.0, kind="step", step_value=value, step_time=0.0)
        return spec, AttackSpec()

    plant = default_plant(blowup_norm=5e-3)
    runs = [step(0.0005), step(0.05), step(0.0005)]
    with pytest.raises(SimulationBlowUp) as alone:
        simulate_one(plant, *runs[1])
    with pytest.raises(SimulationBlowUp) as err:
        simulate_nonlinear(plant, RunBatch(runs))
    assert err.value.run == 1
    assert "(run 1)" in str(err.value)
    assert err.value.time == alone.value.time
    assert err.value.norm == alone.value.norm


def test_run_batch_needs_one_shared_horizon():
    with pytest.raises(ConfigError):
        RunBatch([]).horizon
    runs = [(DisturbanceSpec(n_d=3, horizon=h), AttackSpec()) for h in (4.0, 5.0)]
    with pytest.raises(ConfigError):
        simulate_nonlinear(default_plant(), RunBatch(runs))


LOOP_CASES = [(case, 3) for case in SWITCH_CASES] + [("all-switches", w) for w in (1, 2, 17)]


@pytest.mark.parametrize("case, width", LOOP_CASES + [(case, 3) for case in COMBINED_CASES])
def test_batched_engine_matches_the_per_run_loop(case, width):
    # the tolerance was fixed before measuring; the two differ only in the
    # summation order inside each product (at most 6e-17 on outputs of
    # magnitude 0.2)
    assert_matches_the_loop(*switch_case(case, width))


def test_inputs_switching_off_the_sample_grid_match_the_loop():
    # holds of 0.3 s do not divide t_s = 0.5 s, and the onsets fall between
    # samples, one of them between integration steps too
    plant = default_plant(**ALL_SWITCHES)
    runs = [
        (
            DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=(0, 1, 2), seed=seed),
            atk,
        )
        for seed, atk in (
            (21, AttackSpec([0.1], start=1.2345)),
            (22, AttackSpec([-0.05], start=0.7)),
        )
    ]
    assert_matches_the_loop(plant, runs)


# width 1 is the reference every case compares against
@pytest.mark.parametrize("case, width", [(c, w) for c, w in LOOP_CASES if w > 1])
def test_trajectory_is_bitwise_independent_of_its_batch(case, width):
    plant, runs = switch_case(case, width)
    batch = simulate_nonlinear(plant, RunBatch(runs))
    alone = simulate_one(plant, *runs[1])
    reordered = simulate_nonlinear(plant, RunBatch(runs[::-1]))
    assert np.array_equal(alone.Y, batch[1].Y)
    for moved, original in zip(reordered, batch[::-1]):
        assert np.array_equal(moved.Y, original.Y)


@pytest.mark.parametrize("case", ["all-switches", "multivariate"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(width=st.integers(1, 20), pick=st.integers(0, 19))
@example(width=6, pick=5).via("the uni-assisted training width")
@example(width=8, pick=3).via("the mv-assisted training width")
def test_any_run_of_any_batch_width_is_bitwise_its_run_alone(case, width, pick):
    plant, runs = switch_case(case, width)
    position = pick % width
    batch = simulate_nonlinear(plant, RunBatch(runs))
    alone = simulate_one(plant, *runs[position])
    assert np.array_equal(batch[position].Y, alone.Y)


@pytest.fixture
def fast_chunks(monkeypatch):
    """Each chunk integrated without the AGC-limit tests, as ``(kept, highest
    AGC stage value, highest final AGC state, pins)``: ``pins`` lists the
    limit of each AGC entry pinned at the chunk's start."""
    chunks = []
    clear_of_limits = simulate_module._clear_of_limits

    def recorded(agc_max, agc_min, agc_state, below, above, lo, hi):
        kept = clear_of_limits(agc_max, agc_min, agc_state, below, above, lo, hi)
        # a pinned entry's lower bound is the float below its limit
        pins = np.nextafter(below[below != lo], np.inf).tolist()
        chunks.append((kept, agc_max.max(), agc_state.max(), pins))
        return kept

    monkeypatch.setattr(simulate_module, "_clear_of_limits", recorded)
    return chunks


def checked_integration(plant, runs) -> list:
    """The batch's trajectories with every step taken with the AGC-limit tests."""
    with pytest.MonkeyPatch.context() as mp:
        # every chunk integrated without the tests is rejected and replayed
        mp.setattr(simulate_module, "_clear_of_limits", lambda *args: False)
        return simulate_nonlinear(plant, RunBatch(runs))


def assert_chunks_change_no_bit(plant, runs):
    """Outputs match the per-run loop, the checked integration bit for bit
    and each run integrated alone or in reverse batch order bit for bit."""
    assert_matches_the_loop(plant, runs)
    batch = simulate_nonlinear(plant, RunBatch(runs))
    reordered = simulate_nonlinear(plant, RunBatch(runs[::-1]))
    checked = checked_integration(plant, runs)
    for run, traj, moved, reference in zip(runs, batch, reordered[::-1], checked):
        assert np.array_equal(traj.Y, reference.Y)
        assert np.array_equal(moved.Y, traj.Y)
        assert np.array_equal(simulate_one(plant, *run).Y, traj.Y)


AGC_OUTPUT_ROWS = [5, 14, 22]  # y = the AGC command of each area


def step_run(step_value: float, step_time: float = 0.0, horizon: float = 3.0) -> tuple:
    spec = DisturbanceSpec(
        n_d=3,
        horizon=horizon,
        kind="step",
        step_value=step_value,
        step_time=step_time,
        channels=(0, 1, 2),
    )
    return spec, AttackSpec()


def test_limits_first_reached_anywhere_in_a_chunk_match_the_loop(fast_chunks):
    # Until its step disturbance switches on, a run's state is exactly zero;
    # limits of +-1e-30 then catch the AGC commands within the switching
    # step.  Steps 50, 123 and 499 are a chunk's first step, a step inside a
    # chunk and the last step of a sample interval.
    plant = default_plant(**{**ALL_SWITCHES, "agc_limits": (-1e-30, 1e-30)})
    runs = [step_run(0.05, step_time=step * plant.dt) for step in (50, 123, 499)]
    for traj in simulate_nonlinear(plant, RunBatch(runs)):
        assert np.abs(traj.Y[AGC_OUTPUT_ROWS]).max() == 1e-30
    assert not all(kept for kept, *_ in fast_chunks)
    assert_chunks_change_no_bit(plant, runs)


def test_limit_first_met_by_the_clamp_ending_a_chunk_matches_the_loop(fast_chunks):
    # Under a 0.05 step on every load from t = 0, the highest AGC command
    # first passes 3.743746016e-05 in the combination that ends step 49, the
    # first chunk's last: no stage value reaches the limit, only the clamp
    # after the step acts.
    hi = 3.743746016e-05
    plant = default_plant(**{**ALL_SWITCHES, "agc_limits": (-1.0, hi)})
    runs = [step_run(0.05), step_run(0.0)]
    simulate_nonlinear(plant, RunBatch(runs))
    kept, stage_max, final_max, _ = fast_chunks[0]
    assert not kept and stage_max < hi < final_max
    assert_chunks_change_no_bit(plant, runs)


def test_limit_met_only_by_the_last_stage_of_a_chunk_matches_the_loop(fast_chunks):
    # Without a rate limit, a 0.05 step on every load raises area 3's AGC
    # command ever more slowly from about step 1200 on, so the last stage
    # value of each step overshoots the state the step ends in.  The upper
    # limit is that value at step 1249, the last of chunk 24: no earlier
    # stage value reaches it, nor does the state step 1249 ends in, and only
    # the test at that stage fires, clamping a slope that still rises.
    hi = 0.012906205264161483
    plant = default_plant(deadband=0.001, sine_ties=True, agc_limits=(-1.0, hi))
    runs = [step_run(0.05), step_run(0.0)]
    simulate_nonlinear(plant, RunBatch(runs))
    assert all(kept for kept, *_ in fast_chunks[:24])
    kept, stage_max, final_max, _ = fast_chunks[24]
    assert not kept and stage_max == hi > final_max
    assert_chunks_change_no_bit(plant, runs)


@pytest.mark.parametrize(
    "span_floats", [simulate_module._SPAN_FLOATS, 0], ids=["span", "strided"]
)
def test_a_fast_chunk_tests_the_stage_values_of_exactly_its_steps(monkeypatch, span_floats):
    # t_s = 0.52 s: each sample interval ends in a chunk of 20 steps, after
    # chunks of 50.  The AGC commands rise in one run and fall in the other,
    # so each chunk's extremes sit at its first and last steps, and every
    # stage value a chunk does not take (the state after its last step, a
    # slot its history kept from the chunk before) lies beyond them.
    monkeypatch.setattr(simulate_module, "_SPAN_FLOATS", span_floats)
    plant = default_plant(deadband=0.001, sine_ties=True, agc_limits=(-1.0, 1.0), t_s=0.52)
    runs = [step_run(0.05, horizon=1.04), step_run(-0.03, horizon=1.04)]
    model, index = plant.assemble()
    n_tie, n_area = index.tie_rows.size, len(index.area_ids)
    agc = slice(n_tie + n_area, n_tie + 2 * n_area)
    # every step's four stage values, one step per stepper call
    advance, work, state, _ = simulate_module._rk4_stepper(plant, model, index, RunBatch(runs))
    stages = []
    for step in range(1040):
        start = state[agc].copy()
        advance(step, step + 1)
        stages.append([start, *work[1:, agc].copy()])
    stages = np.array(stages)

    tested = []
    clear_of_limits = simulate_module._clear_of_limits

    def recorded(agc_max, agc_min, *args):
        tested.append((agc_max.copy(), agc_min.copy()))
        return clear_of_limits(agc_max, agc_min, *args)

    monkeypatch.setattr(simulate_module, "_clear_of_limits", recorded)
    simulate_nonlinear(plant, RunBatch(runs))
    edges = [start + offset for start in (0, 520) for offset in (*range(0, 520, 50), 520)]
    chunks = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    assert len(tested) == len(chunks) == 22
    for (agc_max, agc_min), (a, b) in zip(tested, chunks):
        assert np.array_equal(agc_max, stages[a:b].max(axis=0))
        assert np.array_equal(agc_min, stages[a:b].min(axis=0))


def test_limits_touched_on_and_off_across_chunks_match_the_loop(fast_chunks):
    # the AGC commands meet the limits, leave them and meet them again, so a
    # fast chunk is kept between two replayed ones
    def held_loads(seed):
        spec = DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=(0, 1, 2), seed=seed)
        return spec, AttackSpec()

    plant = default_plant(**ALL_SWITCHES)
    runs = [held_loads(21), held_loads(22)]
    simulate_nonlinear(plant, RunBatch(runs))
    kept = [kept for kept, *_ in fast_chunks]
    replayed = [i for i, k in enumerate(kept) if not k]
    assert len(replayed) >= 2
    assert any(kept[replayed[0] : replayed[-1]])
    assert_chunks_change_no_bit(plant, runs)


@pytest.mark.parametrize("t_s, dt", [(500.0, 5.0), (10.0, 1.0)])
def test_diverging_run_with_limits_blows_up_as_when_checked(t_s, dt):
    # RK4 is unstable at these steps: the run overflows to NaN within the
    # first interval (dt = 5) or grows past the norm cap by t = 20 s (dt = 1).
    # Only the warnings the checked integration raises are silenced; the
    # test configuration turns any other RuntimeWarning into an error.
    plant = default_plant(t_s=t_s, dt=dt, agc_limits=(-0.02, 0.02))
    diverging, calm = step_run(0.05, horizon=4 * t_s), step_run(0.0, horizon=4 * t_s)

    def blowup(simulate, runs) -> SimulationBlowUp:
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(SimulationBlowUp) as err:
            simulate(plant, runs)
        return err.value

    checked = blowup(checked_integration, [diverging])
    alone = blowup(lambda plant, runs: simulate_nonlinear(plant, RunBatch(runs)), [diverging])
    batch = blowup(lambda plant, runs: simulate_nonlinear(plant, RunBatch(runs)), [calm, diverging])
    assert (alone.run, batch.run) == (0, 1)
    for err in (alone, batch):
        assert err.time == checked.time
        assert np.array_equal(err.norm, checked.norm, equal_nan=True)
    with np.errstate(over="ignore", invalid="ignore"):
        reference = simulate_nonlinear_loop(plant, *diverging)
    finite = np.isfinite(reference).all(axis=0)
    if np.isnan(checked.norm):
        # the loop's outputs stop being finite at the sample the engine reports
        assert checked.time == (np.flatnonzero(~finite)[0] + 1) * t_s
    else:
        assert checked.time == 2 * t_s and checked.norm > plant.blowup_norm
        assert finite.all()


def test_limits_never_reached_leave_the_outputs_bitwise_unlimited(fast_chunks):
    def simulate(limits):
        plant = default_plant(**{**ALL_SWITCHES, "agc_limits": limits})
        return simulate_nonlinear(plant, RunBatch(mixed_runs()))

    far = simulate((-1e3, 1e3))
    assert fast_chunks and all(kept for kept, *_ in fast_chunks)
    # checked steps run both masked clamps of the AGC slope; with masks that
    # are never set they change no bit either
    plant = default_plant(**{**ALL_SWITCHES, "agc_limits": (-1e3, 1e3)})
    checked = checked_integration(plant, mixed_runs())
    for limited, unlimited, always_checked in zip(far, simulate(None), checked):
        assert np.array_equal(limited.Y, unlimited.Y)
        assert np.array_equal(always_checked.Y, unlimited.Y)


@pytest.mark.parametrize("load", [0.05, -0.05])
def test_commands_pinned_at_either_limit_keep_their_chunks_fast(fast_chunks, load):
    # A 0.05 step on every load drives all three AGC commands to the upper
    # limit within 0.6 s (a -0.05 step: to the lower one), and they stay
    # there: every chunk after the one that meets the limit stands fast with
    # the three commands pinned at its start.
    lo, hi = -0.0015, 0.002
    plant = default_plant(**{**ALL_SWITCHES, "agc_limits": (lo, hi)})
    runs = [step_run(load)]
    simulate_nonlinear(plant, RunBatch(runs))
    met = next(i for i, (kept, *_) in enumerate(fast_chunks) if not kept)
    limit = hi if load > 0 else lo
    assert 0 < met < 12 and len(fast_chunks) == 60
    assert all(kept and pins == [limit] * 3 for kept, _, _, pins in fast_chunks[met + 1 :])
    assert_chunks_change_no_bit(plant, runs)


@pytest.mark.parametrize(
    "bias, onset_step, released_at, chunk_kept",
    [
        pytest.param(0.1, 700, 1, False, id="at the first stage of the chunk's first step"),
        pytest.param(0.1, 723, 1, False, id="inside the chunk, from the first stage"),
        pytest.param(0.04441577, 749, 3, False, id="at the last stage of the chunk's last step"),
        pytest.param(0.0444152, 749, 4, True, id="by the combination ending the chunk"),
    ],
)
def test_a_pin_released_in_a_chunk_matches_the_loop(
    fast_chunks, bias, onset_step, released_at, chunk_kept
):
    # Under a 0.05 step on every load, the three AGC commands sit at the
    # upper limit from chunk 12 on.  An attack switched on at `onset_step`
    # of chunk 14 (steps 700-749) pulls area 1's command off the limit: its
    # value at stages 1-3 of that step leaves it from stage `released_at` on
    # (4: only the state the step ends in does).  At step 700 the command
    # meets the limit only at stage 0 of the chunk's first step.  The biases of step 749 sit
    # inside windows of relative width 7e-7 and 2.4e-5 found by bisection.
    plant = default_plant(**ALL_SWITCHES)
    hi = plant.agc_limits[1]
    run = (step_run(0.05)[0], AttackSpec([bias], start=onset_step * plant.dt))
    model, index = plant.assemble()
    advance, work, state, _ = simulate_module._rk4_stepper(plant, model, index, RunBatch([run]))
    area_1 = index.tie_rows.size + len(index.area_ids)  # its AGC row in the stepper's state
    advance(0, onset_step)
    assert state[area_1, 0] == hi
    advance(onset_step, onset_step + 1)
    assert [v == hi for v in work[1:, area_1, 0]] == [s < released_at for s in (1, 2, 3)]
    assert state[area_1, 0] < hi

    fast_chunks.clear()  # the stepper's chunks above
    simulate_nonlinear(plant, RunBatch([run]))
    assert [kept for kept, *_ in fast_chunks[12:16]] == [True, True, chunk_kept, True]
    assert [pins for *_, pins in fast_chunks[12:16]] == [[hi] * 3] * 3 + [[hi] * 2]
    assert_chunks_change_no_bit(plant, [run])


PINNING_CASES = sorted(
    name
    for name, switches in {**SWITCH_CASES, **COMBINED_CASES}.items()
    if "agc_limits" in switches
)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    case=st.sampled_from(PINNING_CASES),
    lo=st.floats(0.0005, 0.004),
    hi=st.floats(0.0005, 0.004),
    attacks=st.lists(
        st.tuples(st.floats(0.0, 2.9), st.floats(0.02, 0.2), st.sampled_from([1.0, -1.0])),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(21, 23),
)
@example(case="all-switches", lo=0.002, hi=0.002, attacks=[(0.7, 0.1, 1.0)], seed=21).via(
    "pinned at both limits in turn"
)
def test_runs_pinned_at_any_limits_integrate_bit_for_bit_as_checked(case, lo, hi, attacks, seed):
    # a clean run and its attacked twins, each pinned at a limit for a while
    plant = default_plant(**{**{**SWITCH_CASES, **COMBINED_CASES}[case], "agc_limits": (-lo, hi)})
    dist = DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=(0, 1, 2), seed=seed)
    direction = np.eye(plant.attacks.n_f)[0]
    runs = [(dist, AttackSpec())] + [
        (dist, AttackSpec(sign * size * direction, start=onset)) for onset, size, sign in attacks
    ]
    trajs = simulate_nonlinear(plant, RunBatch(runs))
    for run, traj, checked in zip(runs, trajs, checked_integration(plant, runs)):
        assert traj.Y.tobytes() == checked.Y.tobytes()
        assert np.max(np.abs(traj.Y - simulate_nonlinear_loop(plant, *run))) <= 1e-15


def test_a_saturated_held_out_twin_keeps_its_chunks_fast(fast_chunks):
    # The package's default plant and first held-out disturbance, as a
    # 20 s twin attacked from 10 s: the attacked AGC command meets its limit
    # after the onset and stays there, and at least 90% of the 200 chunks
    # after the fork stand fast.
    plant = default_plant(deadband=0.001, agc_limits=(-0.02, 0.02), sine_ties=True)
    dist = DisturbanceSpec(n_d=3, horizon=20.0, sigma=0.02, channels=(0, 1, 2), seed=102024)
    runs = [(dist, AttackSpec()), (dist, AttackSpec([0.1], start=10.0))]
    assert simulate_module._shared_prefix(RunBatch(runs), 1, plant.dt, 20000)[2] == 10000
    twins = simulate_nonlinear(plant, RunBatch(runs))
    assert np.abs(twins[1].Y[AGC_OUTPUT_ROWS]).max() == 0.02
    # one record per chunk: 200 before the fork, on the leader, and 200 after
    assert len(fast_chunks) == 400
    assert sum(kept for kept, *_ in fast_chunks[200:]) >= 180


def test_plant_config_validation():
    with pytest.raises(ConfigError):
        default_plant(dt=0.3).validate()  # 0.3 does not divide 0.5
    with pytest.raises(ConfigError):
        default_plant(agc_limits=(0.1, -0.1)).validate()
    with pytest.raises(ConfigError):
        default_plant(deadband=-0.1).validate()
    with pytest.raises(ConfigError):
        default_plant(rate_limit=0.0).validate()


def test_sampling_period_far_below_the_step_is_rejected():
    # 1e-13 / 1e-3 is within 1e-9 of 0 steps per sample, which integrate nothing
    with pytest.raises(ConfigError, match="dt must divide t_s"):
        default_plant(t_s=1e-13).validate()


PARTITION_STEPS = 3000  # a 3 s horizon at dt = 1e-3


@pytest.fixture(scope="module")
def partition_case():
    """A batch with inputs switching off the sample grid and an attacked run
    that reaches the AGC limits, and its work array after the last step,
    advanced one sample interval at a time as :func:`simulate_nonlinear` does."""
    plant = default_plant(**ALL_SWITCHES)
    runs = [
        (
            DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=(0, 1, 2), seed=seed),
            atk,
        )
        for seed, atk in (
            (21, AttackSpec()),
            (21, AttackSpec([0.1], start=1.2345)),
            (22, AttackSpec([-0.05], start=0.7)),
        )
    ]
    attacked = simulate_nonlinear(plant, RunBatch(runs))[1]
    assert np.abs(attacked.Y[AGC_OUTPUT_ROWS]).max() == ALL_SWITCHES["agc_limits"][1]
    per_sample = round(plant.t_s / plant.dt)
    advance, work, _, _ = simulate_module._rk4_stepper(plant, *plant.assemble(), RunBatch(runs))
    for start in range(0, PARTITION_STEPS, per_sample):
        advance(start, start + per_sample)
    return plant, runs, work.copy()


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(cuts=st.lists(st.integers(1, PARTITION_STEPS - 1), max_size=25, unique=True))
@example(cuts=[]).via("one call for all the steps")
@example(cuts=[49, 50, 51, 499, 500, 1234, 1235]).via("cuts beside chunk and sample edges")
def test_any_partition_of_the_steps_integrates_bit_for_bit(partition_case, cuts):
    plant, runs, reference = partition_case
    advance, work, _, _ = simulate_module._rk4_stepper(plant, *plant.assemble(), RunBatch(runs))
    edges = [0, *sorted(cuts), PARTITION_STEPS]
    for start, stop in zip(edges, edges[1:]):
        advance(start, stop)
    assert np.array_equal(work, reference)


@pytest.mark.parametrize("case", sorted({**SWITCH_CASES, **COMBINED_CASES}))
@pytest.mark.parametrize("width", [2, 12])
def test_no_call_of_a_step_writes_over_an_input_it_is_not(case, width):
    # An output that overlaps an input costs numpy a memory-overlap analysis
    # per call, unless both are one array object: every in-place call of a
    # step program passes the same view twice.
    plant, runs = switch_case(case, width)
    advance, *_ = simulate_module._rk4_stepper(plant, *plant.assemble(), RunBatch(runs))
    programs = inspect.getclosurevars(advance).nonlocals
    for mode in ("free", "pinned", "checked"):
        for calls in programs[mode]:
            for f, args in calls:
                # a masked clamp is a partial that binds its output and mask
                ufunc, bound = (f.func, f.keywords) if isinstance(f, partial) else (f, {})
                inputs = [*args[: ufunc.nin], *([bound["where"]] if "where" in bound else [])]
                outputs = [*args[ufunc.nin :], *([bound["out"]] if "out" in bound else [])]
                for x, out in product(inputs, outputs):
                    assert x is out or not np.shares_memory(x, out), (mode, ufunc.__name__)


def test_clip_ufunc_is_the_two_call_clamp():
    # The stepper clamps with numpy's private clip ufunc; a numpy that moves
    # it or changes its semantics fails here rather than in a trajectory.
    clip = simulate_module.clip
    assert isinstance(clip, np.ufunc) and (clip.nin, clip.nout) == (3, 1)
    # The pin clamp's bounds are 0 and +-inf, so a non-finite slope, NaN of
    # either sign, stays non-finite and its chunk fails its test.
    tiny = np.nextafter(0.0, 1.0)
    specials = [
        np.nan, -np.nan, -0.0, 0.0, -np.inf, np.inf, tiny, -tiny, 2.2e-308, -1e-310, 0.25, -3.0,
    ]
    bounds = [
        (0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-tiny, tiny), (tiny, 1e-300),
        (-np.inf, np.inf), (-np.inf, 0.0), (0.0, np.inf), (-0.0005, 0.0005),
    ]
    for lo, hi in bounds:
        edges = [lo, hi, *np.nextafter([lo, lo, hi, hi], [-np.inf, np.inf, -np.inf, np.inf])]
        values = np.array(specials + edges)
        # the stepper's operands: a strided view of a stacked work array and
        # a contiguous span of one
        stacked = np.zeros((4, values.size, 3))
        stacked[:, :, 1] = values
        span = np.zeros(4 * values.size + 2)
        span[1:-1] = np.tile(values, 4)
        for x in (stacked[:, :, 1], span[1:-1]):
            lo_x, hi_x = np.full(x.shape, lo), np.full(x.shape, hi)
            expected = np.maximum(np.minimum(x, hi_x), lo_x)
            out = np.empty_like(x)
            clip(x, lo_x, hi_x, out)
            assert out.tobytes() == expected.tobytes(), (lo, hi, x.ndim)
            clip(x, lo_x, hi_x, x)  # in place, as the rate and AGC-state clamps run
            assert np.ascontiguousarray(x).tobytes() == expected.tobytes(), (lo, hi, x.ndim)


def twin_batch(groups, order: int = 0) -> list:
    """Runs of the twin groups ``(seed, attacks)``, each attack ``None``
    (clean) or ``(onset, bias)``, in an order drawn from ``order``."""
    runs = [
        (
            DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=(0, 1, 2), seed=seed),
            AttackSpec() if atk is None else AttackSpec([atk[1]], start=atk[0]),
        )
        for seed, attacks in groups
        for atk in attacks
    ]
    return [runs[i] for i in np.random.default_rng(order).permutation(len(runs))]


def first_differing_step(plant, runs) -> int:
    """The first step at which a run's attack input differs from that of the
    first run with its disturbance, from the inputs sampled at every step."""
    n_steps = round(runs[0][0].horizon / plant.dt)
    times = np.arange(n_steps) * plant.dt
    fork = n_steps
    for dist, atk in runs:
        leader = next(a for d, a in runs if d == dist)
        differ = np.flatnonzero(np.any(atk.sample(times, 1) != leader.sample(times, 1), axis=0))
        if differ.size:
            fork = min(fork, int(differ[0]))
    return fork


@pytest.fixture(scope="module")
def twin_plant():
    """The plant of the twin batches, and each of their runs integrated
    alone, kept for the examples that draw the same run again."""
    plant = default_plant(**ALL_SWITCHES)
    alone = {}

    def integrated_alone(run) -> np.ndarray:
        dist, atk = run
        key = (dist.seed, atk.start, None if atk.bias is None else float(atk.bias[0]))
        if key not in alone:
            alone[key] = simulate_one(plant, dist, atk).Y
        return alone[key]

    return plant, integrated_alone


ONSETS = st.one_of(
    st.integers(0, 5).map(lambda k: 0.5 * k),  # on the sample grid, 0 included
    st.integers(0, 2999).map(lambda k: k * 1e-3),  # on the step grid
    st.floats(0.0, 2.999),  # off both grids
)
TWIN_GROUPS = st.lists(
    st.tuples(
        st.integers(21, 23),
        st.lists(
            st.one_of(st.none(), st.tuples(ONSETS, st.sampled_from([0.1, -0.05]))),
            min_size=1,
            max_size=3,
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(groups=TWIN_GROUPS, order=st.integers(0, 2**16))
@example(groups=[(21, [None, (1.2345, 0.1)])], order=0).via("off both grids, clean first")
@example(groups=[(21, [(1.5, 0.1), None])], order=0).via("on the sample grid, attacked first")
@example(groups=[(21, [None, (0.0, 0.1)])], order=0).via("an onset at 0: no prefix")
@example(groups=[(21, [None, (2.2, -0.05), (0.7, 0.1)])], order=0).via("fork at the earliest")
@example(groups=[(21, [None, None]), (22, [None])], order=1).via("duplicated clean runs")
@example(groups=[(21, [None, (0.123, 0.1)]), (22, [None, (0.6, -0.05)])], order=2).via(
    "two twin pairs"
)
def test_a_forked_twin_batch_integrates_every_run_as_alone(twin_plant, groups, order):
    plant, integrated_alone = twin_plant
    runs = twin_batch(groups, order)
    batch = RunBatch(runs)
    leaders, _, fork = simulate_module._shared_prefix(batch, 1, plant.dt, 3000)
    assert fork == (first_differing_step(plant, runs) if len(leaders) < len(runs) else 0)
    assert batch.run_steps(plant) == len(leaders) * fork + len(runs) * (3000 - fork)
    for run, traj in zip(runs, simulate_nonlinear(plant, batch)):
        assert np.array_equal(traj.Y, integrated_alone(run))


def test_twins_share_the_steps_before_the_onset():
    # a held-out run and its attacked copy: the prefix is integrated once
    plant = default_plant(**ALL_SWITCHES)
    pair = twin_batch([(21, [None, (1.5, 0.1)])])
    assert RunBatch(pair).run_steps(plant) == 1500 + 2 * 1500
    assert RunBatch(twin_batch([(21, [None, (0.0, 0.1)])])).run_steps(plant) == 2 * 3000
    assert RunBatch(twin_batch([(21, [None]), (22, [None])])).run_steps(plant) == 2 * 3000
    assert RunBatch(twin_batch([(21, [None, None])])).run_steps(plant) == 3000
    # channels given as a list make the same spec, and so a twin
    listed = DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, hold=0.3, channels=[0, 1, 2], seed=21)
    clean = twin_batch([(21, [None])])
    assert RunBatch([*clean, (listed, AttackSpec())]).run_steps(plant) == 3000


def test_limits_met_in_the_chunk_after_the_fork_match_the_loop(monkeypatch):
    # the twins' state is exactly zero until the attack switches on at step
    # 123; limits of +-1e-30 then catch the attacked AGC command within that
    # step, in the first chunk the whole batch's stepper integrates
    plant = default_plant(**{**ALL_SWITCHES, "agc_limits": (-1e-30, 1e-30)})
    quiet = step_run(0.0)[0]
    runs = [(quiet, AttackSpec()), (quiet, AttackSpec([0.1], start=123 * plant.dt))]
    assert simulate_module._shared_prefix(RunBatch(runs), 1, plant.dt, 3000)[2] == 123
    chunks = []
    clear_of_limits = simulate_module._clear_of_limits

    def recorded(agc_max, agc_min, agc_state, below, above, lo, hi):
        kept = clear_of_limits(agc_max, agc_min, agc_state, below, above, lo, hi)
        chunks.append((agc_state.shape[1], kept))
        return kept

    monkeypatch.setattr(simulate_module, "_clear_of_limits", recorded)
    trajs = simulate_nonlinear(plant, RunBatch(runs))
    assert chunks[:3] == [(1, True)] * 3  # steps 0-49, 50-99, 100-122
    assert chunks[3] == (2, False)  # steps 123-172, replayed
    assert np.abs(trajs[1].Y[AGC_OUTPUT_ROWS]).max() == 1e-30
    monkeypatch.undo()
    assert_chunks_change_no_bit(plant, runs)


@pytest.mark.parametrize("reverse", [False, True])
def test_blowup_inside_the_shared_prefix_raises_as_unforked(monkeypatch, reverse):
    # the diverging twins pass the norm cap at the first sample, before
    # their onset at 2 s
    def step(value, atk=AttackSpec()):
        spec = DisturbanceSpec(n_d=3, horizon=8.0, kind="step", step_value=value, step_time=0.0)
        return spec, atk

    plant = default_plant(blowup_norm=5e-3)
    onset = AttackSpec([0.1], start=2.0)
    runs = [step(0.0005), step(0.0005, onset), step(0.05, onset), step(0.05)]
    runs = runs[::-1] if reverse else runs
    assert simulate_module._shared_prefix(RunBatch(runs), 1, plant.dt, 8000)[2] == 2000

    def blowup() -> SimulationBlowUp:
        with pytest.raises(SimulationBlowUp) as err:
            simulate_nonlinear(plant, RunBatch(runs))
        return err.value

    forked = blowup()
    with monkeypatch.context() as mp:
        mp.setattr(
            simulate_module, "_shared_prefix", lambda batch, *_: (range(4), np.arange(4), 0)
        )
        unforked = blowup()
    # the diverging leader is the prefix stepper's second column
    assert forked.run == unforked.run == (0 if reverse else 2)
    assert forked.time == unforked.time == 0.5
    assert forked.norm == unforked.norm
    assert str(forked) == str(unforked)
