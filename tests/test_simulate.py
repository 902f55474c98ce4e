"""Disturbance generation and the linear / nonlinear simulator pair."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagfilter.agc import multivariate_topology, three_area_default, univariate_topology
from diagfilter.errors import ConfigError, SimulationBlowUp
from diagfilter.lti import LinearModel, zoh_discretize
from diagfilter.simulate import (
    AttackSpec,
    DisturbanceSpec,
    PlantConfig,
    RunBatch,
    gen_disturbance,
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


def mixed_runs(width: int = 3, n_f: int = 1) -> list:
    attacks = (
        AttackSpec.none(),
        AttackSpec.univariate(0.1, start=1.0),
        AttackSpec.multivariate(np.linspace(-0.05, 0.05, n_f), start=2.2),
    )
    return [
        (
            DisturbanceSpec(n_d=3, horizon=3.0, sigma=0.05, channels=(0, 1, 2), seed=11 + i),
            attacks[i % 3],
        )
        for i in range(width)
    ]


def switch_case(case: str, width: int) -> tuple[PlantConfig, list]:
    plant = default_plant(**SWITCH_CASES[case])
    return plant, mixed_runs(width, plant.attacks.n_f)


def assert_matches_the_loop(plant, runs):
    trajs = simulate_nonlinear(plant, RunBatch(runs))
    for (signal, atk), traj in zip(RunBatch(runs).runs, trajs):
        reference = simulate_nonlinear_loop(plant, signal, atk)
        assert traj.Y.shape == reference.shape == (25, 6)
        assert np.max(np.abs(traj.Y - reference)) <= 1e-15


def test_gaussian_disturbance_is_seeded_and_held():
    spec = DisturbanceSpec(n_d=3, horizon=5.0, sigma=0.02, hold=1.0, channels=(0, 2), seed=9)
    sig_a = gen_disturbance(spec)
    sig_b = gen_disturbance(spec)
    assert np.array_equal(sig_a.values, sig_b.values)
    # undriven channel stays zero, driven channels vary
    assert np.all(sig_a.values[:, 1] == 0.0)
    assert np.std(sig_a.values[:, 0]) > 0.0
    # held over each interval: t=0.25 and t=0.75 read the same draw
    v1 = sig_a.sample(np.array([0.25]))
    v2 = sig_a.sample(np.array([0.75]))
    v3 = sig_a.sample(np.array([1.25]))
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, v3)


def test_step_disturbance_switches_on_exactly():
    spec = DisturbanceSpec(
        n_d=2, horizon=4.0, kind="step", step_value=0.3, step_time=1.5, channels=(1,)
    )
    sig = gen_disturbance(spec)
    vals = sig.sample(np.array([0.0, 1.4999, 1.5, 3.0]))
    assert np.array_equal(vals[0], [0, 0, 0, 0])
    assert np.allclose(vals[1], [0, 0, 0.3, 0.3])


def test_disturbance_spec_validation():
    with pytest.raises(ConfigError):
        gen_disturbance(DisturbanceSpec(n_d=1, horizon=1.0, kind="ramp"))
    with pytest.raises(ConfigError):
        gen_disturbance(DisturbanceSpec(n_d=1, horizon=-1.0))
    with pytest.raises(ConfigError):
        gen_disturbance(DisturbanceSpec(n_d=1, horizon=1.0, channels=(3,)))
    with pytest.raises(ConfigError):
        gen_disturbance(DisturbanceSpec(n_d=1, horizon=1.0, hold=0.0))


def test_attack_vector_layouts():
    assert np.array_equal(AttackSpec.none().bias_vector(3), np.zeros(3))
    uni = AttackSpec.univariate(0.1, start=2.0, channel=1)
    assert np.array_equal(uni.bias_vector(3), [0, 0.1, 0])
    with pytest.raises(ConfigError):
        uni.bias_vector(1)
    multi = AttackSpec.multivariate([0.1, -0.2], start=0.0)
    assert np.array_equal(multi.bias_vector(2), [0.1, -0.2])
    with pytest.raises(ConfigError):
        multi.bias_vector(3)
    # onset boundary: sample at exactly t=start is attacked
    vals = uni.sample(np.array([1.9, 2.0, 2.5]), 3)
    assert np.array_equal(vals[1], [0.0, 0.1, 0.1])


def test_linear_step_response_matches_geometric_series():
    # x[k+1] = 0.5 x[k] + 1 from zero gives y[k] = 2 (1 - 0.5^k)
    model = scalar_model(0.5)
    spec = DisturbanceSpec(
        n_d=1, horizon=8.0, kind="step", step_value=1.0, step_time=0.0
    )
    traj = simulate_linear(model, spec, AttackSpec.none())
    k = np.arange(1, 9)
    assert np.array_equal(traj.t, k.astype(float))
    expected = 2.0 * (1.0 - 0.5**k)
    assert np.max(np.abs(traj.Y[0] - expected)) < 1e-14


def test_linear_attack_feedthrough_alignment():
    # pure feedthrough: output jumps exactly at the onset sample
    model = scalar_model(0.0)
    spec = DisturbanceSpec(n_d=1, horizon=6.0, kind="step", step_value=0.0)
    traj = simulate_linear(model, spec, AttackSpec.univariate(0.25, start=3.0))
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
        simulate_linear(cont, spec, AttackSpec.none())
    model = scalar_model(0.5)
    with pytest.raises(ConfigError):
        simulate_linear(
            model, DisturbanceSpec(n_d=1, horizon=1.3), AttackSpec.none()
        )


def test_nonlinear_reduces_to_linear_when_switches_off():
    plant = default_plant()
    spec = DisturbanceSpec(n_d=3, horizon=8.0, sigma=0.02, channels=(0, 1, 2), seed=7)
    atk = AttackSpec.univariate(0.1, start=4.0)
    lin = simulate_linear(zoh_discretize(plant.assemble()[0], plant.t_s), spec, atk)
    nl = simulate_one(plant, spec, atk)
    assert lin.Y.shape == nl.Y.shape == (25, 16)
    assert np.max(np.abs(lin.Y - nl.Y)) < 1e-9


def test_agc_saturation_clamps_command_state():
    step = DisturbanceSpec(
        n_d=3, horizon=8.0, kind="step", step_value=0.05, step_time=0.0
    )
    free = simulate_one(default_plant(), step, AttackSpec.none())
    clamped = simulate_one(
        default_plant(agc_limits=(-0.001, 0.001)), step, AttackSpec.none()
    )
    # output row 5 is area 1's AGC command
    assert np.abs(free.Y[5]).max() > 0.01
    assert np.abs(clamped.Y[5]).max() <= 0.001 + 1e-12


def test_deadband_changes_governor_response():
    spec = DisturbanceSpec(n_d=3, horizon=6.0, sigma=0.02, channels=(0, 1, 2), seed=3)
    plain = simulate_one(default_plant(), spec, AttackSpec.none())
    banded = simulate_one(default_plant(deadband=0.01), spec, AttackSpec.none())
    assert np.max(np.abs(plain.Y - banded.Y)) > 1e-6


def test_sine_tie_coupling_stays_near_linear_for_small_angles():
    spec = DisturbanceSpec(n_d=3, horizon=6.0, sigma=0.02, channels=(0, 1, 2), seed=3)
    plain = simulate_one(default_plant(), spec, AttackSpec.none())
    sine = simulate_one(default_plant(sine_ties=True), spec, AttackSpec.none())
    gap = np.max(np.abs(plain.Y - sine.Y))
    assert 0.0 < gap < 1e-3


def test_blowup_guard_raises_with_time():
    step = DisturbanceSpec(
        n_d=3, horizon=8.0, kind="step", step_value=0.05, step_time=0.0
    )
    with pytest.raises(SimulationBlowUp) as err:
        simulate_one(default_plant(blowup_norm=1e-4), step, AttackSpec.none())
    assert err.value.time > 0.0
    assert err.value.norm > 1e-4


def test_blowup_inside_a_batch_names_the_run():
    def step(value):
        spec = DisturbanceSpec(n_d=3, horizon=8.0, kind="step", step_value=value, step_time=0.0)
        return spec, AttackSpec.none()

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
    runs = [(DisturbanceSpec(n_d=3, horizon=h), AttackSpec.none()) for h in (4.0, 5.0)]
    with pytest.raises(ConfigError):
        simulate_nonlinear(default_plant(), RunBatch(runs))


LOOP_CASES = [(case, 3) for case in SWITCH_CASES] + [("all-switches", w) for w in (1, 2, 17)]


@pytest.mark.parametrize("case, width", LOOP_CASES)
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
            (21, AttackSpec.univariate(0.1, start=1.2345)),
            (22, AttackSpec.univariate(-0.05, start=0.7)),
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


def test_plant_config_validation():
    with pytest.raises(ConfigError):
        default_plant(dt=0.3).validate()  # 0.3 does not divide 0.5
    with pytest.raises(ConfigError):
        default_plant(agc_limits=(0.1, -0.1)).validate()
    with pytest.raises(ConfigError):
        default_plant(deadband=-0.1).validate()
    with pytest.raises(ConfigError):
        default_plant(rate_limit=0.0).validate()
