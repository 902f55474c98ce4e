"""The configuration table's rules, on the JSON path and on directly built types alike."""

import copy
import json
from math import inf, nan

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diagfilter.agc import three_area_default, univariate_topology
from diagfilter.cli import EXIT_CONFIG, EXIT_OK, main
from diagfilter.config import ExperimentConfig, default_config
from diagfilter.errors import ConfigError
from diagfilter.simulate import DisturbanceSpec, PlantConfig

DEFAULT = default_config()
HUGE = 10**400  # an integer too large for a float
SPECIAL = st.sampled_from([inf, -inf, nan, True, False, HUGE, -HUGE])
REALS = st.floats(allow_nan=False, allow_infinity=False)


def drawn(finite):
    """``finite`` values, and the values no real field takes."""
    return st.one_of(finite, SPECIAL)


def tuples(entries, max_size: int = 3):
    return st.lists(entries, max_size=max_size).map(tuple)


# Each attribute of a directly built type, the configuration field whose
# rule it follows, and the values drawn for it.  A spec's draw holds
# ceil(horizon / hold) + 1 rows, so its horizons and holds are drawn where
# that stays small: a draw that fits in memory is made, and the test should
# not make large ones.  One that does not fit is refused by a memory check,
# not a field's rule (pinned below).
PLANT_EDITS = {
    "t_s": drawn(REALS),
    "dt": drawn(REALS),
    "deadband": drawn(REALS),
    "agc_limits": st.none() | drawn(REALS) | tuples(drawn(REALS)),
    "sine_ties": drawn(REALS),
    "rate_limit": st.none() | drawn(REALS),
}
SPEC_EDITS = {
    "horizon": ("train.horizon_seconds", drawn(st.integers(-4, 40).map(lambda k: 0.5 * k))),
    "sigma": ("train.sigma", drawn(REALS)),
    "hold": ("train.hold_seconds", drawn(st.floats(-1e3, 1e3).filter(lambda v: not 0 < v < 0.01))),
    "channels": ("train.channels", st.none() | drawn(REALS) | tuples(drawn(st.integers(-1, 3) | REALS))),
    "seed": ("seed", drawn(st.integers(-3, 3) | REALS)),
}
EDITS = st.one_of(
    *(
        st.tuples(st.just(("plant", attr, f"plant.{attr}")), values)
        for attr, values in PLANT_EDITS.items()
    ),
    *(st.tuples(st.just(("spec", attr, name)), values) for attr, (name, values) in SPEC_EDITS.items()),
)


def refused_by_field(build, name: str) -> bool:
    """Whether ``build()`` refuses the value by the rule of the field ``name``.

    Any other ConfigError (a rule between fields) counts as no refusal, and
    any other exception fails the test.
    """
    try:
        build()
    except ConfigError as exc:
        return str(exc).startswith(f"{name} ")
    return False


def from_dict_with(name: str, value):
    raw = copy.deepcopy(DEFAULT)
    section, _, key = name.rpartition(".")
    (raw[section] if section else raw)[key] = value
    return ExperimentConfig.from_dict(raw)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edit=EDITS)
@example(edit=(("plant", "t_s", "plant.t_s"), inf))
@example(edit=(("plant", "t_s", "plant.t_s"), nan))
@example(edit=(("plant", "deadband", "plant.deadband"), nan))
@example(edit=(("plant", "deadband", "plant.deadband"), True))
@example(edit=(("plant", "rate_limit", "plant.rate_limit"), nan))
@example(edit=(("spec", "horizon", "train.horizon_seconds"), nan))
@example(edit=(("spec", "sigma", "train.sigma"), nan))
@example(edit=(("spec", "sigma", "train.sigma"), inf))
@example(edit=(("spec", "sigma", "train.sigma"), -0.0))
@example(edit=(("spec", "channels", "train.channels"), (True,)))
@example(edit=(("spec", "hold", "train.hold_seconds"), 1e-300))
def test_direct_types_refuse_exactly_what_the_configuration_refuses(edit):
    (owner, attr, name), value = edit
    if owner == "plant":

        def build():
            plant = PlantConfig(
                areas=three_area_default(), attacks=univariate_topology(), **{attr: value}
            )
            plant.validate()

    else:

        def build():
            DisturbanceSpec(**{"n_d": 3, "horizon": 1.0, attr: value})

    json_value = list(value) if isinstance(value, tuple) else value
    expected = refused_by_field(lambda: from_dict_with(name, json_value), name)
    assert refused_by_field(build, name) == expected


def test_a_disturbance_spec_takes_the_channels_the_configuration_takes():
    # null drives every load input, and a whole float is the channel it names
    assert DisturbanceSpec(n_d=3, horizon=1.0, channels=None).channels == (0, 1, 2)
    spec = DisturbanceSpec(n_d=3, horizon=1.0, channels=[2.0], seed=4.0)
    assert (spec.channels, spec.seed) == ((2,), 4)
    with pytest.raises(ConfigError, match="train.channels must be a finite number"):
        DisturbanceSpec(n_d=3, horizon=1.0, channels=(True,))


def count_edge_config(train_horizon: float) -> dict:
    cfg = default_config()
    cfg["plant"].update(t_s=100.0, dt=0.5)
    cfg["filter"]["window_seconds"] = 1000.0
    cfg["train"].update(m=1, horizon_seconds=train_horizon)
    cfg["test"].update(horizon_seconds=1000.0, onset_seconds=500.0)
    return cfg


def test_a_count_the_configuration_accepts_is_the_count_the_simulator_takes(tmp_path):
    # 1000.00000005 s is 10 + 5e-10 sampling periods of 100 s, within the
    # 1e-9 a count may fall from a whole number, so the configuration takes
    # it as 10 samples, and so does the simulator
    cfg = count_edge_config(1000.00000005)
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "edge"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "train" / "training_summary.json").read_text())
    assert (summary["horizon_samples"], summary["rk4_run_steps"]) == (10, 10 * 200)
    # 5e-9 periods off a whole number: refused before anything is written
    cfg = count_edge_config(1000.0000005)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "refused"
    assert main(["train", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
