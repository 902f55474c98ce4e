"""Multi-area AGC model assembly: layout, physics entries, attack routing."""

import numpy as np
import pytest

from diagfilter.agc import (
    AreaParams,
    AttackChannel,
    AttackTopology,
    GeneratorParams,
    areas_from_dict,
    areas_to_dict,
    assemble_multiarea,
    build_area,
    multivariate_topology,
    output_labels,
    state_labels,
    three_area_default,
    univariate_topology,
)
from diagfilter.errors import ConfigError


def test_default_network_dimensions():
    model, index = assemble_multiarea(three_area_default(), univariate_topology())
    assert (model.n_x, model.n_y, model.n_d, model.n_f) == (19, 25, 3, 1)
    mv, _ = assemble_multiarea(three_area_default(), multivariate_topology())
    assert mv.n_f == 5
    assert index.omega_row == {1: 2, 2: 8, 3: 15}
    assert index.agc_row == {1: 5, 2: 12, 3: 18}


def test_state_and_output_label_order():
    areas = three_area_default()
    labels = state_labels(areas)
    assert labels[:6] == [
        "tie_1_2",
        "tie_1_3",
        "omega_1",
        "pmech_1_1",
        "pmech_1_2",
        "pagc_1",
    ]
    assert labels[6] == "tie_2_1"
    assert len(labels) == 19
    out = output_labels(areas)
    assert len(out) == 25
    assert out[6] == "tie_total_1"
    assert out[7] == "pmech_total_1"


def test_single_area_entries_match_formulas():
    # area 1 of the default network, checked entry by entry
    area = three_area_default()[0]
    a, b_d, c = build_area(area)
    inv_2h = 1.0 / (2.0 * 5.0)
    # tie states integrate stiffness * own frequency
    assert a[0, 2] == 0.545 and a[1, 2] == 0.545
    # swing equation row
    assert a[2, 0] == -inv_2h and a[2, 1] == -inv_2h
    assert a[2, 2] == -1.0 * inv_2h
    assert a[2, 3] == inv_2h and a[2, 4] == inv_2h
    # governor rows: -1/(t_ch*droop) on omega, -1/t_ch on self, part/t_ch on AGC
    assert abs(a[3, 2] - (-1.0 / (0.30 * 0.05))) < 1e-12
    assert abs(a[3, 3] - (-1.0 / 0.30)) < 1e-12
    assert abs(a[3, 5] - (0.6 / 0.30)) < 1e-12
    assert abs(a[4, 2] - (-1.0 / (0.40 * 0.05))) < 1e-12
    # ACE integration row
    assert a[5, 0] == -0.3 and a[5, 1] == -0.3
    assert abs(a[5, 2] - (-0.3 * 20.0)) < 1e-12
    # load enters the swing equation only
    assert b_d[2, 0] == -inv_2h
    assert np.count_nonzero(b_d) == 1
    # outputs: states, then tie aggregate, then mechanical aggregate
    assert np.array_equal(c[:6], np.eye(6))
    assert np.array_equal(c[6], [1, 1, 0, 0, 0, 0])
    assert np.array_equal(c[7], [0, 0, 0, 1, 1, 0])


def test_cross_area_tie_coupling():
    model, index = assemble_multiarea(three_area_default(), univariate_topology())
    # d/dt tie_1_2 = 0.545 (omega_1 - omega_2)
    assert model.A[0, index.omega_row[1]] == 0.545
    assert model.A[0, index.omega_row[2]] == -0.545
    # the opposite direction state lives in area 2's block
    row_21 = state_labels(three_area_default()).index("tie_2_1")
    assert model.A[row_21, index.omega_row[2]] == 0.545
    assert model.A[row_21, index.omega_row[1]] == -0.545


def test_tie_pairs_conserve_flow():
    # each directed tie pair sums to an invariant: rows add to zero
    model, _ = assemble_multiarea(three_area_default(), univariate_topology())
    labels = state_labels(three_area_default())
    pairs = [("tie_1_2", "tie_2_1"), ("tie_1_3", "tie_3_1"), ("tie_2_3", "tie_3_2")]
    for fwd, back in pairs:
        i, j = labels.index(fwd), labels.index(back)
        assert np.max(np.abs(model.A[i] + model.A[j])) < 1e-12
    # those invariants show up as exactly four marginal eigenvalues
    eig = np.linalg.eigvals(model.A)
    assert int(np.sum(np.abs(eig) < 1e-9)) == 4
    assert np.max(eig.real[np.abs(eig) > 1e-9]) < -0.05


def test_attack_columns_route_to_outputs_and_ace():
    model, index = assemble_multiarea(three_area_default(), univariate_topology())
    # unit feedthrough on the attacked tie reading (first output of area 1)
    d_col = model.D_f[:, 0]
    assert d_col[0] == 1.0 and np.count_nonzero(d_col) == 1
    # the corrupted reading also biases area 1's AGC integrator
    b_col = model.B_f[:, 0]
    assert b_col[index.agc_row[1]] == -0.3
    assert np.count_nonzero(b_col) == 1


def test_aggregate_attack_is_measurement_only():
    topo = AttackTopology([AttackChannel(area=1, target="tie_total")])
    model, index = assemble_multiarea(three_area_default(), topo)
    assert np.count_nonzero(model.B_f) == 0
    # tie_total_1 is output row 6
    assert model.D_f[6, 0] == 1.0 and np.count_nonzero(model.D_f) == 1


def test_ace_attack_gain_override():
    areas = three_area_default()
    areas[0].ace_attack_gain = 0.0
    model, _ = assemble_multiarea(areas, univariate_topology())
    assert np.count_nonzero(model.B_f) == 0


def test_parameter_validation_rejects_defects():
    good = three_area_default()[0]
    with pytest.raises(ConfigError):
        AreaParams(
            area_id=1,
            inertia=-1.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=good.generators,
        ).validate()
    with pytest.raises(ConfigError):
        AreaParams(
            area_id=1,
            inertia=5.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=[GeneratorParams(0.3, 0.05, 0.7)],
        ).validate()
    with pytest.raises(ConfigError):
        AreaParams(
            area_id=1,
            inertia=5.0,
            damping=1.0,
            bias=20.0,
            agc_gain=0.3,
            generators=good.generators,
            neighbors={1: 0.5},
        ).validate()


def test_asymmetric_ties_rejected():
    areas = three_area_default()
    del areas[1].neighbors[1]
    with pytest.raises(ConfigError):
        assemble_multiarea(areas, univariate_topology())
    areas = three_area_default()
    areas[1].neighbors[1] = 0.9
    with pytest.raises(ConfigError):
        assemble_multiarea(areas, univariate_topology())


def test_attack_channel_validation():
    with pytest.raises(ConfigError):
        AttackChannel(area=1, target="frequency").validate()
    with pytest.raises(ConfigError):
        AttackChannel(area=1, target="tie").validate()
    topo = AttackTopology([AttackChannel(area=1, target="tie", neighbor=9)])
    with pytest.raises(ConfigError):
        assemble_multiarea(three_area_default(), topo)


def test_config_round_trip_preserves_model():
    areas = three_area_default()
    topo = multivariate_topology()
    cfg = areas_to_dict(areas, topo)
    areas2, topo2 = areas_from_dict(cfg)
    m1, _ = assemble_multiarea(areas, topo)
    m2, _ = assemble_multiarea(areas2, topo2)
    for name in ("A", "B_d", "B_f", "C", "D_f"):
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_config_loader_rejects_undamped_loop():
    cfg = areas_to_dict(three_area_default(), univariate_topology())
    for ad in cfg["areas"]:
        ad["agc_gain"] = 60.0
    with pytest.raises(ConfigError, match="damp"):
        areas_from_dict(cfg)


def test_config_loader_reports_malformed_input():
    with pytest.raises(ConfigError, match="malformed"):
        areas_from_dict({"areas": [{"id": 1}]})


# (path into the model section, value): each defect the loader must reject
MODEL_NUMBER_DEFECTS = [
    *[
        (path, value)
        for path in (
            ("areas", 0, "inertia"),
            ("areas", 0, "damping"),
            ("areas", 0, "bias"),
            ("areas", 0, "agc_gain"),
            ("areas", 0, "generators", 0, "droop"),
            ("areas", 0, "generators", 0, "participation"),
            ("areas", 0, "neighbors", "2"),
        )
        for value in (float("nan"), float("inf"), "5.0", True)
    ],
    (("areas", 0, "id"), 1.5),
    (("attacks", 0, "area"), 1.5),
    (("attacks", 0, "neighbor"), 2.7),
    (("areas", 0, "neighbors", 2.5), 0.545),
    # finite, but the assembled matrices or their spectrum overflow
    (("areas", 0, "inertia"), 1e-320),
    (("areas", 0, "agc_gain"), 1e308),
    (("areas", 0, "neighbors", "2"), 1e308),
]


@pytest.mark.parametrize("path, value", MODEL_NUMBER_DEFECTS)
def test_config_loader_applies_the_number_rule(path, value):
    cfg = areas_to_dict(three_area_default(), univariate_topology())
    *parents, key = path
    holder = cfg
    for name in parents:
        holder = holder[name]
    holder[key] = value
    with pytest.raises(ConfigError):
        areas_from_dict(cfg)
