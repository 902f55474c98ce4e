"""Text artefact formats: exact round-trips and loud failure on tampering."""

import numpy as np
import pytest

from diagfilter.agc import three_area_default, univariate_topology
from diagfilter.config import ExperimentConfig, default_config, multivariate_default_config
from diagfilter.design import (
    FilterDesign,
    design_multivariate,
    design_univariate,
    pretrain_multivariate,
)
from diagfilter.errors import ConfigError
from diagfilter.lti import assemble_dae, build_stacked, zoh_discretize
from diagfilter.matio import (
    load_filter,
    load_matrix,
    load_trajectory,
    model_config_hash,
    save_filter,
    save_matrix,
    save_residual_trace,
    save_trajectory,
    sidecar_path,
)
from diagfilter.pipeline import build_context
from diagfilter.shiftpoly import pole_polynomial

# the configuration values a design read, which save_filter records: those
# of the reference design, which the artefact takes from here
RECORD = {
    "filter.d_n": 3,
    "filter.pole": 0.5,
    "mode": "pure_model",
    "filter.track_steady_state": False,
}


@pytest.fixture(scope="module")
def reference_design():
    from diagfilter.agc import assemble_multiarea

    model, _ = assemble_multiarea(three_area_default(), univariate_topology())
    dae = assemble_dae(zoh_discretize(model, 0.5))
    stacked = build_stacked(dae, 3)
    return stacked, design_univariate(stacked, None, pole=0.5)


def test_matrix_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    exponents = rng.integers(-300, 300, size=(4, 3)).astype(float)
    mat = rng.normal(size=(4, 3)) * 10.0**exponents
    mat[0, 0] = 0.0
    mat[1, 1] = -1.0 / 3.0
    path = tmp_path / "m.csv"
    save_matrix(path, mat)
    header = path.read_text().splitlines()[0]
    assert header == "# 4 3"
    assert np.array_equal(load_matrix(path), mat)


def test_csv_bytes_are_pinned(tmp_path):
    # %.17g floats, comma-separated, "\n" line ends; the residual trace's
    # bytes are pinned in test_residual_trace_format
    path = tmp_path / "m.csv"
    save_matrix(path, np.array([[-0.0, 1.0 / 3.0], [1e-300, 2.5]]))
    assert path.read_bytes() == b"# 2 2\n-0,0.33333333333333331\n1e-300,2.5\n"
    save_trajectory(path, np.array([0.5, 1.0]), np.array([[0.1, -0.2], [1e-5, 0.0]]), {})
    assert path.read_bytes() == (
        b"t,y_1,y_2\n0.5,0.10000000000000001,1.0000000000000001e-05\n"
        b"1,-0.20000000000000001,0\n"
    )


def test_matrix_loader_rejects_defects(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n")
    with pytest.raises(ConfigError, match="header"):
        load_matrix(path)
    path.write_text("# two three\n1,2,3\n")
    with pytest.raises(ConfigError, match="malformed"):
        load_matrix(path)
    path.write_text("# 2 2\n1,2\n")
    with pytest.raises(ConfigError, match="rows"):
        load_matrix(path)
    path.write_text("# 1 3\n1,2\n")
    with pytest.raises(ConfigError, match="values"):
        load_matrix(path)


def test_trajectory_round_trip_with_sidecar(tmp_path):
    rng = np.random.default_rng(2)
    t = np.arange(1, 6) * 0.5
    y = rng.normal(size=(3, 5))
    meta = {"seed": 7, "t_s": 0.5, "note": "smoke"}
    path = tmp_path / "traj.csv"
    save_trajectory(path, t, y, meta)
    assert sidecar_path(path) == tmp_path / "traj.meta.json"
    assert path.read_text().splitlines()[0] == "t,y_1,y_2,y_3"
    t2, y2, meta2 = load_trajectory(path)
    assert np.array_equal(t, t2)
    assert np.array_equal(y, y2)
    assert meta2 == meta


def test_trajectory_shape_and_header_checks(tmp_path):
    path = tmp_path / "traj.csv"
    with pytest.raises(ValueError):
        save_trajectory(path, np.arange(3.0), np.zeros((2, 4)), {})
    path.write_text("x,y\n0,1\n")
    with pytest.raises(ConfigError, match="header"):
        load_trajectory(path)
    path.write_text("t,y_1,y_2\n0.5,1.0\n")
    with pytest.raises(ConfigError, match="columns"):
        load_trajectory(path)
    # every row one column short of the header: rejected, not reshaped
    path.write_text("t,y_1,y_2\n0.5,1.0\n1.0,2.0\n")
    with pytest.raises(ConfigError, match="columns"):
        load_trajectory(path)


def test_residual_trace_format(tmp_path):
    path = tmp_path / "trace.csv"
    save_residual_trace(
        path,
        np.array([0.5, 1.0]),
        np.array([0.1, -0.2]),
        np.array([0.1, 0.25]),
        np.array([False, True]),
    )
    assert path.read_bytes() == (
        b"t,r,energy,alarm\n0.5,0.10000000000000001,0.10000000000000001,0\n"
        b"1,-0.20000000000000001,0.25,1\n"
    )


def test_model_hash_ignores_key_order_but_not_values():
    cfg_a = {"areas": [1, 2], "attacks": {"x": 1.0, "y": 2.0}}
    cfg_b = {"attacks": {"y": 2.0, "x": 1.0}, "areas": [1, 2]}
    assert model_config_hash(cfg_a) == model_config_hash(cfg_b)
    cfg_c = {"areas": [1, 2], "attacks": {"x": 1.0000000001, "y": 2.0}}
    assert model_config_hash(cfg_a) != model_config_hash(cfg_c)


def test_filter_artefact_round_trip(tmp_path, reference_design):
    stacked, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 2.5e-6)
    loaded, model_hash = load_filter(
        path, expected_hash="abc123", stacked=stacked, expected_config=RECORD
    )
    assert model_hash == "abc123"
    assert np.array_equal(loaded.nbar, design.nbar)
    assert np.array_equal(loaded.a_coeffs, design.a_coeffs)
    assert loaded.d_n == design.d_n
    assert loaded.n_r == design.n_r
    assert loaded.pole == design.pole
    assert loaded.mode == design.mode
    assert loaded.branch == design.branch
    assert loaded.objective == design.objective
    assert loaded.diagnostics["tau_star"] == 2.5e-6


@pytest.mark.parametrize(
    "branch, fits",
    [
        ({"coeff_index": 3, "sign": -1}, True),
        ({"coeff_index": 4, "sign": 1}, False),
        ({"coeff_index": 0, "sign": 2}, False),
        ({"coeff_index": 0, "sign": True}, False),
        ({"coeff_index": 1, "program": 4, "sign": 1}, False),
        ([0, 1], False),
    ],
    ids=["last-coefficient", "coeff-past-the-order", "sign-two", "sign-a-bool",
         "program-of-a-univariate-design", "not-an-object"],
)
def test_filter_artefact_branch_is_one_a_univariate_design_chooses(
    tmp_path, reference_design, branch, fits
):
    # the reference design is of order 3 and its record names no attack polytope
    stacked, design = reference_design
    design = FilterDesign(**{**vars(design), "branch": branch})
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 2.5e-6)
    if fits:
        assert load_filter(path, stacked=stacked)[0].branch == branch
    else:
        with pytest.raises(ConfigError, match="malformed filter artefact: branch"):
            load_filter(path, stacked=stacked)


def test_filter_artefact_stores_each_value_once(tmp_path, reference_design):
    _, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 2.5e-6)
    tag, *lines = path.read_text().splitlines()
    assert tag == "residual-filter-v2"
    keys = [line.partition(":")[0] for line in lines]
    assert keys == ["model_hash", "objective", "branch", "tau_star", "config", "nbar"]


@pytest.mark.parametrize("kind", ["univariate", "multivariate"])
def test_filter_artefact_takes_order_pole_mode_and_tracking_from_its_record(tmp_path, kind):
    raw = default_config() if kind == "univariate" else multivariate_default_config()
    raw["mode"] = "pure_model"
    raw["filter"].update(d_n=2, pole=0.3)
    cfg = ExperimentConfig.from_dict(raw)
    ctx = build_context(cfg)
    if kind == "univariate":
        design = design_univariate(ctx.stacked, None, pole=0.3, track_steady_state=True)
    else:
        j = pretrain_multivariate(ctx.stacked, ctx.attack_model).j_star
        design = design_multivariate(ctx.stacked, None, ctx.attack_model, j, pole=0.3)
    record = cfg.design_record()
    path = tmp_path / "filter.txt"
    save_filter(path, design, ctx.model_hash, record, 0.0)
    loaded, _ = load_filter(
        path, expected_hash=ctx.model_hash, stacked=ctx.stacked, expected_config=record
    )
    assert (loaded.d_n, loaded.pole, loaded.mode, loaded.track_steady_state) == (
        record["filter.d_n"],
        record["filter.pole"],
        record["mode"],
        record["filter.track_steady_state"],
    )
    assert np.array_equal(loaded.a_coeffs, pole_polynomial(0.3, 2))
    assert loaded.n_r == ctx.stacked.n_r


@pytest.mark.parametrize(
    "name, value",
    [
        ("filter.d_n", 2),
        ("filter.pole", 0.6),
        ("mode", "data_assisted"),
        ("filter.track_steady_state", True),
    ],
)
def test_save_filter_refuses_a_record_that_disagrees_with_the_design(
    tmp_path, reference_design, name, value
):
    _, design = reference_design
    path = tmp_path / "filter.txt"
    with pytest.raises(ValueError, match=f"the record gives {name} = "):
        save_filter(path, design, "abc123", {**RECORD, name: value}, 0.0)
    assert not path.exists()


def test_filter_artefact_round_trip_with_a_pole_near_one(tmp_path, reference_design):
    # at pole 0.999 the denominator's coefficients reach 3e9 and sum to one
    # only to round-off (6e-7 off)
    stacked, _ = reference_design
    design = design_univariate(stacked, None, pole=0.999)
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", {**RECORD, "filter.pole": 0.999}, 0.0)
    loaded, _ = load_filter(path, stacked=stacked)
    assert np.array_equal(loaded.a_coeffs, design.a_coeffs)


def edit_lines(path, key, edit) -> None:
    """Replace each line of the entry ``key`` by ``edit(line)`` (a list of lines)."""
    lines = []
    for ln in path.read_text().splitlines():
        lines += edit(ln) if ln.startswith(f"{key}:") else [ln]
    path.write_text("\n".join(lines) + "\n")


def test_filter_artefact_rejects_tampering(tmp_path, reference_design):
    stacked, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 0.0)

    # wrong format tag
    other = tmp_path / "other.txt"
    other.write_text("some-other-format\n")
    with pytest.raises(ConfigError, match="artefact"):
        load_filter(other)

    # hash mismatch against the deployment model
    with pytest.raises(ConfigError, match="different model"):
        load_filter(path, expected_hash="def456")

    # corrupt one coefficient: decoupling check must fire
    def corrupt(ln):
        vals = ln.split()
        vals[1] = "0.5"
        return [" ".join(vals)]

    edit_lines(path, "nbar", corrupt)
    with pytest.raises(ConfigError, match="decoupling"):
        load_filter(path, stacked=stacked)
    # without the stacked system the corruption is structurally invisible
    loaded, _ = load_filter(path)
    assert loaded.nbar[0] == 0.5


def test_filter_artefact_pole_comes_from_its_record(tmp_path, reference_design):
    # the record is the one copy of the pole: an edit of it is the filter
    # loaded, and refused against the configuration the design read
    _, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 0.0)
    edit_lines(path, "config", lambda ln: [ln.replace('"filter.pole": 0.5', '"filter.pole": 0.6')])
    loaded, _ = load_filter(path)
    assert loaded.pole == 0.6
    assert np.array_equal(loaded.a_coeffs, pole_polynomial(0.6, 3))
    refusal = "designed with filter.pole = 0.6, the configuration gives 0.5"
    with pytest.raises(ConfigError, match=refusal):
        load_filter(path, expected_config=RECORD)


@pytest.mark.parametrize("key", ["nbar", "config", "tau_star"])
def test_filter_artefact_rejects_a_duplicated_entry(tmp_path, reference_design, key):
    # a second line used to win silently
    _, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 0.0)
    edit_lines(path, key, lambda ln: [ln, ln])
    with pytest.raises(ConfigError, match=f"duplicated entry '{key}'"):
        load_filter(path)


def test_filter_artefact_rejects_an_unknown_or_missing_entry(tmp_path, reference_design):
    _, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 0.0)
    text = path.read_text()
    path.write_text(text + "pole: 0.5\n")
    with pytest.raises(ConfigError, match="unknown entry 'pole'"):
        load_filter(path)
    path.write_text(text)
    edit_lines(path, "tau_star", lambda ln: [])
    with pytest.raises(ConfigError, match="no tau_star entry"):
        load_filter(path)


def test_filter_artefact_rejects_truncated_coefficients(tmp_path, reference_design):
    _, design = reference_design
    path = tmp_path / "filter.txt"
    save_filter(path, design, "abc123", RECORD, 0.0)
    edit_lines(path, "nbar", lambda ln: [" ".join(ln.split()[:-1])])
    with pytest.raises(ConfigError, match="coefficient vector"):
        load_filter(path)
