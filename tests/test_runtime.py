"""Batch residual evaluation and windowed-energy detection."""

import numpy as np
import pytest

from diagfilter.agc import three_area_default, univariate_topology
from diagfilter.design import (
    FilterDesign,
    design_univariate,
    gram_matrix,
    q_matrix,
    signature_energy,
)
from diagfilter.lti import assemble_dae, build_stacked, zoh_discretize
from diagfilter.runtime import (
    Detector,
    ResidualFilter,
    calibrate_threshold,
    residual_energy,
)
from diagfilter.simulate import AttackSpec, DisturbanceSpec, simulate_linear


def reference_setup(pole=0.5, d_n=3, t_s=0.5):
    from diagfilter.agc import assemble_multiarea

    model, _ = assemble_multiarea(three_area_default(), univariate_topology())
    disc = zoh_discretize(model, t_s)
    dae = assemble_dae(disc)
    stacked = build_stacked(dae, d_n)
    design = design_univariate(stacked, None, pole=pole)
    return disc, dae, stacked, design


def toy_design(nbar, d_n, pole=0.5) -> FilterDesign:
    return FilterDesign(
        nbar=np.asarray(nbar, dtype=float),
        d_n=d_n,
        pole=pole,
        mode="pure_model",
        objective=0.0,
        branch={},
    )


def test_filter_is_causal():
    disc, dae, stacked, design = reference_setup()
    filt = ResidualFilter(design, dae.L)
    rng = np.random.default_rng(9)
    Y = rng.normal(size=(disc.n_y, 30))
    base = filt.run(Y)
    Y2 = Y.copy()
    Y2[:, 20:] += rng.normal(size=(disc.n_y, 10))
    changed = filt.run(Y2)
    assert np.array_equal(base[:20], changed[:20])
    assert np.any(base[20:] != changed[20:])


def test_residual_vanishes_on_model_trajectories():
    # soundness: any disturbance-driven run of the abstract model is invisible
    disc, dae, stacked, design = reference_setup()
    filt = ResidualFilter(design, dae.L)
    for seed in range(5):
        spec = DisturbanceSpec(
            n_d=3, horizon=20.0, sigma=0.02, channels=(0, 1, 2), seed=seed
        )
        traj = simulate_linear(disc, spec, AttackSpec())
        r = filt.run(traj.Y)
        assert np.max(np.abs(r)) < 1e-8


def test_residual_responds_to_attack():
    disc, dae, stacked, design = reference_setup()
    filt = ResidualFilter(design, dae.L)
    spec = DisturbanceSpec(n_d=3, horizon=20.0, sigma=0.02, channels=(0, 1, 2), seed=0)
    traj = simulate_linear(disc, spec, AttackSpec([0.1], start=10.0))
    r = filt.run(traj.Y)
    # samples sit at t = (k+1) t_s, so the first attacked sample is index 19
    onset = int(round(10.0 / 0.5)) - 1
    assert np.max(np.abs(r[:onset])) < 1e-8
    assert np.max(np.abs(r[onset:])) > 1e-4


def test_scalar_filter_reproduces_difference_equation():
    # single output, L = identity: r[k] = n0 y[k-1] + n1 y[k] - a0 r[k-1]
    design = toy_design([0.25, 0.5], d_n=1)
    filt = ResidualFilter(design, np.eye(1))
    a0, a1 = design.a_coeffs
    rng = np.random.default_rng(10)
    y = rng.normal(size=12)
    r = filt.run(y[None, :])
    r_prev = 0.0
    for k in range(12):
        y_prev = y[k - 1] if k else 0.0
        expected = (0.25 * y_prev + 0.5 * y[k] - a0 * r_prev) / a1
        assert abs(r[k] - expected) < 1e-14
        r_prev = r[k]


def test_run_rejects_wrong_output_count():
    design = toy_design([0.25, 0.5], d_n=1)
    filt = ResidualFilter(design, np.eye(1))
    with pytest.raises(ValueError, match="expected 1 outputs, got 2"):
        filt.run(np.zeros((2, 5)))


def test_windowed_energy_matches_direct_loop():
    rng = np.random.default_rng(11)
    r = rng.normal(size=25)
    for window in (1, 4, 25, 40):
        fast = residual_energy(r, window)
        for c in range(25):
            lo = max(c + 1 - window, 0)
            direct = np.sqrt(np.sum(r[lo : c + 1] ** 2))
            assert abs(fast[c] - direct) < 1e-12
    with pytest.raises(ValueError):
        residual_energy(r, 0)


def test_detector_latches_first_crossing_and_skips_warmup():
    det = Detector(tau_star=1.0, margin=0.5, window=3, warmup=3)
    assert det.threshold == 1.5
    # a warm-up spike leaves the window before sample 3, so it never alarms;
    # the later crossing latches at its first sample
    r = np.array([50.0, 0.0, 0.0, 0.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0])
    report = det.evaluate(r)
    assert report.alarm
    assert report.first_index == 4
    assert np.array_equal(np.nonzero(report.above)[0], [4, 5, 6, 7])
    assert report.max_energy >= 50.0
    quiet = det.evaluate(np.full(10, 0.1))
    assert not quiet.alarm and quiet.first_index is None


def test_calibration_uses_worst_training_energy():
    rng = np.random.default_rng(12)
    disc, dae, stacked, design = reference_setup()
    a = design.a_coeffs
    g = gram_matrix(a, 10)
    sigs = [rng.normal(scale=0.01, size=(stacked.n_y, 10)) for _ in range(4)]
    energies = [signature_energy(stacked, design.nbar, s, g) for s in sigs]
    det = calibrate_threshold(design, energies, margin=0.05, window=20)
    worst = max(float(design.nbar @ q_matrix(stacked, s, g) @ design.nbar) for s in sigs)
    assert abs(det.tau_star - np.sqrt(worst)) < 1e-12
    assert det.warmup == design.d_n
    assert det.threshold == det.tau_star + 0.05


def test_calibration_without_data_runs_on_margin():
    _, _, _, design = reference_setup()
    det = calibrate_threshold(design, [], margin=0.02, window=20)
    assert det.tau_star == 0.0
    assert det.threshold == 0.02
    with pytest.raises(ValueError):
        calibrate_threshold(design, [], margin=-0.1, window=20)


def test_replaying_training_data_stays_under_calibrated_threshold():
    # for signatures that start at rest (first d_n samples zero, which kills
    # the warm-up boundary terms) the deployed filter reproduces the
    # quadratic-form energy exactly, so replaying the training set cannot
    # push past the calibrated tau_star
    rng = np.random.default_rng(13)
    disc, dae, stacked, design = reference_setup()
    horizon = 12
    g = gram_matrix(design.a_coeffs, horizon)
    sigs = []
    for _ in range(4):
        sig = rng.normal(scale=0.01, size=(stacked.n_y, horizon))
        sig[:, : design.d_n] = 0.0
        sigs.append(sig)
    det = calibrate_threshold(
        design, [signature_energy(stacked, design.nbar, s, g) for s in sigs], 1e-9, horizon
    )
    filt = ResidualFilter(design, dae.L)
    energies = []
    for sig, q in zip(sigs, [q_matrix(stacked, s, g) for s in sigs]):
        r = filt.run(sig)
        energy = residual_energy(r, horizon)[-1]
        energies.append(energy)
        form = np.sqrt(float(design.nbar @ q @ design.nbar))
        assert abs(energy - form) < 1e-10 * (1.0 + form)
        assert energy <= det.threshold + 1e-9
    # the worst replay sits exactly at the calibrated level
    assert abs(max(energies) - det.tau_star) < 1e-10
