"""State-space models, sampling, and the stacked polynomial form."""

import numpy as np
import pytest

from diagfilter.lti import (
    LinearModel,
    assemble_dae,
    build_stacked,
    reachable_subspace,
    split_decay_rates,
    zoh_discretize,
)
from refimpl import zoh_bruteforce


def random_model(rng, n_x=3, n_d=2, n_f=1, n_y=2, dt=None) -> LinearModel:
    a = rng.normal(size=(n_x, n_x))
    if dt is None:
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n_x)
    else:
        a = 0.5 * a / max(np.max(np.abs(np.linalg.eigvals(a))), 1.0)
    return LinearModel(
        A=a,
        B_d=rng.normal(size=(n_x, n_d)),
        B_f=rng.normal(size=(n_x, n_f)),
        C=rng.normal(size=(n_y, n_x)),
        D_f=rng.normal(size=(n_y, n_f)),
        dt=dt,
    )


def test_model_shape_validation():
    with pytest.raises(ValueError):
        LinearModel(
            A=np.eye(2),
            B_d=np.zeros((3, 1)),
            B_f=np.zeros((2, 1)),
            C=np.eye(2),
            D_f=np.zeros((2, 1)),
        )


def test_zoh_integrator_exact():
    model = LinearModel(
        A=np.zeros((1, 1)),
        B_d=np.ones((1, 1)),
        B_f=np.zeros((1, 1)),
        C=np.ones((1, 1)),
        D_f=np.zeros((1, 1)),
    )
    disc = zoh_discretize(model, 0.25)
    assert abs(disc.A[0, 0] - 1.0) < 1e-14
    assert abs(disc.B_d[0, 0] - 0.25) < 1e-14
    assert disc.dt == 0.25


def test_zoh_matches_series_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        model = random_model(rng)
        t_s = float(rng.uniform(0.05, 0.6))
        disc = zoh_discretize(model, t_s)
        b_all = np.hstack([model.B_d, model.B_f])
        ad_ref, bd_ref = zoh_bruteforce(model.A, b_all, t_s)
        assert np.max(np.abs(disc.A - ad_ref)) < 1e-10
        assert np.max(np.abs(np.hstack([disc.B_d, disc.B_f]) - bd_ref)) < 1e-10
        # sampling never touches the output map
        assert np.array_equal(disc.C, model.C)
        assert np.array_equal(disc.D_f, model.D_f)


def test_zoh_rejects_discrete_input():
    rng = np.random.default_rng(0)
    disc = random_model(rng, dt=0.5)
    with pytest.raises(ValueError):
        zoh_discretize(disc, 0.5)


def test_dae_block_layout():
    rng = np.random.default_rng(11)
    model = random_model(rng, dt=0.5)
    dae = assemble_dae(model)
    n_x, n_d, n_y, n_f = model.n_x, model.n_d, model.n_y, model.n_f
    assert dae.n_r == n_x + n_y
    assert dae.n_c == n_x + n_d
    h0_expected = np.block([[model.A, model.B_d], [model.C, np.zeros((n_y, n_d))]])
    h1_expected = np.block(
        [[-np.eye(n_x), np.zeros((n_x, n_d))], [np.zeros((n_y, n_x + n_d))]]
    )
    assert np.array_equal(dae.H0, h0_expected)
    assert np.array_equal(dae.H1, h1_expected)
    assert np.array_equal(dae.L, np.vstack([np.zeros((n_x, n_y)), -np.eye(n_y)]))
    assert np.array_equal(dae.F, np.vstack([model.B_f, model.D_f]))


def test_dae_annihilates_model_trajectories():
    # H(q) [x; d] + L y = 0 along every simulated transition
    rng = np.random.default_rng(4)
    model = random_model(rng, dt=0.5)
    dae = assemble_dae(model)
    x = rng.normal(size=model.n_x)
    for _ in range(10):
        d = rng.normal(size=model.n_d)
        x_next = model.A @ x + model.B_d @ d
        y = model.C @ x
        xbar = np.concatenate([x, d])
        xbar_next = np.concatenate([x_next, rng.normal(size=model.n_d)])
        resid = dae.H0 @ xbar + dae.H1 @ xbar_next + dae.L @ y
        assert np.max(np.abs(resid)) < 1e-12
        x = x_next


def test_stacked_encodes_polynomial_product():
    # row-block i of barH holds q^i H(q); left-multiplying by a stacked
    # coefficient vector must therefore give the coefficients of N(q) H(q)
    rng = np.random.default_rng(5)
    model = random_model(rng, dt=0.5)
    dae = assemble_dae(model)
    d_n = 3
    stacked = build_stacked(dae, d_n)
    assert stacked.barH.shape == ((d_n + 1) * dae.n_r, (d_n + 2) * dae.n_c)
    assert stacked.n_vars == (d_n + 1) * dae.n_r

    n_parts = [rng.normal(size=dae.n_r) for _ in range(d_n + 1)]
    nbar = np.concatenate(n_parts)
    product = nbar @ stacked.barH
    for j in range(d_n + 2):
        expected = np.zeros(dae.n_c)
        if j <= d_n:
            expected += n_parts[j] @ dae.H0
        if 1 <= j <= d_n + 1:
            expected += n_parts[j - 1] @ dae.H1
        block = product[j * dae.n_c : (j + 1) * dae.n_c]
        assert np.max(np.abs(block - expected)) < 1e-12


def test_stacked_block_diagonals():
    rng = np.random.default_rng(6)
    model = random_model(rng, dt=0.5)
    dae = assemble_dae(model)
    stacked = build_stacked(dae, 2)
    for i in range(3):
        rows = stacked.coeff_slice(i)
        cols_l = slice(i * dae.n_y, (i + 1) * dae.n_y)
        cols_f = slice(i * model.n_f, (i + 1) * model.n_f)
        assert np.array_equal(stacked.barL[rows, cols_l], dae.L)
        assert np.array_equal(stacked.barF[rows, cols_f], dae.F)
    # off-diagonal blocks vanish
    assert np.count_nonzero(stacked.barL) == 3 * np.count_nonzero(dae.L)
    assert np.count_nonzero(stacked.barF) == 3 * np.count_nonzero(dae.F)


def test_reachable_subspace_splits_modes():
    # one damped driven mode, one undriven integrator
    a = np.diag([-1.0, 0.0])
    b = np.array([[1.0], [0.0]])
    basis = reachable_subspace(a, b)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
    model = LinearModel(
        A=a,
        B_d=b,
        B_f=np.zeros((2, 1)),
        C=np.eye(2),
        D_f=np.zeros((2, 1)),
    )
    reachable, overall = split_decay_rates(model)
    assert reachable < -0.99
    assert abs(overall) < 1e-12
