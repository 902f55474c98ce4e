"""Residual filter synthesis: quadratic forms, convex branches, certificates."""

from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg

from diagfilter.agc import three_area_default, univariate_topology
from diagfilter.design import (
    FLOOR_BACKOFF,
    REGULARIZATION,
    AttackModel,
    FilterDesign,
    design_multivariate,
    design_univariate,
    gram_matrix,
    impulse_response,
    mismatch_signature,
    pretrain_multivariate,
    program_branch,
    q_matrix,
    quadratic_value,
    signature_energy,
    stack_shifted,
    steady_state_margin,
    worst_case_alpha,
)
from diagfilter.errors import ConfigError, NoFilterError, SolverError
from diagfilter.lti import LinearModel, assemble_dae, build_stacked, zoh_discretize
from diagfilter.shiftpoly import pole_polynomial
import diagfilter.design as design_module
import diagfilter.solvers as solvers_module
from diagfilter.solvers import (
    FEAS_TOL,
    STAT_TOL,
    QpProblem,
    Solution,
    certify_point,
    solve_qp,
)
from refimpl import (
    bisect_visibility_floor,
    direct_energy,
    gram_bruteforce,
    impulse_response_bruteforce,
    steady_state_residual,
)


def small_stacked(rng, d_n=2, n_x=3, n_d=1, n_f=1, n_y=2):
    a = rng.normal(size=(n_x, n_x))
    a = 0.5 * a / max(np.max(np.abs(np.linalg.eigvals(a))), 1.0)
    model = LinearModel(
        A=a,
        B_d=rng.normal(size=(n_x, n_d)),
        B_f=rng.normal(size=(n_x, n_f)),
        C=rng.normal(size=(n_y, n_x)),
        D_f=rng.normal(size=(n_y, n_f)),
        dt=1.0,
    )
    dae = assemble_dae(model)
    return dae, build_stacked(dae, d_n)


def default_stacked(d_n=3, t_s=0.5):
    from diagfilter.agc import assemble_multiarea

    model, _ = assemble_multiarea(three_area_default(), univariate_topology())
    dae = assemble_dae(zoh_discretize(model, t_s))
    return dae, build_stacked(dae, d_n)


MV_BASIS = np.array(
    [
        [0.1, 0.1, 0.0],
        [0.0, 0.15, 0.0],
        [0.1, 0.25, 0.0],
        [0.0, 0.0, 0.1],
        [0.0, 0.0, 0.1],
    ]
)
MV_POLY_A = np.array([[1.0, 1.0, 1.0]])
MV_POLY_B = np.array([1.5])


def mv_attack() -> AttackModel:
    return AttackModel(
        kind="multivariate",
        basis=MV_BASIS,
        polytope_a=MV_POLY_A,
        polytope_b=MV_POLY_B,
    )


def mv_stacked(d_n=3, t_s=0.5):
    from diagfilter.agc import assemble_multiarea, multivariate_topology

    model, _ = assemble_multiarea(three_area_default(), multivariate_topology())
    dae = assemble_dae(zoh_discretize(model, t_s))
    return dae, build_stacked(dae, d_n)


def test_stacked_blocks_match_scipy_block_diag():
    for dae, stacked in (default_stacked(), mv_stacked()):
        copies = stacked.d_n + 1
        assert np.array_equal(stacked.barL, scipy.linalg.block_diag(*[dae.L] * copies))
        assert np.array_equal(stacked.barF, scipy.linalg.block_diag(*[dae.F] * copies))


def test_mismatch_signature_subtracts_and_checks_shapes():
    y_p = np.arange(6.0).reshape(2, 3)
    y = np.ones((2, 3))
    assert np.array_equal(mismatch_signature(y_p, y), y_p - 1.0)
    with pytest.raises(ValueError):
        mismatch_signature(y_p, np.ones((2, 4)))


def test_impulse_response_frozen_values():
    # pole 0.5, degree 3: strictly delaying, then binomial-weighted decay
    a = pole_polynomial(0.5, 3)
    h = impulse_response(a, 8)
    assert np.array_equal(h[:3], [0.0, 0.0, 0.0])
    assert np.allclose(h[3:7], [0.125, 0.1875, 0.1875, 0.15625], atol=1e-15)


def test_impulse_response_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d_n = int(rng.integers(1, 5))
        pole = float(rng.uniform(0.0, 0.9))
        a = pole_polynomial(pole, d_n)
        assert np.max(np.abs(impulse_response(a, 30) - impulse_response_bruteforce(a, 30))) < 1e-12


def test_gram_matches_bruteforce_at_reference_poles():
    for pole in (0.0, 0.5, 0.8):
        a = pole_polynomial(pole, 3)
        g = gram_matrix(a, 12)
        ref = gram_bruteforce(a, 12)
        assert np.max(np.abs(g - ref)) < 1e-10
        assert np.max(np.abs(g - g.T)) == 0.0


def test_gram_is_exact_for_pure_delay():
    # pole 0: the filter bank is a delay by d, so the Gram matrix is the
    # identity with the last d diagonal entries clipped by the horizon
    g = gram_matrix(pole_polynomial(0.0, 3), 10)
    expected = np.eye(10)
    expected[7:, 7:] = 0.0
    assert np.array_equal(g, expected)


def test_stack_shifted_layout():
    sig = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = stack_shifted(sig, 2)
    assert out.shape == (6, 3)
    assert np.array_equal(out[:2], sig)
    assert np.array_equal(out[2:4], [[2, 3, 0], [5, 6, 0]])
    assert np.array_equal(out[4:6], [[3, 0, 0], [6, 0, 0]])


def test_quadratic_form_reproduces_direct_filtering():
    # the central identity: nbar' Q nbar equals the energy obtained by
    # running the numerator + denominator filters over the signature
    rng = np.random.default_rng(31)
    for _ in range(10):
        dae, stacked = small_stacked(rng)
        pole = float(rng.uniform(0.0, 0.8))
        a = pole_polynomial(pole, stacked.d_n)
        horizon = int(rng.integers(6, 15))
        sig = rng.normal(size=(stacked.n_y, horizon))
        q = q_matrix(stacked, sig, gram_matrix(a, horizon))
        nbar = rng.normal(size=stacked.n_vars)
        direct = direct_energy(nbar, dae.L, sig, a)
        quad = quadratic_value(nbar, q)
        assert abs(quad - direct) < 1e-9 * (1.0 + abs(direct))
        # the same energy as a filter run, without the form
        run = signature_energy(stacked, nbar, sig, gram_matrix(a, horizon))
        assert abs(run - direct) < 1e-9 * (1.0 + abs(direct))
        # and the form is PSD up to round-off
        assert np.min(np.linalg.eigvalsh(q)) > -1e-9


def test_q_matrix_validates_shapes():
    # signature_energy shares the checks
    rng = np.random.default_rng(0)
    dae, stacked = small_stacked(rng)
    g = gram_matrix(pole_polynomial(0.5, stacked.d_n), 10)
    nbar = np.ones(stacked.n_vars)
    for evaluate in (partial(q_matrix, stacked), partial(signature_energy, stacked, nbar)):
        with pytest.raises(ValueError, match="rows, model has"):
            evaluate(np.zeros((stacked.n_y + 1, 10)), g)
        with pytest.raises(ValueError, match="signature horizon"):
            evaluate(np.zeros((stacked.n_y, 9)), g)


def test_pure_design_on_reference_network():
    dae, stacked = default_stacked()
    design = design_univariate(stacked, None, pole=0.5)
    assert design.mode == "pure_model"
    assert design.branch == {"coeff_index": 0, "sign": 1}
    assert design.diagnostics["null_residual"] < 1e-9
    assert abs(design.diagnostics["attack_gain"] - 1.0) < 1e-6
    assert np.array_equal(design.a_coeffs, pole_polynomial(0.5, 3))
    # coefficient accessor slices the flat vector consistently
    recon = np.concatenate([design.coeff(i) for i in range(4)])
    assert np.array_equal(recon, design.nbar)
    with pytest.raises(IndexError):
        design.coeff(4)


def test_dc_tracking_makes_residual_follow_bias():
    _, stacked = default_stacked()
    design = design_univariate(stacked, None, pole=0.5, track_steady_state=True)
    assert design.track_steady_state
    f_matrix = stacked.barF[stacked.coeff_slice(0), 0:1]
    for bias in (-0.1, 0.05, 0.2):
        limit = steady_state_residual(design, f_matrix, np.array([bias]))
        assert abs(limit - bias) < 1e-8


def test_assisted_design_never_loses_to_pure_on_training_energy():
    rng = np.random.default_rng(7)
    dae, stacked = small_stacked(rng, d_n=3)
    a = pole_polynomial(0.5, 3)
    g = gram_matrix(a, 12)
    forms = [
        q_matrix(stacked, rng.normal(size=(stacked.n_y, 12)), g) for _ in range(5)
    ]
    qbar = sum(forms) / len(forms)
    pure = design_univariate(stacked, None, pole=0.5)
    assisted = design_univariate(stacked, qbar, pole=0.5)
    assert assisted.mode == "data_assisted"
    assert assisted.objective <= quadratic_value(pure.nbar, qbar) + 1e-9
    assert assisted.diagnostics["null_residual"] < 1e-7
    assert assisted.diagnostics["attack_gain"] >= 1.0 - 1e-6


@lru_cache(maxsize=1)
def cached_default_stacked():
    return default_stacked()[1]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank_fraction=st.floats(0.0, 1.0),
    log_scale=st.floats(-8.0, 2.0),
    track=st.booleans(),
)
def test_univariate_design_succeeds_on_any_psd_form(seed, rank_fraction, log_scale, track):
    # rank-deficient and badly scaled forms are what small or noisy training
    # sets produce; the closed-form branches must design on all of them
    stacked = cached_default_stacked()
    n = stacked.n_vars
    rank = 1 + int(rank_fraction * (n - 1))
    factor = np.random.default_rng(seed).normal(size=(n, rank))
    q = factor @ factor.T
    q *= 10.0**log_scale / np.linalg.eigvalsh(q).max()

    # every candidate's multipliers from the design's one factorization, next
    # to the ones a separate lstsq recovers
    duals = []

    def certify_both_ways(problem, x, ineq_duals, eq_pinv):
        sol = certify_point(problem, x, ineq_duals, eq_pinv)
        grad = problem.P @ x + problem.c - problem.a_ineq.T @ ineq_duals
        duals.append((sol.eq_duals, np.linalg.lstsq(problem.a_eq.T, grad, rcond=None)[0]))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_module, "certify_point", certify_both_ways)
        design = design_univariate(stacked, q, pole=0.5, track_steady_state=track)
    # the tolerance was fixed before measuring: both are the minimum-norm
    # solution at the same rank, and the kept singular values of the
    # equalities span under three decades
    assert duals
    for reused, solved in duals:
        assert np.abs(reused - solved).max() <= 1e-9 * np.abs(solved).max()
    assert design.diagnostics["null_residual"] < 1e-9
    assert design.diagnostics["attack_gain"] >= 1.0 - 1e-6
    a_eq, b_eq = stacked.barH.T, np.zeros(stacked.barH.shape[1])
    if track:
        f_matrix = stacked.barF[stacked.coeff_slice(0), 0:1]
        assert abs(steady_state_residual(design, f_matrix, np.array([0.1])) - 0.1) < 1e-8
        a_eq = np.vstack([a_eq, -stacked.barF.sum(axis=1) / float(np.sum(design.a_coeffs))])
        b_eq = np.append(b_eq, 1.0)

    # the iterative solver, where it converges, finds the same optimum
    j, sign = design.branch["coeff_index"], design.branch["sign"]
    problem = QpProblem(
        P=2.0 * (q + REGULARIZATION * np.eye(n)),
        c=np.zeros(n),
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=(sign * stacked.barF[:, j])[None, :],
        b_ineq=np.array([1.0]),
    )
    try:
        sol = solve_qp(problem)
    except SolverError:
        return
    if sol.status == "optimal":
        assert np.linalg.norm(sol.x - design.nbar) <= 1e-8 * np.linalg.norm(sol.x)


def count_factorizations(monkeypatch) -> list:
    """Record ``(name, shape)`` of every SVD, null-space and least-squares call."""
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for module, name in (
        (scipy.linalg, "svd"),
        (scipy.linalg, "null_space"),
        (np.linalg, "svd"),
        (np.linalg, "lstsq"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_univariate_design_factors_its_equalities_once(monkeypatch):
    # one SVD gives the particular solution, the null-space basis and every
    # branch's equality multipliers
    _, stacked = default_stacked()
    calls = count_factorizations(monkeypatch)
    design = design_univariate(stacked, None, pole=0.5, track_steady_state=True)
    assert len(design.diagnostics["branch_report"]) == 8
    a_eq_shape = (stacked.barH.shape[1] + 1, stacked.n_vars)
    assert calls == [("svd", a_eq_shape)]


def test_univariate_design_validates_its_form_once(monkeypatch):
    # the symmetry check of P runs once per objective: once for a model-only
    # design, and for a data-assisted one once more for its baseline's P
    _, stacked = default_stacked()
    check = solvers_module._symmetric_form
    shapes = []

    def counted(p, n):
        shapes.append(np.shape(p))
        return check(p, n)

    monkeypatch.setattr(solvers_module, "_symmetric_form", counted)
    design_univariate(stacked, None, pole=0.5, track_steady_state=True)
    assert shapes == [(stacked.n_vars, stacked.n_vars)]
    shapes.clear()
    b = np.random.default_rng(3).normal(size=(stacked.n_vars, stacked.n_vars))
    assisted = design_univariate(stacked, 1e-3 * b @ b.T, pole=0.5, track_steady_state=True)
    assert assisted.baseline is not None
    assert shapes == [(stacked.n_vars, stacked.n_vars)] * 2


def test_multivariate_design_factors_only_through_svd(monkeypatch):
    # the QP solver eliminates its equalities and each working set, and
    # recovers every multiplier, from one SVD of each: no lstsq, no null_space
    _, stacked = mv_stacked()
    attack = mv_attack()
    solved = []

    def recorded(problem):
        sol = solve_qp(problem)
        solved.append((problem, sol))
        return sol

    monkeypatch.setattr(design_module, "solve_qp", recorded)
    calls = count_factorizations(monkeypatch)
    design_multivariate(stacked, None, attack, 3, pole=0.5)
    assert calls and {name for name, _ in calls} == {"svd"}
    monkeypatch.undo()

    # the tolerance was fixed before measuring: both are the minimum-norm
    # least-squares multipliers at the same rank
    assert solved
    for problem, sol in solved:
        assert sol.status == "optimal"
        grad = problem.P @ sol.x + problem.c - problem.a_ineq.T @ sol.ineq_duals
        ref = np.linalg.lstsq(problem.a_eq.T, grad, rcond=None)[0]
        assert np.abs(sol.eq_duals - ref).max() <= 1e-8 * np.abs(ref).max()


def test_qp_factors_a_working_set_only_when_it_changes(monkeypatch):
    # per QP: one SVD of the equalities, then one of each working set the
    # active-set method moves to, never the same set twice in a row
    _, stacked = mv_stacked()
    factor_equalities = solvers_module.factor_equalities
    solves = []

    def recorded(problem):
        factored = []
        solves.append((problem, factored))
        sol = solve_qp(problem)
        factored.append(sol.iterations)
        return sol

    def counted(a_eq, b_eq):
        solves[-1][1].append(a_eq.copy())
        return factor_equalities(a_eq, b_eq)

    monkeypatch.setattr(design_module, "solve_qp", recorded)
    monkeypatch.setattr(solvers_module, "factor_equalities", counted)
    design_multivariate(stacked, None, mv_attack(), 3, pole=0.5)
    assert solves
    reused = False
    for problem, (eq, *working_sets, iterations) in solves:
        assert np.array_equal(eq, problem.a_eq)
        assert working_sets
        for before, after in zip(working_sets, working_sets[1:]):
            assert not np.array_equal(before, after)
        # an iteration that kept its working set reused the factorisation
        reused |= len(working_sets) < iterations
    assert reused


def test_non_stationary_candidate_fails_certification(monkeypatch):
    # every Cholesky step scaled by 1.5: each candidate still meets the
    # equalities and g x >= 1, but is no longer the branch optimum
    stacked = cached_default_stacked()
    factor = np.random.default_rng(0).normal(size=(stacked.n_vars, stacked.n_vars))
    q = factor @ factor.T / stacked.n_vars
    cho_solve = scipy.linalg.cho_solve
    monkeypatch.setattr(scipy.linalg, "cho_solve", lambda *a, **k: 1.5 * cho_solve(*a, **k))
    with pytest.raises(SolverError, match="KKT certification failed"):
        design_univariate(stacked, q, pole=0.5, track_steady_state=True)


def test_design_requires_single_channel_for_univariate():
    _, stacked = mv_stacked(d_n=2)
    with pytest.raises(ConfigError):
        design_univariate(stacked, None, pole=0.5)


def test_no_filter_when_attack_is_invisible():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3)) * 0.2
    model = LinearModel(
        A=a,
        B_d=rng.normal(size=(3, 1)),
        B_f=np.zeros((3, 1)),
        C=rng.normal(size=(2, 3)),
        D_f=np.zeros((2, 1)),
        dt=1.0,
    )
    stacked = build_stacked(assemble_dae(model), 2)
    with pytest.raises(NoFilterError):
        design_univariate(stacked, None, pole=0.5)


@pytest.mark.parametrize("track", [True, False])
def test_no_filter_when_attack_enters_as_a_load(track, monkeypatch):
    # the attack enters the default network exactly as the first load, so any
    # filter blind to the loads is blind to it: with DC tracking the
    # equalities admit no point; without it they do, but every visibility
    # row lies in the row space of barH'
    from diagfilter.agc import assemble_multiarea

    model, _ = assemble_multiarea(three_area_default(), univariate_topology())
    load = LinearModel(
        A=model.A,
        B_d=model.B_d,
        B_f=model.B_d[:, :1],
        C=model.C,
        D_f=np.zeros_like(model.D_f),
    )
    stacked = build_stacked(assemble_dae(zoh_discretize(load, 0.5)), 3)
    reductions = []
    reduction = QpProblem.reduction

    def spy(self):
        red = reduction(self)
        reductions.append(red)
        return red

    monkeypatch.setattr(QpProblem, "reduction", spy)
    with pytest.raises(NoFilterError, match="all design branches infeasible") as info:
        design_univariate(stacked, None, pole=0.5, track_steady_state=track)
    report = info.value.branch_report
    assert len(report) == (stacked.d_n + 1) * (2 if track else 1)
    assert all(entry["status"] == "infeasible" for entry in report)
    assert len(reductions) == 1
    assert (reductions[0].start is None) == track


def test_program_numbering_covers_signed_coefficients():
    mapping = [program_branch(j) for j in range(1, 9)]
    assert mapping == [
        (0, -1),
        (0, 1),
        (1, -1),
        (1, 1),
        (2, -1),
        (2, 1),
        (3, -1),
        (3, 1),
    ]
    with pytest.raises(ValueError):
        program_branch(0)


def test_attack_model_validation():
    with pytest.raises(ConfigError):
        AttackModel(kind="sinusoidal")
    with pytest.raises(ConfigError):
        AttackModel(kind="multivariate", basis=MV_BASIS)
    with pytest.raises(ConfigError):
        AttackModel(
            kind="multivariate",
            basis=MV_BASIS,
            polytope_a=np.ones((1, 2)),
            polytope_b=MV_POLY_B,
        )
    with pytest.raises(ConfigError):
        AttackModel(kind="univariate").validate_against(5)
    with pytest.raises(ConfigError, match="model has 4 channels"):
        mv_attack().validate_against(4)


@pytest.mark.parametrize(
    "poly_a, poly_b",
    [
        ([[1.0, 0, 0], [-1.0, 0, 0]], [1.0, 1.0]),
        ([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]], [1.5, -1.0]),
        ([[1.0, 0, 0], [0, 1.0, 0], [-1.0, -1.0, 0]], [1.0, 1.0, -1.0]),
    ],
    ids=["alpha-1-both-above-1-and-below-minus-1", "sum-above-1.5-and-below-1",
         "sum-above-2-and-below-1"],
)
def test_an_empty_attack_polytope_is_found_by_the_support_lps(poly_a, poly_b):
    # the shapes fit, so the attack model is built; every support LP is
    # unbounded along a Farkas ray of the polytope, which no design survives
    _, stacked = mv_stacked(d_n=2)
    attack = AttackModel(
        kind="multivariate",
        basis=MV_BASIS,
        polytope_a=np.array(poly_a),
        polytope_b=np.array(poly_b),
    )
    for j in (1, 3, 5):
        assert design_module._support_lp(stacked, attack, j).status == "unbounded"
    with pytest.raises(ConfigError, match="attack polytope is empty"):
        pretrain_multivariate(stacked, attack)
    with pytest.raises(ConfigError, match="attack polytope is empty"):
        design_multivariate(stacked, None, attack, 3, pole=0.5)


def test_pretrain_margins_on_reference_network():
    _, stacked = mv_stacked()
    result = pretrain_multivariate(stacked, mv_attack())
    assert result.feasible
    assert np.allclose(
        result.gammas, [0.15, 0.15, 0.3, 0.3, 0.3, 0.3, 0.15, 0.15], atol=1e-6
    )
    assert result.j_star == 3
    assert abs(result.gamma_star - 0.3) < 1e-6
    # mirror programs share one support LP
    assert np.array_equal(result.gammas[0::2], result.gammas[1::2])


# a scaled row keeps its half-space, a duplicated one adds nothing; the
# non-negativity rows make the drawn sets differ from the declared one
POLYTOPE_ROWS = [(MV_POLY_A[0], MV_POLY_B[0])] + [(row, 0.0) for row in np.eye(3)]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    picks=st.lists(st.integers(0, len(POLYTOPE_ROWS) - 1), min_size=0, max_size=5),
    log_scales=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
    order=st.permutations(range(6)),
)
def test_mirror_programs_share_their_support_lp(picks, log_scales, order):
    # the tolerance was fixed before measuring: the two LPs are the same LP
    # with nbar negated, so HiGHS may part them by round-off only
    _, stacked = mv_stacked(d_n=2)
    rows = [POLYTOPE_ROWS[0], *(POLYTOPE_ROWS[i] for i in picks)]
    order = [i for i in order if i < len(rows)]
    scales = [10.0**s for s in log_scales]
    attack = AttackModel(
        kind="multivariate",
        basis=MV_BASIS,
        polytope_a=np.array([scales[i] * rows[i][0] for i in order]),
        polytope_b=np.array([scales[i] * rows[i][1] for i in order]),
    )
    for k in range(1, stacked.d_n + 2):
        odd = design_module._support_lp(stacked, attack, 2 * k - 1)
        even = design_module._support_lp(stacked, attack, 2 * k)
        assert even.status == odd.status
        if odd.status == "optimal":
            assert abs(even.objective - odd.objective) <= 1e-9 * abs(odd.objective)


def test_multivariate_design_certifies_visibility_floor():
    _, stacked = mv_stacked()
    attack = mv_attack()
    pretrain = pretrain_multivariate(stacked, attack)
    design = design_multivariate(stacked, None, attack, pretrain.j_star, pole=0.5)
    assert design.branch["program"] == pretrain.j_star
    gamma = design.diagnostics["gamma"]
    assert gamma >= pretrain.gamma_star - 1e-6
    assert design.diagnostics["support_value"] >= gamma - 1e-6
    assert design.diagnostics["null_residual"] < 1e-7
    # duality: the least visible admissible attack still clears the floor
    alpha, value, status = worst_case_alpha(stacked, design, attack)
    assert status == "optimal"
    assert value >= gamma - 1e-6
    assert np.all(MV_POLY_A @ alpha >= MV_POLY_B - 1e-9)


def test_every_program_gets_its_support_lp_floor():
    _, stacked = mv_stacked()
    attack = mv_attack()
    pretrain = pretrain_multivariate(stacked, attack)
    for j in range(1, 9):
        design = design_multivariate(stacked, None, attack, j, pole=0.5)
        gamma = design.diagnostics["gamma"]
        floor = pretrain.gammas[j - 1]
        if j <= 2:
            # the QP's phase one rejects these LP optima; one back-off step
            assert floor - 1e-7 * max(1.0, floor) <= gamma < floor
        else:
            assert gamma == floor
        assert design.diagnostics["support_value"] >= gamma - 1e-6


def test_rejected_support_lp_floor_is_a_solver_failure(monkeypatch):
    _, stacked = mv_stacked(d_n=2)
    attack = mv_attack()
    monkeypatch.setattr(design_module, "solve_qp", lambda problem: Solution("infeasible"))
    with pytest.raises(SolverError, match="support-LP floor"):
        design_multivariate(stacked, None, attack, 3, pole=0.5)


def test_a_solver_failure_at_the_support_lp_floor_takes_the_back_off(monkeypatch):
    _, stacked = mv_stacked(d_n=2)
    attack = mv_attack()
    floors = []

    def failing_once(problem):
        floors.append(float(problem.b_ineq[attack.polytope_b.size]))
        if len(floors) == 1:
            raise SolverError("LP backend failed with status 4")
        return solve_qp(problem)

    monkeypatch.setattr(design_module, "solve_qp", failing_once)
    design = design_multivariate(stacked, None, attack, 3, pole=0.5)
    floor = pretrain_multivariate(stacked, attack).gammas[2]
    assert floors == [floor, floor - FLOOR_BACKOFF * max(1.0, floor)]
    assert design.diagnostics["gamma"] == floors[1]


def test_a_solver_failure_at_the_floor_and_its_back_off_names_both(monkeypatch):
    _, stacked = mv_stacked(d_n=2)
    outcomes = iter([SolverError("LP backend failed with status 4"), Solution("infeasible")])

    def failing(problem):
        outcome = next(outcomes)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(design_module, "solve_qp", failing)
    with pytest.raises(SolverError, match="support-LP floor") as info:
        design_multivariate(stacked, None, mv_attack(), 3, pole=0.5)
    assert "status 4" in str(info.value) and "QP status infeasible" in str(info.value)


def test_design_whose_phase_one_fails_at_the_floor_completes_and_certifies():
    # attack basis row 0 at [0.2, 0.1, 0.0]: at the support-LP floor of the
    # best program the QP's phase-one LP ended in HiGHS status 4 (neither
    # optimal nor infeasible) and the design died in the solver.  Phase one
    # reads only the constraints, so no training form is needed.
    _, stacked = mv_stacked()
    basis = MV_BASIS.copy()
    basis[0] = [0.2, 0.1, 0.0]
    attack = AttackModel(
        kind="multivariate", basis=basis, polytope_a=MV_POLY_A, polytope_b=MV_POLY_B
    )
    pretrain = pretrain_multivariate(stacked, attack)
    design = design_multivariate(stacked, None, attack, pretrain.j_star, pole=0.5)
    gamma = design.diagnostics["gamma"]
    floor = pretrain.gamma_star
    assert floor - FLOOR_BACKOFF * max(1.0, floor) <= gamma <= floor
    residuals = design.diagnostics["qp"]["kkt_residuals"]
    assert residuals["primal_eq"] <= FEAS_TOL and residuals["primal_ineq"] <= FEAS_TOL
    assert residuals["stationarity"] <= STAT_TOL
    assert design.diagnostics["support_value"] >= gamma - 1e-6
    _, value, status = worst_case_alpha(stacked, design, attack)
    assert status == "optimal"
    assert value >= gamma - 1e-6


def test_an_infeasible_support_lp_is_a_solver_failure(monkeypatch):
    # (nbar, lambda) = 0 meets every support LP, so "infeasible" is the
    # solver's failure, never a verdict on the attack set
    _, stacked = mv_stacked(d_n=2)
    monkeypatch.setattr(design_module, "_support_lp", lambda *args: Solution("infeasible"))
    with pytest.raises(SolverError, match="program 3's support LP ended infeasible"):
        design_multivariate(stacked, None, mv_attack(), 3, pole=0.5)
    with pytest.raises(SolverError, match="program 1's support LP ended infeasible"):
        pretrain_multivariate(stacked, mv_attack())


@pytest.mark.parametrize("j", [1, 3])
def test_support_lp_floor_matches_the_bisection_reference(j):
    # program 1 takes the back-off step, program 3 the LP optimum itself
    _, stacked = mv_stacked(d_n=2)
    attack = mv_attack()
    rng = np.random.default_rng(7)
    b = rng.normal(size=(stacked.n_vars, stacked.n_vars))
    qbar = 1e-3 * (b @ b.T) / stacked.n_vars

    p_mat = 2.0 * (qbar + REGULARIZATION * np.eye(stacked.n_vars))
    n_b = attack.polytope_b.size
    p_full = scipy.linalg.block_diag(p_mat, np.zeros((n_b, n_b)))

    def attempt(gamma):
        # the design QP at the fixed floor gamma: its filter's objective, or
        # None when the floor is infeasible
        a_eq, b_eq, a_ineq, b_ineq = design_module._program_constraints(stacked, attack, j, gamma)
        problem = QpProblem(p_full, np.zeros(p_full.shape[0]), a_eq, b_eq, a_ineq, b_ineq)
        sol = solve_qp(problem)
        if sol.status != "optimal":
            return None
        return quadratic_value(sol.x[: stacked.n_vars], qbar)

    floor = pretrain_multivariate(stacked, attack).gammas[j - 1]
    ref_gamma, ref_objective = bisect_visibility_floor(attempt, floor)
    design = design_multivariate(stacked, qbar, attack, j, pole=0.5)
    gamma = design.diagnostics["gamma"]
    assert abs(gamma - ref_gamma) <= 1e-7 * max(1.0, ref_gamma)
    assert abs(design.objective - ref_objective) <= 1e-6 * ref_objective


@pytest.mark.parametrize("j", [1, 3])
def test_baseline_over_shared_constraints_is_a_baseline_designed_alone(j):
    # program 1 backs its floor off, program 3 keeps the support-LP optimum:
    # either way the baseline meets the arrays the assisted design ended on,
    # and the model-only design posed alone ends on the same floor
    _, stacked = mv_stacked(d_n=2)
    attack = mv_attack()
    b = np.random.default_rng(7).normal(size=(stacked.n_vars, stacked.n_vars))
    qbar = 1e-3 * (b @ b.T) / stacked.n_vars
    assisted = design_multivariate(stacked, qbar, attack, j, pole=0.5)
    gamma = assisted.diagnostics["gamma"]
    floor = pretrain_multivariate(stacked, attack).gammas[j - 1]
    assert (gamma < floor) == (j == 1)
    shared = assisted.baseline
    alone = design_multivariate(stacked, None, attack, j, pole=0.5)
    assert alone.baseline is None
    assert shared.mode == alone.mode == "pure_model"
    assert shared.diagnostics["gamma"] == alone.diagnostics["gamma"] == gamma
    assert np.array_equal(shared.nbar, alone.nbar)
    assert np.array_equal(shared.objective, alone.objective)
    assert assisted.diagnostics["dominance"]["ridged_ratio"] <= 1.0 + 1e-6


def test_steady_state_margin_flags_stealthy_sets():
    _, stacked = mv_stacked()
    attack = mv_attack()
    pretrain = pretrain_multivariate(stacked, attack)
    design = design_multivariate(stacked, None, attack, pretrain.j_star, pole=0.5)
    f_matrix = stacked.barF[stacked.coeff_slice(0), 0 : stacked.n_f]
    margin, alpha = steady_state_margin(design, f_matrix, attack)
    # the declared attack set contains combinations with zero DC residual
    assert margin <= 1e-7
    assert alpha is not None


def test_steady_state_margin_positive_case():
    # hand-built filter whose DC response is parallel to the polytope normal
    design = FilterDesign(
        nbar=np.array([1.0, 0.0, 1.0, 0.0]),
        d_n=1,
        pole=0.5,
        mode="pure_model",
        objective=0.0,
        branch={},
    )
    f_matrix = np.array([[1.0], [0.0]])
    attack = AttackModel(
        kind="multivariate",
        basis=np.array([[-1.0]]),
        polytope_a=np.array([[1.0]]),
        polytope_b=np.array([1.0]),
    )
    # N(1) = [2, 0] and a(1) = 1, so the DC response is 2 alpha with alpha >= 1
    margin, alpha = steady_state_margin(design, f_matrix, attack)
    assert abs(margin - 2.0) < 1e-9
    assert abs(alpha[0] - 1.0) < 1e-9


def test_the_test_phase_programs_give_the_support_lps_verdict_on_an_empty_polytope():
    # alpha_1 >= 1 and -alpha_1 >= 1 admit no attack: the least-visible
    # attack and the steady-state margin end as the support LPs do, with
    # ConfigError, not with a verdict on the filter
    dae, stacked = mv_stacked()
    design = design_multivariate(stacked, None, mv_attack(), 3, pole=0.5)
    empty = AttackModel(
        kind="multivariate",
        basis=MV_BASIS,
        polytope_a=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
        polytope_b=np.array([1.0, 1.0]),
    )
    with pytest.raises(ConfigError, match="^attack polytope is empty$"):
        pretrain_multivariate(stacked, empty)
    with pytest.raises(ConfigError, match="^attack polytope is empty$"):
        worst_case_alpha(stacked, design, empty)
    with pytest.raises(ConfigError, match="^attack polytope is empty$"):
        steady_state_margin(design, dae.F, empty)
