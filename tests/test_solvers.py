"""Certified LP/QP solving: analytic cases, verdicts, and KKT certificates."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from diagfilter.errors import SolverError
from diagfilter.solvers import (
    QpProblem,
    _max_step,
    factor_equalities,
    kkt_residuals,
    solve_lp,
    solve_qp,
)
from refimpl import lp_by_vertex_enumeration, max_step_by_row_loop


def assert_certified(sol):
    assert sol.status == "optimal"
    assert sol.residuals["primal_eq"] <= 1e-7
    assert sol.residuals["primal_ineq"] <= 1e-7
    assert sol.residuals["stationarity"] <= 1e-6
    assert sol.residuals["complementarity"] <= 1e-6
    assert sol.residuals["dual_sign"] <= 1e-6


def test_lp_analytic_box_corner():
    # min x + 2y over the unit box -> corner (0, 0) expressed with >= rows
    a_ineq = np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]])
    b_ineq = np.array([0.0, 0.0, -1.0, -1.0])
    sol = solve_lp(np.array([1.0, 2.0]), a_ineq=a_ineq, b_ineq=b_ineq)
    assert_certified(sol)
    assert np.max(np.abs(sol.x)) < 1e-9
    assert abs(sol.objective) < 1e-9
    # active lower bounds carry the cost as nonnegative duals
    assert abs(sol.ineq_duals[0] - 1.0) < 1e-8
    assert abs(sol.ineq_duals[1] - 2.0) < 1e-8


def test_lp_equality_duals_match_marginals():
    # min x1 + x2 s.t. x1 + x2 = 1, x >= 0: any split is optimal at value 1,
    # equality dual = marginal value of the rhs = 1
    sol = solve_lp(
        np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
        a_ineq=np.eye(2),
        b_ineq=np.zeros(2),
    )
    assert_certified(sol)
    assert abs(sol.objective - 1.0) < 1e-9
    assert abs(sol.eq_duals[0] - 1.0) < 1e-8


def test_lp_unbounded_and_infeasible_verdicts():
    down = solve_lp(np.array([-1.0]), a_ineq=np.array([[1.0]]), b_ineq=np.array([0.0]))
    assert down.status == "unbounded"
    empty = solve_lp(
        np.array([1.0]),
        a_ineq=np.array([[1.0], [-1.0]]),
        b_ineq=np.array([1.0, 0.0]),
    )
    assert empty.status == "infeasible"


def test_lp_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(17)
    solved = 0
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 1, n + 6))
        a_ineq = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        b_ineq = np.concatenate(
            [rng.normal(size=m) - 2.0, -5.0 * np.ones(2 * n)]
        )
        cost = rng.normal(size=n)
        ref = lp_by_vertex_enumeration(cost, a_ineq, b_ineq)
        sol = solve_lp(cost, a_ineq=a_ineq, b_ineq=b_ineq)
        if ref is None:
            assert sol.status == "infeasible"
            continue
        assert_certified(sol)
        assert abs(sol.objective - ref[0]) < 1e-7 * (1.0 + abs(ref[0]))
        solved += 1
    assert solved >= 40


def test_qp_unconstrained_is_newton_step():
    p = np.array([[2.0, 0.0], [0.0, 4.0]])
    c = np.array([-2.0, -8.0])
    sol = solve_qp(QpProblem(P=p, c=c))
    assert_certified(sol)
    assert np.max(np.abs(sol.x - [1.0, 2.0])) < 1e-9
    assert abs(sol.objective - (-9.0)) < 1e-9


def test_qp_active_bound_with_dual():
    # min 0.5 (x-2)^2 s.t. x <= 1 (written as -x >= -1): optimum x = 1, dual 1
    sol = solve_qp(
        QpProblem(
            P=np.array([[1.0]]),
            c=np.array([-2.0]),
            a_ineq=np.array([[-1.0]]),
            b_ineq=np.array([-1.0]),
        )
    )
    assert_certified(sol)
    assert abs(sol.x[0] - 1.0) < 1e-9
    assert abs(sol.ineq_duals[0] - 1.0) < 1e-8


def test_qp_equalities_hold_to_machine_precision():
    # projection of the origin shifted by c onto a plane
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = 4
        a_eq = rng.normal(size=(2, n))
        b_eq = rng.normal(size=2)
        sol = solve_qp(QpProblem(P=np.eye(n), c=rng.normal(size=n), a_eq=a_eq, b_eq=b_eq))
        assert_certified(sol)
        assert np.max(np.abs(a_eq @ sol.x - b_eq)) < 1e-10


def test_factor_equalities_on_empty_system():
    x_part, z_basis, eq_pinv = factor_equalities(np.zeros((0, 3)), np.zeros(0))
    assert np.array_equal(x_part, np.zeros(3))
    assert np.array_equal(z_basis, np.eye(3))
    assert eq_pinv.shape == (0, 3)


@pytest.mark.parametrize("consistent", [True, False])
def test_factor_equalities_on_rank_deficient_systems(consistent):
    # rank 3 of 5 rows in 7 unknowns; the inconsistent rhs has a component
    # outside the range of a_eq
    rng = np.random.default_rng(3)
    a_eq = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 7))
    b_eq = a_eq @ rng.normal(size=7)
    if not consistent:
        b_eq += scipy.linalg.null_space(a_eq.T)[:, 0]
    x_part, z_basis, eq_pinv = factor_equalities(a_eq, b_eq)

    # the same basis scipy's null_space returns, bit for bit
    assert np.array_equal(z_basis, scipy.linalg.null_space(a_eq))
    assert z_basis.shape == (7, 4)
    assert np.abs(z_basis.T @ z_basis - np.eye(4)).max() < 1e-14
    assert np.abs(a_eq @ z_basis).max() < 1e-13
    # minimum-norm least-squares solution, orthogonal to the null space
    ref = np.linalg.pinv(a_eq) @ b_eq
    assert np.abs(x_part - ref).max() < 1e-12
    assert np.abs(z_basis.T @ x_part).max() < 1e-13
    assert (np.abs(a_eq @ x_part - b_eq).max() < 1e-12) == consistent
    assert np.abs(eq_pinv - np.linalg.pinv(a_eq.T)).max() < 1e-12


def test_qp_verdicts():
    infeas = solve_qp(
        QpProblem(
            P=np.eye(1),
            c=np.zeros(1),
            a_ineq=np.array([[1.0], [-1.0]]),
            b_ineq=np.array([1.0, 0.0]),
        )
    )
    assert infeas.status == "infeasible"
    # no unbounded verdict: a program that is not strictly convex on the
    # null space of its equalities is refused
    not_strictly_convex = [
        # zero curvature along a feasible descent ray
        QpProblem(
            P=np.diag([1.0, 0.0]),
            c=np.array([0.0, -1.0]),
            a_ineq=np.array([[1.0, 0.0]]),
            b_ineq=np.array([0.0]),
        ),
        # a zero P: linear programs go to solve_lp
        QpProblem(P=np.zeros((2, 2)), c=np.array([1.0, -1.0])),
    ]
    for problem in not_strictly_convex:
        with pytest.raises(SolverError, match="reduced Hessian is singular"):
            solve_qp(problem)


def test_qp_matches_constructed_kkt_solutions():
    # build problems whose optimum is known by construction: pick x*, active
    # set and positive duals, then back out c from stationarity
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        root = rng.normal(size=(n, n))
        p = root @ root.T + 0.5 * np.eye(n)
        x_star = rng.normal(size=n)
        a_ineq = rng.normal(size=(m, n))
        lam = np.zeros(m)
        n_active = int(rng.integers(0, min(m, n) + 1))
        active = rng.choice(m, size=n_active, replace=False)
        lam[active] = rng.uniform(0.5, 2.0, size=n_active)
        b_ineq = a_ineq @ x_star
        inactive = np.setdiff1d(np.arange(m), active)
        b_ineq[inactive] -= rng.uniform(0.5, 2.0, size=inactive.size)
        c = a_ineq.T @ lam - p @ x_star
        sol = solve_qp(QpProblem(P=p, c=c, a_ineq=a_ineq, b_ineq=b_ineq))
        assert_certified(sol)
        assert np.max(np.abs(sol.x - x_star)) < 1e-6


def test_kkt_residuals_vanish_at_hand_optimum():
    problem = QpProblem(
        P=np.array([[1.0]]),
        c=np.array([-2.0]),
        a_ineq=np.array([[-1.0]]),
        b_ineq=np.array([-1.0]),
    )
    res = kkt_residuals(problem, np.array([1.0]), np.zeros(0), np.array([1.0]))
    assert max(res.values()) < 1e-12
    # a wrong dual shows up in stationarity
    res_bad = kkt_residuals(problem, np.array([1.0]), np.zeros(0), np.array([0.0]))
    assert res_bad["stationarity"] > 0.9


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(P=np.eye(3), c=np.zeros(2))
    with pytest.raises(ValueError):
        QpProblem(P=np.array([[0.0, 1.0], [0.0, 0.0]]), c=np.zeros(2))
    with pytest.raises(ValueError):
        QpProblem(P=np.eye(2), c=np.zeros(2), a_ineq=np.eye(2), b_ineq=np.zeros(3))


def test_symmetry_check_is_relative_to_the_scale_of_p():
    # training forms are of order 1e-14..1e-10, below any absolute tolerance
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(P=1e-12 * np.array([[1.0, 2.0], [0.0, 1.0]]), c=np.zeros(2))
    # round-off asymmetry at that scale is still accepted
    QpProblem(P=1e-12 * np.array([[1.0, 0.5], [0.5 + 1e-15, 1.0]]), c=np.zeros(2))


def test_identical_inputs_give_identical_outputs():
    rng = np.random.default_rng(5)
    p = np.eye(3)
    c = rng.normal(size=3)
    a_ineq = rng.normal(size=(4, 3))
    b_ineq = rng.normal(size=4) - 1.0
    s1 = solve_qp(QpProblem(P=p, c=c, a_ineq=a_ineq, b_ineq=b_ineq))
    s2 = solve_qp(QpProblem(P=p, c=c, a_ineq=a_ineq, b_ineq=b_ineq))
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


# candidate steps 1, 1 - 1.5e-12, 1 - 2e-12 at unit rates: the ascending scan
# blocks on the second row, an argmin would block on the third
CHAIN = [(-1.0, 1.0, False), (-1.0, 1.0 - 1.5e-12, False), (-1.0, 1.0 - 2e-12, False)]

RATES = st.one_of(
    st.sampled_from(
        [-1.0, -1e-12, np.nextafter(-1e-12, -1.0), np.nextafter(-1e-12, 0.0), 0.0, 1.0]
    ),
    st.floats(-4.0, 4.0),
)
# steps within 1e-12 of each other at unit rates
GAPS = st.one_of(
    st.integers(-5, 5).map(lambda k: 1.0 + 0.5e-12 * k),
    st.sampled_from([0.0, -1e-3]),
    st.floats(-1.0, 4.0),
)


def ratio_test_inputs(rows):
    # identity constraint rows at z = 0 make rates and gaps the drawn values
    m = len(rows)
    a_red = np.eye(m)
    direction = np.array([rate for rate, _, _ in rows], dtype=float)
    b_red = -np.array([gap for _, gap, _ in rows], dtype=float)
    working = [i for i, (_, _, active) in enumerate(rows) if active]
    return a_red, b_red, working, np.zeros(m), direction


@given(rows=st.lists(st.tuples(RATES, GAPS, st.booleans()), max_size=10))
@example(rows=CHAIN).via("steps within 1e-12 chained")
@example(rows=[(-1.0, 0.5, True)] + CHAIN).via("the lowest step already in the working set")
def test_max_step_matches_the_row_loop_bit_for_bit(rows):
    args = ratio_test_inputs(rows)
    blocked, alpha = _max_step(*args)
    ref_blocked, ref_alpha = max_step_by_row_loop(*args)
    assert blocked == ref_blocked
    assert np.float64(alpha).tobytes() == np.float64(ref_alpha).tobytes()


def test_max_step_keeps_the_first_row_within_tolerance():
    assert _max_step(*ratio_test_inputs(CHAIN)) == (1, 1.0 - 1.5e-12)
