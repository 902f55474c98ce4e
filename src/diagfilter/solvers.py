"""Small dense convex programs with certified solutions.

Convention used throughout the package:

    minimize    0.5 x' P x + c' x
    subject to  a_eq x == b_eq
                a_ineq x >= b_ineq

Every optimal result carries its Karush-Kuhn-Tucker residuals (primal
feasibility, stationarity, complementary slackness) so downstream code can
trust a solution without re-deriving optimality.  Linear programs are
delegated to the HiGHS dual simplex through scipy; quadratic programs use a
null-space active-set method written here.  Both paths are deterministic:
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import SolverError

# certification thresholds; a result violating them is never labelled optimal
FEAS_TOL = 1e-7
STAT_TOL = 1e-6
COMP_TOL = 1e-6


@dataclass
class QpProblem:
    """Dense convex QP in the package convention (P symmetric PSD)."""

    P: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        self.P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if self.P.shape != (n, n):
            raise ValueError("P must be n x n")
        # relative to the largest entry: training forms are of order 1e-14
        if np.abs(self.P - self.P.T).max(initial=0.0) > 1e-10 * np.abs(self.P).max(initial=0.0):
            raise ValueError("P must be symmetric")
        for name in ("a_eq", "a_ineq"):
            mat = getattr(self, name)
            vec = getattr(self, "b" + name[1:])
            if mat is None:
                setattr(self, name, np.zeros((0, n)))
                setattr(self, "b" + name[1:], np.zeros(0))
            else:
                mat = np.atleast_2d(np.asarray(mat, dtype=float))
                vec = np.asarray(vec, dtype=float).ravel()
                if mat.shape != (vec.size, n):
                    raise ValueError(f"{name} and its rhs have mismatched shapes")
                setattr(self, name, mat)
                setattr(self, "b" + name[1:], vec)

    @property
    def n(self) -> int:
        return self.c.size

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P @ x + self.c @ x)


@dataclass
class Solution:
    """Solver verdict plus certificates.

    ``status`` is one of ``optimal``, ``infeasible``, ``unbounded``.  For an
    optimal result ``residuals`` holds the KKT residuals with keys
    ``primal_eq``, ``primal_ineq``, ``stationarity``, ``complementarity``.
    """

    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    eq_duals: np.ndarray | None = None
    ineq_duals: np.ndarray | None = None
    iterations: int = 0
    residuals: dict = field(default_factory=dict)


def kkt_residuals(
    problem: QpProblem,
    x: np.ndarray,
    eq_duals: np.ndarray,
    ineq_duals: np.ndarray,
) -> dict:
    """KKT residuals of a candidate primal-dual point, package convention.

    Stationarity residual is ``|P x + c - a_eq' nu - a_ineq' lambda|_inf``;
    complementary slackness is ``max_i |lambda_i (a_i x - b_i)|``.
    """
    grad = problem.P @ x + problem.c
    if problem.a_eq.size:
        grad = grad - problem.a_eq.T @ eq_duals
    if problem.a_ineq.size:
        grad = grad - problem.a_ineq.T @ ineq_duals
    res = {
        "stationarity": float(np.abs(grad).max()) if grad.size else 0.0,
        "primal_eq": 0.0,
        "primal_ineq": 0.0,
        "complementarity": 0.0,
        "dual_sign": 0.0,
    }
    if problem.a_eq.size:
        res["primal_eq"] = float(np.abs(problem.a_eq @ x - problem.b_eq).max())
    if problem.a_ineq.size:
        slack = problem.a_ineq @ x - problem.b_ineq
        res["primal_ineq"] = float(np.maximum(-slack, 0.0).max())
        res["complementarity"] = float(np.abs(ineq_duals * slack).max())
        res["dual_sign"] = float(np.maximum(-ineq_duals, 0.0).max())
    return res


def _certify(problem: QpProblem, sol: Solution) -> Solution:
    sol.residuals = kkt_residuals(problem, sol.x, sol.eq_duals, sol.ineq_duals)
    bad = (
        sol.residuals["primal_eq"] > FEAS_TOL
        or sol.residuals["primal_ineq"] > FEAS_TOL
        or sol.residuals["stationarity"] > STAT_TOL
        or sol.residuals["complementarity"] > COMP_TOL
        or sol.residuals["dual_sign"] > COMP_TOL
    )
    if bad:
        raise SolverError(f"KKT certification failed: {sol.residuals}")
    return sol


def certify_point(
    problem: QpProblem,
    x: np.ndarray,
    ineq_duals: np.ndarray,
    iterations: int = 0,
    eq_pinv: np.ndarray | None = None,
) -> Solution:
    """Label a candidate point and its inequality multipliers optimal, if certified.

    The equality multipliers are the minimum-norm least-squares solution of
    the stationarity condition: ``eq_pinv @ (P x + c - a_ineq' lambda)``
    when the pseudo-inverse ``eq_pinv`` of ``a_eq'`` is given, so that
    callers certifying many points under one ``a_eq`` factor it once, and
    one ``lstsq`` otherwise.

    Raises:
        SolverError: if the KKT residuals exceed the certification thresholds.
    """
    sol = Solution(
        status="optimal",
        x=x,
        objective=problem.objective(x),
        eq_duals=_recover_eq_duals(problem, x, ineq_duals, eq_pinv),
        ineq_duals=ineq_duals,
        iterations=iterations,
    )
    return _certify(problem, sol)


def solve_lp(
    c: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    a_ineq: np.ndarray | None = None,
    b_ineq: np.ndarray | None = None,
) -> Solution:
    """Solve ``min c'x  s.t.  a_eq x = b_eq, a_ineq x >= b_ineq``.

    Variables are free (no implicit sign restriction).  Delegates to the
    HiGHS dual simplex and re-derives the duals in the package convention,
    then certifies the KKT system before reporting ``optimal``.
    """
    problem = QpProblem(
        P=np.zeros((np.asarray(c).size,) * 2),
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )
    return _solve_lp_problem(problem)


def _solve_lp_problem(problem: QpProblem) -> Solution:
    # imported here: no univariate run solves an LP, and the import costs a
    # fresh process about a third of its set-up
    import scipy.optimize

    a_ub = -problem.a_ineq if problem.a_ineq.size else None
    b_ub = -problem.b_ineq if problem.a_ineq.size else None
    a_eq = problem.a_eq if problem.a_eq.size else None
    b_eq = problem.b_eq if problem.a_eq.size else None
    res = scipy.optimize.linprog(
        problem.c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(None, None),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        return Solution(status="infeasible")
    if res.status == 3:
        return Solution(status="unbounded")
    if res.status != 0:
        raise SolverError(f"LP backend failed with status {res.status}: {res.message}")
    x = np.asarray(res.x, dtype=float)
    # HiGHS marginals are d(objective)/d(rhs).  In the package convention
    # (L = c'x - lambda'(a_ineq x - b_ineq) - nu'(a_eq x - b_eq)) that gives
    # nu = marginals directly, and lambda = -marginals because the >= rows
    # were handed to the backend with flipped sign.
    eq_duals = (
        np.asarray(res.eqlin.marginals, dtype=float)
        if problem.a_eq.size
        else np.zeros(0)
    )
    ineq_duals = (
        -np.asarray(res.ineqlin.marginals, dtype=float)
        if problem.a_ineq.size
        else np.zeros(0)
    )
    sol = Solution(
        status="optimal",
        x=x,
        objective=float(problem.c @ x),
        eq_duals=eq_duals,
        ineq_duals=ineq_duals,
        iterations=int(getattr(res, "nit", 0)),
    )
    return _certify(problem, sol)


def _null_space(mat: np.ndarray, n: int) -> np.ndarray:
    if mat.size == 0:
        return np.eye(n)
    return scipy.linalg.null_space(mat)


def solve_qp(problem: QpProblem, max_iter: int | None = None) -> Solution:
    """Primal active-set method for a convex QP, with a certified verdict.

    Equality constraints are eliminated exactly through a null-space basis,
    so they hold to machine precision in the result.  A zero P delegates to
    the LP path.  Feasibility of the inequality system is established by a
    phase-one LP, which also yields the infeasible verdict.

    Raises:
        SolverError: if the method stalls or certification fails (neither is
            expected for PSD P with consistent data).
    """
    if not problem.P.any():
        lp = _solve_lp_problem(
            QpProblem(
                P=problem.P,
                c=problem.c,
                a_eq=problem.a_eq,
                b_eq=problem.b_eq,
                a_ineq=problem.a_ineq,
                b_ineq=problem.b_ineq,
            )
        )
        return lp
    n = problem.n
    if max_iter is None:
        max_iter = 100 + 20 * problem.a_ineq.shape[0]

    # eliminate equalities: x = x_part + Z z
    if problem.a_eq.size:
        x_part, _, _, _ = np.linalg.lstsq(problem.a_eq, problem.b_eq, rcond=None)
        eq_gap = np.abs(problem.a_eq @ x_part - problem.b_eq).max()
        if eq_gap > FEAS_TOL:
            return Solution(status="infeasible")
        z_basis = _null_space(problem.a_eq, n)
    else:
        x_part = np.zeros(n)
        z_basis = np.eye(n)

    if z_basis.shape[1] == 0:
        # equalities pin the point down completely
        x = x_part
        if problem.a_ineq.size and (problem.a_ineq @ x - problem.b_ineq).min() < -FEAS_TOL:
            return Solution(status="infeasible")
        return certify_point(problem, x, np.zeros(problem.a_ineq.shape[0]))

    p_red = z_basis.T @ problem.P @ z_basis
    c_red = z_basis.T @ (problem.P @ x_part + problem.c)
    a_red = problem.a_ineq @ z_basis if problem.a_ineq.size else np.zeros((0, z_basis.shape[1]))
    b_red = (
        problem.b_ineq - problem.a_ineq @ x_part
        if problem.a_ineq.size
        else np.zeros(0)
    )
    m = a_red.shape[0]

    # phase one: feasible start for the inequality system in reduced space
    if m:
        start = _solve_lp_problem(
            QpProblem(
                P=np.zeros_like(p_red),
                c=np.zeros(p_red.shape[0]),
                a_ineq=a_red,
                b_ineq=b_red,
            )
        )
        if start.status == "infeasible":
            return Solution(status="infeasible")
        z = start.x
    else:
        z = np.zeros(p_red.shape[0])

    scale = 1.0 + float(np.abs(b_red).max()) if m else 1.0
    working = [i for i in range(m) if abs(a_red[i] @ z - b_red[i]) <= 1e-8 * scale]

    lam_w: np.ndarray = np.zeros(0)
    for itn in range(max_iter):
        grad = p_red @ z + c_red
        a_w = a_red[working] if working else np.zeros((0, p_red.shape[0]))
        z_w = _null_space(a_w, p_red.shape[0])
        if z_w.shape[1] == 0:
            step = np.zeros_like(z)
        else:
            m_red = z_w.T @ p_red @ z_w
            rhs = -z_w.T @ grad
            try:
                u = np.linalg.solve(m_red, rhs)
                ray = None
            except np.linalg.LinAlgError:
                u, _, _, _ = np.linalg.lstsq(m_red, rhs, rcond=None)
                resid = rhs - m_red @ u
                ray = resid if np.abs(resid).max() > 1e-10 * (1 + np.abs(rhs).max()) else None
            if ray is not None:
                # descent ray with zero curvature: unbounded unless blocked
                direction = z_w @ ray
                blocked, alpha = _max_step(a_red, b_red, working, z, direction)
                if blocked is None:
                    return Solution(status="unbounded")
                z = z + alpha * direction
                working.append(blocked)
                working.sort()
                continue
            step = z_w @ u
        if np.abs(step).max() <= 1e-11 * (1.0 + np.abs(z).max()):
            # stationary on the working set; check multiplier signs
            if working:
                lam_w, *_ = np.linalg.lstsq(a_red[working].T, grad, rcond=None)
                neg = np.where(lam_w < -1e-9)[0]
                if neg.size == 0:
                    break
                drop = working[int(neg[np.argmin(lam_w[neg])])]
                working.remove(drop)
                continue
            lam_w = np.zeros(0)
            break
        blocked, alpha = _max_step(a_red, b_red, working, z, step)
        if alpha >= 1.0:
            z = z + step
        else:
            z = z + alpha * step
            working.append(blocked)
            working.sort()
    else:
        raise SolverError(f"active-set method did not converge in {max_iter} iterations")

    x = x_part + z_basis @ z
    lam = np.zeros(m)
    if working and lam_w.size:
        lam[np.asarray(working, dtype=int)] = np.maximum(lam_w, 0.0)
    return certify_point(problem, x, lam, iterations=itn + 1)


def _max_step(a_red, b_red, working, z, direction):
    """Largest feasible step along ``direction``; (blocking index, alpha)."""
    alpha = np.inf
    blocked = None
    if a_red.shape[0]:
        rates = a_red @ direction
        gaps = a_red @ z - b_red
        for i in range(a_red.shape[0]):
            if i in working or rates[i] >= -1e-12:
                continue
            cand = gaps[i] / (-rates[i])
            if cand < alpha - 1e-12:
                alpha, blocked = cand, i
    if blocked is None:
        return None, alpha
    return blocked, max(alpha, 0.0)


def _recover_eq_duals(
    problem: QpProblem, x: np.ndarray, lam: np.ndarray, eq_pinv: np.ndarray | None
) -> np.ndarray:
    if not problem.a_eq.size:
        return np.zeros(0)
    rhs = problem.P @ x + problem.c
    if problem.a_ineq.size:
        rhs = rhs - problem.a_ineq.T @ lam
    if eq_pinv is not None:
        return eq_pinv @ rhs
    nu, *_ = np.linalg.lstsq(problem.a_eq.T, rhs, rcond=None)
    return nu
