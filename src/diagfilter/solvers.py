"""Small dense convex programs with certified solutions.

Convention used throughout the package:

    minimize    0.5 x' P x + c' x
    subject to  a_eq x == b_eq
                a_ineq x >= b_ineq

Every optimal result carries its Karush-Kuhn-Tucker residuals (primal
feasibility, stationarity, complementary slackness) so downstream code can
trust a solution without re-deriving optimality.  Linear programs are
delegated to the HiGHS dual simplex through scipy.  Quadratic programs must
be strictly convex, with P positive definite on the null space of the
equalities; they use a null-space active-set method written here, which
raises :class:`SolverError` where it meets a singular reduced Hessian and
never reports ``unbounded``.  Both paths are deterministic: identical
inputs give bit-identical outputs.

Each equality system is factored once, by one SVD in
:func:`factor_equalities`: a QP's equalities, the univariate design's
equalities and each working set of the active-set method, which is factored
when the working set changes, not on every iteration.  The one SVD gives the
particular solution, the null-space basis and the pseudo-inverse from which
:func:`certify_point` recovers the equality multipliers.
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

    ``status`` is one of ``optimal``, ``infeasible``, ``unbounded``; only
    :func:`solve_lp` reports ``unbounded``.  For an optimal result
    ``residuals`` holds the KKT residuals with keys ``primal_eq``,
    ``primal_ineq``, ``stationarity``, ``complementarity``, ``dual_sign``.
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
    eq_pinv: np.ndarray,
    iterations: int = 0,
) -> Solution:
    """Label a candidate point and its inequality multipliers optimal, if certified.

    The equality multipliers are the minimum-norm least-squares solution of
    the stationarity condition, ``eq_pinv @ (P x + c - a_ineq' lambda)``,
    with ``eq_pinv`` the pseudo-inverse of ``a_eq'`` that
    :func:`factor_equalities` returns: callers certifying many points under
    one ``a_eq`` factor it once.

    Raises:
        SolverError: if the KKT residuals exceed the certification thresholds.
    """
    stat = problem.P @ x + problem.c - problem.a_ineq.T @ ineq_duals
    sol = Solution(
        status="optimal",
        x=x,
        objective=problem.objective(x),
        eq_duals=eq_pinv @ stat,
        ineq_duals=ineq_duals,
        iterations=iterations,
    )
    return _certify(problem, sol)


def factor_equalities(
    a_eq: np.ndarray, b_eq: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One SVD of an equality system ``a_eq x = b_eq``: ``(x_part, Z, eq_pinv)``.

    The rank counts the singular values above ``eps * max(a_eq.shape) *
    s.max()``, SciPy's rule for null spaces and least squares.  ``Z`` is an
    orthonormal basis of the null space of ``a_eq``, so every ``x_part + Z z``
    meets the equalities.  ``eq_pinv`` is the pseudo-inverse of ``a_eq'`` at
    that rank: ``eq_pinv @ g`` is the minimum-norm least-squares multiplier
    vector of a gradient ``g``.  ``x_part = eq_pinv' b_eq`` is the
    minimum-norm least-squares solution; callers compare ``a_eq x_part`` with
    ``b_eq`` to detect an inconsistent system.  An empty ``a_eq`` gives
    ``(0, I, 0 x n)``.
    """
    n = a_eq.shape[1]
    if a_eq.size == 0:
        return np.zeros(n), np.eye(n), np.zeros((0, n))
    u, s, vt = scipy.linalg.svd(a_eq, full_matrices=True)
    rank = np.count_nonzero(s > np.finfo(float).eps * max(a_eq.shape) * s.max())
    eq_pinv = (u[:, :rank] / s[:rank]) @ vt[:rank]
    return eq_pinv.T @ b_eq, vt[rank:].T, eq_pinv


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
    # imported here: no univariate run solves an LP, and the import costs a
    # fresh process about a third of its set-up
    import scipy.optimize

    problem = QpProblem(
        P=np.zeros((np.asarray(c).size,) * 2),
        c=c,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )
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


def solve_qp(problem: QpProblem) -> Solution:
    """Primal active-set method for a strictly convex QP, with a certified verdict.

    ``P`` must be positive definite on the null space of the equalities, as
    the design's ridge makes it; the verdict is ``optimal`` or
    ``infeasible``, never ``unbounded``.  Equality constraints are
    eliminated exactly through a null-space basis, so they hold to machine
    precision in the result.  The equalities are factored once by
    :func:`factor_equalities`, and each working set of active inequalities
    once per change of the working set: iterations that keep it reuse its
    null-space basis, multiplier pseudo-inverse and reduced Hessian.
    Feasibility of the inequality system is established by a phase-one LP,
    which also yields the infeasible verdict.  The certificate reads the
    multipliers the method stopped at, unclipped.

    Raises:
        SolverError: if a reduced Hessian is singular (``P`` is not positive
            definite on the equality null space), the method stalls or
            certification fails.
    """
    max_iter = 100 + 20 * problem.a_ineq.shape[0]

    # eliminate equalities: x = x_part + Z z
    x_part, z_basis, eq_pinv = factor_equalities(problem.a_eq, problem.b_eq)
    if np.abs(problem.a_eq @ x_part - problem.b_eq).max(initial=0.0) > FEAS_TOL:
        return Solution(status="infeasible")

    if z_basis.shape[1] == 0:
        # equalities pin the point down completely
        x = x_part
        if problem.a_ineq.size and (problem.a_ineq @ x - problem.b_ineq).min() < -FEAS_TOL:
            return Solution(status="infeasible")
        return certify_point(problem, x, np.zeros(problem.a_ineq.shape[0]), eq_pinv)

    p_red = z_basis.T @ problem.P @ z_basis
    c_red = z_basis.T @ (problem.P @ x_part + problem.c)
    a_red = problem.a_ineq @ z_basis
    b_red = problem.b_ineq - problem.a_ineq @ x_part
    m = a_red.shape[0]

    # phase one: feasible start for the inequality system in reduced space
    if m:
        start = solve_lp(np.zeros(p_red.shape[0]), a_ineq=a_red, b_ineq=b_red)
        if start.status == "infeasible":
            return Solution(status="infeasible")
        z = start.x
    else:
        z = np.zeros(p_red.shape[0])

    scale = 1.0 + float(np.abs(b_red).max()) if m else 1.0
    working = [i for i in range(m) if abs(a_red[i] @ z - b_red[i]) <= 1e-8 * scale]

    factored = None
    for itn in range(max_iter):
        grad = p_red @ z + c_red
        if working != factored:
            factored = list(working)
            _, z_w, w_pinv = factor_equalities(a_red[working], b_red[working])
            m_red = z_w.T @ p_red @ z_w
        if z_w.shape[1] == 0:
            step = np.zeros_like(z)
        else:
            try:
                step = z_w @ np.linalg.solve(m_red, -z_w.T @ grad)
            except np.linalg.LinAlgError:
                raise SolverError(
                    "reduced Hessian is singular: P is not positive definite "
                    "on the null space of the equalities"
                ) from None
        if np.abs(step).max() <= 1e-11 * (1.0 + np.abs(z).max()):
            # stationary on the working set; check multiplier signs
            lam_w = w_pinv @ grad
            neg = np.where(lam_w < -1e-9)[0]
            if neg.size == 0:
                break
            drop = working[int(neg[np.argmin(lam_w[neg])])]
            working.remove(drop)
            continue
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
    lam[working] = lam_w
    return certify_point(problem, x, lam, eq_pinv, iterations=itn + 1)


def _max_step(a_red, b_red, working, z, direction):
    """Largest feasible step along ``direction``; (blocking index, alpha).

    An unblocked direction gives ``(None, inf)``.
    """
    alpha = np.inf
    blocked = None
    if a_red.shape[0]:
        rates = a_red @ direction
        gaps = a_red @ z - b_red
        candidates = rates < -1e-12
        candidates[working] = False
        rows = np.flatnonzero(candidates)
        # ascending scan, not argmin: a row displaces the incumbent only
        # with a step lower by more than 1e-12
        for i, cand in zip(rows.tolist(), (gaps[rows] / -rates[rows]).tolist()):
            if cand < alpha - 1e-12:
                alpha, blocked = cand, i
    return blocked, max(alpha, 0.0)
