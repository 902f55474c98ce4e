"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way -- explicit
loops, index arithmetic, exhaustive enumeration -- and shares no code with
the package internals it checks.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def direct_energy(
    nbar: np.ndarray, l_mat: np.ndarray, sig: np.ndarray, a_coeffs: np.ndarray
) -> float:
    """Residual energy by direct filtering of a mismatch signature.

    Applies the numerator with forward shifts inside the horizon (samples
    past the end read as zero), then the causal denominator difference
    equation, then sums squares over the horizon.  This is the signal-level
    counterpart of the quadratic form in the filter coefficients.
    """
    nbar = np.asarray(nbar, dtype=float).ravel()
    a_coeffs = np.asarray(a_coeffs, dtype=float).ravel()
    d_n = len(a_coeffs) - 1
    n_r = l_mat.shape[0]
    horizon = sig.shape[1]
    coeffs = [nbar[i * n_r : (i + 1) * n_r] @ l_mat for i in range(d_n + 1)]
    w = np.zeros(horizon)
    for k in range(horizon):
        for i in range(d_n + 1):
            if k + i < horizon:
                w[k] += float(coeffs[i] @ sig[:, k + i])
    v = np.zeros(horizon)
    for k in range(horizon):
        acc = w[k - d_n] if k - d_n >= 0 else 0.0
        for i in range(d_n):
            idx = k - d_n + i
            if idx >= 0:
                acc -= a_coeffs[i] * v[idx]
        v[k] = acc / a_coeffs[d_n]
    return float(np.sum(v**2))


def impulse_response_bruteforce(a_coeffs: np.ndarray, length: int) -> np.ndarray:
    """Impulse response of 1/a(q) by running the difference equation."""
    a_coeffs = np.asarray(a_coeffs, dtype=float).ravel()
    d_n = len(a_coeffs) - 1
    h = np.zeros(length)
    for k in range(length):
        acc = 1.0 if k == d_n else 0.0
        for i in range(d_n):
            idx = k - d_n + i
            if idx >= 0:
                acc -= a_coeffs[i] * h[idx]
        h[k] = acc / a_coeffs[d_n]
    return h


def gram_bruteforce(a_coeffs: np.ndarray, horizon: int) -> np.ndarray:
    """Gram matrix of the denominator response by impulse simulation.

    Column i of the response operator is the difference-equation output for
    a unit impulse at sample i; the Gram matrix is the operator's normal
    matrix.
    """
    a_coeffs = np.asarray(a_coeffs, dtype=float).ravel()
    d_n = len(a_coeffs) - 1
    resp = np.zeros((horizon, horizon))
    for i in range(horizon):
        w = np.zeros(horizon)
        w[i] = 1.0
        v = np.zeros(horizon)
        for k in range(horizon):
            acc = w[k - d_n] if k - d_n >= 0 else 0.0
            for m in range(d_n):
                idx = k - d_n + m
                if idx >= 0:
                    acc -= a_coeffs[m] * v[idx]
            v[k] = acc / a_coeffs[d_n]
        resp[:, i] = v
    return resp.T @ resp


def lp_by_vertex_enumeration(
    cost: np.ndarray,
    a_ineq: np.ndarray,
    b_ineq: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    tol: float = 1e-9,
) -> tuple[float, np.ndarray] | None:
    """Minimise cost over {a_ineq x >= b_ineq, a_eq x = b_eq} by enumeration.

    Tries every choice of active inequality rows that, together with the
    equalities, forms a square invertible system; keeps the feasible basic
    point with the smallest objective.  Only meaningful for bounded, pointed
    feasible regions and a handful of variables.  Returns None when no
    feasible vertex exists.
    """
    cost = np.asarray(cost, dtype=float).ravel()
    n = cost.size
    a_ineq = np.atleast_2d(np.asarray(a_ineq, dtype=float))
    b_ineq = np.asarray(b_ineq, dtype=float).ravel()
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.asarray(b_eq, dtype=float).ravel()
    n_eq = a_eq.shape[0]
    need = n - n_eq
    best: tuple[float, np.ndarray] | None = None
    for rows in combinations(range(a_ineq.shape[0]), need):
        mat = np.vstack([a_eq, a_ineq[list(rows)]])
        rhs = np.concatenate([b_eq, b_ineq[list(rows)]])
        if np.linalg.matrix_rank(mat, tol=1e-10) < n:
            continue
        x = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        if np.max(np.abs(mat @ x - rhs)) > 1e-7:
            continue
        if np.any(a_ineq @ x < b_ineq - 1e-7):
            continue
        if n_eq and np.max(np.abs(a_eq @ x - b_eq)) > 1e-7:
            continue
        value = float(cost @ x)
        if best is None or value < best[0] - tol:
            best = (value, x)
    return best


def zoh_bruteforce(a: np.ndarray, b: np.ndarray, t_s: float, terms: int = 60):
    """Sampled-system matrices by truncated exponential series."""
    n = a.shape[0]
    ad = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ (a * t_s) / k
        ad = ad + term
    # integral of expm(a s) ds over one period, series form
    integral = np.eye(n) * t_s
    term = np.eye(n) * t_s
    for k in range(1, terms):
        term = term @ (a * t_s) * (1.0 / (k + 1))
        integral = integral + term
    return ad, integral @ b


def steady_state_residual(design, f_matrix: np.ndarray, f: np.ndarray) -> float:
    """Residual limit under a constant attack ``f`` on the mismatch-free model.

    The filter's numerator and denominator evaluated at q = 1, ``N(1)`` as
    the sum of the coefficient blocks and ``a(1)`` as the sum of the
    denominator coefficients, give ``-N(1) F f / a(1)``; with the DC
    tracking constraint active this is the injected bias itself.
    """
    f = np.asarray(f, dtype=float).ravel()
    n_r = design.nbar.size // (design.d_n + 1)
    n_at_one = np.zeros(n_r)
    for i in range(design.d_n + 1):
        n_at_one += design.nbar[i * n_r : (i + 1) * n_r]
    return float(-(n_at_one @ f_matrix @ f) / sum(design.a_coeffs))


def simulate_nonlinear_loop(plant, dist, atk) -> np.ndarray:
    """Sampled outputs of one nonlinear plant run, integrated on its own.

    The per-run fixed-step RK4 loop: matrix-vector products on one state
    vector, each nonlinearity applied to that vector alone.  Returns the
    (n_y, T) output record; raises nothing on blow-up.
    """
    model, index = plant.assemble()
    a_mat, b_d, b_f = model.A, model.B_d, model.B_f
    n_x, n_f = model.n_x, model.n_f
    t_s, dt = plant.t_s, plant.dt
    n_samples = int(round(dist.horizon / t_s))
    per_sample = int(round(t_s / dt))
    n_steps = n_samples * per_sample
    step_times = np.arange(n_steps) * dt
    d_steps = dist.sample(step_times)
    f_steps = atk.sample(step_times, n_f)
    f_at_samples = atk.sample(np.arange(1, n_samples + 1) * t_s, n_f)
    agc_rows = np.array([index.agc_row[a] for a in index.area_ids], dtype=int)
    n_theta = index.tie_rows.size if plant.sine_ties else 0
    # each tie row of A couples the tie flow to its own area's frequency by the stiffness
    tie_coef = a_mat[index.tie_rows, index.tie_omega_own]

    def rhs(state, u_d, u_f):
        x = state[:n_x]
        dx = a_mat @ x + b_d @ u_d + b_f @ u_f
        out = np.empty_like(state)
        if plant.deadband > 0.0:
            omega = x[index.gov_omega]
            half = 0.5 * plant.deadband
            banded = np.sign(omega) * np.maximum(np.abs(omega) - half, 0.0)
            dx[index.gov_rows] += index.gov_droop_coef * (banded - omega)
        if plant.sine_ties:
            theta = state[n_x:]
            dtheta = x[index.tie_omega_own] - x[index.tie_omega_other]
            dx[index.tie_rows] += tie_coef * (np.cos(theta) - 1.0) * dtheta
            out[n_x:] = dtheta
        if plant.agc_limits is not None:
            lo, hi = plant.agc_limits
            agc = x[agc_rows]
            d_agc = dx[agc_rows]
            d_agc[(agc >= hi) & (d_agc > 0.0)] = 0.0
            d_agc[(agc <= lo) & (d_agc < 0.0)] = 0.0
            dx[agc_rows] = d_agc
        if plant.rate_limit is not None:
            dx[agc_rows] = np.clip(dx[agc_rows], -plant.rate_limit, plant.rate_limit)
        out[:n_x] = dx
        return out

    state = np.zeros(n_x + n_theta)
    Y = np.empty((model.n_y, n_samples))
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(n_steps):
        u_d, u_f = d_steps[:, step], f_steps[:, step]
        k1 = rhs(state, u_d, u_f)
        k2 = rhs(state + half * k1, u_d, u_f)
        k3 = rhs(state + half * k2, u_d, u_f)
        k4 = rhs(state + dt * k3, u_d, u_f)
        state = state + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if plant.agc_limits is not None:
            state[agc_rows] = np.clip(state[agc_rows], *plant.agc_limits)
        if (step + 1) % per_sample == 0:
            k = (step + 1) // per_sample - 1
            Y[:, k] = model.C @ state[:n_x] + model.D_f @ f_at_samples[:, k]
    return Y


def bisect_visibility_floor(attempt, gamma_j: float, tol: float = 1e-7, iters: int = 40):
    """Largest feasible visibility floor by bisection, probing one design per floor.

    ``attempt(gamma)`` returns the design at the fixed floor ``gamma``, or
    None when that floor is infeasible.  From a feasible start the bracket's
    upper end doubles until it turns infeasible (at most ``iters`` times);
    from an infeasible start the bracket is ``[0, gamma_j]``.  Then the
    bracket is halved until its width is at most ``tol * max(1, lo)`` (at
    most ``iters`` times).  Returns ``(lo, design at lo)``; raises
    ValueError when the floor never turns infeasible or zero is infeasible.
    """
    gamma = float(gamma_j)
    design = attempt(gamma)
    if design is not None:
        lo, lo_design = gamma, design
        hi = max(2.0 * gamma, gamma + 1.0)
        hi_design = attempt(hi)
        expansions = 0
        while hi_design is not None and expansions < iters:
            lo, lo_design = hi, hi_design
            hi *= 2.0
            hi_design = attempt(hi)
            expansions += 1
        if hi_design is not None:
            raise ValueError("visibility floor never turned infeasible")
    else:
        hi, lo = gamma, 0.0
        lo_design = attempt(lo)
        if lo_design is None:
            raise ValueError("infeasible even at gamma = 0")
    for _ in range(iters):
        if hi - lo <= tol * max(1.0, abs(lo)):
            break
        mid = 0.5 * (lo + hi)
        mid_design = attempt(mid)
        if mid_design is not None:
            lo, lo_design = mid, mid_design
        else:
            hi = mid
    return lo, lo_design


def max_step_by_row_loop(a_red, b_red, working, z, direction):
    """Ratio test of an active-set step, one inequality row at a time.

    Row ``i`` blocks the step ``z + alpha d`` when it is outside ``working``
    and its rate ``a_i d`` is below -1e-12; its step is ``(a_i z - b_i) /
    -(a_i d)``.  Rows are visited in ascending order and a row's step
    replaces the incumbent only when it is lower by more than 1e-12.
    Returns ``(blocking row, step clipped at zero)``, or ``(None, inf)``.
    """
    rates = a_red @ direction
    gaps = a_red @ z - b_red
    alpha, blocked = np.inf, None
    for i in range(a_red.shape[0]):
        if i in working or rates[i] >= -1e-12:
            continue
        cand = gaps[i] / (-rates[i])
        if cand < alpha - 1e-12:
            alpha, blocked = cand, i
    if blocked is None:
        return None, alpha
    return blocked, max(alpha, 0.0)
