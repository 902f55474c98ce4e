"""Residual filter synthesis: null-space constraints plus recorded mismatch data.

A residual generator ``r = a(q)^{-1} N(q) L(q) y`` is blind to states and
disturbances whenever ``nbar @ barH = 0``.  What remains in the residual is
the attack response and the response to the output mismatch between the
physical plant and its abstract model.  The functions here turn recorded
mismatch trajectories into quadratic forms whose value at ``nbar`` is the
mismatch energy the filter reproduces (or into that energy itself, as a
filter run), and solve programs that trade it off against attack visibility.

The model fixes each program's feasible set and the training data only its
objective.  So a design function given a training form also solves its
program without the form, over the same constraints, and rejects a design
that loses to this model-only baseline; the design carries the baseline.
The support LPs of the multivariate programs are the one verdict on the
attack set: they are unbounded exactly when its polytope is empty.

Horizon convention: a mismatch signature has one column per sample,
k = 1..T; applying the shift beyond the horizon zero-fills, i.e. the
signature is treated as a finite-support signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, DetectorInfeasibleError, NoFilterError, SolverError
from .lti import StackedSystem
from .shiftpoly import pole_polynomial
from .solvers import (
    QpProblem,
    Solution,
    certify_point,
    solve_lp,
    solve_qp,
)

# ridge added to the averaged quadratic form before it enters a solver
REGULARIZATION = 1e-10
# relative step by which the multivariate design lowers its support-LP floor
# once when the QP's phase-one LP rejects the optimum itself
FLOOR_BACKOFF = 1e-7


def mismatch_signature(y_p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Output mismatch ``y_p - y`` between plant and abstract model samples.

    Both arguments are (n_y, T) sample matrices on the same grid; shape
    disagreement is rejected rather than broadcast.
    """
    y_p = np.asarray(y_p, dtype=float)
    y = np.asarray(y, dtype=float)
    if y_p.shape != y.shape:
        raise ValueError(f"trajectory shapes differ: {y_p.shape} vs {y.shape}")
    return y_p - y


def impulse_response(a_coeffs: np.ndarray, length: int) -> np.ndarray:
    """First ``length`` samples of the causal impulse response of 1/a(q).

    Runs the difference equation ``sum_i a_i h[k - deg + i] = delta[k - deg]``
    forward; the response is zero up to the delay ``deg`` (the polynomial
    degree) because 1/a(q) is strictly delaying.
    """
    a = np.asarray(a_coeffs, dtype=float).ravel()
    deg = a.size - 1
    if deg < 1 or a[deg] == 0.0:
        raise ValueError("a(q) must have degree >= 1 with nonzero leading coefficient")
    h = np.zeros(length)
    for k in range(length):
        acc = 1.0 if k == deg else 0.0
        for i in range(deg):
            j = k - deg + i
            if j >= 0:
                acc -= a[i] * h[j]
        h[k] = acc / a[deg]
    return h


def gram_matrix(a_coeffs: np.ndarray, horizon: int) -> np.ndarray:
    """Horizon-truncated Gram matrix of the filter bank ``{a(q)^{-1} e_i}``.

    Entry (i, j) is the inner product over samples 1..T of the responses of
    1/a(q) to unit impulses at times i and j.  With ``h`` the impulse
    response this is ``sum_k h[k-i] h[k-j]``, assembled here from the
    lower-triangular Toeplitz response matrix.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    h = impulse_response(a_coeffs, horizon)
    resp = np.zeros((horizon, horizon))
    for i in range(horizon):
        resp[i:, i] = h[: horizon - i]
    gram = resp.T @ resp
    return 0.5 * (gram + gram.T)


def stack_shifted(signature: np.ndarray, d_n: int) -> np.ndarray:
    """Stack the signature and its first ``d_n`` forward shifts row-wise.

    Block i equals the signature advanced i samples with zero fill at the
    right edge, so multiplying ``nbar @ barL`` against the result applies the
    full filter numerator to the finite-support signal.
    """
    sig = np.atleast_2d(np.asarray(signature, dtype=float))
    n_y, horizon = sig.shape
    out = np.zeros(((d_n + 1) * n_y, horizon))
    for i in range(d_n + 1):
        out[i * n_y : (i + 1) * n_y, : horizon - i] = sig[:, i:]
    return out


def _numerator_rows(stacked: StackedSystem, signature: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """``barL Dstack`` of a signature checked against the model and the Gram matrix."""
    sig = np.atleast_2d(np.asarray(signature, dtype=float))
    if sig.shape[0] != stacked.n_y:
        raise ValueError(f"signature has {sig.shape[0]} rows, model has {stacked.n_y} outputs")
    if gram.shape != (sig.shape[1], sig.shape[1]):
        raise ValueError("gram matrix does not match the signature horizon")
    return stacked.barL @ stack_shifted(sig, stacked.d_n)


def q_matrix(stacked: StackedSystem, signature: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Quadratic form whose value ``nbar Q nbar'`` is the filtered mismatch energy.

    ``Q = (barL Dstack) G (barL Dstack)'`` is positive semidefinite by
    construction; the returned matrix is explicitly symmetrised to keep
    round-off from leaking into eigenvalue checks.
    """
    ld = _numerator_rows(stacked, signature, gram)
    q = ld @ gram @ ld.T
    return 0.5 * (q + q.T)


def signature_energy(
    stacked: StackedSystem, nbar: np.ndarray, signature: np.ndarray, gram: np.ndarray
) -> float:
    """:func:`q_matrix`'s value at ``nbar``, up to round-off, as a filter run:
    the numerator output ``w = nbar barL Dstack`` has energy ``w G w'``."""
    return quadratic_value(nbar @ _numerator_rows(stacked, signature, gram), gram)


def quadratic_value(nbar: np.ndarray, q: np.ndarray) -> float:
    nbar = np.asarray(nbar, dtype=float).ravel()
    return float(nbar @ q @ nbar)


@dataclass
class AttackModel:
    """Declared attack set used during synthesis.

    ``kind="univariate"`` models a single corrupted channel with a constant
    bias; only the channel's existence matters to the design (any nonzero
    bias is detectable iff the filter responds at all).

    ``kind="multivariate"`` models coordinated biases ``f = basis @ alpha``
    with ``alpha`` constrained to the polytope ``polytope_a @ alpha >=
    polytope_b``.  ``basis`` has one column per degree of freedom.  Only the
    shapes are checked here; the design's support LPs find an empty
    polytope (:func:`_support_floor`).
    """

    kind: str
    basis: np.ndarray | None = None
    polytope_a: np.ndarray | None = None
    polytope_b: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("univariate", "multivariate"):
            raise ConfigError(f"unknown attack model kind {self.kind!r}")
        if self.kind == "univariate":
            return
        if self.basis is None or self.polytope_a is None or self.polytope_b is None:
            raise ConfigError("multivariate attack model needs basis and polytope")
        self.basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        self.polytope_a = np.atleast_2d(np.asarray(self.polytope_a, dtype=float))
        self.polytope_b = np.asarray(self.polytope_b, dtype=float).ravel()
        if self.polytope_a.shape != (self.polytope_b.size, self.basis.shape[1]):
            raise ConfigError("polytope dimensions do not match the basis")

    @property
    def dof(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]

    def validate_against(self, n_f: int):
        if self.kind == "univariate":
            if n_f != 1:
                raise ConfigError(
                    f"univariate attack model needs one attack channel, model has {n_f}"
                )
            return
        if self.basis.shape[0] != n_f:
            raise ConfigError(
                f"attack basis has {self.basis.shape[0]} rows, model has {n_f} channels"
            )


@dataclass
class FilterDesign:
    """A synthesised residual generator plus its design certificates.

    ``mode`` is ``"data_assisted"`` for a design against a training form and
    ``"pure_model"`` for one without.  A data-assisted design carries in
    ``baseline`` the model-only design over its constraints that it was
    checked against (:func:`_with_baseline`).  It is not persisted.
    """

    nbar: np.ndarray
    d_n: int
    pole: float
    mode: str
    objective: float
    branch: dict
    track_steady_state: bool = False
    diagnostics: dict = field(default_factory=dict)
    baseline: FilterDesign | None = field(default=None, repr=False, compare=False)

    @property
    def a_coeffs(self) -> np.ndarray:
        """The denominator ``a(q)``, of degree ``d_n`` with every root at ``pole``."""
        return pole_polynomial(self.pole, self.d_n)

    @property
    def n_r(self) -> int:
        """Residual outputs: the rows of each of the ``d_n + 1`` coefficients."""
        return self.nbar.size // (self.d_n + 1)

    def coeff(self, i: int) -> np.ndarray:
        if not 0 <= i <= self.d_n:
            raise IndexError(f"coefficient index {i} outside 0..{self.d_n}")
        return self.nbar[i * self.n_r : (i + 1) * self.n_r]

    def coeff_sum(self) -> np.ndarray:
        """N(1): the coefficient sum governing the steady-state response."""
        return self.nbar.reshape(self.d_n + 1, self.n_r).sum(axis=0)


def _objective(stacked: StackedSystem, qbar: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The training form (zero for a model-only design) and the ridged ``P``
    of the programs that minimise it."""
    n = stacked.n_vars
    if qbar is None:
        qbar = np.zeros((n, n))
    qbar = np.asarray(qbar, dtype=float)
    if qbar.shape != (n, n):
        raise ValueError(f"qbar must be {n} x {n}")
    return qbar, 2.0 * (qbar + REGULARIZATION * np.eye(n))


def _with_baseline(design: FilterDesign, baseline: FilterDesign, form: np.ndarray) -> FilterDesign:
    """``design`` carrying its model-only ``baseline`` once it scores no worse.

    Both filters are scored on the ridged training ``form`` the programs
    minimise, relatively, as the forms are of order 1e-14 to 1e-10; the
    scores go to ``diagnostics["dominance"]``.  DetectorInfeasibleError if
    the baseline scores lower.
    """
    ridged = form + REGULARIZATION * np.eye(form.shape[0])
    assisted_ridged = quadratic_value(design.nbar, ridged)
    pure_ridged = quadratic_value(baseline.nbar, ridged)
    if assisted_ridged > pure_ridged * (1.0 + 1e-6):
        raise DetectorInfeasibleError(
            "training-aware design lost to the model-only baseline on its own "
            f"objective ({assisted_ridged:.6e} > {pure_ridged:.6e}); "
            "the quadratic forms are inconsistent"
        )
    design.baseline = baseline
    design.diagnostics["dominance"] = {
        "assisted_value": float(design.objective),
        "pure_value": float(quadratic_value(baseline.nbar, form)),
        "assisted_ridged": float(assisted_ridged),
        "pure_ridged": float(pure_ridged),
        "ridged_ratio": float(assisted_ridged / pure_ridged),
    }
    return design


def design_univariate(
    stacked: StackedSystem,
    qbar: np.ndarray | None,
    *,
    pole: float,
    track_steady_state: bool = False,
) -> FilterDesign:
    """Synthesise a filter against a single attacked channel.

    Minimises the averaged mismatch form over the model null space, subject
    to unit attack visibility: one coefficient of the attack response is
    pushed to at least one in magnitude.  Each coefficient/sign pair is one
    convex branch, visited by ascending coefficient index, positive sign
    first.  A branch replaces the incumbent only if its objective is lower
    by more than an absolute 1e-12.  Data-assisted objectives are of order
    1e-14 and model-only ones are zero, so in practice the first feasible
    branch is kept even where a later branch's objective is several times
    lower.  Without extra linear constraints the two signs mirror each
    other, so only positive branches are solved; enabling
    ``track_steady_state`` adds the DC normalisation
    ``-a(1)^{-1} N(1) F = 1``, which breaks the symmetry, and both signs
    are solved.

    Every branch is an equality-constrained QP with the one inequality
    ``g x >= 1``, solved in closed form on a single null-space basis ``Z``
    of the equalities and one Cholesky factor ``R`` of ``Z' P Z``: the
    equality-only optimum ``x_free`` is the answer when it already clears
    the inequality, otherwise the inequality is active and the optimum is
    ``x_free + lambda Z R^{-1} Z' g`` with the multiplier ``lambda`` that
    makes ``g x = 1``.  Each candidate is KKT-certified like a solver result.
    All branches share the equalities, so one reduction of them
    (:meth:`~diagfilter.solvers.QpProblem.reduction`, one SVD) gives the
    particular solution, ``Z`` and the pseudo-inverse that recovers every
    candidate's equality multipliers.  Given a training form, the design
    also searches the branches without it, over the same reduction, and
    carries that model-only baseline (:func:`_with_baseline`).

    Raises:
        NoFilterError: if every branch is infeasible.
        SolverError: if a candidate fails KKT certification.
        DetectorInfeasibleError: if the design loses to its baseline.
    """
    if stacked.n_f != 1:
        raise ConfigError("design_univariate expects exactly one attack channel")
    form, p_mat = _objective(stacked, qbar)
    a_eq = stacked.barH.T
    b_eq = np.zeros(a_eq.shape[0])
    if track_steady_state:
        a_one = float(np.sum(pole_polynomial(pole, stacked.d_n)))
        dc_row = -(1.0 / a_one) * stacked.barF.sum(axis=1)
        a_eq = np.vstack([a_eq, dc_row])
        b_eq = np.append(b_eq, 1.0)
    constraints = QpProblem(P=p_mat, c=np.zeros(stacked.n_vars), a_eq=a_eq, b_eq=b_eq)
    mode = "pure_model" if qbar is None else "data_assisted"
    design = _branch_search(stacked, constraints, form, mode, pole, track_steady_state)
    if qbar is None:
        return design
    zero, p_pure = _objective(stacked, None)
    pure = constraints.with_objective(p_pure, constraints.c)
    baseline = _branch_search(stacked, pure, zero, "pure_model", pole, track_steady_state)
    return _with_baseline(design, baseline, form)


def _branch_search(
    stacked: StackedSystem, qp: QpProblem, form: np.ndarray, mode: str, pole: float, track: bool
) -> FilterDesign:
    """:func:`design_univariate`'s branches under ``qp``'s objective, whose
    ``P`` ridges ``form``, over its equalities; each branch's certificate
    swaps its inequality row ``g x >= 1`` into ``qp``."""
    p_mat = qp.P
    red = qp.reduction()
    x_part, z_basis, eq_pinv = red.x_part, red.z_basis, red.eq_pinv
    consistent = red.start is not None
    if consistent:
        try:
            chol = scipy.linalg.cho_factor(z_basis.T @ p_mat @ z_basis)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"reduced quadratic form is not positive definite: {exc}") from exc
        x_free = x_part - z_basis @ scipy.linalg.cho_solve(chol, z_basis.T @ (p_mat @ x_part))
        qp.b_ineq = np.array([1.0])

    signs = (1, -1) if track else (1,)
    best = None
    report = []
    for j in range(stacked.d_n + 1):
        for sign in signs:
            g = sign * stacked.barF[:, j]
            entry = {"coeff_index": j, "sign": sign, "status": "infeasible"}
            report.append(entry)
            if not consistent:
                continue
            shortfall = 1.0 - g @ x_free
            if shortfall <= 0.0:
                x, lam = x_free, 0.0
            else:
                h = z_basis.T @ g
                if np.linalg.norm(h) <= 1e-9 * np.linalg.norm(g):
                    continue
                step = scipy.linalg.cho_solve(chol, h)
                lam = shortfall / (h @ step)
                x = x_free + z_basis @ (lam * step)
            qp.a_ineq = g[None, :]
            sol = certify_point(qp, x, np.array([lam]), eq_pinv)
            value = quadratic_value(sol.x, form)
            entry.update(status=sol.status, objective=value)
            if best is None or value < best[0] - 1e-12:
                best = (value, j, sign, sol)
    if best is None:
        raise NoFilterError("all design branches infeasible", report)

    value, j, sign, sol = best
    nbar = sol.x.copy()
    nf_row = nbar @ stacked.barF
    leading = nf_row[np.abs(nf_row) > 1e-9]
    if not track and leading.size and leading[0] < 0:
        nbar = -nbar
        nf_row = -nf_row
        sign = -sign
    return FilterDesign(
        nbar=nbar,
        d_n=stacked.d_n,
        pole=pole,
        mode=mode,
        objective=value,
        branch={"coeff_index": j, "sign": sign},
        track_steady_state=track,
        diagnostics={
            "null_residual": float(np.abs(nbar @ stacked.barH).max()),
            "attack_gain": float(np.abs(nf_row).max()),
            "branch_report": report,
        },
    )


def program_branch(j: int) -> tuple[int, int]:
    """Map a 1-based program number to (coefficient index, sign).

    Programs come in mirror pairs: numbers 2k-1 and 2k probe coefficient k-1
    with negative and positive sign respectively.  ``(nbar, lambda)`` meets
    program 2k-1's constraints iff ``(-nbar, lambda)`` meets program 2k's:
    ``barH' nbar = 0`` and the norm cap are symmetric, and the coupling rows
    ``sign * m_resp' nbar_sl - A' lambda = 0`` flip ``sign`` with ``nbar``.
    The support objective ``b' lambda`` reads ``lambda`` alone, so both
    programs of a pair have one support LP and one optimum.
    """
    if j < 1:
        raise ValueError("program numbers are 1-based")
    return (j + 1) // 2 - 1, (1 if j % 2 == 0 else -1)


@dataclass
class PretrainResult:
    """Attack-visibility margins, one per sign-definite linear program."""

    gammas: np.ndarray

    @property
    def j_star(self) -> int:
        """The first program with the largest margin, 1-based."""
        return int(np.argmax(self.gammas)) + 1

    @property
    def gamma_star(self) -> float:
        return float(self.gammas[self.j_star - 1])

    @property
    def feasible(self) -> bool:
        """True when some program certifies strictly positive visibility."""
        return self.gamma_star > 1e-9


def _coupling_rows(stacked: StackedSystem, attack: AttackModel, j: int) -> np.ndarray:
    """Equality rows tying the coefficient response to the polytope dual."""
    idx, sign = program_branch(j)
    if idx > stacked.d_n:
        raise ValueError(f"program {j} outside 1..{2 * stacked.d_n + 2}")
    sl = stacked.coeff_slice(idx)
    n_vars = stacked.n_vars
    n_b = attack.polytope_b.size
    d = attack.dof
    m_resp = stacked.barF[sl, idx * stacked.n_f : (idx + 1) * stacked.n_f] @ attack.basis
    rows = np.zeros((d, n_vars + n_b))
    for col in range(d):
        rows[col, sl] = sign * m_resp[:, col]
        rows[col, n_vars:] = -attack.polytope_a[:, col]
    return rows


def _program_constraints(
    stacked: StackedSystem, attack: AttackModel, j: int, gamma: float | None = None
):
    """Constraints of program ``j`` over the variables ``[nbar, lambda]``.

    Equalities: the null-space rows ``barH' nbar = 0`` and the coupling
    rows.  Inequalities, in this order: ``lambda >= 0``, the support row
    ``b' lambda >= gamma`` when a floor ``gamma`` is given, and the norm
    cap ``|nbar|_inf <= 1`` that keeps every program bounded.  Returns
    ``(a_eq, b_eq, a_ineq, b_ineq)``.
    """
    n_vars = stacked.n_vars
    n_b = attack.polytope_b.size
    n_total = n_vars + n_b
    n_h = stacked.barH.shape[1]
    coupling = _coupling_rows(stacked, attack, j)
    a_eq = np.zeros((n_h + coupling.shape[0], n_total))
    a_eq[:n_h, :n_vars] = stacked.barH.T
    a_eq[n_h:] = coupling

    cap_row = n_b if gamma is None else n_b + 1
    a_ineq = np.zeros((cap_row + 2 * n_vars, n_total))
    b_ineq = np.zeros(a_ineq.shape[0])
    a_ineq[:n_b, n_vars:] = np.eye(n_b)
    if gamma is not None:
        a_ineq[n_b, n_vars:] = attack.polytope_b
        b_ineq[n_b] = gamma
    a_ineq[cap_row : cap_row + n_vars, :n_vars] = np.eye(n_vars)
    a_ineq[cap_row + n_vars :, :n_vars] = -np.eye(n_vars)
    b_ineq[cap_row:] = -1.0
    return a_eq, np.zeros(a_eq.shape[0]), a_ineq, b_ineq


def _support_lp(stacked: StackedSystem, attack: AttackModel, j: int) -> Solution:
    """Program ``j``'s support LP: maximise ``b' lambda`` over its constraints."""
    a_eq, b_eq, a_ineq, b_ineq = _program_constraints(stacked, attack, j)
    cost = np.zeros(a_eq.shape[1])
    cost[stacked.n_vars :] = -attack.polytope_b
    return solve_lp(cost, a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq)


def _support_floor(stacked: StackedSystem, attack: AttackModel, j: int) -> float:
    """Program ``j``'s visibility floor: the optimum of its pair's support LP.

    Solves the LP of the pair's odd program, whose optimum the even one
    shares (:func:`program_branch`).  ``(nbar, lambda) = 0`` meets its
    constraints, so it is never infeasible.  With ``nbar`` capped it is
    unbounded exactly along a ray ``lambda >= 0``, ``A' lambda = 0``,
    ``b' lambda > 0``, which by Farkas' lemma exists exactly when no
    ``alpha`` has ``A alpha >= b``: then ConfigError, the attack polytope
    is empty.  Any other end without an optimum is a SolverError.
    """
    sol = _support_lp(stacked, attack, j if j % 2 else j - 1)
    if sol.status == "unbounded":
        raise ConfigError("attack polytope is empty")
    if sol.status != "optimal":
        raise SolverError(f"program {j}'s support LP ended {sol.status}, though 0 meets it")
    return -sol.objective


def pretrain_multivariate(stacked: StackedSystem, attack: AttackModel) -> PretrainResult:
    """Feasibility pretraining: largest certified visibility per program.

    For each of the ``2 d_n + 2`` sign-definite programs, maximise the
    polytope support value ``b' lambda`` subject to the null-space
    constraint and the duality coupling between the filter's coefficient
    response and the polytope normals.  A positive optimum certifies that
    every admissible attack is visible in that coefficient with at least the
    optimal margin.  The filter norm is capped at one (infinity norm), so a
    program is unbounded only over an empty polytope, which raises
    ConfigError (:func:`_support_floor`).  Programs 2k-1 and 2k mirror each
    other (:func:`program_branch`), so ``d_n + 1`` LPs are solved, one per
    pair, and both programs of a pair get its margin.  ``j_star`` is the
    first maximiser, so always an odd program.
    """
    attack.validate_against(stacked.n_f)
    gammas = np.zeros(2 * stacked.d_n + 2)
    for j in range(1, gammas.size + 1, 2):
        gammas[j - 1 : j + 1] = _support_floor(stacked, attack, j)
    return PretrainResult(gammas)


def design_multivariate(
    stacked: StackedSystem,
    qbar: np.ndarray | None,
    attack: AttackModel,
    j: int,
    *,
    pole: float,
    pretrain: PretrainResult | None = None,
) -> FilterDesign:
    """Synthesise a filter against a polytopic attack set at program ``j``.

    Minimises the averaged mismatch form subject to the visibility floor
    ``b' lambda >= gamma`` and the coupling rows of program ``j``.  The
    floor is the largest feasible one: the optimum of program ``j``'s
    support LP, the margin pretraining reports, and one QP is solved there.
    ``pretrain``, the :func:`pretrain_multivariate` result for this system
    and attack set, supplies that margin; without it the design solves the
    LP pretraining solves for ``j``'s mirror pair, so either way the floor
    is ``pretrain.gammas[j - 1]`` bit for bit.  Where
    the QP rejects that optimum by round-off, or its solver fails there,
    the floor is lowered once by ``FLOOR_BACKOFF`` (relative).  Given a
    training form, the design also solves the model-only baseline over the
    constraints at the final floor, reusing their factorisation and
    phase-one start, and carries it (:func:`_with_baseline`).

    Raises:
        ConfigError: if the attack polytope is empty (:func:`_support_floor`).
        SolverError: if the support LP ends without an optimum otherwise, or
            the QP rejects or fails at its floor and at the back-off, which
            the LP certifies feasible.
        DetectorInfeasibleError: if the design loses to its baseline.
    """
    attack.validate_against(stacked.n_f)
    form, p_mat = _objective(stacked, qbar)
    # the variables are [nbar, lambda], the polytope duals free of cost
    no_cost = np.zeros((attack.polytope_b.size,) * 2)
    p_full = scipy.linalg.block_diag(p_mat, no_cost)
    c_full = np.zeros(p_full.shape[0])

    def attempt(floor: float) -> tuple[QpProblem, Solution | None, str]:
        a_eq, b_eq, a_ineq, b_ineq = _program_constraints(stacked, attack, j, floor)
        problem = QpProblem(P=p_full, c=c_full, a_eq=a_eq, b_eq=b_eq, a_ineq=a_ineq, b_ineq=b_ineq)
        try:
            sol = solve_qp(problem)
        except SolverError as exc:
            return problem, None, f"SolverError: {exc}"
        return problem, sol, f"QP status {sol.status}"

    if pretrain is None:
        floor = _support_floor(stacked, attack, j)
    else:
        floor = float(pretrain.gammas[j - 1])
    gamma = floor
    problem, sol, first = attempt(floor)
    if sol is None or sol.status != "optimal":
        gamma -= FLOOR_BACKOFF * max(1.0, abs(gamma))
        problem, sol, second = attempt(gamma)
        if sol is None or sol.status != "optimal":
            raise SolverError(
                f"program {j}: the QP rejected the support-LP floor {floor!r} "
                f"({first}) and its back-off to gamma = {gamma!r} ({second})"
            )

    mode = "pure_model" if qbar is None else "data_assisted"
    design = _program_filter(stacked, attack, j, sol, form, mode, pole, gamma)
    if qbar is None:
        return design
    zero, p_pure = _objective(stacked, None)
    pure = solve_qp(problem.with_objective(scipy.linalg.block_diag(p_pure, no_cost), c_full))
    baseline = _program_filter(stacked, attack, j, pure, zero, "pure_model", pole, gamma)
    return _with_baseline(design, baseline, form)


def _program_filter(
    stacked: StackedSystem,
    attack: AttackModel,
    j: int,
    sol: Solution,
    form: np.ndarray,
    mode: str,
    pole: float,
    gamma: float,
) -> FilterDesign:
    """The filter of program ``j``'s QP optimum ``sol`` at the floor ``gamma``."""
    nbar = sol.x[: stacked.n_vars].copy()
    lam = sol.x[stacked.n_vars :].copy()
    idx, sign = program_branch(j)
    return FilterDesign(
        nbar=nbar,
        d_n=stacked.d_n,
        pole=pole,
        mode=mode,
        objective=quadratic_value(nbar, form),
        branch={"coeff_index": idx, "sign": sign, "program": j},
        diagnostics={
            "null_residual": float(np.abs(nbar @ stacked.barH).max()),
            "gamma": gamma,
            "support_value": float(attack.polytope_b @ lam),
            "polytope_dual": lam,
            "qp": {"iterations": int(sol.iterations), "kkt_residuals": dict(sol.residuals)},
        },
    )


def worst_case_alpha(
    stacked: StackedSystem, design: FilterDesign, attack: AttackModel
) -> tuple[np.ndarray | None, float, str]:
    """Least-visible admissible attack coordinates for a designed filter.

    Minimises the coefficient response ``sign * N_idx F basis @ alpha`` of
    the design's program over the polytope.  By linear-programming duality
    the optimum can never fall below the ``b' lambda`` certified at design
    time.  Returns ``(alpha, value, status)``; alpha is None when the
    program is unbounded.  Over the polytope rows alone it is infeasible
    exactly when the polytope is empty: ConfigError, as
    :func:`_support_floor` reports it.
    """
    attack.validate_against(stacked.n_f)
    idx, sign = program_branch(design.branch["program"])
    resp = design.coeff(idx) @ stacked.barF[
        stacked.coeff_slice(idx), idx * stacked.n_f : (idx + 1) * stacked.n_f
    ]
    cost = sign * (resp @ attack.basis)
    sol = solve_lp(cost, a_ineq=attack.polytope_a, b_ineq=attack.polytope_b)
    if sol.status == "infeasible":
        raise ConfigError("attack polytope is empty")
    if sol.status == "unbounded":
        return None, float("-inf"), sol.status
    return sol.x, float(sol.objective), sol.status


def steady_state_margin(
    design: FilterDesign, f_matrix: np.ndarray, attack: AttackModel
) -> tuple[float, np.ndarray | None]:
    """Smallest steady-state residual magnitude over the admissible attack set.

    Solves two sign-restricted linear programs (response >= 0 and <= 0) and
    takes the smaller magnitude; a zero margin certifies the existence of an
    admissible attack that is invisible in steady state.  Each program is
    bounded below by 0 and an admissible attack meets one of them, so both
    end without an optimum only over an empty polytope: ConfigError, as
    :func:`_support_floor` reports it.
    """
    attack.validate_against(f_matrix.shape[1])
    cost = -(design.coeff_sum() @ f_matrix @ attack.basis) / float(np.sum(design.a_coeffs))
    best: tuple[float, np.ndarray | None] | None = None
    for sign in (1.0, -1.0):
        a_ineq = np.vstack([attack.polytope_a, sign * cost[None, :]])
        b_ineq = np.concatenate([attack.polytope_b, [0.0]])
        sol = solve_lp(sign * cost, a_ineq=a_ineq, b_ineq=b_ineq)
        if sol.status == "optimal":
            value = abs(float(sol.objective))
            if best is None or value < best[0]:
                best = (value, sol.x)
    if best is None:
        raise ConfigError("attack polytope is empty")
    return best
