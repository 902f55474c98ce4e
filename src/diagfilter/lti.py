"""State-space models, ZOH discretisation, and the shifted difference-algebraic form.

The detection machinery never works on the state-space model directly.  It
first rewrites the sampled model

    x[k+1] = A x[k] + B_d d[k] + B_f f[k]
    y[k]   = C x[k] + D_f f[k]

as one polynomial relation in the shift operator q,

    H(q) xbar[k] + L(q) y[k] + F(q) f[k] = 0,

where ``xbar = [x; d]`` collects every unknown signal and ``y``, ``f`` are
the known and the attack signals.  ``H(q) = H0 + q H1`` is first order; its
left null space (after stacking powers of q) parameterises every residual
generator that is insensitive to the unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass
class LinearModel:
    """LTI model with disturbance and attack input channels.

    ``dt is None`` marks a continuous-time model; a positive ``dt`` marks a
    discrete-time model sampled with that period.
    """

    A: np.ndarray
    B_d: np.ndarray
    B_f: np.ndarray
    C: np.ndarray
    D_f: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B_d = np.atleast_2d(np.asarray(self.B_d, dtype=float))
        self.B_f = np.atleast_2d(np.asarray(self.B_f, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.D_f = np.atleast_2d(np.asarray(self.D_f, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.B_d.shape[0] != n or self.B_f.shape[0] != n:
            raise ValueError("B_d and B_f must have as many rows as A")
        if self.C.shape[1] != n:
            raise ValueError("C must have as many columns as A")
        if self.D_f.shape != (self.C.shape[0], self.B_f.shape[1]):
            raise ValueError("D_f must be n_y x n_f")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive or None")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_d(self) -> int:
        return self.B_d.shape[1]

    @property
    def n_f(self) -> int:
        return self.B_f.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]


def zoh_discretize(model: LinearModel, t_s: float) -> LinearModel:
    """Exact zero-order-hold discretisation of a continuous-time model.

    Uses the augmented matrix exponential

        expm([[A, B], [0, 0]] * t_s) = [[Ad, Bd], [0, I]]

    with both input channels stacked into ``B``, so the returned model is
    exact for inputs held constant over each sampling interval.  ``C`` and
    ``D_f`` are unchanged by sampling.
    """
    if model.dt is not None:
        raise ValueError("model is already discrete")
    if not t_s > 0:
        raise ValueError("t_s must be positive")
    n = model.n_x
    m = model.n_d + model.n_f
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = model.A
    aug[:n, n:] = np.hstack([model.B_d, model.B_f])
    phi = scipy.linalg.expm(aug * t_s)
    a_d = phi[:n, :n]
    b_all = phi[:n, n:]
    return LinearModel(
        A=a_d,
        B_d=b_all[:, : model.n_d],
        B_f=b_all[:, model.n_d :],
        C=model.C.copy(),
        D_f=model.D_f.copy(),
        dt=t_s,
    )


def reachable_subspace(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the smallest A-invariant subspace containing range(B).

    Built by progressive orthonormalisation (project out what is already
    captured, QR the remainder, keep columns with non-negligible pivots)
    rather than ranking a raw Krylov matrix, which loses digits once powers
    of A swamp the early blocks.
    """
    n = a.shape[0]
    scale = max(1.0, float(np.linalg.norm(b)))
    basis = np.zeros((n, 0))
    block = np.asarray(b, dtype=float)
    for _ in range(n):
        block = block - basis @ (basis.T @ block)
        q, r = np.linalg.qr(block)
        keep = np.abs(np.diag(r)) > tol * scale
        q = q[:, keep]
        if q.shape[1] == 0:
            break
        basis = np.concatenate([basis, q], axis=1)
        block = a @ q
    return basis


def split_decay_rates(model: LinearModel) -> tuple[float, float]:
    """Largest eigenvalue real part on the input-reachable subspace and overall.

    Interconnecting areas through directed tie-line states conserves every
    tie-pair sum, so the assembled A matrix carries structurally undriven
    zero eigenvalues.  Splitting the spectrum lets callers demand strict
    damping only for modes the physical inputs can actually excite while
    still rejecting genuinely unstable dynamics.
    """
    if model.dt is not None:
        raise ValueError("decay-rate split applies to continuous-time models")
    b_all = np.hstack([model.B_d, model.B_f])
    basis = reachable_subspace(model.A, b_all)
    overall = float(np.max(np.linalg.eigvals(model.A).real))
    if basis.shape[1] == 0:
        return -np.inf, overall
    restricted = basis.T @ model.A @ basis
    reachable = float(np.max(np.linalg.eigvals(restricted).real))
    return reachable, overall


@dataclass
class DaeSystem:
    """First-order polynomial form ``(H0 + q H1) xbar + L1 q^0 ... `` of a sampled model.

    Rows split into a dynamics block (n_x rows) and an output block (n_y
    rows); columns of H cover ``xbar = [x; d]``.  ``L = [0; -I]`` injects the
    measured outputs and ``F = [B_f; D_f]`` the attack channels.
    """

    H0: np.ndarray
    H1: np.ndarray
    L: np.ndarray
    F: np.ndarray

    @property
    def n_r(self) -> int:
        """Row count of the polynomial relation (n_x + n_y)."""
        return self.H0.shape[0]

    @property
    def n_c(self) -> int:
        """Column count of H, i.e. number of unknown signals (n_x + n_d)."""
        return self.H0.shape[1]

    @property
    def n_y(self) -> int:
        return self.L.shape[1]

    @property
    def n_f(self) -> int:
        return self.F.shape[1]


def assemble_dae(model: LinearModel) -> DaeSystem:
    """Rewrite a sampled model as the polynomial relation H(q) xbar + L y + F f = 0.

    The dynamics rows read ``-x[k+1] + A x[k] + B_d d[k] + B_f f[k] = 0`` and
    the output rows ``C x[k] - y[k] + D_f f[k] = 0``, which fixes

        H0 = [[A, B_d], [C, 0]],  H1 = [[-I, 0], [0, 0]],
        L  = [[0], [-I]],         F  = [[B_f], [D_f]].
    """
    if model.dt is None:
        raise ValueError("assemble_dae expects a discrete-time model")
    n_x, n_d, n_y = model.n_x, model.n_d, model.n_y
    h0 = np.zeros((n_x + n_y, n_x + n_d))
    h0[:n_x, :n_x] = model.A
    h0[:n_x, n_x:] = model.B_d
    h0[n_x:, :n_x] = model.C
    h1 = np.zeros_like(h0)
    h1[:n_x, :n_x] = -np.eye(n_x)
    ell = np.zeros((n_x + n_y, n_y))
    ell[n_x:, :] = -np.eye(n_y)
    f = np.vstack([model.B_f, model.D_f])
    return DaeSystem(H0=h0, H1=h1, L=ell, F=f)


@dataclass
class StackedSystem:
    """Coefficient-stacked matrices for residual generators of a fixed degree.

    A residual generator ``N(q) = N_0 + ... + N_dn q^dn`` is stored as one
    long row vector ``nbar = [N_0, ..., N_dn]``.  The matrices here satisfy

        nbar @ barH == coefficients of N(q) H(q)   (degree dn + 1)
        nbar @ barL == [N_0 L, ..., N_dn L]
        nbar @ barF == [N_0 F, ..., N_dn F]

    so the design constraints become ordinary linear algebra on ``nbar``.
    """

    barH: np.ndarray
    barL: np.ndarray
    barF: np.ndarray
    d_n: int
    n_r: int
    n_y: int
    n_f: int

    @property
    def n_vars(self) -> int:
        return (self.d_n + 1) * self.n_r

    def coeff_slice(self, i: int) -> slice:
        """Column slice of ``nbar`` holding coefficient ``N_i``."""
        if not 0 <= i <= self.d_n:
            raise IndexError(f"coefficient index {i} outside 0..{self.d_n}")
        return slice(i * self.n_r, (i + 1) * self.n_r)


def build_stacked(dae: DaeSystem, d_n: int) -> StackedSystem:
    """Stack H, L, F for residual generators of polynomial degree ``d_n``.

    ``barH`` is banded: block row i carries H0 in block column i and H1 in
    block column i + 1, which is exactly the coefficient pattern of the
    product N(q) H(q).  ``barL`` and ``barF`` replicate L and F block
    diagonally, one copy per coefficient.
    """
    if d_n < 0:
        raise ValueError("d_n must be nonnegative")
    n_r, n_c = dae.n_r, dae.n_c
    bar_h = np.zeros(((d_n + 1) * n_r, (d_n + 2) * n_c))
    bar_l = np.zeros(((d_n + 1) * n_r, (d_n + 1) * dae.n_y))
    bar_f = np.zeros(((d_n + 1) * n_r, (d_n + 1) * dae.n_f))
    for i in range(d_n + 1):
        rows = slice(i * n_r, (i + 1) * n_r)
        bar_h[rows, i * n_c : (i + 1) * n_c] = dae.H0
        bar_h[rows, (i + 1) * n_c : (i + 2) * n_c] = dae.H1
        bar_l[rows, i * dae.n_y : (i + 1) * dae.n_y] = dae.L
        bar_f[rows, i * dae.n_f : (i + 1) * dae.n_f] = dae.F
    return StackedSystem(
        barH=bar_h,
        barL=bar_l,
        barF=bar_f,
        d_n=d_n,
        n_r=n_r,
        n_y=dae.n_y,
        n_f=dae.n_f,
    )
