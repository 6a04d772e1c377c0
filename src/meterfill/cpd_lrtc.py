"""Tensor completion with nuclear-norm-regularized CP factors, solved by ADMM.

The completion variable X must match the observed entries exactly while its
CP reconstruction ``U1 o U2 o U3`` stays close to X; low rank is encouraged
by penalizing the nuclear norms of the (small) factor matrices instead of
the full mode unfoldings, so every singular value thresholding (SVT) in the
iteration runs on an ``I_n x R`` matrix.

Each iteration sweeps four blocks:

1. factor matrices ``U_n`` - ridge-regularized least squares against the
   current completion (Gauss-Seidel over n = 1, 2, 3),
2. auxiliary matrices ``M_n`` - singular value thresholding of
   ``U_n - Y_n / mu`` at threshold ``alpha_n / mu``,
3. completion ``X`` - observed entries from the data, the rest from the CP
   reconstruction,
4. multipliers ``Y_n += mu * (M_n - U_n)``,

with the penalty ``mu`` growing geometrically up to a cap. Iteration stops
when the relative change ``||X_new - X_old||_F / ||X_0||_F`` drops to the
configured tolerance.

This outer loop (penalty schedule, stopping rule, non-finite check, timing,
report) is shared with the comparator in :mod:`meterfill.halrtc`; each solver
supplies only a step from the current completion to the next.

The CPD step never unfolds X. The matricized-tensor-times-Khatri-Rao products
(MTTKRP) of the factor sweep read X through its free ``(I1*I2, I3)``
reshape: the mode-3 contraction ``Z = X x_3 U3`` is formed once per sweep
and shared by modes 1 and 2 (both see the pre-sweep U3 under Gauss-Seidel),
mode 3 is one matrix product with ``khatri_rao(U1, U2)``, and each ridge
Gram matrix is the Hadamard product of two ``R x R`` factor Grams. The
observed positions are found once per solve and written into each fresh
reconstruction, so an iteration allocates only the new completion.

:func:`svt`, which both solvers call, needs only the singular values above
its threshold and their subspace, and takes both from the ``eigh`` of the
Gram matrix on the operand's smaller side (Cai & Osher, "Fast singular value
thresholding without singular value decomposition", 2013); operands whose
Gram cannot be trusted go to a thin SVD."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .tensor_ops import as_mask, as_tensor, cp_reconstruct, fro_norm, khatri_rao, project

# Not called here; kept reachable as ``cpd_lrtc.unfold`` for code that looks it up on this module.
from .tensor_ops import unfold  # noqa: F401


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite values or a linear solve, SVD or
    eigendecomposition fails."""


# A kept singular value s comes out of the Gram's eigenvalue s**2, whose
# absolute error is near eps * s_max**2, so s is off by about
# eps * s_max**2 / (2 s): 1.1e-11 of s_max at this fraction of s_max, a tenth
# of the 1e-10 by which svt must agree with the SVD. Below it the shrinkage
# factor 1 - tau/s loses too many digits; svt then takes the SVD.
_GRAM_MIN_RATIO = 1e-5
# A largest Gram eigenvalue below this leaves the ratio test above in the
# subnormal range (or the Gram underflowed outright); svt then takes the SVD.
_GRAM_MIN_EIGENVALUE = np.finfo(np.float64).tiny / _GRAM_MIN_RATIO**2


def _check_admm_fields(cfg) -> None:
    """Validate the fields both solver configs share; normalizes ``alpha`` to floats.

    A float passes only when finite and in range, so NaN and inf fail.
    ``mu0=None`` passes here; a config that cannot adapt mu0 rejects it itself.
    """
    object.__setattr__(cfg, "alpha", tuple(float(a) for a in cfg.alpha))
    if len(cfg.alpha) != 3 or not all(0 <= a < np.inf for a in cfg.alpha):
        raise ValueError("alpha must be three finite nonnegative weights")
    if not abs(sum(cfg.alpha) - 1.0) <= 1e-12:
        raise ValueError("alpha weights must sum to 1")
    if cfg.mu0 is not None and not 0 < cfg.mu0 < np.inf:
        raise ValueError("mu0 must be positive and finite")
    if not 0 < cfg.mu_max < np.inf:
        raise ValueError("mu_max must be positive and finite")
    if not 1 <= cfg.rho < np.inf:
        raise ValueError("rho must be finite and >= 1")
    if not 0 < cfg.epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if cfg.max_iters < 1:
        raise ValueError("max_iters must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters for :func:`complete`.

    rank: column count R of the factor matrices; ``None`` resolves to
        ``min(20, min(dims))`` at solve time.
    alpha: per-mode nuclear-norm weights, must sum to 1.
    lam: weight of the coupling between X and its CP reconstruction.
    mu0, rho, mu_max: penalty schedule ``mu <- min(rho * mu, mu_max)``.
    epsilon: relative-change stopping tolerance, in (0, 1).
    """

    rank: int | None = None
    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    lam: float = 1.0
    mu0: float = 1e-4
    rho: float = 1.05
    mu_max: float = 1e10
    epsilon: float = 1e-4
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.mu0 is None:
            raise ValueError("mu0 must be a positive number")
        _check_admm_fields(self)
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank must be a positive integer")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True, eq=False)
class FactorSet:
    """Solver state: factor matrices U, auxiliaries M, multipliers Y.

    All nine matrices share one column count R; row counts per mode match
    the tensor dims.
    """

    U: tuple[np.ndarray, np.ndarray, np.ndarray]
    M: tuple[np.ndarray, np.ndarray, np.ndarray]
    Y: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        mats = (*self.U, *self.M, *self.Y)
        if len(self.U) != 3 or len(self.M) != 3 or len(self.Y) != 3:
            raise ValueError("FactorSet needs three matrices per group")
        ranks = {m.shape[1] for m in mats if m.ndim == 2}
        if any(m.ndim != 2 for m in mats) or len(ranks) != 1:
            raise ValueError("all factor matrices must be 2-D with one shared column count")
        for n in range(3):
            if not (self.U[n].shape == self.M[n].shape == self.Y[n].shape):
                raise ValueError(f"mode-{n + 1} matrices disagree on shape")

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(u.shape[0] for u in self.U)


@dataclass(frozen=True, eq=False)
class CompletionReport:
    """Outcome of one completion solve.

    residual_history holds the per-iteration relative change of X;
    svd_shapes lists the distinct matrix shapes submitted to singular value
    thresholding (:func:`svt`).
    """

    completed: np.ndarray
    iterations: int
    converged: bool
    residual_history: tuple[float, ...]
    wall_time: float
    svd_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.residual_history) != self.iterations:
            raise ValueError("residual_history length must equal iterations")


def svt(m: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau.

    Returns ``U diag(max(s - tau, 0)) V^T`` for the thin SVD ``U diag(s) V^T``
    of m, computed from the ``eigh`` of the Gram matrix on m's smaller side.
    For a wide m, ``m m^T = Q diag(s**2) Q^T`` and the result is
    ``Q_k diag(1 - tau/s_k) Q_k^T m`` over the k singular values above tau;
    a tall m uses ``m^T m`` and returns ``m Q_k diag(1 - tau/s_k) Q_k^T``.
    The thin SVD runs instead when the Gram cannot be trusted: it overflows,
    its largest eigenvalue is too small for the ratio test to be
    representable, or a kept singular value lies below ``1e-5`` of the
    largest.

    Raises :class:`NumericalError` for a non-finite m or a failed
    decomposition.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    wide = m.shape[0] <= m.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ m.T if wide else m.T @ m
    if np.all(np.isfinite(gram)):
        try:
            lam, q = np.linalg.eigh(gram)
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"eigendecomposition failed: {err}") from err
        if lam.size and lam[-1] >= _GRAM_MIN_EIGENVALUE:
            s = np.sqrt(np.maximum(lam, 0.0))
            keep = s > tau
            if not keep.any():
                return np.zeros_like(m)
            s_kept = s[keep]
            if s_kept[0] >= _GRAM_MIN_RATIO * s_kept[-1]:
                q_kept = q[:, keep]
                # One small-side matrix, so each side of m is multiplied once
                # however many singular values are kept.
                shrink = (q_kept * (1.0 - tau / s_kept)) @ q_kept.T
                return shrink @ m if wide else m @ shrink
    elif not np.all(np.isfinite(m)):
        raise NumericalError("SVT operand has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD failed: {err}") from err
    return (u * np.maximum(s - tau, 0.0)) @ vt


def init_factors(dims, rank: int, rng: np.random.Generator) -> FactorSet:
    """Seeded i.i.d. normal factors scaled by 1/sqrt(R); M copies U, Y is zero."""
    u = tuple(rng.standard_normal((int(d), rank)) / np.sqrt(rank) for d in dims)
    return FactorSet(
        U=u,
        M=tuple(f.copy() for f in u),
        Y=tuple(np.zeros_like(f) for f in u),
    )


def _ridge_update(state: FactorSet, n: int, mttkrp, gram_a, gram_b, lam: float, mu: float):
    """Minimizer U_n of the mode-n subproblem, whose Khatri-Rao Gram is ``gram_a * gram_b``.

    Raises :class:`NumericalError` for non-finite operands or a failed solve.
    """
    rhs = lam * mttkrp + mu * state.M[n] + state.Y[n]
    gram = lam * (gram_a * gram_b) + mu * np.eye(len(gram_a))
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        raise NumericalError(f"mode-{n + 1} factor update produced non-finite values")
    try:
        return np.linalg.solve(gram, rhs.T).T
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"mode-{n + 1} factor solve failed: {err}") from err


def update_factors(state: FactorSet, x: np.ndarray, lam: float, mu: float) -> FactorSet:
    """One Gauss-Seidel sweep of the factor subproblems.

    Each U_n is the exact minimizer of its ridge-regularized least-squares
    subproblem given the other factors; modes 1, 2, 3 are updated in order,
    later modes seeing the already-updated earlier ones.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != state.dims:
        raise ValueError(f"tensor shape {x.shape} does not match factor dims {state.dims}")
    i1, i2, i3 = state.dims
    u1, u2, u3 = state.U
    x3 = x.reshape(i1 * i2, i3)
    z = (x3 @ u3).reshape(i1, i2, -1)
    g3 = u3.T @ u3
    u1 = _ridge_update(state, 0, np.einsum("ijr,jr->ir", z, u2), g3, u2.T @ u2, lam, mu)
    g1 = u1.T @ u1
    u2 = _ridge_update(state, 1, np.einsum("ijr,ir->jr", z, u1), g3, g1, lam, mu)
    u3 = _ridge_update(state, 2, x3.T @ khatri_rao(u1, u2), g1, u2.T @ u2, lam, mu)
    return FactorSet(U=(u1, u2, u3), M=state.M, Y=state.Y)


def update_auxiliary(state: FactorSet, alpha, mu: float) -> FactorSet:
    """Shrink each ``U_n - Y_n / mu`` at threshold ``alpha_n / mu``."""
    m = tuple(svt(state.U[n] - state.Y[n] / mu, alpha[n] / mu) for n in range(3))
    return FactorSet(U=state.U, M=m, Y=state.Y)


def update_completion(state: FactorSet, observed_idx: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """The CP reconstruction with the observed entries written back in.

    ``observed_idx`` holds flat C-order positions in a tensor of the factor
    dims, as ``np.flatnonzero(mask)`` gives them, and ``observed`` the data
    values at those positions.
    """
    x = cp_reconstruct(state.U)
    if observed_idx.shape != observed.shape:
        raise ValueError("observed positions and values differ in length")
    if observed_idx.size and not (0 <= observed_idx.min() and observed_idx.max() < x.size):
        raise ValueError(f"observed positions fall outside factor dims {state.dims}")
    x.reshape(-1)[observed_idx] = observed
    return x


def update_multipliers(state: FactorSet, mu: float) -> FactorSet:
    """Dual ascent: ``Y_n += mu * (M_n - U_n)``."""
    y = tuple(state.Y[n] + mu * (state.M[n] - state.U[n]) for n in range(3))
    return FactorSet(U=state.U, M=state.M, Y=y)


def _observed_input(truth, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated tensor and mask, and the observed entries found once per solve.

    Returns ``(t, m, observed_idx, observed)``: the flat C-order positions of
    the observed entries, as :func:`update_completion` takes them, and their
    values. The mask must select at least one entry.
    """
    t = as_tensor(truth)
    m = as_mask(mask, t.shape)
    observed_idx = np.flatnonzero(m)
    if not observed_idx.size:
        raise ValueError("mask selects no observed entries")
    return t, m, observed_idx, t[m]


def _run_admm(x: np.ndarray, cfg, mu: float, step, svd_shapes) -> CompletionReport:
    """The outer ADMM loop of both solvers, from completion ``x`` and penalty ``mu``.

    ``step(x, mu)`` advances the solver's own state by one iteration and
    returns the next completion as a new array. The step must not keep
    ``x``: the loop reuses its buffer.
    """
    denom = fro_norm(x) or 1.0
    history: list[float] = []
    converged = False

    start = time.perf_counter()
    for k in range(cfg.max_iters):
        try:
            x_new = step(x, mu)
        except NumericalError as err:
            raise NumericalError(f"iteration {k + 1}: {err}") from err
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite residual; x's buffer is not needed again.
        resid = fro_norm(np.subtract(x, x_new, out=x)) / denom
        if not np.isfinite(resid):
            raise NumericalError(f"iteration {k + 1}: completion diverged to non-finite values")
        history.append(resid)
        x = x_new
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    wall = time.perf_counter() - start

    return CompletionReport(
        completed=x,
        iterations=len(history),
        converged=converged,
        residual_history=tuple(history),
        wall_time=wall,
        svd_shapes=svd_shapes,
    )


def complete(truth, mask, cfg: SolverConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor; deterministic for a fixed seed.

    ``truth`` supplies the observed entries (values elsewhere are ignored);
    ``mask`` marks the observed positions and must select at least one entry.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    t, m, observed_idx, observed = _observed_input(truth, mask)
    rank = cfg.rank if cfg.rank is not None else min(20, min(t.shape))
    state = init_factors(t.shape, rank, np.random.default_rng(cfg.seed))

    def step(x, mu):
        nonlocal state
        state = update_factors(state, x, cfg.lam, mu)
        state = update_auxiliary(state, cfg.alpha, mu)
        x_new = update_completion(state, observed_idx, observed)
        state = update_multipliers(state, mu)
        return x_new

    return _run_admm(project(t, m), cfg, cfg.mu0, step, tuple((int(d), rank) for d in t.shape))
