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
supplies only a step from the current completion to the next and the norm of
the change.

The CPD step never unfolds X and makes one read pass and one blocked
read-write pass over it per iteration. The matricized-tensor-times-Khatri-Rao
products (MTTKRP) of the factor sweep read X through its free
``(I1*I2, I3)`` reshape: modes 1 and 2 share the mode-3 contraction
``Z = X x_3 U3`` (both see the pre-sweep U3 under Gauss-Seidel), mode 3 is
one product of X with ``khatri_rao(U1, U2)`` (the read pass), and each ridge
Gram matrix is the Hadamard product of two ``R x R`` factor Grams. The
completion step then overwrites X in place, a block of rows at a time: while
a block is in cache it is rebuilt from the factors, gets its observed
entries written back, adds its part of ``||X_old - X_new||_F``, and gives its
rows of the next sweep's Z (whose pre-sweep U3 is this U3). So the factor
sweep never forms Z itself, and an iteration allocates no tensor.

:func:`svt`, which both solvers call, needs only the singular values above
its threshold and their subspace, and takes both from the ``eigh`` of the
Gram matrix on the operand's smaller side (Cai & Osher, "Fast singular value
thresholding without singular value decomposition", 2013); operands whose
Gram cannot be trusted go to a thin SVD."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .tensor_ops import as_mask, as_tensor, check_int, fro_norm, khatri_rao

if TYPE_CHECKING:
    from .data import PrefillResult

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
# Bytes of X that update_completion rebuilds at a time (at least one row of
# its (I1*I2, I3) matricization): the block, its reconstruction and its rows
# of Z stay in cache through the five steps on them. A sweep of 256 KiB,
# 512 KiB and 1 MiB on a 90x96x300 solve picked it (CHANGES.md).
_BLOCK_BYTES = 512 * 1024


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
    check_int(cfg.max_iters, "max_iters", 1)


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
        if self.rank is not None:
            check_int(self.rank, "rank", 1)
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        check_int(self.seed, "seed", 0)


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
    """Outcome of one completion solve, or of a baseline fill with no iterations.

    residual_history holds the relative change of X per iteration, so its
    length is :attr:`iterations`; svd_shapes lists each mode's ``I_n x J``
    matrix for singular value thresholding (:func:`svt`), HaLRTC's with its
    columns in another order and its mode-3 matrix transposed. Only
    :func:`~meterfill.benchmark.complete_dataset` sets ``prefill`` (the
    power-identity pre-fill it ran) and ``standardized`` (per-channel scaling).
    """

    completed: np.ndarray
    converged: bool
    residual_history: tuple[float, ...]
    wall_time: float
    svd_shapes: tuple[tuple[int, int], ...] = ()
    prefill: PrefillResult | None = None
    standardized: bool = False

    @property
    def iterations(self) -> int:
        return len(self.residual_history)


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


def update_factors(
    state: FactorSet, x: np.ndarray, lam: float, mu: float, z: np.ndarray | None = None
) -> FactorSet:
    """One Gauss-Seidel sweep of the factor subproblems.

    Each U_n is the exact minimizer of its ridge-regularized least-squares
    subproblem given the other factors; modes 1, 2, 3 are updated in order,
    later modes seeing the already-updated earlier ones. ``z`` is the
    ``(I1*I2, R)`` contraction ``X_(12) @ U3`` of x's free matricization with
    the pre-sweep U3, as :func:`update_completion` leaves it; ``None`` forms it
    from x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != state.dims:
        raise ValueError(f"tensor shape {x.shape} does not match factor dims {state.dims}")
    i1, i2, i3 = state.dims
    u1, u2, u3 = state.U
    x3 = x.reshape(i1 * i2, i3)
    z = (x3 @ u3 if z is None else z).reshape(i1, i2, -1)
    g3 = u3.T @ u3
    u1 = _ridge_update(state, 0, np.einsum("ijr,jr->ir", z, u2), g3, u2.T @ u2, lam, mu)
    g1 = u1.T @ u1
    u2 = _ridge_update(state, 1, np.einsum("ijr,ir->jr", z, u1), g3, g1, lam, mu)
    mttkrp = (khatri_rao(u1, u2).T @ x3).T
    u3 = _ridge_update(state, 2, mttkrp, g1, u2.T @ u2, lam, mu)
    return FactorSet(U=(u1, u2, u3), M=state.M, Y=state.Y)


def update_auxiliary(state: FactorSet, alpha, mu: float) -> FactorSet:
    """Shrink each ``U_n - Y_n / mu`` at threshold ``alpha_n / mu``."""
    m = tuple(svt(state.U[n] - state.Y[n] / mu, alpha[n] / mu) for n in range(3))
    return FactorSet(U=state.U, M=m, Y=state.Y)


def completion_blocks(dims, observed_idx: np.ndarray, observed: np.ndarray) -> tuple:
    """The row blocks :func:`update_completion` works through, found once per solve.

    ``observed_idx`` holds strictly increasing flat C-order positions in a
    tensor of ``dims``, as ``np.flatnonzero(mask)`` gives them, and
    ``observed`` the data values at those positions. Each block is
    ``(start, stop, offsets, values, scratch)``: rows ``start:stop`` of the
    free ``(I1*I2, I3)`` matricization, about ``_BLOCK_BYTES`` of them and at
    least one, their observed positions as offsets from ``start * I3`` (the
    slices of ``observed_idx``, shifted in place: a copy would add half a
    tensor to the peak at 50% missing) and values, and a ``(stop - start, I3)``
    view of one scratch buffer that all blocks share. The buffer is allocated
    here, once per solve: allocated per call, beside the Khatri-Rao product,
    it took a 30x48x50 rank-20 update_completion from 0.4 to about 1 ms.
    """
    i1, i2, i3 = (int(d) for d in dims)
    if observed_idx.shape != observed.shape:
        raise ValueError("observed positions and values differ in length")
    if observed_idx.size and not (0 <= observed_idx[0] and observed_idx[-1] < i1 * i2 * i3):
        raise ValueError(f"observed positions fall outside factor dims {(i1, i2, i3)}")
    if not np.all(observed_idx[1:] > observed_idx[:-1]):
        raise ValueError("observed positions must be strictly increasing")
    rows = min(max(1, _BLOCK_BYTES // (8 * i3)), i1 * i2)
    bounds = np.append(np.arange(0, i1 * i2, rows), i1 * i2)
    cuts = np.searchsorted(observed_idx, bounds * i3)
    scratch = np.empty((rows, i3))
    blocks = []
    for start, stop, a, b in zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:]):
        offsets = observed_idx[a:b]
        offsets -= start * i3
        blocks.append((int(start), int(stop), offsets, observed[a:b], scratch[: stop - start]))
    return tuple(blocks)


def update_completion(state: FactorSet, x: np.ndarray, z: np.ndarray, blocks) -> float:
    """Overwrite x with the CP reconstruction, observed entries written back in.

    One pass over the row blocks of x's free ``(I1*I2, I3)`` matricization,
    as :func:`completion_blocks` cut them; while a block is in cache it is
    rebuilt in its scratch as ``khatri_rao(U1, U2)[rows] @ U3.T``, gets its
    observed entries, adds its part of the change, is stored in x, and writes
    ``z[rows]``, its rows of the ``(I1*I2, R)`` contraction with U3 that the
    next :func:`update_factors` takes. Returns ``||x_old - x_new||_F``.
    """
    if x.shape != state.dims or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError(f"completion must be a C-ordered float64 tensor of dims {state.dims}")
    u1, u2, u3 = state.U
    i3 = u3.shape[0]
    kr = khatri_rao(u1, u2)
    x3 = x.reshape(-1, i3)
    squared = 0.0
    # An overflow leaves a non-finite change, which the caller reports.
    with np.errstate(over="ignore"):
        for start, stop, offsets, values, new in blocks:
            np.matmul(kr[start:stop], u3.T, out=new)
            new.reshape(-1)[offsets] = values
            old = x3[start:stop]
            np.subtract(old, new, out=old)
            diff = old.reshape(-1)
            squared += float(diff @ diff)
            old[...] = new
            np.matmul(new, u3, out=z[start:stop])
    return math.sqrt(squared)


def update_multipliers(state: FactorSet, mu: float) -> FactorSet:
    """Dual ascent: ``Y_n += mu * (M_n - U_n)``."""
    y = tuple(state.Y[n] + mu * (state.M[n] - state.U[n]) for n in range(3))
    return FactorSet(U=state.U, M=state.M, Y=y)


def _observed_input(truth, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first iterate and the observed entries, found once per solve.

    Returns ``(x0, observed_idx, observed)``: a new tensor holding the
    observed entries of the validated ``truth`` and zeros elsewhere, the flat
    C-order positions of the observed entries, as :func:`completion_blocks`
    takes them, and their values. The mask must select at least one entry.
    """
    t = as_tensor(truth)
    m = as_mask(mask, t.shape)
    observed_idx = np.flatnonzero(m)
    if not observed_idx.size:
        raise ValueError("mask selects no observed entries")
    return np.where(m, t, 0.0), observed_idx, t[m]


def _run_admm(x: np.ndarray, cfg, mu: float, step, svd_shapes) -> CompletionReport:
    """The outer ADMM loop of both solvers, from completion ``x`` and penalty ``mu``.

    ``step(x, mu)`` advances the solver's own state by one iteration and
    returns ``(x_new, change)``: the next completion and
    ``||x_new - x||_F``. The step owns x's buffer: CPD-LRTC returns x itself,
    overwritten in place; HaLRTC returns a new array and spends x on the
    difference.
    """
    denom = fro_norm(x) or 1.0
    history: list[float] = []
    converged = False

    start = time.perf_counter()
    for k in range(cfg.max_iters):
        try:
            x, change = step(x, mu)
        except NumericalError as err:
            raise NumericalError(f"iteration {k + 1}: {err}") from err
        # x was finite, so a non-finite completion (or a difference too large
        # to square) shows up as a non-finite change.
        if not np.isfinite(change):
            raise NumericalError(f"iteration {k + 1}: completion diverged to non-finite values")
        resid = change / denom
        history.append(resid)
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    wall = time.perf_counter() - start

    return CompletionReport(
        completed=x,
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
    x, observed_idx, observed = _observed_input(truth, mask)
    rank = cfg.rank if cfg.rank is not None else min(20, min(x.shape))
    state = init_factors(x.shape, rank, np.random.default_rng(cfg.seed))
    blocks = completion_blocks(x.shape, observed_idx, observed)
    z = x.reshape(-1, x.shape[2]) @ state.U[2]

    def step(x, mu):
        nonlocal state
        state = update_factors(state, x, cfg.lam, mu, z)
        state = update_auxiliary(state, cfg.alpha, mu)
        change = update_completion(state, x, z, blocks)
        state = update_multipliers(state, mu)
        return x, change

    return _run_admm(x, cfg, cfg.mu0, step, tuple((int(d), rank) for d in x.shape))
