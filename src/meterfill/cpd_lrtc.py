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

The outer loop (penalty schedule, stopping rule, non-finite check, timing,
report) is :mod:`meterfill.admm`'s, shared with :mod:`meterfill.halrtc`; this
module supplies the step from one completion to the next and its change.

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

Both passes run on two threads for tensors of at least ``_THREAD_MIN_SIZE``
entries: the worker thread of the one-thread
:class:`~concurrent.futures.ThreadPoolExecutor` that the shared loop makes
once per solve forms the second row half of the mode-3 MTTKRP and rebuilds
the second half of the blocks. The MTTKRP is the sum of its two halves, and
the change sums the blocks' squares in block order, with or without the
worker, so the completion is the same to the bit on one thread or two.

:func:`svt`, which both solvers call, needs only the singular values above
its threshold and their subspace, and takes both from the ``eigh`` of the
Gram matrix on the operand's smaller side (Cai & Osher, "Fast singular value
thresholding without singular value decomposition", 2013); operands whose
Gram cannot be trusted go to a thin SVD."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .admm import CompletionReport, NumericalError, _check_admm_fields, _observed_input, _run_admm
from .admm import _beside
from .tensor_ops import check_int, khatri_rao

# Not called here; kept reachable as ``cpd_lrtc.unfold`` for code that looks it up on this module.
from .tensor_ops import unfold  # noqa: F401


# A kept singular value s comes out of the Gram's eigenvalue s**2, whose
# absolute error is near eps * s_max**2, so s is off by about
# eps * s_max**2 / (2 s): 1.1e-11 of s_max at this fraction of s_max, a tenth
# of the 1e-10 by which svt must agree with the SVD. Below it the shrinkage
# factor 1 - tau/s loses too many digits; svt then takes the SVD.
_GRAM_MIN_RATIO = 1e-5
# A largest Gram eigenvalue below this leaves the ratio test above in the
# subnormal range (or the Gram underflowed outright); svt then takes the SVD.
_GRAM_MIN_EIGENVALUE = np.finfo(np.float64).tiny / _GRAM_MIN_RATIO**2
# svt(m, out=m) writes its product back over m in this many slices of m's
# larger side, through a buffer of one slice: numpy would otherwise buffer the
# whole operand that out overlaps.
_IN_PLACE_SLICES = 8
# Bytes of X that update_completion rebuilds at a time (at least one row of
# its (I1*I2, I3) matricization): the block, its reconstruction and its rows
# of Z stay in cache through the five steps on them. A sweep of 256 KiB,
# 512 KiB and 1 MiB on a 90x96x300 solve picked it (CHANGES.md).
_BLOCK_BYTES = 512 * 1024
# Tensors of fewer entries than this run the step on the calling thread;
# from this size on, a worker thread takes half of the mode-3 MTTKRP and of
# the completion pass. Two handoffs an iteration and the GIL passing between
# the threads at each numpy call cost more than the overlap saves below it: a
# sweep from 259k to 691k entries found no gain up to 518k (90x96x60) and 16%
# from 576k (40x48x300) on (CHANGES.md).
_THREAD_MIN_SIZE = 550_000


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


def svt(m: np.ndarray, tau: float, *, out: np.ndarray | None = None) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau.

    Returns ``U diag(max(s - tau, 0)) V^T`` for the thin SVD ``U diag(s) V^T``
    of m, computed from the ``eigh`` of the Gram matrix on m's smaller side.
    For a wide m, ``m m^T = Q diag(s**2) Q^T`` and the result is
    ``Q_k diag(1 - tau/s_k) Q_k^T m`` over the k singular values above tau;
    a tall m uses ``m^T m`` and returns ``m Q_k diag(1 - tau/s_k) Q_k^T``.
    With no singular value above tau, k is 0 and the same product gives zeros.
    The thin SVD runs instead when the Gram cannot be trusted: it overflows,
    its largest eigenvalue is too small for the ratio test to be
    representable, or a kept singular value lies below ``1e-5`` of the
    largest.

    ``out``, a float64 array of m's shape, receives the result on every path
    and is returned; without it the result is a new array. A solver that
    thresholds the same shapes every iteration passes the same buffers.
    ``out`` may be m itself, which is then overwritten one slice of its
    larger side at a time, through a buffer of an eighth of m; any other
    ``out`` that overlaps m is refused.

    Raises :class:`NumericalError` for a non-finite m or a failed
    decomposition.
    """
    if tau < 0:
        raise ValueError("threshold must be nonnegative")
    m = np.asarray(m, dtype=np.float64)
    if out is not None and out.shape != m.shape:
        raise ValueError(f"out has shape {out.shape}, the operand {m.shape}")
    if out is not None and out is not m and np.shares_memory(out, m):
        raise ValueError("out overlaps the operand without being it")
    wide = m.shape[0] <= m.shape[1]
    shrink = _gram_shrink(m, tau, wide)
    if shrink is not None:
        if out is m:
            return _shrink_in_place(m, shrink, wide)
        return np.matmul(shrink, m, out=out) if wide else np.matmul(m, shrink, out=out)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"SVD failed: {err}") from err
    return np.matmul(u * np.maximum(s - tau, 0.0), vt, out=out)


def _gram_shrink(m: np.ndarray, tau: float, wide: bool) -> np.ndarray | None:
    """The small-side matrix that :func:`svt` multiplies m by, from the ``eigh``
    of m's Gram, or None when that Gram cannot be trusted.

    It is zero when no singular value is kept, so each side of m is
    multiplied once however many are. Its Gram and eigenvectors are freed
    before svt writes the product.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ m.T if wide else m.T @ m
    if not np.all(np.isfinite(gram)):
        if not np.all(np.isfinite(m)):
            raise NumericalError("SVT operand has non-finite entries")
        return None
    try:
        lam, q = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"eigendecomposition failed: {err}") from err
    s = np.sqrt(np.maximum(lam, 0.0))
    keep = s > tau
    s_kept = s[keep]
    if not (lam.size and lam[-1] >= _GRAM_MIN_EIGENVALUE
            and (not s_kept.size or s_kept[0] >= _GRAM_MIN_RATIO * s_kept[-1])):
        return None
    q_kept = q[:, keep]
    return (q_kept * (1.0 - tau / s_kept)) @ q_kept.T


def _shrink_in_place(m: np.ndarray, shrink: np.ndarray, wide: bool) -> np.ndarray:
    """Overwrite m with ``shrink @ m`` (wide) or ``m @ shrink`` (tall); returns m.

    A column of the first (a row of the second) depends only on the same
    column (row) of m, so m takes the product one slice of its larger side at
    a time, through a buffer of one slice.
    """
    axis = 1 if wide else 0
    size = m.shape[axis]
    width = -(-size // _IN_PLACE_SLICES)
    buf = np.empty(width * m.shape[1 - axis])
    for start in range(0, size, width):
        part = m[:, start:start + width] if wide else m[start:start + width]
        # A contiguous product for every slice, the last one included.
        prod = buf[:part.size].reshape(part.shape)
        part[...] = np.matmul(shrink, part, out=prod) if wide else np.matmul(part, shrink, out=prod)
    return m


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
    state: FactorSet,
    x: np.ndarray,
    lam: float,
    mu: float,
    z: np.ndarray | None = None,
    worker: ThreadPoolExecutor | None = None,
) -> FactorSet:
    """One Gauss-Seidel sweep of the factor subproblems.

    Each U_n is the exact minimizer of its ridge-regularized least-squares
    subproblem given the other factors; modes 1, 2, 3 are updated in order,
    later modes seeing the already-updated earlier ones. ``z`` is the
    ``(I1*I2, R)`` contraction ``X_(12) @ U3`` of x's free matricization with
    the pre-sweep U3, as :func:`update_completion` leaves it; ``None`` forms it
    from x.

    The mode-3 MTTKRP is always the sum of two row halves,
    ``kr[:h].T @ X_(12)[:h] + kr[h:].T @ X_(12)[h:]``; ``worker``, the pool
    the shared ADMM loop makes when :func:`complete` solves a large tensor,
    forms the second half beside the first, with the same bits as without it.
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
    kr = khatri_rao(u1, u2)
    h = len(kr) // 2
    halves = np.empty((2, kr.shape[1], i3))
    _beside(worker, (np.matmul, kr[:h].T, x3[:h], halves[0]), (np.matmul, kr[h:].T, x3[h:], halves[1]))
    mttkrp = (halves[0] + halves[1]).T
    u3 = _ridge_update(state, 2, mttkrp, g1, u2.T @ u2, lam, mu)
    return FactorSet(U=(u1, u2, u3), M=state.M, Y=state.Y)


def update_auxiliary(state: FactorSet, alpha, mu: float) -> FactorSet:
    """Shrink each ``U_n - Y_n / mu`` at threshold ``alpha_n / mu``."""
    m = tuple(svt(state.U[n] - state.Y[n] / mu, alpha[n] / mu) for n in range(3))
    return FactorSet(U=state.U, M=m, Y=state.Y)


def completion_blocks(
    dims, observed_idx: np.ndarray, observed: np.ndarray, *, threaded: bool = False
) -> tuple[tuple, tuple]:
    """The row blocks :func:`update_completion` works through, found once per solve.

    ``observed_idx`` holds strictly increasing flat C-order positions in a
    tensor of ``dims``, as ``np.flatnonzero(mask)`` gives them, and
    ``observed`` the data values at those positions. Each block is
    ``(start, stop, offsets, values, scratch)``: rows ``start:stop`` of the
    free ``(I1*I2, I3)`` matricization, about ``_BLOCK_BYTES`` of them and at
    least one, their observed positions as offsets from ``start * I3`` (the
    slices of ``observed_idx``, shifted in place: a copy would add half a
    tensor to the peak at 50% missing) and values, and a ``(stop - start, I3)``
    view of a scratch buffer. Returns ``(first, second)``, cut at half the
    block count: the blocks of the calling thread and of a worker. All share
    one buffer unless ``threaded``, which gives ``second`` its own. Allocated
    per call, beside the Khatri-Rao product, a buffer took a 30x48x50 rank-20
    update_completion from 0.4 to about 1 ms, so they are allocated here.
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
    h = (len(bounds) - 1) // 2  # the block count of first
    scratch = np.empty((rows, i3))
    blocks = []
    for k, (start, stop, a, b) in enumerate(zip(bounds[:-1], bounds[1:], cuts[:-1], cuts[1:])):
        if threaded and k == h:
            scratch = np.empty((rows, i3))
        offsets = observed_idx[a:b]
        offsets -= start * i3
        blocks.append((int(start), int(stop), offsets, observed[a:b], scratch[: stop - start]))
    return tuple(blocks[:h]), tuple(blocks[h:])


def _rebuild_blocks(blocks, squares: list, kr, u3, x3, z) -> None:
    """The completion pass over ``blocks``, each block's squared change appended to ``squares``."""
    for start, stop, offsets, values, new in blocks:
        np.matmul(kr[start:stop], u3.T, out=new)
        new.reshape(-1)[offsets] = values
        old = x3[start:stop]
        np.subtract(old, new, out=old)
        diff = old.reshape(-1)
        squares.append(float(diff @ diff))
        old[...] = new
        np.matmul(new, u3, out=z[start:stop])


def update_completion(
    state: FactorSet, x: np.ndarray, z: np.ndarray, blocks, worker: ThreadPoolExecutor | None = None
) -> float:
    """Overwrite x with the CP reconstruction, observed entries written back in.

    One pass over the row blocks of x's free ``(I1*I2, I3)`` matricization,
    the halves :func:`completion_blocks` cut; while a block is in cache it is
    rebuilt in its scratch as ``khatri_rao(U1, U2)[rows] @ U3.T``, gets its
    observed entries, adds its part of the change, is stored in x, and writes
    ``z[rows]``, its rows of the ``(I1*I2, R)`` contraction with U3 that the
    next :func:`update_factors` takes. Returns ``||x_old - x_new||_F``, the
    blocks' squared changes summed in block order.

    ``worker``, the pool the shared ADMM loop makes when :func:`complete`
    solves a large tensor, rebuilds ``second`` beside ``first``, which must
    then have been cut ``threaded``; the result is the same to the bit.
    """
    if x.shape != state.dims or x.dtype != np.float64 or not x.flags.c_contiguous:
        raise ValueError(f"completion must be a C-ordered float64 tensor of dims {state.dims}")
    first, second = blocks
    if worker is not None and first and np.may_share_memory(first[-1][4], second[0][4]):
        raise ValueError("a worker needs blocks cut with threaded=True")
    u1, u2, u3 = state.U
    kr = khatri_rao(u1, u2)
    operands = (kr, u3, x.reshape(-1, u3.shape[0]), z)
    ours, theirs = [], []
    # An overflow leaves a non-finite change, which the caller reports.
    with np.errstate(over="ignore"):
        _beside(worker, (_rebuild_blocks, first, ours, *operands),
                (_rebuild_blocks, second, theirs, *operands))
    # Not sum(): from Python 3.12 it compensates float sums, so its bits would
    # depend on the Python version (3.10 on) and differ from the tests' reference.
    squared = 0.0
    for part in ours + theirs:
        squared += part
    return math.sqrt(squared)


def update_multipliers(state: FactorSet, mu: float) -> FactorSet:
    """Dual ascent: ``Y_n += mu * (M_n - U_n)``."""
    y = tuple(state.Y[n] + mu * (state.M[n] - state.U[n]) for n in range(3))
    return FactorSet(U=state.U, M=state.M, Y=y)


def complete(truth, mask, cfg: SolverConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor; deterministic for a fixed seed.

    ``truth`` supplies the observed entries (values elsewhere are ignored);
    ``mask`` marks the observed positions and must select at least one entry.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    x, observed_idx, observed = _observed_input(truth, mask)
    rank = cfg.rank if cfg.rank is not None else min(20, min(x.shape))
    state = init_factors(x.shape, rank, np.random.default_rng(cfg.seed))
    threaded = x.size >= _THREAD_MIN_SIZE
    blocks = completion_blocks(x.shape, observed_idx, observed, threaded=threaded)
    z = x.reshape(-1, x.shape[2]) @ state.U[2]

    def step(x, mu, worker):
        nonlocal state
        state = update_factors(state, x, cfg.lam, mu, z, worker)
        state = update_auxiliary(state, cfg.alpha, mu)
        change = update_completion(state, x, z, blocks, worker)
        state = update_multipliers(state, mu)
        return x, change

    return _run_admm(x, cfg, cfg.mu0, step, tuple((int(d), rank) for d in x.shape), threaded)
