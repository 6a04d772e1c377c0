"""The ADMM loop both solvers share, with its settings, report and worker thread.

Each solver (:mod:`meterfill.cpd_lrtc`, :mod:`meterfill.halrtc`) supplies
only a config extending :class:`AdmmConfig`, a step from the current
completion to the next and the norm of the change; :func:`_run_admm` does
the rest, and for a large tensor makes the solve's worker thread, a
one-thread :class:`concurrent.futures.ThreadPoolExecutor`, which a step
reaches only through :func:`_beside`.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .data import PrefillResult
from .tensor_ops import as_mask, as_tensor, check_int, fro_norm


class NumericalError(RuntimeError):
    """Raised when a solve produces non-finite values or a linear solve, SVD or
    eigendecomposition fails."""


@dataclass(frozen=True, eq=False)
class CompletionReport:
    """Outcome of one completion solve, or of a baseline fill with no iterations.

    residual_history holds the relative change of X per iteration, so its
    length is :attr:`iterations`; svd_shapes lists each mode's ``I_n x J``
    matrix for singular value thresholding (``svt``), HaLRTC's with its
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


def _beside(pool: ThreadPoolExecutor | None, first: tuple, second: tuple) -> None:
    """Run the ``(fn, *args)`` calls ``first`` here and ``second`` on ``pool``'s thread.

    ``second`` runs in a copy of the caller's context, since numpy keeps
    ``np.errstate`` in a context variable that a new thread does not
    inherit. Whatever ``first`` raises, ``second`` is waited for; an error of
    either is raised, first's before second's. Without a pool both run here,
    first then second. A tracer that wraps meterfill's public functions sees
    no call on CPD-LRTC's worker, which runs numpy and private helpers only,
    but sees HaLRTC's worker call ``halrtc.svt`` once an iteration while the
    caller's spans are open.
    """
    if pool is None:
        for fn, *args in (first, second):
            fn(*args)
        return
    future = pool.submit(contextvars.copy_context().run, *second)
    try:
        first[0](*first[1:])
    finally:
        error = future.exception()
    if error is not None:
        raise error


@dataclass(frozen=True)
class AdmmConfig:
    """Settings of the shared loop, declared and checked here for both solvers.

    alpha: per-mode nuclear-norm weights, must sum to 1.
    mu0, rho, mu_max: penalty schedule ``mu <- min(rho * mu, mu_max)``; mu0=None
        starts at ``1 / ||X_0||_F``, near the data's singular-value range.
    epsilon: relative-change stopping tolerance, in (0, 1).
    A float passes only when finite and in range, so NaN and inf fail.
    """

    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    mu0: float | None = None
    rho: float = 1.1
    mu_max: float = 1e10
    epsilon: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != 3 or not all(0 <= a < np.inf for a in self.alpha):
            raise ValueError("alpha must be three finite nonnegative weights")
        if not abs(sum(self.alpha) - 1.0) <= 1e-12:
            raise ValueError("alpha weights must sum to 1")
        if self.mu0 is not None and not 0 < self.mu0 < np.inf:
            raise ValueError("mu0 must be positive and finite")
        if not 0 < self.mu_max < np.inf:
            raise ValueError("mu_max must be positive and finite")
        if not 1 <= self.rho < np.inf:
            raise ValueError("rho must be finite and >= 1")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        check_int(self.max_iters, "max_iters", 1)


def _observed_input(truth, mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first iterate and the observed entries, found once per solve.

    Returns ``(x0, observed_idx, observed)``: a new tensor holding the
    observed entries of the validated ``truth`` and zeros elsewhere, the flat
    C-order positions of the observed entries, as
    :func:`~meterfill.cpd_lrtc.completion_blocks` takes them, and their
    values. The mask must select at least one entry.
    """
    t = as_tensor(truth)
    m = as_mask(mask, t.shape)
    observed_idx = np.flatnonzero(m)
    if not observed_idx.size:
        raise ValueError("mask selects no observed entries")
    # np.where keeps the order of Fortran-ordered operands; the solvers'
    # flat positions and reshapes need C order.
    x = np.ascontiguousarray(np.where(m, t, 0.0))
    return x, observed_idx, x.reshape(-1)[observed_idx]


def _run_admm(x: np.ndarray, cfg: AdmmConfig, step, svd_shapes, threaded: bool) -> CompletionReport:
    """The outer ADMM loop of both solvers, from completion ``x`` and ``cfg.mu0``
    (or, when None, ``1 / ||X_0||_F``, from the norm the stopping rule uses).

    ``step(x, mu, worker)`` advances the solver's own state by one iteration
    and returns ``(x_new, change)``: the next completion and
    ``||x_new - x||_F``. The step owns x's buffer: CPD-LRTC returns x itself,
    overwritten in place; HaLRTC returns the buffer of its calling thread's
    operand, which the average filled, and spends x on the difference, after
    which x's buffer is that operand. ``worker`` is the one-thread
    :class:`~concurrent.futures.ThreadPoolExecutor` made here when
    ``threaded`` and shut down however the solve ends, or None;
    ``wall_time`` times the iterations alone.
    """
    norm = fro_norm(x)
    mu = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(norm, 1e-12)
    denom = norm or 1.0
    history: list[float] = []

    with ThreadPoolExecutor(1, "meterfill-worker") if threaded else nullcontext() as worker:
        start = time.perf_counter()
        for k in range(cfg.max_iters):
            try:
                x, change = step(x, mu, worker)
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
                break
        wall = time.perf_counter() - start

    return CompletionReport(
        completed=x,
        converged=history[-1] <= cfg.epsilon,
        residual_history=tuple(history),
        wall_time=wall,
        svd_shapes=svd_shapes,
    )
