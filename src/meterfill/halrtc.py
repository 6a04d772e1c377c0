"""Unfolding-based low-rank tensor completion comparator.

Classic high-accuracy LRTC (HaLRTC): ADMM over one auxiliary low-rank
matrix per mode, with singular value thresholding applied to the full
``I_n x (prod of other dims)`` mode-n matricizations. It runs the same outer
ADMM loop as the CP-factor solver (penalty schedule, stopping rule, report)
and differs from it only in its step and its default ``mu0``/``rho``, so
benchmarks can swap methods; the structural difference is the size of the
matrices each method thresholds. The shared :func:`svt` thresholds each
matricization through the ``eigh`` of its ``I_n x I_n`` Gram matrix.

Like the CP-factor step, an iteration allocates no tensor: the step runs in a
fixed workspace made once per solve (see :func:`complete_halrtc`). Like it
too, the step runs on two threads, from a smaller size on: within an
iteration the three mode subproblems depend only on X and their own duals,
so the worker thread of the one-thread
:class:`~concurrent.futures.ThreadPoolExecutor` that the shared loop
(:mod:`meterfill.admm`) makes thresholds the mode with the largest
dimension while the calling thread does the other two, and the completion
is the same to the bit as on one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import CompletionReport, _beside, _check_admm_fields, _observed_input, _run_admm
from .cpd_lrtc import svt
from .tensor_ops import fro_norm

# Tensors of fewer entries than this run all three modes on the calling
# thread: handing a mode to the worker costs about 0.35 ms an iteration
# (threaded minus inline at 8x10x12, of which the pool's submit and wait take
# about 0.04 ms), more than the overlap saves below it. Sweeps from 16x24x32
# to 24x36x40 put the break-even between 18x27x36 and 18x30x40, or up to
# 22x32x42 on a noisier host (CHANGES.md).
_THREAD_MIN_SIZE = 20_000


@dataclass(frozen=True)
class HalrtcConfig:
    """Hyperparameters for :func:`complete_halrtc`.

    mu0=None picks a scale-adaptive start, ``1 / ||X_0||_F``, which places
    the initial SVT threshold near the data's singular-value range; a fixed
    mu0 is honored as given.
    """

    alpha: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)
    mu0: float | None = None
    rho: float = 1.1
    mu_max: float = 1e10
    epsilon: float = 1e-4
    max_iters: int = 500

    def __post_init__(self):
        _check_admm_fields(self)


def _mode_views(buf: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode n (0-based) views of a tensor-sized buffer: ``(matrix, stored)``.

    The matrix is the C-order matricization :func:`svt` thresholds for mode n
    and ``stored`` is the same memory as a C-contiguous tensor whose axes are
    X's in mode n's order (see :func:`_in_mode_order`). svt commutes with
    column permutations and transposition, so modes 1 and 3 (the tall
    transpose) are reshapes of a tensor stored as X is, and mode 2 stores its
    tensor transposed, as ``(I2, I1, I3)``.
    """
    i1, i2, i3 = buf.shape
    if n == 1:
        stored = buf.reshape(i2, i1, i3)
        return stored.reshape(i2, -1), stored
    return (buf.reshape(i1, -1) if n == 0 else buf.reshape(-1, i3)), buf


def _in_mode_order(t: np.ndarray, n: int) -> np.ndarray:
    """t with its first two axes swapped for mode 2 (n == 1); its own inverse.

    It maps X into the order mode n stores its buffers, so an elementwise
    operation between X and them writes its output in memory order, and a
    stored mode-n tensor back into X's shape.
    """
    return t.swapaxes(0, 1) if n == 1 else t


def complete_halrtc(truth, mask, cfg: HalrtcConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor by unfolding-based ADMM.

    Per iteration and mode n: :func:`svt` ``X + Y_n / mu`` to M_n,
    average the ``M_n - Y_n / mu`` into X, re-impose the observed entries,
    then step the duals by the remaining mode residuals ``mu (X - M_n)``.
    Each mode's dual step is taken at the start of that mode's part of the
    next iteration; the first iteration's, at penalty 0 on zero estimates,
    leaves the duals at +0.0. So a mode depends only on X and its own dual,
    and the mode with the largest dimension runs on a worker thread beside
    the other two (for tensors of at least ``_THREAD_MIN_SIZE`` entries;
    smaller ones run all three inline). The completion is the same to the
    bit either way.

    The step writes into ten tensors allocated once per solve: X and the
    next X (the two swap every iteration), three duals, three estimates
    M_n, and one operand per thread, which holds ``X + Y_n / mu`` for svt
    and then the term ``M_n - Y_n / mu``. Mode 2 stores its dual, estimate
    and operand transposed, so that no mode copies.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    x, observed_idx, observed = _observed_input(truth, mask)
    mu0 = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    spare = np.empty_like(x)
    # Each mode's dual, estimate and operand are stored in its own order.
    y_mats = [_mode_views(np.zeros_like(x), n)[0] for n in range(3)]
    m_mats, m_stored = zip(*(_mode_views(np.zeros_like(x), n) for n in range(3)))
    # The worker's mode w has the costliest svt; the calling thread runs a, b.
    w = int(np.argmax(x.shape))
    a, b = (n for n in range(3) if n != w)
    caller_op, worker_op = np.empty_like(x), np.empty_like(x)
    op_mats, op_stored = zip(*(_mode_views(worker_op if n == w else caller_op, n) for n in range(3)))
    terms = [_in_mode_order(t, n) for n, t in enumerate(op_stored)]
    last_two = sorted((w, b))
    dual_mu = 0.0  # the penalty of the dual step each mode still owes; 0 at first

    def mode(n, x, mu, dual_mu):
        # Leaves the term M_n - Y_n / mu in mode n's operand. Operations on
        # mode n's own buffers run on their matrices, and those with X on X
        # in mode n's order, so every output is written in memory order.
        y, op, op_s, m = y_mats[n], op_mats[n], op_stored[n], m_mats[n]
        x_s = _in_mode_order(x, n)
        # The previous iteration's dual step, on an X the loop found finite.
        np.subtract(x_s, m_stored[n], out=op_s)
        y += np.multiply(dual_mu, op, out=op)
        np.divide(y, mu, out=op)
        np.add(x_s, op_s, out=op_s)
        svt(op, cfg.alpha[n] / mu, out=m)
        np.subtract(m, np.divide(y, mu, out=op), out=op)

    def callers_half(x, mu, dual_mu):
        # X = (M_1 - Y_1/mu + M_2 - Y_2/mu + M_3 - Y_3/mu) / 3, summed in
        # mode order from zero as the reference loops sum it,
        # ((0 + t1) + t2) + t3, where 0 + turns a -0.0 into +0.0. The
        # caller's first term goes in before the worker's is ready; when
        # the worker has mode 1 that term is t2, and (0 + t2) + t1 gives
        # the same bits: addition commutes, and a sum with a zero term
        # comes out the same either way.
        mode(a, x, mu, dual_mu)
        np.add(0.0, terms[a], out=spare)
        mode(b, x, mu, dual_mu)

    def step(x, mu, worker):
        nonlocal spare, dual_mu
        # Inline, the worker's mode runs last; the modes write disjoint buffers.
        _beside(worker, (callers_half, x, mu, dual_mu), (mode, w, x, mu, dual_mu))
        x_new, spare = spare, x  # x's buffer is the next spare
        for n in last_two:
            x_new += terms[n]
        np.divide(x_new, 3.0, out=x_new)
        x_new.reshape(-1)[observed_idx] = observed
        dual_mu = mu
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite change.
        with np.errstate(over="ignore"):
            return x_new, fro_norm(np.subtract(x, x_new, out=x))

    svd_shapes = tuple((d, x.size // d) for d in x.shape)
    return _run_admm(x, cfg, mu0, step, svd_shapes, x.size >= _THREAD_MIN_SIZE)
