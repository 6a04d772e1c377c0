"""Unfolding-based low-rank tensor completion comparator.

Classic high-accuracy LRTC (HaLRTC): ADMM over one auxiliary low-rank
matrix per mode, with singular value thresholding applied to the full
``I_n x (prod of other dims)`` mode-n matricizations. It runs the same outer
ADMM loop as the CP-factor solver (its settings, penalty schedule, stopping
rule, report) and differs from it only in its step and its default
``mu0``/``rho``, so benchmarks can swap methods; the structural difference
is the size of the matrices each method thresholds. The shared :func:`svt`
thresholds each matricization through the ``eigh`` of its ``I_n x I_n``
Gram matrix.

Like the CP-factor step, an iteration allocates no tensor: the step runs in a
fixed workspace of seven tensors made once per solve, in which each mode
carries its term ``M_n - Y_n / mu`` in place of its dual and estimate and
:func:`svt` thresholds each operand in place (see :func:`complete_halrtc`).
Like it too, the step runs on two threads, from a smaller size on: within an
iteration the three mode subproblems depend only on X and their own terms,
so the worker thread of the one-thread
:class:`~concurrent.futures.ThreadPoolExecutor` that the shared loop
(:mod:`meterfill.admm`) makes thresholds the mode with the largest
dimension while the calling thread does the other two, and the completion
is the same to the bit as on one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, CompletionReport, _beside, _observed_input, _run_admm
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
class HalrtcConfig(AdmmConfig):
    """Hyperparameters for :func:`complete_halrtc`: the shared loop's
    (:class:`~meterfill.admm.AdmmConfig`), whose defaults are HaLRTC's."""


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
    average the terms ``M_n - Y_n / mu`` into X, re-impose the observed
    entries, then step the duals by the remaining mode residuals
    ``mu (X - M_n)``. Each mode carries its term, not its dual and estimate,
    from one iteration to the next: in scaled form (Boyd et al., 2011,
    section 3.1.1) the stepped dual ``Y_n + mu (X - M_n)`` is
    ``mu (X - term_n)``, so the dual step waits for the start of that mode's
    part of the next iteration. The first iteration's, at penalty 0 on zero
    terms, gives duals of +0.0 or -0.0, either of which adds nothing to X.
    So a mode depends only on X and its own term,
    and the mode with the largest dimension runs on a worker thread beside
    the other two (for tensors of at least ``_THREAD_MIN_SIZE`` entries;
    smaller ones run all three inline). The completion is the same to the
    bit either way.

    The step writes into seven tensors allocated once per solve: X and the
    next X (the two swap every iteration), three terms, and one operand per
    thread, which holds ``X + Y_n / mu`` and then, thresholded in place,
    M_n. Mode 2 stores its term and operand transposed, so that no mode
    copies.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    x, observed_idx, observed = _observed_input(truth, mask)
    spare = np.empty_like(x)
    # Each mode's term and operand are stored in its own order.
    t_mats, t_stored = zip(*(_mode_views(np.zeros_like(x), n) for n in range(3)))
    terms = [_in_mode_order(t, n) for n, t in enumerate(t_stored)]
    # The worker's mode w has the costliest svt; the calling thread runs a, b.
    w = int(np.argmax(x.shape))
    a, b = (n for n in range(3) if n != w)
    caller_op, worker_op = np.empty_like(x), np.empty_like(x)
    op_mats, op_stored = zip(*(_mode_views(worker_op if n == w else caller_op, n) for n in range(3)))
    dual_mu = 0.0  # the penalty of the dual step each mode still owes; 0 at first

    def mode(n, x, mu, dual_mu):
        # Turns mode n's term into the next. Operations on mode n's own
        # buffers run on their matrices, and those with X on X in mode n's
        # order, so every output is written in memory order.
        t, t_s, op, op_s = t_mats[n], t_stored[n], op_mats[n], op_stored[n]
        x_s = _in_mode_order(x, n)
        # The previous iteration's dual step, on an X the loop found finite:
        # Y_n = dual_mu (X - term_n), then Y_n / mu.
        np.subtract(x_s, t_s, out=t_s)
        np.multiply(dual_mu, t, out=t)
        np.divide(t, mu, out=t)
        np.add(x_s, t_s, out=op_s)
        svt(op, cfg.alpha[n] / mu, out=op)
        np.subtract(op, t, out=t)

    def callers_half(x, mu, dual_mu):
        mode(a, x, mu, dual_mu)
        mode(b, x, mu, dual_mu)

    def step(x, mu, worker):
        nonlocal spare, dual_mu
        # Inline, the worker's mode runs last; the modes write disjoint buffers.
        _beside(worker, (callers_half, x, mu, dual_mu), (mode, w, x, mu, dual_mu))
        x_new, spare = spare, x  # x's buffer is the next spare
        # X = (term_1 + term_2 + term_3) / 3, summed in mode order from zero
        # as the reference loops sum it, ((0 + t1) + t2) + t3, where 0 +
        # turns a -0.0 into +0.0.
        np.add(0.0, terms[0], out=x_new)
        x_new += terms[1]
        x_new += terms[2]
        np.divide(x_new, 3.0, out=x_new)
        x_new.reshape(-1)[observed_idx] = observed
        dual_mu = mu
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite change.
        with np.errstate(over="ignore"):
            return x_new, fro_norm(np.subtract(x, x_new, out=x))

    svd_shapes = tuple((d, x.size // d) for d in x.shape)
    return _run_admm(x, cfg, step, svd_shapes, x.size >= _THREAD_MIN_SIZE)
