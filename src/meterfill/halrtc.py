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
fixed workspace of six tensors made once per solve, in which each mode
carries its term ``M_n - Y_n / mu`` in place of its dual and estimate and
:func:`svt` thresholds each operand in place (see :func:`complete_halrtc`).
Like it too, the step runs on two threads, from a smaller size on: within an
iteration the three mode subproblems depend only on X and their own terms,
so the worker thread of the one-thread
:class:`~concurrent.futures.ThreadPoolExecutor` that the shared loop
(:mod:`meterfill.admm`) makes thresholds the mode with the largest
dimension while the calling thread does the other two. A second handoff
then splits the completion step (the average, the write-back of observed
entries and the change) into two halves of days, one per thread, as
CPD-LRTC's completion pass is split. The completion is the same to the bit
as on one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admm import AdmmConfig, CompletionReport, _beside, _observed_input, _run_admm
from .cpd_lrtc import svt

# Tensors of fewer entries than this run the whole step on the calling
# thread: the step's two handoffs to the worker cost 0.3-0.6 ms an iteration
# (threaded minus inline at 8x10x12; one handoff cost 0.26-0.44 ms in the
# same sweeps), more than the overlap saves below it. The break-even lay
# between 18x27x36 and 22x32x42 with one handoff, and near 24x36x40 on a
# slower host with one handoff and with two alike (CHANGES.md).
_THREAD_MIN_SIZE = 20_000


@dataclass(frozen=True)
class HalrtcConfig(AdmmConfig):
    """Hyperparameters for :func:`complete_halrtc`: the shared loop's
    (:class:`~meterfill.admm.AdmmConfig`), whose defaults are HaLRTC's."""


def _in_mode_order(t: np.ndarray, n: int) -> np.ndarray:
    """t with its first two axes swapped for mode 2 (n == 1); its own inverse.

    It maps X into the order mode n stores its buffers, so an elementwise
    operation between X and them writes its output in memory order, and a
    stored mode-n tensor back into X's shape.
    """
    return t.swapaxes(0, 1) if n == 1 else t


def _matrix(stored: np.ndarray, n: int) -> np.ndarray:
    """The C-order matricization :func:`svt` thresholds for mode n (0-based)
    of a C-contiguous tensor stored in mode n's order.

    svt commutes with column permutations and transposition, so modes 1 and 2
    take ``(I_n, rest)`` reshapes of a tensor stored as X and as ``(I2, I1,
    I3)``, and mode 3 the tall transpose, ``(I1*I2, I3)``.
    """
    return stored.reshape(-1, stored.shape[2]) if n == 2 else stored.reshape(len(stored), -1)


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
    smaller ones run everything inline). After both are done, a second
    handoff runs the completion step in two halves of days: the caller
    averages, writes back and differences the first ``ceil(I1/2)`` days and
    the worker the rest, and the change is the square root of the caller's
    squared change plus the worker's, summed in that order on one thread
    too. The completion is the same to the bit either way.

    The step writes into six tensors allocated once per solve: X, three
    terms, and one operand per thread, which holds ``X + Y_n / mu`` and then,
    thresholded in place, M_n. Mode 2 stores its term and operand transposed,
    so that no mode copies. Once both threads are done, the caller's operand
    takes the next X, and the old X, spent on the change, is the caller's
    next operand.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    x, observed_idx, observed = _observed_input(truth, mask)
    # Each mode's term is stored in its own order.
    terms = [np.zeros(_in_mode_order(x, n).shape) for n in range(3)]
    # The worker's mode w has the costliest svt; the calling thread runs a, b.
    w = int(np.argmax(x.shape))
    a, b = (n for n in range(3) if n != w)
    caller_op, worker_op = np.empty_like(x), np.empty_like(x)
    dual_mu = 0.0  # the penalty of the dual step each mode still owes; 0 at first
    # The completion step's two halves of days, (days, observed positions,
    # values): the caller's first ceil(I1/2) days, then the worker's, which
    # starts later. The positions are slices of observed_idx, not copies.
    cut = -(-len(x) // 2)
    k = int(np.searchsorted(observed_idx, cut * (x.size // len(x))))
    halves = (
        (slice(None, cut), observed_idx[:k], observed[:k]),
        (slice(cut, None), observed_idx[k:], observed[k:]),
    )

    def mode(n, x, op, mu, dual_mu):
        # Turns mode n's term into the next, with the tensor-sized buffer op
        # for its operand. Operations on mode n's own buffers run on their
        # matrices, and those with X on X in mode n's order, so every output
        # is written in memory order.
        x_s = _in_mode_order(x, n)
        t_s, op_s = terms[n], op.reshape(x_s.shape)
        t, op = _matrix(t_s, n), _matrix(op_s, n)
        # The previous iteration's dual step, on an X the loop found finite:
        # Y_n = dual_mu (X - term_n), then Y_n / mu.
        np.subtract(x_s, t_s, out=t_s)
        np.multiply(dual_mu, t, out=t)
        np.divide(t, mu, out=t)
        np.add(x_s, t_s, out=op_s)
        svt(op, cfg.alpha[n] / mu, out=op)
        np.subtract(op, t, out=t)

    def callers_half(x, op, mu, dual_mu):
        mode(a, x, op, mu, dual_mu)
        mode(b, x, op, mu, dual_mu)

    def completion(h, x, x_new):
        # Day-half h of X = (term_1 + term_2 + term_3) / 3, summed in mode
        # order from zero as the reference loops sum it, ((0 + t1) + t2) + t3,
        # where 0 + turns a -0.0 into +0.0; mode 2's term is stored
        # transposed. Then the half's observed entries, at their global flat
        # positions, and the change, written over x's days; returns its square.
        days, idx, values = halves[h]
        new, old = x_new[days], x[days]
        np.add(0.0, terms[0][days], out=new)
        new += _in_mode_order(terms[1][:, days], 1)
        new += terms[2][days]
        np.divide(new, 3.0, out=new)
        x_new.reshape(-1)[idx] = values
        diff = np.subtract(old, new, out=old).reshape(-1)
        return float(diff @ diff)

    def step(x, mu, worker):
        nonlocal caller_op, dual_mu
        # Inline, the worker's mode runs last; the modes write disjoint buffers.
        _beside(worker, (callers_half, x, caller_op, mu, dual_mu), (mode, w, x, worker_op, mu, dual_mu))
        x_new, caller_op = caller_op, x  # x's buffer is the caller's next operand
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite change.
        with np.errstate(over="ignore"):
            ours, theirs = _beside(worker, (completion, 0, x, x_new), (completion, 1, x, x_new))
        dual_mu = mu
        return x_new, math.sqrt(ours + theirs)

    svd_shapes = tuple((d, x.size // d) for d in x.shape)
    return _run_admm(x, cfg, step, svd_shapes, x.size >= _THREAD_MIN_SIZE)
