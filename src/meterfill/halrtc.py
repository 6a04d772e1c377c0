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
fixed workspace made once per solve (see :func:`complete_halrtc`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpd_lrtc import CompletionReport, _check_admm_fields, _observed_input, _run_admm, svt
from .tensor_ops import fro_norm


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
    """Mode n (0-based) views of a tensor-sized buffer: ``(matrix, tensor)``.

    The matrix is the C-order matricization :func:`svt` thresholds for mode n
    and the tensor is the same memory shaped like X. svt commutes with column
    permutations and transposition, so modes 1 and 3 (the tall transpose)
    are reshapes of a tensor stored as X is, and mode 2 stores its tensor
    transposed, as ``(I2, I1, I3)``.
    """
    i1, i2, i3 = buf.shape
    if n == 1:
        return buf.reshape(i2, -1), buf.reshape(i2, i1, i3).swapaxes(0, 1)
    return (buf.reshape(i1, -1) if n == 0 else buf.reshape(-1, i3)), buf


def complete_halrtc(truth, mask, cfg: HalrtcConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor by unfolding-based ADMM.

    Per iteration and mode n: :func:`svt` ``X + Y_n / mu`` to M_n,
    average the ``M_n - Y_n / mu`` into X, re-impose the observed entries,
    then step the duals by the remaining mode residuals ``mu (X - M_n)``.

    The step writes into ten tensors allocated once per solve: X and the
    next X (the two swap every iteration), three duals, three estimates
    M_n, one scratch for ``Y_n / mu`` and the terms built from it, and one
    operand, which for mode 2 is written transposed so that no mode copies.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    x, observed_idx, observed = _observed_input(truth, mask)
    mu0 = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    ys = [np.zeros_like(x) for _ in range(3)]
    spare, scratch, operand = (np.empty_like(x) for _ in range(3))
    op_mats, ops = zip(*(_mode_views(operand, n) for n in range(3)))
    m_mats, ms = zip(*(_mode_views(np.empty_like(x), n) for n in range(3)))

    def step(x, mu):
        nonlocal spare
        # X = (M_1 - Y_1/mu + M_2 - Y_2/mu + M_3 - Y_3/mu) / 3, summed from
        # zero as the reference loops sum it (0 + turns a -0.0 into +0.0),
        # each term added while its Y_n / mu is still in the scratch.
        x_new = spare
        x_new.fill(0.0)
        for n, y in enumerate(ys):
            d = np.divide(y, mu, out=scratch)
            np.add(x, d, out=ops[n])
            svt(op_mats[n], cfg.alpha[n] / mu, out=m_mats[n])
            x_new += np.subtract(ms[n], d, out=scratch)
        np.divide(x_new, 3.0, out=x_new)
        x_new.reshape(-1)[observed_idx] = observed
        # A diverged iterate gives inf - inf here; the loop's non-finite check follows.
        with np.errstate(invalid="ignore"):
            for y, mn in zip(ys, ms):
                y += np.multiply(mu, np.subtract(x_new, mn, out=scratch), out=scratch)
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite change; x's buffer is the next spare.
        spare = x
        with np.errstate(over="ignore"):
            return x_new, fro_norm(np.subtract(x, x_new, out=x))

    return _run_admm(x, cfg, mu0, step, tuple((d, x.size // d) for d in x.shape))
