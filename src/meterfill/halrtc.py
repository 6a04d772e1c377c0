"""Unfolding-based low-rank tensor completion comparator.

Classic high-accuracy LRTC (HaLRTC): ADMM over one auxiliary low-rank
matrix per mode, with singular value thresholding applied to the full
``I_n x (prod of other dims)`` mode-n matricizations. It runs the same outer
ADMM loop as the CP-factor solver (penalty schedule, stopping rule, report)
and differs from it only in its step and its default ``mu0``/``rho``, so
benchmarks can swap methods; the structural difference is the size of the
matrices each method thresholds. The shared :func:`svt` thresholds each
matricization through the ``eigh`` of its ``I_n x I_n`` Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpd_lrtc import CompletionReport, _check_admm_fields, _observed_input, _run_admm, svt
from .tensor_ops import fro_norm, project


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


def _shrink(z: np.ndarray, n: int, tau: float) -> np.ndarray:
    """:func:`svt` of z's mode-n (0-based) unfolding, shaped like z.

    svt commutes with column permutations and transposition, so each mode
    thresholds a C-order matricization instead: modes 1 and 3 (the tall
    transpose) are views of z, mode 2 copies z once.
    """
    if n == 2:
        return svt(z.reshape(-1, z.shape[2]), tau).reshape(z.shape)
    z = z.swapaxes(0, n)
    return svt(z.reshape(z.shape[0], -1), tau).reshape(z.shape).swapaxes(0, n)


def complete_halrtc(truth, mask, cfg: HalrtcConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor by unfolding-based ADMM.

    Per iteration and mode n: :func:`_shrink` ``X + Y_n / mu`` to M_n,
    average the ``M_n - Y_n / mu`` into X, re-impose the observed entries,
    then step the duals by the remaining mode residuals ``mu (X - M_n)``.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    t, m, observed_idx, observed = _observed_input(truth, mask)
    x = project(t, m)
    mu0 = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    ys = [np.zeros(t.shape) for _ in range(3)]

    def step(x, mu):
        ms = [_shrink(x + y / mu, n, cfg.alpha[n] / mu) for n, y in enumerate(ys)]
        x_new = sum(mn - y / mu for mn, y in zip(ms, ys)) / 3.0
        x_new.reshape(-1)[observed_idx] = observed
        # A diverged iterate gives inf - inf here; the loop's non-finite check follows.
        with np.errstate(invalid="ignore"):
            for y, mn in zip(ys, ms):
                y += mu * (x_new - mn)
        # x is finite, so a non-finite x_new (or a difference too large to
        # square) shows up as a non-finite change; x's buffer is not needed again.
        with np.errstate(over="ignore"):
            return x_new, fro_norm(np.subtract(x, x_new, out=x))

    return _run_admm(x, cfg, mu0, step, tuple((d, t.size // d) for d in t.shape))
