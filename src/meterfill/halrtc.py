"""Unfolding-based low-rank tensor completion comparator.

Classic high-accuracy LRTC: ADMM over one auxiliary low-rank matrix per
mode-n unfolding, with singular value thresholding applied to the full
``I_n x (prod of other dims)`` matrices. It runs the same outer ADMM loop
as the CP-factor solver (penalty schedule, stopping rule, report) and
differs from it only in its step and its default ``mu0``/``rho``, so
benchmarks can swap methods; the structural difference is the size of the
matrices each method sends to SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpd_lrtc import CompletionReport, _check_admm_fields, _observed_input, _run_admm, svt
from .tensor_ops import fold, fro_norm, project, unfold


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


def complete_halrtc(truth, mask, cfg: HalrtcConfig | None = None) -> CompletionReport:
    """Complete a partially observed tensor by unfolding-based ADMM.

    Per iteration and mode n: shrink ``unfold(X, n) + unfold(Y_n, n) / mu``,
    average the refolded estimates into X, re-impose the observed entries,
    then step the duals by the remaining mode residuals.
    """
    cfg = cfg if cfg is not None else HalrtcConfig()
    t, m = _observed_input(truth, mask)
    dims = t.shape
    x = project(t, m)
    mu0 = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    ys = [np.zeros(dims) for _ in range(3)]

    def step(x, mu):
        blended = np.zeros(dims)
        folded = []
        for n in range(3):
            yn = unfold(ys[n], n + 1)
            mn = svt(unfold(x, n + 1) + yn / mu, cfg.alpha[n] / mu)
            folded.append(fold(mn, n + 1, dims))
            blended += fold(mn - yn / mu, n + 1, dims)
        x_new = np.where(m, t, blended / 3.0)
        # A diverged iterate gives inf - inf here; the loop's non-finite check follows.
        with np.errstate(invalid="ignore"):
            for n in range(3):
                ys[n] = ys[n] + mu * (x_new - folded[n])
        return x_new

    sizes = tuple(
        (dims[n], int(np.prod([d for j, d in enumerate(dims) if j != n]))) for n in range(3)
    )
    return _run_admm(x, cfg, mu0, step, sizes)
