"""Error metrics, naive baselines, dataset-level completion, and the benchmark harness.

:func:`complete_dataset` returns the method's own :class:`~meterfill.admm.CompletionReport`.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import admm, cpd_lrtc, halrtc
from .data import (
    ELECTRICAL_RANGES,
    LAYOUT_MULTI_MEASUREMENT,
    DataError,
    TensorDataset,
    derive_seed,
    prefill_electrical,
    simulate_missing,
    standardize_channels,
)
from .tensor_ops import as_mask, as_tensor

METHODS = ("cpd_lrtc", "halrtc", "mean", "interp")
DISPLAY_NAMES = {
    "cpd_lrtc": "CPD-LRTC",
    "halrtc": "HaLRTC",
    "mean": "MeanFill",
    "interp": "LinearInterp",
}
RESULT_COLUMNS = ("method", "missing_rate", "rse_percent", "time_s", "iterations")


def rse(completed, truth, mask, scope: str = "missing") -> float:
    """Relative squared error in percent.

    ``scope="missing"`` (the default) scores only the unobserved entries:
    ``100 * ||completed - truth||_F / ||truth||_F`` restricted to the mask
    complement. ``scope="all"`` scores the whole tensor.
    """
    completed = as_tensor(completed)
    truth = as_tensor(truth)
    m = as_mask(mask, truth.shape)
    if completed.shape != truth.shape:
        raise ValueError(f"shape mismatch: {completed.shape} vs {truth.shape}")
    if scope == "missing":
        sel = ~m
        if not sel.any():
            raise ValueError("mask leaves no missing entries to score")
    elif scope == "all":
        sel = np.ones_like(m)
    else:
        raise ValueError(f"unknown scope {scope!r}")
    denom = float(np.linalg.norm(truth[sel]))
    if denom == 0.0:
        raise ValueError("ground truth is zero on the scored entries")
    return 100.0 * float(np.linalg.norm(completed[sel] - truth[sel])) / denom


def baseline_mean_fill(ds: TensorDataset) -> np.ndarray:
    """Replace missing entries by the observed mean of their channel."""
    out = ds.tensor.copy()
    for c, label in enumerate(ds.channel_labels):
        m = ds.mask[:, :, c]
        if not m.any():
            raise DataError(f"channel {label!r} has no observed entries")
        out[:, :, c] = np.where(m, ds.tensor[:, :, c], ds.tensor[:, :, c][m].mean())
    return out


def baseline_linear_interp(ds: TensorDataset) -> np.ndarray:
    """Interpolate missing entries linearly along the slot axis, extending edges.

    A (day, channel) series with no observed entry keeps the channel's
    observed mean, as :func:`baseline_mean_fill` gives it.
    """
    out = baseline_mean_fill(ds)
    slots = np.arange(ds.dims[1])
    for d in range(ds.dims[0]):
        for c in range(ds.dims[2]):
            m = ds.mask[d, :, c]
            if m.any() and not m.all():
                out[d, ~m, c] = np.interp(slots[~m], slots[m], ds.tensor[d, m, c])
    return out


def complete_dataset(
    ds: TensorDataset,
    method: str,
    *,
    cpd_cfg: cpd_lrtc.SolverConfig | None = None,
    halrtc_cfg: halrtc.HalrtcConfig | None = None,
    prefill: bool | None = None,
) -> admm.CompletionReport:
    """Run one method over a masked dataset, handling pre-fill and scaling.

    Multi-measurement datasets are pre-filled through the power identity
    (unless ``prefill=False``; ``prefill=True`` on another layout raises
    ``ValueError``) and standardized per channel before solving. The
    completion is then mapped back in place: to the dataset's units,
    clipped to the ``ELECTRICAL_RANGES`` that
    :func:`~meterfill.data.load_dataset` enforces where the channels are
    electrical, and with the input's observed entries re-imposed exactly.
    The method's report is returned with ``prefill`` and ``standardized`` set;
    a baseline's has ``converged=True``, 0 iterations and no ``svd_shapes``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    multi = ds.layout == LAYOUT_MULTI_MEASUREMENT
    if prefill is None:
        prefill = multi
    pre = prefill_electrical(ds) if prefill else None
    work = ds if pre is None else pre.dataset
    standardized = multi and method in ("cpd_lrtc", "halrtc")
    if standardized:
        work, means, stds = standardize_channels(work)

    if method == "cpd_lrtc":
        report = cpd_lrtc.complete(work.tensor, work.mask, cpd_cfg)
    elif method == "halrtc":
        report = halrtc.complete_halrtc(work.tensor, work.mask, halrtc_cfg)
    else:
        fill = baseline_mean_fill if method == "mean" else baseline_linear_interp
        start = time.perf_counter()
        filled = fill(work)
        report = admm.CompletionReport(filled, True, (), time.perf_counter() - start)
    # Each solver and fill returns a new array, so the mapping back writes into it.
    completed = report.completed
    if standardized:
        completed *= stds
        completed += means
    if multi:
        # The truth lies in these ranges, so clipping raises no entry's error.
        bounds = [ELECTRICAL_RANGES.get(c, (-np.inf, np.inf)) for c in ds.channel_labels]
        np.clip(completed, *np.array(bounds).T, out=completed)
    np.copyto(completed, ds.tensor, where=ds.mask)
    return replace(report, prefill=pre, standardized=standardized)


@dataclass(frozen=True)
class BenchResult:
    """One benchmark cell: a method scored at one missing rate.

    A cell whose method could not fill the masked data has ``error`` set,
    and NaN RSE and time.
    """

    method: str
    missing_rate: float
    rse_percent: float
    wall_time_s: float
    iterations: int
    error: str = ""

    def __post_init__(self):
        if not 0 <= self.missing_rate < 1:
            raise ValueError(f"missing_rate must lie in [0, 1), got {self.missing_rate}")
        if self.rse_percent < 0:
            raise ValueError("rse_percent must be nonnegative")


def run_benchmark(
    ds: TensorDataset,
    rates,
    methods,
    *,
    cpd_cfg: cpd_lrtc.SolverConfig | None = None,
    halrtc_cfg: halrtc.HalrtcConfig | None = None,
    seed: int = 0,
    prefill: bool | None = None,
    scope: str = "missing",
) -> list[BenchResult]:
    """Sweep missing rates over a fully observed dataset and score each method.

    Every method at a given rate sees the identical mask (the mask seed is
    derived from the root seed and the rate label only), so comparisons are
    fair. RSE is always computed against the pre-masking ground truth on
    the simulated missing set, in original units. A method that cannot
    fill a masked dataset (a :class:`~meterfill.data.DataError`, such as a
    baseline meeting a channel with no observed entry) fails only its own
    cell. A rate or method given twice is refused, as the table shows it once;
    so is a rate whose label (12 significant digits) repeats another's, as it
    would get the same mask.
    """
    if not ds.fully_observed:
        raise ValueError("run_benchmark needs a fully observed dataset as ground truth")
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("no missing rates given")
    labels = [f"{r:.12g}" for r in rates]
    for k, r in enumerate(rates):
        if not 0 < r < 1:
            raise ValueError(f"missing rate must lie in (0, 1) for scoring, got {r}")
        if labels[k] in labels[:k]:
            first = rates[labels.index(labels[k])]
            also = "" if first == r else f" (as {first!r}; both label the mask {labels[k]})"
            raise ValueError(f"missing rate {r!r} given twice{also}")
    methods = list(methods)
    if not methods:
        raise ValueError("no methods given")
    for k, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if m in methods[:k]:
            raise ValueError(f"method {m!r} given twice")

    results = []
    for rate, label in zip(rates, labels):
        masked = simulate_missing(ds, rate, derive_seed(seed, "mask", label))
        for method in methods:
            try:
                report = complete_dataset(
                    masked, method, cpd_cfg=cpd_cfg, halrtc_cfg=halrtc_cfg, prefill=prefill
                )
            except DataError as err:
                results.append(BenchResult(method, rate, math.nan, math.nan, 0, error=str(err)))
                continue
            score = rse(report.completed, ds.tensor, masked.mask, scope=scope)
            results.append(
                BenchResult(
                    method=method,
                    missing_rate=rate,
                    rse_percent=score,
                    wall_time_s=report.wall_time,
                    iterations=report.iterations,
                )
            )
    return results


def results_to_csv(results) -> str:
    """Machine-readable results: ``method,missing_rate,rse_percent,time_s,iterations``.

    A failed cell has ``nan`` RSE and time.
    """
    buf = io.StringIO()
    buf.write(",".join(RESULT_COLUMNS) + "\n")
    for r in results:
        buf.write(
            f"{r.method},{r.missing_rate:.12g},{r.rse_percent!r},"
            f"{r.wall_time_s:.6f},{r.iterations}\n"
        )
    return buf.getvalue()


def write_results_csv(results, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(results_to_csv(results))


def format_table(results) -> str:
    """Aligned per-rate table with one RSE and time column pair per method."""
    methods = []
    for r in results:
        if r.method not in methods:
            methods.append(r.method)
    rates = sorted({r.missing_rate for r in results})
    cell = {(r.missing_rate, r.method): r for r in results}

    header = ["Missing rate/%"]
    for m in methods:
        name = DISPLAY_NAMES.get(m, m)
        header += [f"{name} RSE/%", f"{name} Time/s"]
    rows = [header]
    for rate in rates:
        row = [f"{100 * rate:g}"]
        for m in methods:
            r = cell.get((rate, m))
            if r is None:
                row += ["-", "-"]
            elif r.error:
                row += ["failed", "-"]
            else:
                row += [f"{r.rse_percent:.2f}", f"{r.wall_time_s:.3f}"]
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(val.ljust(w) for val, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
