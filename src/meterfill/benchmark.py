"""Error metrics, naive baselines, and the missing-rate benchmark harness."""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass

import numpy as np

from . import cpd_lrtc, halrtc
from .data import (
    ELECTRICAL_RANGES,
    LAYOUT_MULTI_MEASUREMENT,
    DataError,
    PrefillResult,
    TensorDataset,
    derive_seed,
    destandardize_channels,
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
    """Interpolate missing entries linearly along the slot axis, extending edges."""
    out = ds.tensor.copy()
    slots = np.arange(ds.dims[1])
    for d in range(ds.dims[0]):
        for c, label in enumerate(ds.channel_labels):
            m = ds.mask[d, :, c]
            if m.all():
                continue
            if not m.any():
                raise DataError(
                    f"day {d + 1}, channel {label!r}: no observed entries to interpolate"
                )
            out[d, ~m, c] = np.interp(slots[~m], slots[m], ds.tensor[d, m, c])
    return out


@dataclass(frozen=True, eq=False)
class CompletionOutcome:
    """A completed tensor in original units plus the report of the solver or fill call.

    A baseline's report has 0 iterations, ``converged=True``, an empty
    history and no ``svd_shapes``.
    """

    method: str
    completed: np.ndarray
    report: cpd_lrtc.CompletionReport
    prefill: PrefillResult | None
    standardized: bool

    @property
    def iterations(self) -> int:
        return self.report.iterations


def complete_dataset(
    ds: TensorDataset,
    method: str,
    *,
    cpd_cfg: cpd_lrtc.SolverConfig | None = None,
    halrtc_cfg: halrtc.HalrtcConfig | None = None,
    prefill: bool | None = None,
) -> CompletionOutcome:
    """Run one method over a masked dataset, handling pre-fill and scaling.

    Multi-measurement datasets are pre-filled through the power identity
    (unless ``prefill=False``; ``prefill=True`` on another layout raises
    ``ValueError``) and standardized per channel before solving. The output
    is mapped back to original units, clipped to the ``ELECTRICAL_RANGES``
    that :func:`~meterfill.data.load_dataset` enforces where the channels
    are electrical, and has the input's observed entries re-imposed exactly.
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
        report = cpd_lrtc.CompletionReport(filled, 0, True, (), time.perf_counter() - start, ())
    completed = report.completed
    if standardized:
        completed = destandardize_channels(completed, means, stds)
    if multi:
        # The truth lies in these ranges, so clipping raises no entry's error.
        bounds = [ELECTRICAL_RANGES.get(c, (-np.inf, np.inf)) for c in ds.channel_labels]
        completed = np.clip(completed, *np.array(bounds).T)

    completed = np.where(ds.mask, ds.tensor, completed)
    return CompletionOutcome(
        method=method,
        completed=completed,
        report=report,
        prefill=pre,
        standardized=standardized,
    )


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
    baseline meeting a day's series with no observed entry to interpolate)
    fails only its own cell.
    """
    if not ds.fully_observed:
        raise ValueError("run_benchmark needs a fully observed dataset as ground truth")
    rates = [float(r) for r in rates]
    if not rates:
        raise ValueError("no missing rates given")
    for r in rates:
        if not 0 < r < 1:
            raise ValueError(f"missing rate must lie in (0, 1) for scoring, got {r}")
    methods = list(methods)
    if not methods:
        raise ValueError("no methods given")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {METHODS}")

    results = []
    for rate in rates:
        masked = simulate_missing(ds, rate, derive_seed(seed, "mask", f"{rate:.12g}"))
        for method in methods:
            try:
                outcome = complete_dataset(
                    masked, method, cpd_cfg=cpd_cfg, halrtc_cfg=halrtc_cfg, prefill=prefill
                )
            except DataError as err:
                results.append(BenchResult(method, rate, math.nan, math.nan, 0, error=str(err)))
                continue
            score = rse(outcome.completed, ds.tensor, masked.mask, scope=scope)
            results.append(
                BenchResult(
                    method=method,
                    missing_rate=rate,
                    rse_percent=score,
                    wall_time_s=outcome.report.wall_time,
                    iterations=outcome.iterations,
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
