"""Command-line interface: complete, simulate, synth, bench, and eval subcommands.

Input files carry their layout in their channel names (see
:func:`meterfill.data.infer_layout`); ``--layout`` only picks the generator
of ``synth`` and of ``bench`` without ``--input``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import benchmark, data
from .cpd_lrtc import NumericalError, SolverConfig
from .halrtc import HalrtcConfig


def _parse_dims(text: str) -> tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"dims must look like I1xI2xI3, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be integers, got {text!r}") from None
    if min(dims) < 1:
        raise argparse.ArgumentTypeError("dims must be positive")
    return dims


def _parse_alpha(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"alpha must be three floats, got {text!r}") from None
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("alpha needs exactly three comma-separated weights")
    return parts


def _parse_rates(text: str) -> list[float]:
    """Comma lists and ranges: ``0.1,0.3``, ``0.1..0.9`` (step 0.1), ``0.1..0.9:0.2``."""
    rates: list[float] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            span, _, step_text = chunk.partition(":")
            lo_text, _, hi_text = span.partition("..")
            try:
                lo, hi = float(lo_text), float(hi_text)
                step = float(step_text) if step_text else 0.1
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad rate range {chunk!r}") from None
            if step <= 0 or hi < lo:
                raise argparse.ArgumentTypeError(f"bad rate range {chunk!r}")
            count = math.floor((hi - lo) / step + 1e-9)
            rates += [round(lo + k * step, 10) for k in range(count + 1)]
        else:
            try:
                rates.append(round(float(chunk), 10))
            except ValueError:
                raise argparse.ArgumentTypeError(f"bad rate {chunk!r}") from None
    return rates


def _parse_methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in benchmark.METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; choose from {','.join(benchmark.METHODS)}"
            )
    return methods


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rank", type=int, default=None, help="factor rank bound R")
    p.add_argument("--alpha", type=_parse_alpha, default=None, help="mode weights a1,a2,a3")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="coupling weight")
    p.add_argument("--mu0", type=float, default=None, help="initial penalty")
    p.add_argument("--rho", type=float, default=None, help="penalty growth factor")
    p.add_argument("--mu-max", type=float, default=None, help="penalty cap")
    p.add_argument("--epsilon", type=float, default=None, help="stopping tolerance")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap")


def _solver_configs(args) -> tuple[SolverConfig, HalrtcConfig]:
    """Each config from the flags named like its fields; flags not given keep its defaults."""

    def build(cls):
        given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls)}
        return cls(**{name: val for name, val in given.items() if val is not None})

    return build(SolverConfig), build(HalrtcConfig)


def _synthesize(args, rank: int, seed: int) -> data.TensorDataset:
    """The fully observed dataset of the generator ``--layout`` names."""
    if args.layout == data.LAYOUT_MULTI_MEASUREMENT:
        if args.dims[2] != len(data.ELECTRICAL_CHANNELS):
            raise ValueError(
                f"{data.LAYOUT_MULTI_MEASUREMENT} synthesis needs I3={len(data.ELECTRICAL_CHANNELS)}"
            )
        return data.synth_electrical_tensor(args.dims[0], args.dims[1], seed)
    spec = data.SynthSpec(dims=args.dims, rank=rank, noise=args.noise, periodic=args.periodic)
    return data.synth_load_tensor(spec, seed).dataset


def _report_payload(ds, outcome) -> dict:
    report = outcome.report
    payload = {
        "method": outcome.method,
        "dims": list(ds.dims),
        "observed_entries": ds.n_observed,
        "standardized": outcome.standardized,
        "iterations": outcome.iterations,
        "converged": report.converged if report else True,
        "final_residual": report.residual_history[-1] if report and report.iterations else None,
        "residual_history": list(report.residual_history) if report else [],
        "wall_time_s": outcome.solve_time,
    }
    if outcome.prefill is not None:
        payload["prefilled"] = outcome.prefill.filled
        payload["prefill_skipped_small_divisor"] = outcome.prefill.skipped_small_divisor
        payload["prefill_skipped_inconsistent"] = outcome.prefill.skipped_inconsistent
    return payload


def cmd_complete(args) -> int:
    ds = data.load_dataset(args.input, args.dims)
    cpd_cfg, hal_cfg = _solver_configs(args)
    outcome = benchmark.complete_dataset(
        ds, args.method, cpd_cfg=cpd_cfg, halrtc_cfg=hal_cfg, prefill=args.prefill
    )
    completed = dataclasses.replace(ds, tensor=outcome.completed, mask=np.ones_like(ds.mask))
    data.save_csv(completed, args.output)
    payload = _report_payload(ds, outcome)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    summary = (
        f"method={payload['method']} iterations={payload['iterations']} "
        f"converged={payload['converged']} final_residual={payload['final_residual']}"
    )
    if "prefilled" in payload:
        summary += f" prefilled={payload['prefilled']}"
    print(summary)
    print(f"wrote completed tensor to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    ds = data.load_dataset(args.input, args.dims)
    masked = data.simulate_missing(ds, args.rate, args.seed)
    truth_path = args.truth_output or f"{args.output}.truth.csv"
    data.save_csv(masked, args.output)
    data.save_csv(ds, truth_path)
    removed = masked.tensor.size - masked.n_observed
    print(f"removed {removed} of {ds.tensor.size} entries (rate {args.rate:g})")
    print(f"wrote masked tensor to {args.output}; truth sidecar to {truth_path}")
    return 0


def cmd_synth(args) -> int:
    ds = _synthesize(args, args.rank, args.seed)
    data.save_csv(ds, args.output)
    print(f"wrote {ds.tensor.size} rows to {args.output}")
    return 0


def cmd_bench(args) -> int:
    if args.input:
        ds = data.load_dataset(args.input, args.dims)
    elif args.dims is None:
        raise ValueError("bench needs --input or --dims for synthetic data")
    else:
        ds = _synthesize(args, args.synth_rank, data.derive_seed(args.seed, "synth"))
    cpd_cfg, hal_cfg = _solver_configs(args)
    results = benchmark.run_benchmark(
        ds,
        args.rates,
        args.methods,
        cpd_cfg=cpd_cfg,
        halrtc_cfg=hal_cfg,
        seed=args.seed,
        prefill=args.prefill,
        scope=args.scope,
    )
    print(benchmark.format_table(results), end="")
    if args.output:
        benchmark.write_results_csv(results, args.output)
        print(f"wrote results to {args.output}")
    return 0


def cmd_eval(args) -> int:
    completed = data.load_dataset(args.input, dims=args.dims)
    truth = data.load_dataset(args.truth, dims=args.dims)
    masked = data.load_dataset(args.masked, dims=args.dims)
    if completed.dims != truth.dims or completed.dims != masked.dims:
        raise ValueError("completed, truth, and masked files disagree on dims")
    score = benchmark.rse(completed.tensor, truth.tensor, masked.mask, scope=args.scope)
    print(f"rse_percent={score!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meterfill",
        description="Low-rank tensor completion for smart-meter measurement data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a partially observed tensor CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--method", choices=benchmark.METHODS, default="cpd_lrtc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefill", action=argparse.BooleanOptionalAction, default=None,
                   help="pre-fill multi-measurement tensors (default: on for that layout)")
    p.add_argument("--report", default=None, help="write a JSON solve report here")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("simulate", help="hide a random fraction of a fully observed CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--truth-output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic measurement tensor CSV")
    p.add_argument("--output", required=True)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--periodic", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--layout", choices=data.LAYOUTS, default=data.LAYOUT_MULTI_USER)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="sweep missing rates and compare methods")
    p.add_argument("--input", default=None)
    p.add_argument("--output", default=None, help="results CSV path")
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--layout", choices=data.LAYOUTS, default=data.LAYOUT_MULTI_USER,
                   help="generator of synthetic data (when no --input)")
    p.add_argument("--synth-rank", dest="synth_rank", type=int, default=3,
                   help="CP rank of generated data (when no --input)")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--periodic", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--rates", type=_parse_rates, default=_parse_rates("0.1..0.9"))
    p.add_argument("--methods", type=_parse_methods, default=["cpd_lrtc", "halrtc"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefill", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--scope", choices=("missing", "all"), default="missing")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", help="score a completed CSV against ground truth")
    p.add_argument("--input", required=True, help="completed tensor CSV")
    p.add_argument("--truth", required=True, help="ground-truth CSV")
    p.add_argument("--masked", required=True, help="masked CSV defining missing positions")
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--scope", choices=("missing", "all"), default="missing")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (data.DataError, NumericalError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
