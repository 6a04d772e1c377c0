"""Command-line interface: complete, simulate, synth, bench, and eval subcommands.

Input files define their own grid and layout (see :func:`meterfill.data.build_tensor`);
``--dims``, ``--layout`` and the generator flags only shape the data of ``synth`` and of
``bench`` without ``--input``. A solver flag only sets a field of the chosen methods' configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import benchmark, data
from .admm import NumericalError
from .cpd_lrtc import SolverConfig
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


# The most rates ``--rates`` gives; each is one solve per method.
_MAX_RATES = 10_000
# Rates are rounded to 10 decimals, so a range with a smaller step repeats
# rates, which the benchmark refuses.
_MIN_RATE_STEP = 1e-10


def _parse_rates(text: str) -> list[float]:
    """Comma lists and ranges: ``0.1,0.3``, ``0.1..0.9`` (step 0.1), ``0.1..0.9:0.2``.

    A range is refused before it is built when its step is below
    ``_MIN_RATE_STEP`` or the list would grow past ``_MAX_RATES`` rates.
    """
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
            # A non-finite bound, or a step so small that it overflows, gives no finite count.
            if not _MIN_RATE_STEP <= step < math.inf or hi < lo or not math.isfinite((hi - lo) / step):
                raise argparse.ArgumentTypeError(f"bad rate range {chunk!r}")
            count = math.floor((hi - lo) / step + 1e-9)
            if len(rates) + count + 1 > _MAX_RATES:
                raise argparse.ArgumentTypeError(
                    f"bad rate range {chunk!r}: more than {_MAX_RATES} rates")
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


def _solver_configs(args, methods, own=()) -> tuple[SolverConfig | None, HalrtcConfig | None]:
    """The configs of the solvers among ``methods`` (None for one not in use), each from the
    flags named like its fields; refuses a given flag that none of them reads, bar ``own``."""
    solvers = [cls if name in methods else None
               for name, cls in (("cpd_lrtc", SolverConfig), ("halrtc", HalrtcConfig))]
    read = {f.name for cls in solvers if cls for f in dataclasses.fields(cls)} | set(own)
    given = {f.name: getattr(args, f.name) for cls in (SolverConfig, HalrtcConfig)
             for f in dataclasses.fields(cls) if getattr(args, f.name) is not None}
    unread = ["--lambda" if n == "lam" else "--" + n.replace("_", "-") for n in given if n not in read]
    if unread:
        option = "--method" if len(methods) == 1 else "--methods"
        raise ValueError(f"{', '.join(unread)} do not apply to {option} {','.join(methods)}")
    return tuple(cls(**{f.name: given[f.name] for f in dataclasses.fields(cls) if f.name in given})
                 if cls else None for cls in solvers)


def _generator_flags(args, rank_flag: str, rank) -> dict:
    """The :class:`SynthSpec` fields given on the command line, as ``flag: (field, value)``."""
    flags = ((rank_flag, "rank", rank), ("--noise", "noise", args.noise),
             ("--periodic/--no-periodic", "periodic", args.periodic))
    return {flag: (field, value) for flag, field, value in flags if value is not None}


def _synthesize(args, generator: dict, seed: int) -> data.TensorDataset:
    """The ``--layout`` generator's dataset; fields not in ``generator`` keep SynthSpec's defaults."""
    if args.layout == data.LAYOUT_MULTI_MEASUREMENT:
        if generator:
            raise ValueError(f"{', '.join(generator)} do not apply to --layout {args.layout}")
        if args.dims[2] != len(data.ELECTRICAL_CHANNELS):
            raise ValueError(f"--layout {args.layout} needs I3={len(data.ELECTRICAL_CHANNELS)}")
        return data.synth_electrical_tensor(args.dims[0], args.dims[1], seed)
    spec = data.SynthSpec(dims=args.dims, **dict(generator.values()))
    return data.synth_load_tensor(spec, seed).dataset


def _report_payload(ds, method: str, report) -> dict:
    payload = {
        "method": method,
        "dims": list(ds.dims),
        "observed_entries": ds.n_observed,
        "standardized": report.standardized,
        "iterations": report.iterations,
        "converged": report.converged,
        "final_residual": report.residual_history[-1] if report.iterations else None,
        "residual_history": list(report.residual_history),
        "wall_time_s": report.wall_time,
    }
    if report.prefill is not None:
        payload["prefilled"] = report.prefill.filled
        payload["prefill_skipped_small_divisor"] = report.prefill.skipped_small_divisor
        payload["prefill_skipped_inconsistent"] = report.prefill.skipped_inconsistent
    return payload


def _check_writable(path) -> None:
    """Raise the error that opening ``path`` for writing would, without creating it.

    Finds a missing directory, a directory at ``path``, or a file or
    directory that may not be written to, before a solve whose result could
    not be saved there.
    """
    path = os.fspath(path)
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def cmd_complete(args) -> int:
    cpd_cfg, hal_cfg = _solver_configs(args, [args.method])
    # Neither file is created until the solve has succeeded.
    for path in (args.output, args.report):
        if path is not None:
            _check_writable(path)
    ds = data.load_dataset(args.input)
    report = benchmark.complete_dataset(
        ds, args.method, cpd_cfg=cpd_cfg, halrtc_cfg=hal_cfg, prefill=args.prefill
    )
    completed = dataclasses.replace(ds, tensor=report.completed, mask=np.ones_like(ds.mask))
    payload = _report_payload(ds, args.method, report)
    # The report is opened first, so should its path fail after the check
    # above, it fails before the CSV exists.
    with open(args.report, "w", encoding="utf-8") if args.report else nullcontext() as fh:
        data.save_csv(completed, args.output)
        if fh is not None:
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
    ds = data.load_dataset(args.input)
    masked = data.simulate_missing(ds, args.rate, args.seed)
    truth_path = args.truth_output or f"{args.output}.truth.csv"
    data.save_csv(masked, args.output)
    data.save_csv(ds, truth_path)
    removed = masked.tensor.size - masked.n_observed
    print(f"removed {removed} of {ds.tensor.size} entries (rate {args.rate:g})")
    print(f"wrote masked tensor to {args.output}; truth sidecar to {truth_path}")
    return 0


def cmd_synth(args) -> int:
    ds = _synthesize(args, _generator_flags(args, "--rank", args.rank), args.seed)
    data.save_csv(ds, args.output)
    print(f"wrote {ds.tensor.size} rows to {args.output}")
    return 0


def cmd_bench(args) -> int:
    # --seed also seeds the masks, so it applies to every method.
    cpd_cfg, hal_cfg = _solver_configs(args, args.methods, own=("seed",))
    generator = _generator_flags(args, "--synth-rank", args.synth_rank)
    if args.input:
        layout = (("--dims", args.dims), ("--layout", args.layout))
        given = [flag for flag, value in layout if value is not None] + list(generator)
        if given:
            raise ValueError(f"{', '.join(given)} only shape synthetic data, not --input")
        ds = data.load_dataset(args.input)
    elif args.dims is None:
        raise ValueError("bench needs --input or --dims for synthetic data")
    else:
        ds = _synthesize(args, generator, data.derive_seed(args.seed, "synth"))
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
    for r in results:
        if r.error:
            name = benchmark.DISPLAY_NAMES[r.method]
            rate = f"{100 * r.missing_rate:g}% missing"
            print(f"warning: {name} failed at {rate}: {r.error}", file=sys.stderr)
    if args.output:
        benchmark.write_results_csv(results, args.output)
        print(f"wrote results to {args.output}")
    return 0


def cmd_eval(args) -> int:
    completed = data.load_dataset(args.input)
    if not completed.fully_observed:
        raise ValueError(f"{args.input} is not completed: {(~completed.mask).sum()} values missing")
    truth = data.load_dataset(args.truth)
    if not truth.fully_observed:
        raise ValueError(f"{args.truth} is not a full truth: {(~truth.mask).sum()} values missing")
    masked = data.load_dataset(args.masked)
    channels = truth.channel_labels
    for path, ds in ((args.input, completed), (args.masked, masked)):
        if differ := set(ds.channel_labels) ^ set(channels):
            raise ValueError(f"{path} and {args.truth} differ in channels {sorted(differ)}")
    # Completed and masked arrays with their channels in the truth file's order.
    tensor, mask = (a[:, :, [ds.channel_labels.index(c) for c in channels]]
                    for a, ds in ((completed.tensor, completed), (masked.mask, masked)))
    score = benchmark.rse(tensor, truth.tensor, mask, scope=args.scope)
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
    p.add_argument("--method", choices=benchmark.METHODS, default="cpd_lrtc")
    p.add_argument("--seed", type=int, default=None, help="CPD-LRTC initialization seed")
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
    p.add_argument("--truth-output", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic measurement tensor CSV")
    p.add_argument("--output", required=True)
    p.add_argument("--dims", type=_parse_dims, required=True)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--periodic", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--layout", choices=data.LAYOUTS, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="sweep missing rates and compare methods")
    p.add_argument("--input", default=None)
    p.add_argument("--output", default=None, help="results CSV path")
    p.add_argument("--dims", type=_parse_dims, default=None, help="synthetic data shape")
    p.add_argument("--layout", choices=data.LAYOUTS, default=None,
                   help="generator of synthetic data (when no --input)")
    p.add_argument("--synth-rank", dest="synth_rank", type=int, default=None,
                   help="CP rank of generated data (when no --input)")
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--periodic", action=argparse.BooleanOptionalAction, default=None)
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
    p.add_argument("--scope", choices=("missing", "all"), default="missing")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (data.DataError, NumericalError, ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
