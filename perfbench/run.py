"""meterfill benchmark: one workload, one seed, one run.

Usage, from the root of a meterfill checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (set-up, timed on its own),
then runs whole operations until the next would end after S seconds, at
least one. Every operation is checked after its timed interval. With
--trace 0 the last line of standard output holds the end-to-end metrics of
BENCHMARK.json; with --trace 1 each operation is paired with a traced one
and the last line holds the per-layer metrics. The lines above it and a
JSON file under .perfbench/ give the environment, sample counts and,
for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS/OpenMP thread in this process and every child: on a 2-core host
# the default of 2 threads made solve-sparse both slower and noisier.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170
SETUPS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


def run_setups(name, spec, seed, workdir):
    """Set up SETUPS times in this process; every repeat must give the same inputs.

    A fixed count keeps this process's heap, which every operation's process
    inherits, the same from run to run, and with it the operations' peak RSS.
    """
    import workloads

    times, digests = [], set()
    for _ in range(SETUPS):
        start = time.perf_counter()
        inputs = workloads.make_inputs(name, spec, seed, workdir)
        times.append(time.perf_counter() - start)
        digests.add(workloads.digest(inputs))
    if len(digests) != 1:
        raise RuntimeError(f"{name}: seed {seed} generated different inputs on a repeat")
    return times, inputs


def measure(op, spec, inputs, seconds, traced, run_prefix, workdir):
    """Whole operations until the next would end after ``seconds``; at least one.

    With ``traced`` each operation is paired with a traced one on the same
    input, the two alternating in which runs first.
    """
    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        i = len(plain)
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)) if traced else (False,):
            run_id = f"{run_prefix}-{i}" + ("-traced" if with_spans else "")
            res = op(spec, inputs, with_spans, run_id, workdir, ROOT)
            (spanned if with_spans else plain).append(res)
        cycle = time.perf_counter() - t0
        if time.perf_counter() - start + cycle > seconds:
            return plain, spanned


def _median(values) -> float:
    values = [v for v in values if v == v]
    return float(statistics.median(values)) if values else 0.0


def end_to_end(setup_times, plain) -> dict:
    timed = [r for r in plain if r.wall_s > 0]
    with_iters = [r for r in timed if r.iterations > 0]
    return {
        "setup_s": _median(setup_times),
        "wall_s": _median(r.wall_s for r in timed),
        "ms_per_iter": _median(1e3 * r.solve_s / r.iterations for r in with_iters),
        "iterations": _median(r.iterations for r in with_iters),
        "rse_pct": _median(r.rse_pct for r in timed),
        "peak_rss_mb": _median(r.peak_rss_mb for r in timed),
    }


def layer_values(res, dims) -> dict:
    """Per-layer numbers of one traced operation."""
    import numpy as np

    import spans as tr

    spans = res.spans or []
    self_s, calls, counts = defaultdict(float), Counter(), defaultdict(int)
    for s, st in zip(spans, tr.self_times(spans)):
        self_s[s[tr.NAME]] += st
        calls[s[tr.NAME]] += 1
        counts[s[tr.NAME]] += s[tr.COUNT]

    v = {f"{name}.self_s": t for name, t in self_s.items()}
    v.update({f"{name}.calls": float(n) for name, n in calls.items()})
    rows = float(np.prod(dims))
    for fn in ("load_csv", "save_csv"):
        t = self_s.get(f"data.{fn}", 0.0)
        v[f"data.{fn}.rows_per_s"] = rows / t if t > 0 else 0.0
    v["data.csv_bytes_read"] = float(res.csv_bytes_read) if calls["data.load_csv"] else 0.0
    v["data.csv_bytes_written"] = float(res.csv_bytes_written) if calls["data.save_csv"] else 0.0
    v["cli.import_s"] = res.import_s

    total_iters = 0
    for solver, solve, marker in tr.SOLVERS:
        iters = counts.get(solve, 0)
        total_iters += iters
        v[f"{solver}.iterations"] = float(iters)
        samples = [x for per in tr.iteration_ms(spans, solve, marker) for x in per]
        pct = tr.tail_percentile(len(samples))
        v[f"{solver}.iter_ms.p50"] = float(np.percentile(samples, 50)) if samples else 0.0
        v[f"{solver}.iter_ms.tail"] = float(np.percentile(samples, pct)) if samples else 0.0
        v[f"{solver}.iter_ms.tail_pct"] = pct if samples else 0.0
    moved = sum(c for name, c in counts.items() if name.startswith("tensor_ops."))
    v["tensor_ops.bytes_per_iter"] = moved / total_iters if total_iters else 0.0
    hal = counts.get("halrtc.complete_halrtc", 0)
    v["halrtc.svd_elements_per_iter"] = counts.get("halrtc.svt", 0) / hal if hal else 0.0

    root_time = sum(s[tr.END] - s[tr.START] for s in spans if s[tr.NAME] == tr.OP_SPAN)
    v["trace.spanned_frac"] = 1.0 - self_s.get(tr.OP_SPAN, 0.0) / root_time if root_time else 0.0
    return v


def per_layer(plain, spanned, dims, names) -> tuple[dict, list]:
    """Medians over the traced operations; also the traced names the program lacks."""
    import spans as tr

    per_op = [layer_values(r, dims) for r in spanned if r.spans]
    values = {n: _median(op.get(n, 0.0) for op in per_op) for n in names}
    ops = plain + spanned
    values["failed_frac"] = sum(r.failed for r in ops) / len(ops)
    traced_wall = _median(r.wall_s for r in spanned if r.wall_s > 0)
    plain_wall = _median(r.wall_s for r in plain if r.wall_s > 0)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0

    wanted = {n.rsplit(".", 1)[0] for n in names if n.endswith((".self_s", ".calls"))}
    wanted.update(name for _, solve, marker in tr.SOLVERS for name in (solve, marker))
    installed = set().union(*(r.installed or () for r in spanned))
    absent = sorted(w for w in wanted - installed if w != tr.OP_SPAN)
    return values, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "meterfill" / "__init__.py").is_file():
        print(f"error: {src / 'meterfill'} not found: run from a meterfill checkout", file=sys.stderr)
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    with open(bench_file, encoding="utf-8") as fh:
        bench = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)

    import meterfill
    import workloads

    if Path(meterfill.__file__).resolve().parent != (src / "meterfill").resolve():
        print(f"error: imported meterfill from {meterfill.__file__}, not {src}", file=sys.stderr)
        return 2
    specs = workloads.load_specs()
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(specs)}", file=sys.stderr)
        return 2
    spec = specs[args.workload]
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        setup_times, inputs = run_setups(args.workload, spec, args.seed, workdir)
        run_prefix = f"{args.workload}-{args.seed}"
        op = workloads.OPS[spec["kind"]]
        plain, spanned = measure(op, spec, inputs, args.seconds, bool(args.trace), run_prefix, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    signal.alarm(0)

    ops = plain + spanned
    failed = sum(r.failed for r in ops)
    if args.trace:
        listed = bench["per_layer"]
        values, absent = per_layer(plain, spanned, spec["dims"], [m["name"] for m in listed])
    else:
        listed = bench["end_to_end"]
        values, absent = end_to_end(setup_times, plain), []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} operations, {len(spanned)} traced; {len(setup_times)} set-ups")
    print("env " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for r in ops:
        for f in r.failures or ():
            print(f"  FAILED: {f}")
    if absent:
        print("  absent (not in the program, reported as 0): " + ", ".join(absent))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_s": setup_times, "metrics": metrics, "absent": absent,
        "operations": [{k: v for k, v in vars(r).items() if k not in ("spans",)} for r in ops],
        "spans": [r.spans for r in spanned],
    }
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
