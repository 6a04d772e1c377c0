"""Workload inputs, operations and output checks.

Inputs are generated here from the workload seed, with the benchmark's own
generator and CSV writer, so a change to the program never changes what it
is given. Every operation is checked after its timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC_FILE = HERE / "workloads.json"
SYNTH_RANK = 3
NOISE = 0.05
CSV_HEADER = "day,slot,channel,value"


def load_specs() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@dataclass(eq=False)
class Inputs:
    truth: np.ndarray
    mask: np.ndarray
    channels: tuple[str, ...]
    dataset: object = None
    csv_path: Path | None = None


def synth_truth(dims, rng: np.random.Generator) -> np.ndarray:
    """Rank-3 nonnegative day x slot x channel load tensor with 5% Gaussian noise.

    The slot factors are smooth daily profiles with a morning and an evening
    peak, like household load.
    """
    days, slots, chans = dims
    s = (np.arange(slots) / slots)[:, None, None]
    centers = rng.uniform((0.25, 0.70), (0.40, 0.85), (SYNTH_RANK, 2))
    widths = rng.uniform((0.05, 0.06), (0.09, 0.12), (SYNTH_RANK, 2))
    heights = rng.uniform((0.5, 0.7), (1.0, 1.3), (SYNTH_RANK, 2))
    base = rng.uniform(0.25, 0.6, SYNTH_RANK)
    u_slot = base + (heights * np.exp(-(((s - centers) / widths) ** 2))).sum(axis=2)
    u_day = rng.uniform(0.7, 1.3, (days, SYNTH_RANK))
    u_chan = rng.uniform(0.2, 1.0, (chans, SYNTH_RANK))
    clean = np.einsum("ir,jr,kr->ijk", u_day, u_slot, u_chan)
    rms = np.sqrt(np.mean(clean**2))
    return clean + NOISE * rms * rng.standard_normal(clean.shape)


def uniform_mask(dims, missing: float, rng: np.random.Generator) -> np.ndarray:
    """Observation mask hiding exactly round(missing * N) uniformly chosen entries."""
    n = int(np.prod(dims))
    mask = np.ones(n, dtype=bool)
    mask[rng.choice(n, size=int(round(missing * n)), replace=False)] = False
    return mask.reshape(dims)


def write_csv(path: Path, tensor: np.ndarray, mask: np.ndarray, channels) -> None:
    """The program's CSV format, day-major, shortest round-trip values, empty when missing."""
    days, slots, _ = tensor.shape
    values = tensor.reshape(days, -1)
    observed = mask.reshape(days, -1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for d in range(days):
            keys = [f"{d + 1},{s},{c}," for s in range(1, slots + 1) for c in channels]
            vals = [
                repr(v) if m else "" for v, m in zip(values[d].tolist(), observed[d].tolist())
            ]
            fh.write("\n".join(map(str.__add__, keys, vals)))
            fh.write("\n")


def make_inputs(name: str, spec: dict, seed: int, workdir: Path) -> Inputs:
    """Inputs of one workload; the same (name, seed) gives the same inputs."""
    from meterfill import data

    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    dims = tuple(spec["dims"])
    truth = synth_truth(dims, rng)
    mask = uniform_mask(dims, spec["missing"], rng)
    channels = tuple(f"user_{k + 1:03d}" for k in range(dims[2]))
    inputs = Inputs(truth=truth, mask=mask, channels=channels)
    if spec["kind"] == "cli":
        inputs.csv_path = workdir / "input.csv"
        write_csv(inputs.csv_path, truth, mask, channels)
    else:
        inputs.dataset = data.TensorDataset(
            tensor=np.where(mask, truth, 0.0),
            mask=mask,
            day_labels=range(1, dims[0] + 1),
            slot_labels=range(1, dims[1] + 1),
            channel_labels=channels,
            layout=data.LAYOUT_MULTI_USER,
        )
    return inputs


def digest(inputs: Inputs) -> str:
    """Hash of everything the program is given, to check that inputs repeat."""
    h = hashlib.sha256(inputs.truth.tobytes())
    h.update(inputs.mask.tobytes())
    if inputs.csv_path is not None:
        h.update(inputs.csv_path.read_bytes())
    return h.hexdigest()


def rse_pct(completed: np.ndarray, inputs: Inputs) -> float:
    """Relative error in % on the hidden entries, against the pre-mask truth."""
    hidden = ~inputs.mask
    truth = inputs.truth[hidden]
    return 100.0 * float(np.linalg.norm(completed[hidden] - truth) / np.linalg.norm(truth))


def check_completion(completed: np.ndarray, inputs: Inputs, ceiling: float):
    """RSE and the list of checks the completed tensor fails."""
    if completed.shape != inputs.truth.shape:
        return float("nan"), [f"shape {completed.shape} != {inputs.truth.shape}"]
    failures = []
    if not np.all(np.isfinite(completed)):
        failures.append("non-finite output")
    if not np.array_equal(completed[inputs.mask], inputs.truth[inputs.mask]):
        failures.append("observed entries not returned exactly")
    err = rse_pct(completed, inputs)
    if not err <= ceiling:
        failures.append(f"rse {err:.4f}% above ceiling {ceiling}%")
    return err, failures


def read_cli_output(path: Path, inputs: Inputs) -> np.ndarray:
    """Completed tensor from the CLI's CSV; raises ValueError on a malformed file.

    The file must hold the header plus one row per tensor position, in
    day-major order with the input's labels, and no empty value.
    """
    dims = inputs.truth.shape
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ValueError(f"header {header!r}")
    cols = np.loadtxt(path, delimiter=",", usecols=(0, 1, 3), skiprows=1, ndmin=2)
    if cols.shape[0] != np.prod(dims):
        raise ValueError(f"{cols.shape[0]} rows, expected {np.prod(dims)}")
    day, slot, _ = np.indices(dims)
    if not (np.array_equal(cols[:, 0], day.ravel() + 1) and np.array_equal(cols[:, 1], slot.ravel() + 1)):
        raise ValueError("day/slot columns out of grid order")
    chans = np.loadtxt(path, delimiter=",", usecols=2, skiprows=1, dtype=str)
    if not np.array_equal(chans.reshape(-1, dims[2]), np.broadcast_to(inputs.channels, (dims[0] * dims[1], dims[2]))):
        raise ValueError("channel column does not match the input's channels")
    return cols[:, 2].reshape(dims)


@dataclass
class OpResult:
    """One operation: its times and counts, failed checks, and spans when traced."""

    wall_s: float = 0.0
    solve_s: float = 0.0
    iterations: int = 0
    rse_pct: float = float("nan")
    peak_rss_mb: float = 0.0
    failures: list | None = None
    spans: list | None = None
    installed: list | None = None
    import_s: float = 0.0
    csv_bytes_read: int = 0
    csv_bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def _solver_kwargs(spec: dict) -> dict:
    from meterfill import cpd_lrtc, halrtc

    if spec["method"] == "cpd_lrtc":
        fields = {k: spec[k] for k in ("rank", "max_iters", "epsilon") if k in spec}
        return {"cpd_cfg": cpd_lrtc.SolverConfig(**fields)}
    fields = {k: spec[k] for k in ("max_iters", "epsilon") if k in spec}
    return {"halrtc_cfg": halrtc.HalrtcConfig(**fields)}


def _solve_payload(spec: dict, inputs: Inputs, traced: bool, run_id: str) -> dict:
    """Body of an in-memory operation; runs in the forked child."""
    from meterfill import benchmark

    import spans as tracing

    kwargs = _solver_kwargs(spec)
    tracer = tracing.Tracer(run_id) if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    with tracer.span(tracing.OP_SPAN) if tracer is not None else contextlib.nullcontext():
        outcome = benchmark.complete_dataset(inputs.dataset, spec["method"], **kwargs)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    err, failures = check_completion(outcome.completed, inputs, spec["rse_ceiling_pct"])
    return {
        "wall_s": wall,
        "solve_s": wall,
        "iterations": outcome.iterations,
        "rse_pct": err,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "failures": failures,
        "spans": tracer.spans if tracer else None,
        "installed": sorted(tracer.installed) if tracer else None,
    }


def in_child(fn) -> dict:
    """Run fn() in a forked child and return the JSON object it produces.

    Forking gives the operation a process of its own, so its peak RSS
    excludes set-up, and the tracer never touches the parent. BLAS is pinned
    to one thread, so the parent has no threads to lose in the fork.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            try:
                payload = fn()
            except Exception as err:  # reported to the parent as a failed operation
                payload = {"failures": [f"{type(err).__name__}: {err}"]}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as fh:
            text = fh.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    return json.loads(text) if text else {"failures": ["operation process died"]}


def solve_op(spec: dict, inputs: Inputs, traced: bool, run_id: str, workdir: Path, root: Path) -> OpResult:
    payload = in_child(lambda: _solve_payload(spec, inputs, traced, run_id))
    return OpResult(**payload)


def cli_op(spec: dict, inputs: Inputs, traced: bool, run_id: str, workdir: Path, root: Path) -> OpResult:
    """``meterfill complete`` in a child process, timed from spawn to exit."""
    out_csv, report, span_file = workdir / "output.csv", workdir / "report.json", workdir / "spans.json"
    for p in (out_csv, report, span_file):
        p.unlink(missing_ok=True)
    cli_args = ["complete", "--input", str(inputs.csv_path), "--output", str(out_csv),
                "--rank", str(spec["rank"]), "--report", str(report)]
    for key in ("max_iters", "epsilon"):
        if key in spec:
            cli_args += ["--" + key.replace("_", "-"), repr(spec[key])]
    if traced:
        argv = [sys.executable, str(HERE / "cli_traced.py"), str(span_file), *cli_args]
    else:
        argv = [sys.executable, "-m", "meterfill.cli", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))

    with open(workdir / "cli.log", "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)

    res = OpResult(wall_s=end - start, peak_rss_mb=usage.ru_maxrss * 1024 / 1e6, failures=[])
    if proc.returncode != 0:
        res.failures.append(f"exit code {proc.returncode}: {(workdir / 'cli.log').read_text()[-500:]}")
        return res
    if traced:
        import spans as tracing

        with open(span_file, encoding="utf-8") as fh:
            child = json.load(fh)
        res.spans = [[tracing.OP_SPAN, start, end, -1, run_id, 0]]
        tracing.graft(res.spans, child["spans"], 0)
        res.installed = child["installed"]
        res.import_s = child["import_s"]
    with open(report, encoding="utf-8") as fh:
        rep = json.load(fh)
    res.iterations = int(rep["iterations"])
    res.csv_bytes_read = inputs.csv_path.stat().st_size
    res.csv_bytes_written = out_csv.stat().st_size
    res.solve_s = float(rep["wall_time_s"])
    try:
        completed = read_cli_output(out_csv, inputs)
    except ValueError as err:
        res.failures.append(f"output CSV: {err}")
        return res
    res.rse_pct, res.failures = check_completion(completed, inputs, spec["rse_ceiling_pct"])
    return res


OPS = {"cli": cli_op, "solve": solve_op}
