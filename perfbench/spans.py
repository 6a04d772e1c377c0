"""Span tracing of meterfill from outside the package.

The public functions of the traced modules are replaced, through the module
attributes that callers look them up by, with wrappers that record one span
per call: name, start, end, parent span, run id and one count (bytes moved,
SVD elements or solver iterations, depending on the span). Nothing inside
the package changes. Spans stay in memory; the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types

import numpy as np

PACKAGE = "meterfill"
LAYERS = ("cli", "data", "benchmark", "cpd_lrtc", "halrtc", "tensor_ops")
# (layer, solve span, marker span): each solver calls svt once per mode per iteration.
SOLVERS = (("cpd_lrtc", "cpd_lrtc.complete", "cpd_lrtc.svt"), ("halrtc", "halrtc.complete_halrtc", "halrtc.svt"))
OP_SPAN = "bench.op"

# HaLRTC imports svt from cpd_lrtc, but there it decomposes full unfoldings,
# a cost of another order than the I_n x R factor SVDs of CPD-LRTC, so calls
# made through halrtc form a layer of their own.
ALIASES = {("halrtc", "svt"): "halrtc.svt"}

# Span fields, kept as lists for cheap recording.
NAME, START, END, PARENT, RUN, COUNT = range(6)


def _nbytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += _nbytes(v)
    return total


def _bytes_moved(args, kwargs, result) -> int:
    """Computed bytes: the arrays passed in plus the arrays returned."""
    return _nbytes(args) + _nbytes(kwargs.values()) + _nbytes((result,))


def _svd_elements(args, kwargs, result) -> int:
    m = args[0] if args else kwargs["m"]
    return int(np.size(m))


def _iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _counter(span_name: str):
    if span_name.startswith("tensor_ops."):
        return _bytes_moved
    if span_name.endswith(".svt"):
        return _svd_elements
    if any(span_name == solve for _, solve, _ in SOLVERS):
        return _iterations
    return None


class Tracer:
    """Records spans of one process; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self.spans: list[list] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple[types.ModuleType, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.run_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        count = _counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function reachable as an attribute of a traced module."""
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                package, _, home = fn.__module__.rpartition(".")
                if package != PACKAGE or home not in LAYERS:
                    continue
                name = ALIASES.get((layer, attr), f"{home}.{fn.__name__}")
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
                self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append((s[END] - s[START]) - covered)
    return out


def graft(spans, child_spans, parent: int) -> None:
    """Append spans recorded by a child process under span ``parent`` of ``spans``.

    Both processes read the same monotonic clock, so times stay comparable.
    """
    offset = len(spans)
    for s in child_spans:
        s = list(s)
        s[PARENT] = parent if s[PARENT] < 0 else s[PARENT] + offset
        s[RUN] = spans[parent][RUN]
        spans.append(s)


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int) -> float:
    """Highest listed percentile with at least ten samples beyond it (50 if none)."""
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0


def iteration_ms(spans, solve: str, marker: str) -> list[list[float]]:
    """Per-iteration times in ms, one list per solve span named ``solve``.

    Iterations are delimited by the ``marker`` calls inside the solve; the
    marker must be called the same number of times in every iteration. A
    solve of n iterations gives n - 1 marker-to-marker intervals.
    """
    solves = [s for s in spans if s[NAME] == solve]
    marks = [s[START] for s in spans if s[NAME] == marker]
    out = []
    for s in solves:
        inside = [t for t in marks if s[START] <= t <= s[END]]
        n = s[COUNT]
        if n < 2 or not inside or len(inside) % n:
            continue
        starts = inside[:: len(inside) // n]
        out.append([1e3 * (b - a) for a, b in zip(starts, starts[1:])])
    return out
