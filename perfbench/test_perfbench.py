"""Tests of the benchmark itself: exact counts, span arithmetic, absent layers.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans as tr  # noqa: E402
import workloads  # noqa: E402

SMALL_DIMS = {"cli-large": [6, 8, 10], "solve-sparse": [10, 12, 15], "halrtc-medium": [8, 10, 12]}
# Per-layer metrics that must be nonzero on each workload, because their layer runs there.
RUNNING = {
    "cli-large": ("cli.", "data.", "benchmark.", "cpd_lrtc.", "tensor_ops.unfold.", "tensor_ops.khatri_rao.",
                  "tensor_ops.cp_reconstruct.", "tensor_ops.bytes_per_iter"),
    "solve-sparse": ("benchmark.", "cpd_lrtc.", "tensor_ops.unfold.", "tensor_ops.khatri_rao.",
                     "tensor_ops.cp_reconstruct.", "tensor_ops.bytes_per_iter"),
    "halrtc-medium": ("benchmark.", "halrtc.", "tensor_ops.unfold.", "tensor_ops.fold.",
                      "tensor_ops.bytes_per_iter"),
}
EXACT = (
    "cpd_lrtc.iterations",
    "halrtc.iterations",
    "tensor_ops.bytes_per_iter",
    "halrtc.svd_elements_per_iter",
    "data.csv_bytes_read",
    "data.csv_bytes_written",
    "tensor_ops.unfold.calls",
)


def _bench():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _small_spec(name):
    spec = dict(workloads.load_specs()[name])
    spec["dims"] = SMALL_DIMS[name]
    spec["rse_ceiling_pct"] = 1e9  # tiny shapes complete poorly; only repeatability is tested
    return spec


@pytest.mark.parametrize("name", sorted(SMALL_DIMS))
def test_counts_repeat_exactly(name, tmp_path):
    """iterations, rse_pct, computed bytes and SVD elements repeat exactly per seed."""
    spec = _small_spec(name)
    layer_names = [m["name"] for m in _bench()["per_layer"]]
    seen = []
    for attempt in range(2):
        workdir = tmp_path / str(attempt)
        workdir.mkdir()
        inputs = workloads.make_inputs(name, spec, 7, workdir)
        op = workloads.OPS[spec["kind"]]
        plain = op(spec, inputs, False, "plain", workdir, ROOT)
        traced = op(spec, inputs, True, "traced", workdir, ROOT)
        assert not plain.failed and not traced.failed, (plain.failures, traced.failures)
        assert traced.iterations == plain.iterations and traced.rse_pct == plain.rse_pct
        values, absent = run.per_layer([plain], [traced], spec["dims"], layer_names)
        assert absent == []
        running = [n for n in layer_names if n.startswith(RUNNING[name])]
        assert [n for n in running if not values[n] > 0] == []
        root_time = sum(s[tr.END] - s[tr.START] for s in traced.spans if s[tr.PARENT] < 0)
        assert sum(tr.self_times(traced.spans)) == pytest.approx(root_time)
        seen.append((plain.iterations, plain.rse_pct, [values[k] for k in EXACT]))
    assert seen[0] == seen[1]


def test_seed_changes_inputs(tmp_path):
    spec = _small_spec("solve-sparse")
    a = workloads.make_inputs("solve-sparse", spec, 1, tmp_path)
    b = workloads.make_inputs("solve-sparse", spec, 2, tmp_path)
    assert not np.array_equal(a.mask, b.mask)


def test_csv_writer_matches_program(tmp_path):
    from meterfill import data

    spec = _small_spec("cli-large")
    inputs = workloads.make_inputs("cli-large", spec, 3, tmp_path)
    ds = data.TensorDataset(
        tensor=np.where(inputs.mask, inputs.truth, 0.0),
        mask=inputs.mask,
        day_labels=range(1, spec["dims"][0] + 1),
        slot_labels=range(1, spec["dims"][1] + 1),
        channel_labels=inputs.channels,
        layout=data.LAYOUT_MULTI_USER,
    )
    data.save_csv(ds, tmp_path / "program.csv")
    assert inputs.csv_path.read_bytes() == (tmp_path / "program.csv").read_bytes()


def test_cli_output_check_rejects_empty_value(tmp_path):
    spec = _small_spec("cli-large")
    inputs = workloads.make_inputs("cli-large", spec, 3, tmp_path)
    with pytest.raises(ValueError):
        workloads.read_cli_output(inputs.csv_path, inputs)
    full = tmp_path / "full.csv"
    workloads.write_csv(full, inputs.truth, np.ones_like(inputs.mask), inputs.channels)
    assert np.array_equal(workloads.read_cli_output(full, inputs), inputs.truth)


def test_check_completion_flags_changed_observed_entry(tmp_path):
    spec = _small_spec("halrtc-medium")
    inputs = workloads.make_inputs("halrtc-medium", spec, 3, tmp_path)
    completed = inputs.truth.copy()
    assert workloads.check_completion(completed, inputs, 1.0)[1] == []
    completed[np.unravel_index(np.flatnonzero(inputs.mask)[0], completed.shape)] += 1e-12
    assert workloads.check_completion(completed, inputs, 1.0)[1] == [
        "observed entries not returned exactly"
    ]


def test_self_times_subtract_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1, "r", 0],
        ["a", 1.0, 4.0, 0, "r", 0],
        ["b", 2.0, 3.0, 1, "r", 0],
        ["c", 5.0, 6.0, 0, "r", 0],
    ]
    selfs = tr.self_times(spans)
    assert selfs == [6.0, 2.0, 1.0, 1.0]
    assert sum(selfs) == 10.0


def test_iteration_ms_uses_marker_intervals():
    solve = ["cpd_lrtc.complete", 0.0, 1.0, -1, "r", 3]
    marks = [["cpd_lrtc.svt", t, t + 0.01, 0, "r", 0] for t in (0.1, 0.12, 0.14, 0.3, 0.32, 0.34, 0.6, 0.62, 0.64)]
    (per_iter,) = tr.iteration_ms([solve, *marks], "cpd_lrtc.complete", "cpd_lrtc.svt")
    assert np.allclose(per_iter, [200.0, 300.0])


def test_tail_percentile_keeps_ten_beyond():
    assert tr.tail_percentile(99) == 75.0
    assert tr.tail_percentile(200) == 95.0
    assert tr.tail_percentile(12) == 50.0


def test_tracer_restores_module_attributes():
    from meterfill import cpd_lrtc

    original = cpd_lrtc.unfold
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert cpd_lrtc.unfold is not original
        assert {"tensor_ops.unfold", "cpd_lrtc.svt", "halrtc.svt", "cli.main"} <= tracer.installed
    finally:
        tracer.uninstall()
    assert cpd_lrtc.unfold is original


def test_removed_function_is_reported_absent(monkeypatch):
    from meterfill import cpd_lrtc

    monkeypatch.delattr(cpd_lrtc, "update_factors")
    tracer = tr.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "cpd_lrtc.update_factors" not in tracer.installed
    names = [m["name"] for m in _bench()["per_layer"]]
    res = workloads.OpResult(wall_s=1.0, spans=[[tr.OP_SPAN, 0.0, 1.0, -1, "r", 0]],
                             installed=sorted(tracer.installed), failures=[])
    values, absent = run.per_layer([res], [res], [2, 2, 2], names)
    assert "cpd_lrtc.update_factors" in absent
    assert values["cpd_lrtc.update_factors.self_s"] == 0.0


def test_benchmark_json_agrees_with_workloads():
    bench = _bench()
    specs = workloads.load_specs()
    assert [w["name"] for w in bench["workloads"]] == list(specs)
    for w in bench["workloads"]:
        assert w["why"] == specs[w["name"]]["why"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "halrtc-medium", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
