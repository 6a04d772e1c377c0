"""Metrics, baselines, and the benchmark harness."""

import numpy as np
import pytest

from conftest import make_dataset
from meterfill.benchmark import (
    BenchResult,
    baseline_linear_interp,
    baseline_mean_fill,
    complete_dataset,
    format_table,
    results_to_csv,
    rse,
    run_benchmark,
)
from meterfill.cpd_lrtc import SolverConfig
from meterfill.data import (
    DataError,
    SynthSpec,
    derive_seed,
    simulate_missing,
    synth_electrical_tensor,
    synth_load_tensor,
)
from meterfill.halrtc import HalrtcConfig


def rse_bruteforce(completed, truth, mask):
    num = den = 0.0
    for idx in np.ndindex(truth.shape):
        if not mask[idx]:
            num += (completed[idx] - truth[idx]) ** 2
            den += truth[idx] ** 2
    return 100.0 * np.sqrt(num) / np.sqrt(den)


class TestRse:
    def test_perfect_completion(self, rng):
        t = rng.standard_normal((3, 4, 2))
        mask = rng.random(t.shape) < 0.5
        assert rse(t, t, mask) == 0.0

    def test_double_on_missing_is_100(self, rng):
        t = 1.0 + rng.random((3, 4, 2))
        mask = rng.random(t.shape) < 0.5
        completed = np.where(mask, t, 2.0 * t)
        assert rse(completed, t, mask) == pytest.approx(100.0, abs=1e-9)

    def test_matches_bruteforce(self, rng):
        t = rng.standard_normal((4, 5, 3))
        completed = t + 0.1 * rng.standard_normal(t.shape)
        mask = rng.random(t.shape) < 0.6
        assert rse(completed, t, mask) == pytest.approx(
            rse_bruteforce(completed, t, mask), rel=1e-12
        )

    def test_scale_invariance(self, rng):
        t = rng.standard_normal((4, 5, 3))
        completed = t + 0.1 * rng.standard_normal(t.shape)
        mask = rng.random(t.shape) < 0.6
        assert rse(3.7 * completed, 3.7 * t, mask) == pytest.approx(
            rse(completed, t, mask), rel=1e-12
        )

    def test_whole_tensor_scope(self, rng):
        t = 1.0 + rng.random((3, 4, 2))
        mask = rng.random(t.shape) < 0.5
        completed = np.where(mask, t, 2.0 * t)
        missing_norm = np.linalg.norm(t[~mask])
        full_norm = np.linalg.norm(t)
        assert rse(completed, t, mask, scope="all") == pytest.approx(
            100.0 * missing_norm / full_norm, rel=1e-12
        )

    def test_errors(self, rng):
        t = rng.standard_normal((2, 2, 2))
        with pytest.raises(ValueError):
            rse(t, t, np.ones(t.shape, bool))
        with pytest.raises(ValueError):
            rse(t, np.zeros_like(t), np.ones(t.shape, bool) & False)
        with pytest.raises(ValueError):
            rse(t, t, np.zeros(t.shape, bool), scope="nope")


class TestBaselines:
    def test_mean_fill_constant_tensor(self, rng):
        ds = make_dataset(np.full((4, 6, 2), 7.5))
        masked = simulate_missing(ds, 0.4, seed=1)
        out = baseline_mean_fill(masked)
        assert rse(out, ds.tensor, masked.mask) == 0.0

    def test_mean_fill_hand_oracle(self):
        # one channel, two slots {0, 10}, second missing: fill = 0, RSE = 100
        tensor = np.array([[[0.0], [10.0]]])
        mask = np.array([[[True], [False]]])
        out = baseline_mean_fill(make_dataset(tensor, mask))
        assert out[0, 1, 0] == 0.0
        assert rse(out, tensor, mask) == 100.0

    def test_mean_fill_empty_channel(self):
        mask = np.ones((2, 2, 2), bool)
        mask[:, :, 1] = False
        with pytest.raises(DataError):
            baseline_mean_fill(make_dataset(np.ones((2, 2, 2)), mask))

    def test_interp_exact_on_ramp(self):
        slots = np.arange(10, dtype=float)
        tensor = np.tile(slots[None, :, None], (2, 1, 1))
        mask = np.ones(tensor.shape, bool)
        mask[0, 4:7, 0] = False
        out = baseline_linear_interp(make_dataset(tensor, mask))
        assert np.allclose(out, tensor, atol=1e-12)

    def test_interp_edge_extension(self):
        tensor = np.array([[[5.0], [6.0], [7.0]]])
        mask = np.array([[[False], [True], [True]]])
        out = baseline_linear_interp(make_dataset(tensor, mask))
        assert out[0, 0, 0] == 6.0

    def test_interp_empty_series(self):
        mask = np.ones((2, 3, 1), bool)
        mask[0, :, 0] = False
        with pytest.raises(DataError):
            baseline_linear_interp(make_dataset(np.ones((2, 3, 1)), mask))


class TestCompleteDataset:
    def test_observed_entries_reimposed_exactly(self):
        sr = synth_load_tensor(SynthSpec(dims=(8, 10, 6), rank=2), seed=2)
        masked = simulate_missing(sr.dataset, 0.3, seed=3)
        for method in ("cpd_lrtc", "halrtc", "mean", "interp"):
            out = complete_dataset(masked, method, cpd_cfg=SolverConfig(rank=3))
            assert np.array_equal(out.completed[masked.mask], masked.tensor[masked.mask])

    def test_multi_measurement_standardizes_and_prefills(self):
        ds = synth_electrical_tensor(6, 16, seed=1)
        masked = simulate_missing(ds, 0.2, seed=4)
        out = complete_dataset(masked, "cpd_lrtc", cpd_cfg=SolverConfig(rank=3))
        assert out.standardized
        assert out.prefill is not None
        assert out.prefill.filled > 0
        assert np.array_equal(out.completed[masked.mask], masked.tensor[masked.mask])

    def test_prefill_opt_out(self):
        ds = synth_electrical_tensor(6, 16, seed=1)
        masked = simulate_missing(ds, 0.2, seed=4)
        out = complete_dataset(masked, "mean", prefill=False)
        assert out.prefill is None

    def test_prefill_requires_layout(self, rng):
        ds = make_dataset(rng.standard_normal((4, 4, 2)))
        masked = simulate_missing(ds, 0.2, seed=1)
        with pytest.raises(ValueError):
            complete_dataset(masked, "mean", prefill=True)

    def test_unknown_method(self, rng):
        ds = make_dataset(rng.standard_normal((4, 4, 2)))
        with pytest.raises(ValueError):
            complete_dataset(ds, "kalman")


@pytest.fixture(scope="module")
def ds():
    return synth_load_tensor(SynthSpec(dims=(10, 12, 6), rank=2), seed=5).dataset


class TestRunBenchmark:
    def test_rate_zero_rejected(self, ds):
        with pytest.raises(ValueError):
            run_benchmark(ds, [0.0], ["mean"], seed=1)

    def test_requires_fully_observed(self, ds):
        masked = simulate_missing(ds, 0.2, seed=1)
        with pytest.raises(ValueError):
            run_benchmark(masked, [0.2], ["mean"], seed=1)

    def test_row_layout(self, ds):
        results = run_benchmark(
            ds, [0.2, 0.5], ["cpd_lrtc", "halrtc"], cpd_cfg=SolverConfig(rank=4), seed=1
        )
        assert len(results) == 4
        assert [r.method for r in results] == ["cpd_lrtc", "halrtc", "cpd_lrtc", "halrtc"]

    def test_shared_mask_is_method_independent(self, ds):
        one = run_benchmark(ds, [0.3], ["mean", "interp"], seed=7)
        other = run_benchmark(ds, [0.3], ["interp"], seed=7)
        by_method = {r.method: r.rse_percent for r in one}
        assert by_method["interp"] == other[0].rse_percent

    def test_deterministic_scores(self, ds):
        a = run_benchmark(ds, [0.2, 0.4], ["cpd_lrtc"], cpd_cfg=SolverConfig(rank=4), seed=3)
        b = run_benchmark(ds, [0.2, 0.4], ["cpd_lrtc"], cpd_cfg=SolverConfig(rank=4), seed=3)
        assert [r.rse_percent for r in a] == [r.rse_percent for r in b]

    def test_baseline_data_error_fails_only_its_cell(self):
        # At 90% missing some day's 24-slot series of some channel is unobserved.
        ds = synth_load_tensor(SynthSpec(dims=(10, 24, 8), rank=2), seed=5).dataset
        results = run_benchmark(ds, [0.2, 0.9], ["mean", "interp"], seed=4)
        cells = {(r.missing_rate, r.method): r for r in results}
        failed = cells[0.9, "interp"]
        with pytest.raises(DataError) as err:
            baseline_linear_interp(simulate_missing(ds, 0.9, derive_seed(4, "mask", "0.9")))
        assert failed.error == str(err.value)
        assert np.isnan(failed.rse_percent) and np.isnan(failed.wall_time_s)
        for key in [(0.2, "mean"), (0.2, "interp"), (0.9, "mean")]:
            assert not cells[key].error and np.isfinite(cells[key].rse_percent)
        assert "interp,0.9,nan,nan,0" in results_to_csv(results).splitlines()
        assert format_table(results).splitlines()[2].split()[3:] == ["failed", "-"]

    def test_result_validation(self):
        with pytest.raises(ValueError):
            BenchResult(method="mean", missing_rate=1.2, rse_percent=1.0,
                        wall_time_s=0.0, iterations=0)
        with pytest.raises(ValueError):
            BenchResult(method="mean", missing_rate=0.2, rse_percent=-1.0,
                        wall_time_s=0.0, iterations=0)


class TestOutputFormats:
    def test_csv_columns_and_determinism(self, tmp_path):
        ds = synth_load_tensor(SynthSpec(dims=(8, 10, 5), rank=2), seed=6).dataset
        results = run_benchmark(ds, [0.3], ["mean", "interp"], seed=2)
        text = results_to_csv(results)
        lines = text.strip().splitlines()
        assert lines[0] == "method,missing_rate,rse_percent,time_s,iterations"
        assert len(lines) == 3
        again = results_to_csv(run_benchmark(ds, [0.3], ["mean", "interp"], seed=2))
        strip_time = lambda s: ["|".join(f.split(",")[:3]) for f in s.strip().splitlines()]
        assert strip_time(text) == strip_time(again)

    def test_table_layout(self):
        ds = synth_load_tensor(SynthSpec(dims=(8, 10, 5), rank=2), seed=6).dataset
        results = run_benchmark(ds, [0.2, 0.4], ["mean"], seed=2)
        table = format_table(results)
        lines = table.strip().splitlines()
        assert lines[0].startswith("Missing rate/%")
        assert "MeanFill RSE/%" in lines[0]
        assert lines[1].startswith("20")
        assert lines[2].startswith("40")
