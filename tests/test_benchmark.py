"""Metrics, baselines, and the benchmark harness."""

import tracemalloc

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
from meterfill.cpd_lrtc import SolverConfig, complete
from meterfill.data import (
    ELECTRICAL_RANGES,
    LAYOUT_MULTI_MEASUREMENT,
    DataError,
    SynthSpec,
    derive_seed,
    prefill_electrical,
    simulate_missing,
    standardize_channels,
    synth_electrical_tensor,
    synth_load_tensor,
)
from meterfill.halrtc import HalrtcConfig, complete_halrtc


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

    def test_interp_empty_series_keeps_channel_mean(self):
        tensor = np.zeros((3, 3, 2))
        tensor[:, :, 0] = [[1.0, 2.0, 3.0], [2.0, 0.0, 5.0], [11.0, 11.0, 11.0]]
        tensor[:, :, 1] = np.arange(9.0).reshape(3, 3)
        mask = np.ones(tensor.shape, bool)
        mask[0, :, 0] = False
        mask[1, 1, 0] = False
        out = baseline_linear_interp(make_dataset(tensor, mask))
        # Channel 0's observed mean is (2 + 5 + 3 * 11) / 5 = 8; slot 2 of day 2
        # lies halfway between 2 and 5.
        expected = tensor.copy()
        expected[0, :, 0] = 8.0
        expected[1, 1, 0] = 3.5
        assert np.array_equal(out, expected)

    def test_interp_empty_channel(self):
        mask = np.ones((2, 3, 2), bool)
        mask[:, :, 1] = False
        with pytest.raises(DataError, match="channel 'user_002' has no observed entries"):
            baseline_linear_interp(make_dataset(np.ones((2, 3, 2)), mask))


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

    def test_baseline_and_direct_solve_reports(self, rng):
        # A baseline runs no iteration and thresholds nothing; a direct
        # solve leaves the dataset-level fields at their defaults.
        ds = make_dataset(rng.standard_normal((4, 5, 3)))
        masked = simulate_missing(ds, 0.3, seed=2)
        out = complete_dataset(masked, "interp")
        assert (out.iterations, out.converged, out.residual_history, out.svd_shapes) == (
            0, True, (), ())
        assert out.prefill is None and not out.standardized
        cfg = SolverConfig(rank=2, max_iters=4, epsilon=1e-12)
        report = complete(masked.tensor, masked.mask, cfg)
        assert report.iterations == len(report.residual_history) == 4
        assert report.prefill is None and not report.standardized

    def test_prefill_requires_layout(self, rng):
        ds = make_dataset(rng.standard_normal((4, 4, 2)))
        masked = simulate_missing(ds, 0.2, seed=1)
        with pytest.raises(ValueError):
            complete_dataset(masked, "mean", prefill=True)

    def test_unknown_method(self, rng):
        ds = make_dataset(rng.standard_normal((4, 4, 2)))
        with pytest.raises(ValueError):
            complete_dataset(ds, "kalman")


def reference_complete_dataset(ds, method, *, cpd_cfg=None, prefill=None):
    """complete_dataset's completion, mapped back by a new tensor per step.

    Destandardizing, clipping and re-imposing the observed entries each
    allocate here, as they did before complete_dataset wrote them into the
    solver's own array.
    """
    multi = ds.layout == LAYOUT_MULTI_MEASUREMENT
    if prefill is None:
        prefill = multi
    work = prefill_electrical(ds).dataset if prefill else ds
    standardized = multi and method in ("cpd_lrtc", "halrtc")
    if standardized:
        work, means, stds = standardize_channels(work)
    if method == "cpd_lrtc":
        completed = complete(work.tensor, work.mask, cpd_cfg).completed
    elif method == "halrtc":
        completed = complete_halrtc(work.tensor, work.mask).completed
    else:
        completed = {"mean": baseline_mean_fill, "interp": baseline_linear_interp}[method](work)
    if standardized:
        completed = completed * stds[None, None, :] + means[None, None, :]
    if multi:
        bounds = [ELECTRICAL_RANGES.get(c, (-np.inf, np.inf)) for c in ds.channel_labels]
        completed = np.clip(completed, *np.array(bounds).T)
    return np.where(ds.mask, ds.tensor, completed)


def _users_instance():
    sr = synth_load_tensor(SynthSpec(dims=(10, 24, 12), rank=3), seed=7)
    return simulate_missing(sr.dataset, 0.5, seed=3)


def _electrical_instance():
    # With pre-fill, the CPD-LRTC completion has 3 entries outside
    # ELECTRICAL_RANGES before clipping.
    return simulate_missing(synth_electrical_tensor(7, 24, seed=1), 0.8, seed=2)


MAPPING_CASES = [
    pytest.param(_users_instance, None, id="users"),
    pytest.param(_electrical_instance, None, id="electrical-prefill"),
    pytest.param(_electrical_instance, False, id="electrical-no-prefill"),
]


class TestMappingBack:
    @pytest.mark.parametrize("method", ["cpd_lrtc", "halrtc", "mean", "interp"])
    @pytest.mark.parametrize("instance,prefill", MAPPING_CASES)
    def test_matches_reference(self, instance, prefill, method):
        masked = instance()
        tensor, mask = masked.tensor.copy(), masked.mask.copy()
        cfg = SolverConfig(rank=3)
        out = complete_dataset(masked, method, cpd_cfg=cfg, prefill=prefill)
        ref = reference_complete_dataset(masked, method, cpd_cfg=cfg, prefill=prefill)
        assert np.array_equal(out.completed, ref)
        assert np.array_equal(masked.tensor, tensor) and np.array_equal(masked.mask, mask)

    def test_mean_fill_peak_memory(self):
        # The fill's own copy of the tensor is the completion: mapping back
        # allocates no second one (2.0 tensors when re-imposing the observed
        # entries made a new array).
        sr = synth_load_tensor(SynthSpec(dims=(31, 48, 114), rank=3), seed=7)
        masked = simulate_missing(sr.dataset, 0.5, derive_seed(11, "mask", "0.5"))
        tracemalloc.start()
        try:
            complete_dataset(masked, "mean")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * masked.tensor.nbytes


@pytest.fixture(scope="module")
def ds():
    return synth_load_tensor(SynthSpec(dims=(10, 12, 6), rank=2), seed=5).dataset


class TestRunBenchmark:
    def test_rate_zero_rejected(self, ds):
        with pytest.raises(ValueError):
            run_benchmark(ds, [0.0], ["mean"], seed=1)

    @pytest.mark.parametrize(
        "rates,methods,named",
        [pytest.param([0.1, 0.2, 0.3, 0.2], ["mean"], "missing rate 0.2", id="rate"),
         pytest.param([0.2], ["mean", "interp", "mean"], "method 'mean'", id="method"),
         # Equal to 12 digits, the mask label, so both rows would share one mask.
         pytest.param([0.2, 0.2 + 1e-13], ["mean"], "missing rate 0.20000000000010001", id="rate-label")],
    )
    def test_repeated_rate_or_method_refused(self, ds, rates, methods, named):
        # The table has one cell per rate and method, so a repeat would be
        # solved twice and shown once.
        with pytest.raises(ValueError, match=f"{named} given twice"):
            run_benchmark(ds, rates, methods, seed=1)

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
        # At 99% missing some channel of the 2x24x8 tensor is unobserved, so
        # neither baseline can fill that rate; the 20% cells are scored.
        ds = synth_load_tensor(SynthSpec(dims=(2, 24, 8), rank=2), seed=5).dataset
        results = run_benchmark(ds, [0.2, 0.99], ["mean", "interp"], seed=4)
        cells = {(r.missing_rate, r.method): r for r in results}
        masked = simulate_missing(ds, 0.99, derive_seed(4, "mask", "0.99"))
        for method, fill in [("mean", baseline_mean_fill), ("interp", baseline_linear_interp)]:
            failed = cells[0.99, method]
            with pytest.raises(DataError) as err:
                fill(masked)
            assert failed.error == str(err.value)
            assert np.isnan(failed.rse_percent) and np.isnan(failed.wall_time_s)
            assert f"{method},0.99,nan,nan,0" in results_to_csv(results).splitlines()
        for key in [(0.2, "mean"), (0.2, "interp")]:
            assert not cells[key].error and np.isfinite(cells[key].rse_percent)
        assert format_table(results).splitlines()[2].split()[1:] == ["failed", "-"] * 2

    def test_solver_with_no_observed_entry_fails_only_its_cell(self):
        # At 95% missing the 2x2x2 mask hides all eight entries, which the
        # solvers refuse as a DataError; the 50% cells are scored.
        ds = synth_load_tensor(SynthSpec(dims=(2, 2, 2), rank=1), seed=5).dataset
        assert not simulate_missing(ds, 0.95, derive_seed(4, "mask", "0.95")).mask.any()
        methods = ["mean", "cpd_lrtc", "halrtc"]
        results = run_benchmark(ds, [0.5, 0.95], methods, seed=4)
        cells = {(r.missing_rate, r.method): r for r in results}
        for method in methods:
            assert not cells[0.5, method].error and np.isfinite(cells[0.5, method].rse_percent)
            assert np.isnan(cells[0.95, method].rse_percent)
        for method in ["cpd_lrtc", "halrtc"]:
            assert cells[0.95, method].error == "mask selects no observed entries"

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
