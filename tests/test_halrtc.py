"""Unfolding-based comparator solver."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import project, reference_svd_svt

from meterfill import halrtc
from meterfill.cpd_lrtc import NumericalError, SolverConfig, complete, svt
from meterfill.data import SynthSpec, derive_seed, simulate_missing, synth_load_tensor
from meterfill.halrtc import HalrtcConfig, complete_halrtc
from meterfill.benchmark import rse
from meterfill.tensor_ops import fold, fro_norm, unfold


def parity_instance(dims, rate):
    sr = synth_load_tensor(SynthSpec(dims=dims, rank=3), seed=7)
    masked = simulate_missing(sr.dataset, rate, derive_seed(11, "mask", f"{rate}"))
    return masked.tensor, masked.mask


class TestConfig:
    def test_alpha_must_sum_to_one(self):
        with pytest.raises(ValueError):
            HalrtcConfig(alpha=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mu0": 0.0},
            {"rho": 0.5},
            {"epsilon": 1.5},
            {"max_iters": 0},
            {"rho": math.nan},
            {"mu0": math.nan},
            {"mu_max": math.nan},
            {"alpha": (math.nan, 0.5, 0.5)},
            {"mu0": math.inf},
            {"rho": math.inf},
            {"mu_max": math.inf},
            {"max_iters": 2.5},
            {"max_iters": True},
        ],
    )
    def test_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            HalrtcConfig(**kwargs)


class TestCompleteHalrtc:
    def test_fully_observed_exact(self, rng):
        t = rng.standard_normal((5, 6, 4))
        report = complete_halrtc(t, np.ones(t.shape, bool))
        assert report.converged
        assert report.iterations <= 2
        assert np.array_equal(report.completed, t)

    def test_recovers_rank3_tensor(self):
        sr = synth_load_tensor(SynthSpec(dims=(20, 24, 15), rank=3), seed=43)
        masked = simulate_missing(sr.dataset, 0.3, derive_seed(3, "mask", "0.3"))
        report = complete_halrtc(masked.tensor, masked.mask)
        assert rse(report.completed, sr.dataset.tensor, masked.mask) <= 5.0

    @pytest.mark.parametrize("r,rate", [(1, 0.5), (3, 0.3), (5, 0.5)])
    def test_exact_recovery_property(self, r, rate):
        sr = synth_load_tensor(SynthSpec(dims=(20, 24, 15), rank=r), seed=40 + r)
        masked = simulate_missing(sr.dataset, rate, derive_seed(r, "mask", f"{rate}"))
        report = complete_halrtc(masked.tensor, masked.mask)
        assert rse(report.completed, sr.dataset.tensor, masked.mask) <= 5.0

    def test_observed_entries_preserved(self, rng):
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < 0.6
        report = complete_halrtc(t, mask, HalrtcConfig(max_iters=6, epsilon=1e-9))
        assert np.array_equal(project(report.completed, mask), project(t, mask))

    @pytest.mark.parametrize("observed", [0.6, 1.0])
    def test_truth_untouched_and_not_shared(self, rng, observed):
        # complete_dataset maps the completion back in place, so it must be
        # the solver's own array.
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < observed
        before = t.copy()
        report = complete_halrtc(t, mask, HalrtcConfig(max_iters=6, epsilon=1e-9))
        assert np.array_equal(t, before)
        assert not np.shares_memory(report.completed, t)

    def test_svd_operands_are_full_unfoldings(self, rng):
        t = rng.standard_normal((6, 8, 10))
        mask = rng.random(t.shape) < 0.7
        hal = complete_halrtc(t, mask, HalrtcConfig(max_iters=3, epsilon=1e-12))
        assert hal.svd_shapes == ((6, 80), (8, 60), (10, 48))

        cpd = complete(t, mask, SolverConfig(rank=4, max_iters=3, epsilon=1e-12))
        # same iteration budget: every comparator operand dwarfs the factor-size ones
        for (hr, hc), (cr, cc) in zip(hal.svd_shapes, cpd.svd_shapes):
            assert hr == cr
            assert hc > cc

    def test_fixed_mu0_honored(self, rng):
        sr = synth_load_tensor(SynthSpec(dims=(10, 12, 8), rank=2), seed=3)
        masked = simulate_missing(sr.dataset, 0.4, 11)
        adaptive = complete_halrtc(masked.tensor, masked.mask, HalrtcConfig(max_iters=5, epsilon=1e-12))
        fixed = complete_halrtc(
            masked.tensor, masked.mask, HalrtcConfig(mu0=5.0, max_iters=5, epsilon=1e-12)
        )
        assert not np.array_equal(adaptive.completed, fixed.completed)

    def test_deterministic(self):
        sr = synth_load_tensor(SynthSpec(dims=(10, 12, 8), rank=2), seed=3)
        masked = simulate_missing(sr.dataset, 0.4, 11)
        r1 = complete_halrtc(masked.tensor, masked.mask)
        r2 = complete_halrtc(masked.tensor, masked.mask)
        assert np.array_equal(r1.completed, r2.completed)
        assert r1.residual_history == r2.residual_history

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            complete_halrtc(np.ones((2, 2, 2)), np.zeros((2, 2, 2), bool))

    @pytest.mark.parametrize("rate,bound", [(0.5, 8.8), (0.9, 8.0)])
    def test_peak_memory(self, rate, bound):
        # The step's seven tensors (the current and the next completion,
        # three terms, and the caller's and the worker's operands, which svt
        # thresholds in place) are live from the first iteration on, beside
        # the observed positions and values, one tensor at 50% missing and a
        # fifth at 90%, and the mask. Measured: 8.30-8.38 and 7.55-7.57
        # tensors; one more tensor-size buffer, or svt's write-back buffering
        # a whole operand, fails the bound.
        t, mask = parity_instance((31, 48, 114), rate)
        tracemalloc.start()
        try:
            complete_halrtc(t, mask, HalrtcConfig(max_iters=5, epsilon=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * t.nbytes

    def test_iterations_allocate_no_tensor(self, monkeypatch):
        # From the first svt call of iteration 2 (call 4) to the end of the
        # solve, memory may grow only by svt's own small-side matrices. The
        # fixed mu0 keeps the solve going; the adaptive one stops this
        # instance after one iteration.
        t, mask = parity_instance((30, 48, 50), 0.7)
        calls = []
        threshold = halrtc.svt

        def marking(m, tau, **kw):
            calls.append(tracemalloc.get_traced_memory()[0])
            if len(calls) == 4:
                tracemalloc.reset_peak()
            return threshold(m, tau, **kw)

        monkeypatch.setattr(halrtc, "svt", marking)
        tracemalloc.start()
        try:
            report = complete_halrtc(t, mask, HalrtcConfig(mu0=0.5, max_iters=10, epsilon=1e-12))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.iterations == 10
        assert peak - calls[3] < 0.5 * t.nbytes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_divergence_names_the_iteration(self, monkeypatch, rng, bad):
        # svt runs once per mode, three times an iteration, and every mode's
        # estimate is averaged into X, so call 7 is iteration 3's first.
        calls = []
        threshold = halrtc.svt

        def diverging(m, tau, **kw):
            calls.append(None)
            out = threshold(m, tau, **kw)
            if len(calls) >= 7:
                out[...] = bad
            return out

        monkeypatch.setattr(halrtc, "svt", diverging)
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < 0.5
        with pytest.raises(
            NumericalError, match=r"^iteration 3: completion diverged to non-finite values$"
        ):
            complete_halrtc(t, mask, HalrtcConfig(max_iters=10, epsilon=1e-9))


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_change_too_large_to_square_names_the_iteration(self, monkeypatch, rng):
        # The step measures its own change: from iteration 3 on every estimate
        # is finite but near 1e200, so the new X is finite and only the square
        # of its distance from the old one overflows.
        calls = []
        threshold = halrtc.svt

        def huge(m, tau, **kw):
            calls.append(None)
            out = threshold(m, tau, **kw)
            if len(calls) >= 7:
                out[...] = 1e200
            return out

        monkeypatch.setattr(halrtc, "svt", huge)
        t = rng.standard_normal((8, 7, 6))
        mask = rng.random(t.shape) < 0.5
        with pytest.raises(
            NumericalError, match=r"^iteration 3: completion diverged to non-finite values$"
        ):
            complete_halrtc(t, mask, HalrtcConfig(max_iters=10, epsilon=1e-9))
        assert len(calls) == 9


class TestModeWorker:
    """The mode with the largest dimension runs on a worker thread, which
    every solve ends, whatever ends the solve.
    """

    @pytest.mark.parametrize(
        "dims,worker_mode", [((30, 48, 50), 2), ((60, 20, 30), 0), ((40, 60, 30), 1), ((12, 20, 25), None)]
    )
    def test_largest_mode_runs_on_the_worker(self, monkeypatch, dims, worker_mode):
        t, mask = parity_instance(dims, 0.5)
        calls = []
        threshold = halrtc.svt

        def recording(m, tau, **kw):
            calls.append((m.shape, threading.current_thread()))
            return threshold(m, tau, **kw)

        monkeypatch.setattr(halrtc, "svt", recording)
        report = complete_halrtc(t, mask, HalrtcConfig(mu0=0.5, max_iters=4))
        assert (math.prod(dims) >= halrtc._THREAD_MIN_SIZE) == (worker_mode is not None)
        i1, i2, i3 = dims
        mode_shapes = [(i1, i2 * i3), (i2, i1 * i3), (i1 * i2, i3)]
        off_main = [(shape, thread) for shape, thread in calls if thread is not threading.main_thread()]
        expected = [] if worker_mode is None else [mode_shapes[worker_mode]] * report.iterations
        assert [shape for shape, _ in off_main] == expected
        # One worker thread serves the whole solve, not one per handoff. The
        # Thread objects are kept, so a second thread cannot reuse the id of
        # one that ended.
        assert len({thread for _, thread in off_main}) == (0 if worker_mode is None else 1)
        assert len(calls) == 3 * report.iterations

    @pytest.mark.parametrize(
        "cfg", [HalrtcConfig(), HalrtcConfig(mu0=0.5, max_iters=6)], ids=["converged", "max_iters"]
    )
    def test_solve_leaves_no_thread(self, cfg):
        t, mask = parity_instance((30, 48, 50), 0.5)
        before = threading.active_count()
        report = complete_halrtc(t, mask, cfg)
        assert report.converged == (cfg.mu0 is None)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_in_either_thread_names_the_iteration(self, monkeypatch, failing):
        # Each thread counts its own calls: the worker makes one per
        # iteration and the caller two, so these are iteration 3's.
        t, mask = parity_instance((30, 48, 50), 0.5)
        calls = {True: 0, False: 0}
        threshold = halrtc.svt

        def failing_svt(m, tau, **kw):
            on_main = threading.current_thread() is threading.main_thread()
            calls[on_main] += 1
            if (failing == "caller") == on_main and calls[on_main] == (5 if on_main else 3):
                raise NumericalError("stand-in failure")
            return threshold(m, tau, **kw)

        monkeypatch.setattr(halrtc, "svt", failing_svt)
        before = threading.active_count()
        with pytest.raises(NumericalError, match=r"^iteration 3: stand-in failure$"):
            complete_halrtc(t, mask, HalrtcConfig(mu0=0.5, max_iters=10))
        assert threading.active_count() == before
        # The other thread ran its part of iteration 3, and nothing after it.
        assert calls == ({True: 6, False: 3} if failing == "worker" else {True: 5, False: 3})

    def test_worker_sees_the_callers_error_state(self, monkeypatch):
        # numpy keeps np.errstate in a context variable; the worker runs its
        # mode in a copy of the caller's context.
        t, mask = parity_instance((30, 48, 50), 0.5)
        seen = []
        threshold = halrtc.svt

        def recording(m, tau, **kw):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()["divide"]))
            return threshold(m, tau, **kw)

        monkeypatch.setattr(halrtc, "svt", recording)
        with np.errstate(divide="raise"):
            complete_halrtc(t, mask, HalrtcConfig(mu0=0.5, max_iters=3))
        assert sorted(seen) == [(False, "raise")] * 3 + [(True, "raise")] * 6


def reference_complete_halrtc(truth, mask, cfg, threshold=svt):
    """HaLRTC with its own outer loop over the mode-n unfoldings, as it stood
    before the loop was shared with CPD-LRTC; the parity tests compare
    against it. ``threshold`` takes the place of ``svt``. Returns the
    completion, the residual history, the iteration count and the
    convergence flag.
    """
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    dims = t.shape
    x = project(t, m)
    denom = fro_norm(x) or 1.0
    mu = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    ys = [np.zeros(dims) for _ in range(3)]
    history = []
    converged = False
    for _ in range(cfg.max_iters):
        blended = np.zeros(dims)
        folded = []
        for n in range(3):
            yn = unfold(ys[n], n + 1)
            mn = threshold(unfold(x, n + 1) + yn / mu, cfg.alpha[n] / mu)
            folded.append(fold(mn, n + 1, dims))
            blended += fold(mn - yn / mu, n + 1, dims)
        x_new = np.where(m, t, blended / 3.0)
        for n in range(3):
            ys[n] = ys[n] + mu * (x_new - folded[n])
        resid = fro_norm(x_new - x) / denom
        history.append(resid)
        x = x_new
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    return x, tuple(history), len(history), converged


def matricize(z, n):
    """The matrix HaLRTC thresholds for mode n (0-based): the mode-n unfolding
    with its columns in C order, and for mode 3 its transpose.
    """
    if n == 2:
        return z.reshape(-1, z.shape[2])
    return np.moveaxis(z, n, 0).reshape(z.shape[n], -1)


def unmatricize(mat, n, dims):
    """Inverse of :func:`matricize` for a tensor of shape ``dims``."""
    if n == 2:
        return mat.reshape(dims)
    rest = [d for k, d in enumerate(dims) if k != n]
    return np.moveaxis(mat.reshape(dims[n], *rest), 0, n)


def reference_matricized_halrtc(truth, mask, cfg):
    """:func:`reference_complete_halrtc` with each mode thresholded on
    :func:`matricize` instead of :func:`unfold`, the order of sums the
    solver's Gram matrices follow. Returns the same four values.
    """
    t = np.asarray(truth, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    dims = t.shape
    x = project(t, m)
    denom = fro_norm(x) or 1.0
    mu = cfg.mu0 if cfg.mu0 is not None else 1.0 / max(fro_norm(x), 1e-12)
    ys = [np.zeros(dims) for _ in range(3)]
    history = []
    converged = False
    for _ in range(cfg.max_iters):
        blended = np.zeros(dims)
        terms = []
        for n in range(3):
            op = matricize(x + ys[n] / mu, n).copy()
            mn = svt(op, cfg.alpha[n] / mu, out=op)
            terms.append(unmatricize(mn, n, dims) - ys[n] / mu)
            blended += terms[n]
        x_new = np.where(m, t, blended / 3.0)
        for n in range(3):
            # Y_n + mu (x_new - M_n), with M_n = term_n + Y_n / mu.
            ys[n] = mu * (x_new - terms[n])
        resid = fro_norm(x_new - x) / denom
        history.append(resid)
        x = x_new
        mu = min(cfg.rho * mu, cfg.mu_max)
        if resid <= cfg.epsilon:
            converged = True
            break
    return x, tuple(history), len(history), converged


class TestParityWithOwnLoop:
    """The solver runs exactly the arithmetic of HaLRTC's own matricized loop,
    and stays where the unfold-based loop put it.
    """

    # The worker thread takes the mode with the largest dimension: mode 3 in
    # the first two shapes, then mode 1 and mode 2; the last shape is below
    # _THREAD_MIN_SIZE and runs every mode on the calling thread.
    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114), (60, 20, 30), (40, 60, 30), (12, 20, 25)])
    @pytest.mark.parametrize("rate", [0.5, 0.9])
    @pytest.mark.parametrize(
        "cfg", [HalrtcConfig(), HalrtcConfig(mu0=0.5, max_iters=40)], ids=["adaptive", "mu0"]
    )
    def test_bit_identical(self, dims, rate, cfg):
        t, mask = parity_instance(dims, rate)
        ref, ref_history, ref_iters, ref_converged = reference_matricized_halrtc(t, mask, cfg)
        report = complete_halrtc(t, mask, cfg)
        assert np.array_equal(report.completed, ref)
        assert report.residual_history == ref_history
        assert report.iterations == ref_iters
        assert report.converged == ref_converged

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate", [0.5, 0.9])
    @pytest.mark.parametrize(
        "cfg", [HalrtcConfig(), HalrtcConfig(mu0=0.5, max_iters=40)], ids=["adaptive", "mu0"]
    )
    def test_same_completion_as_unfolding_loop(self, dims, rate, cfg):
        # Thresholding matricizations instead of unfoldings reorders the Gram
        # sums only; the solve stays where the unfold-based loop put it.
        t, mask = parity_instance(dims, rate)
        ref, _, ref_iters, _ = reference_complete_halrtc(t, mask, cfg)
        report = complete_halrtc(t, mask, cfg)
        assert report.iterations == ref_iters
        assert np.linalg.norm(report.completed - ref) <= 1e-10 * np.linalg.norm(ref)


class TestParityWithSvdPath:
    """Whole solves with the Gram-eigh svt stay where the SVD-based svt put them."""

    @pytest.mark.parametrize("dims", [(30, 48, 50), (31, 48, 114)])
    @pytest.mark.parametrize("rate", [0.5, 0.9])
    @pytest.mark.parametrize(
        "cfg", [HalrtcConfig(), HalrtcConfig(mu0=0.5, max_iters=40)], ids=["adaptive", "mu0"]
    )
    def test_same_completion(self, dims, rate, cfg):
        t, mask = parity_instance(dims, rate)
        ref, _, ref_iters, _ = reference_complete_halrtc(t, mask, cfg, threshold=reference_svd_svt)
        report = complete_halrtc(t, mask, cfg)
        assert report.iterations == ref_iters
        assert np.linalg.norm(report.completed - ref) <= 1e-10 * np.linalg.norm(ref)
