"""The ADMM machinery both solvers share: its settings, the worker handoff and
where its names live."""

import dataclasses
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import meterfill
from meterfill import admm, cpd_lrtc, halrtc
from meterfill.data import SynthSpec, derive_seed, simulate_missing, synth_load_tensor
from meterfill.tensor_ops import fro_norm


@pytest.fixture
def worker():
    with ThreadPoolExecutor(1) as pool:
        yield pool


def record(calls, name):
    calls.append((name, threading.current_thread() is threading.main_thread()))


def fail(calls, name):
    record(calls, name)
    raise RuntimeError(f"{name} failed")


CONFIGS = (cpd_lrtc.SolverConfig, halrtc.HalrtcConfig)

# Loop settings refused by both solvers' configs, with the message each gives.
BAD_LOOP_SETTINGS = [
    ({"alpha": (math.nan, 0.5, 0.5)}, "alpha must be three finite nonnegative weights"),
    ({"alpha": (0.5, 0.5, 0.5)}, "alpha weights must sum to 1"),
    ({"mu0": -1.0}, "mu0 must be positive and finite"),
    ({"mu0": 0.0}, "mu0 must be positive and finite"),
    ({"mu0": math.nan}, "mu0 must be positive and finite"),
    ({"mu0": math.inf}, "mu0 must be positive and finite"),
    ({"rho": 0.5}, "rho must be finite and >= 1"),
    ({"rho": 0.9}, "rho must be finite and >= 1"),
    ({"rho": math.nan}, "rho must be finite and >= 1"),
    ({"rho": math.inf}, "rho must be finite and >= 1"),
    ({"mu_max": math.nan}, "mu_max must be positive and finite"),
    ({"mu_max": math.inf}, "mu_max must be positive and finite"),
    ({"epsilon": 0.0}, "epsilon must lie in (0, 1)"),
    ({"epsilon": 1.0}, "epsilon must lie in (0, 1)"),
    ({"epsilon": 1.5}, "epsilon must lie in (0, 1)"),
    ({"max_iters": 0}, "max_iters must be an integer >= 1"),
    ({"max_iters": 2.5}, "max_iters must be an integer >= 1"),
    ({"max_iters": True}, "max_iters must be an integer >= 1"),
]


class TestAdmmConfig:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("kwargs, message", BAD_LOOP_SETTINGS)
    def test_both_configs_refuse_bad_loop_settings(self, config, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config(**kwargs)

    def test_both_configs_extend_the_loops(self):
        for config in CONFIGS:
            assert issubclass(config, admm.AdmmConfig)

    def test_defaults(self):
        thirds = (1 / 3, 1 / 3, 1 / 3)
        loop = dict(alpha=thirds, mu_max=1e10, epsilon=1e-4, max_iters=500)
        expected = {
            cpd_lrtc.SolverConfig: dict(loop, mu0=1e-4, rho=1.05, rank=None, lam=1.0, seed=0),
            halrtc.HalrtcConfig: dict(loop, mu0=None, rho=1.1),
        }
        for config, defaults in expected.items():
            cfg = config()
            assert {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)} == defaults

    def test_no_mu0_starts_at_the_inverse_norm_of_the_first_iterate(self):
        ds = synth_load_tensor(SynthSpec(dims=(8, 10, 12), rank=3), seed=7).dataset
        masked = simulate_missing(ds, 0.5, derive_seed(11, "mask", "0.5"))
        t, m = masked.tensor, masked.mask
        start = 1 / fro_norm(np.where(m, t, 0.0))
        auto = halrtc.complete_halrtc(t, m)
        fixed = halrtc.complete_halrtc(t, m, halrtc.HalrtcConfig(mu0=start))
        assert np.array_equal(auto.completed, fixed.completed)
        assert auto.residual_history == fixed.residual_history


class TestObservedInput:
    def test_first_iterate_and_observed_entries(self, rng):
        t = rng.standard_normal((4, 5, 6))
        m = rng.random(t.shape) < 0.5
        x, idx, values = admm._observed_input(t, m)
        assert np.array_equal(x, np.where(m, t, 0.0)) and x.flags.c_contiguous
        assert np.array_equal(idx, np.flatnonzero(m))
        assert np.array_equal(values, t[m])

    @pytest.mark.parametrize("solve", [cpd_lrtc.complete, halrtc.complete_halrtc])
    def test_fortran_ordered_input_solves_as_c_ordered(self, solve):
        # np.where returns a Fortran-ordered first iterate for Fortran-ordered
        # operands, whose flat positions are not the mask's C-order ones.
        ds = synth_load_tensor(SynthSpec(dims=(8, 10, 12), rank=3), seed=7).dataset
        masked = simulate_missing(ds, 0.5, derive_seed(11, "mask", "0.5"))
        t, m = masked.tensor, masked.mask
        c_order = solve(t, m)
        f_order = solve(np.asfortranarray(t), np.asfortranarray(m))
        assert np.array_equal(f_order.completed, c_order.completed)
        assert f_order.residual_history == c_order.residual_history


class TestBeside:
    def test_halves_run_on_their_threads(self, worker):
        calls = []
        admm._beside(worker, (record, calls, "first"), (record, calls, "second"))
        assert sorted(calls) == [("first", True), ("second", False)]

    def test_without_a_worker_the_callers_half_runs_first(self):
        calls = []
        admm._beside(None, (record, calls, "first"), (record, calls, "second"))
        assert calls == [("first", True), ("second", True)]

    def test_callers_error_wins_and_the_workers_is_not_kept(self, worker):
        calls = []
        with pytest.raises(RuntimeError, match="^first failed$"):
            admm._beside(worker, (fail, calls, "first"), (fail, calls, "second"))
        assert sorted(calls) == [("first", True), ("second", False)]
        # The worker's error of that handoff is not raised by the next one.
        calls.clear()
        admm._beside(worker, (record, calls, "first"), (record, calls, "second"))
        assert sorted(calls) == [("first", True), ("second", False)]

    def test_workers_error_is_raised(self, worker):
        calls = []
        with pytest.raises(RuntimeError, match="^second failed$"):
            admm._beside(worker, (record, calls, "first"), (fail, calls, "second"))
        assert sorted(calls) == [("first", True), ("second", False)]

    def test_worker_is_waited_for_when_the_caller_fails(self, worker):
        started, finished = threading.Event(), threading.Event()

        def slow():
            started.set()
            # Long enough that an unwaited worker would still be running.
            threading.Event().wait(0.05)
            finished.set()

        def failing():
            started.wait()
            raise RuntimeError("caller failed")

        with pytest.raises(RuntimeError, match="^caller failed$"):
            admm._beside(worker, (failing,), (slow,))
        assert finished.is_set()


class TestSharedNames:
    def test_svt_is_defined_in_cpd_lrtc(self):
        # perfbench names a span after the module that defines the function,
        # and traces cpd_lrtc and halrtc, not admm: svt's calls are each
        # solver's iteration marker.
        assert cpd_lrtc.svt.__module__ == "meterfill.cpd_lrtc"
        assert halrtc.svt is cpd_lrtc.svt

    def test_report_and_error_are_exported_from_the_package(self):
        assert meterfill.CompletionReport is admm.CompletionReport is cpd_lrtc.CompletionReport
        assert meterfill.NumericalError is admm.NumericalError is cpd_lrtc.NumericalError
