"""The ADMM machinery both solvers share: the worker handoff and where its names live."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import meterfill
from meterfill import admm, cpd_lrtc, halrtc


@pytest.fixture
def worker():
    with ThreadPoolExecutor(1) as pool:
        yield pool


def record(calls, name):
    calls.append((name, threading.current_thread() is threading.main_thread()))


def fail(calls, name):
    record(calls, name)
    raise RuntimeError(f"{name} failed")


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
