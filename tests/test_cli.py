"""CLI subcommands exercised end to end over temp files."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meterfill import benchmark, data
from meterfill.cli import _parse_rates, _solver_configs, build_parser, main
from meterfill.data import load_dataset, save_csv, simulate_missing, synth_electrical_tensor
from meterfill.benchmark import rse
from meterfill.cpd_lrtc import SolverConfig
from meterfill.halrtc import HalrtcConfig
from meterfill.tensor_ops import unfold


def run_cli(*args):
    return main([str(a) for a in args])


def strip_time_column(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:3] + line.split(",")[4:]) for line in lines]


@pytest.fixture
def full_csv(tmp_path):
    path = tmp_path / "full.csv"
    assert run_cli("synth", "--output", path, "--dims", "8x12x5", "--rank", "2",
                   "--seed", "3") == 0
    return path


class TestParseRates:
    def test_range_default_step(self):
        assert _parse_rates("0.1..0.9") == [round(0.1 * k, 10) for k in range(1, 10)]

    def test_range_custom_step(self):
        assert _parse_rates("0.2..0.6:0.2") == [0.2, 0.4, 0.6]

    def test_list(self):
        assert _parse_rates("0.1,0.35") == [0.1, 0.35]

    @pytest.mark.parametrize(
        "text,rates", [("0.1..0.4:0.2", [0.1, 0.3]), ("0.5..0.95:0.3", [0.5, 0.8])]
    )
    def test_range_stops_at_upper_bound(self, text, rates):
        assert _parse_rates(text) == rates

    @pytest.mark.parametrize("text", ["0.1..inf", "-inf..0.5", "0.1..0.9:1e-320"])
    def test_non_finite_range_refused(self, text):
        # The last one's step is finite, but its count overflows to inf.
        with pytest.raises(argparse.ArgumentTypeError, match="bad rate range"):
            _parse_rates(text)

    @pytest.mark.parametrize("text", ["0.1..0.9:1e-12", "0.1..0.1000001:1e-12", "0.1..0.2:9.9e-11"])
    def test_step_below_rounding_refused(self, text):
        # Rates are rounded to 10 decimals, so these steps would repeat rates;
        # the first asks for 8e11 of them.
        with pytest.raises(argparse.ArgumentTypeError, match="bad rate range"):
            _parse_rates(text)

    def test_smallest_step_accepted(self):
        assert _parse_rates("0.5..0.5000000003:1e-10") == [0.5, 0.5000000001, 0.5000000002, 0.5000000003]

    @pytest.mark.parametrize("text", ["0..1:0.0001", "0.5,0.0001..1:0.0001", "0.0001..1:0.0001,0..0.5"])
    def test_more_than_the_cap_refused(self, text):
        # Each range alone gives 10,001 or 10,000 rates; with the rest, one too many.
        with pytest.raises(argparse.ArgumentTypeError, match="more than 10000 rates"):
            _parse_rates(text)

    def test_the_cap_itself_accepted(self):
        assert len(_parse_rates("0.0001..1:0.0001")) == 10_000


class TestSolverFlags:
    @pytest.mark.parametrize("command,methods", [
        pytest.param("complete", "cpd_lrtc", id="complete"),
        pytest.param("bench", "cpd_lrtc,halrtc", id="bench"),
        pytest.param("complete", "halrtc", id="complete-halrtc"),
        pytest.param("complete", "mean", id="complete-mean"),
        pytest.param("bench", "mean,interp", id="bench-mean-interp"),
    ])
    def test_flags_reach_the_configs_with_those_fields(self, command, methods):
        methods = methods.split(",")
        io = ["--input", "in.csv", "--output", "out.csv"] if command == "complete" else []
        option = "--method" if command == "complete" else "--methods"
        shared = {"rho": 1.2, "mu0": 0.5, "mu_max": 1e6, "epsilon": 1e-5, "max_iters": 7,
                  "alpha": (0.5, 0.25, 0.25)}
        flags = []
        if {"cpd_lrtc", "halrtc"} & set(methods):
            flags += ["--rho", "1.2", "--mu0", "0.5", "--mu-max", "1e6", "--epsilon", "1e-5",
                      "--max-iters", "7", "--alpha", "0.5,0.25,0.25"]
        if "cpd_lrtc" in methods:
            flags += ["--rank", "4", "--lambda", "2", "--seed", "9"]
        args = build_parser().parse_args([command, *io, option, ",".join(methods), *flags])
        cpd, hal = _solver_configs(args, methods, own=("seed",) if command == "bench" else ())
        assert (cpd is None, hal is None) == ("cpd_lrtc" not in methods, "halrtc" not in methods)
        for cfg in (cpd, hal):
            if cfg is not None:
                assert {name: getattr(cfg, name) for name in shared} == shared
        if cpd is not None:
            assert (cpd.rank, cpd.lam, cpd.seed) == (4, 2.0, 9)
        if hal is not None:
            assert not {"rank", "lam", "seed"} & set(vars(hal))

    @pytest.mark.parametrize("argv,refused", [
        (["complete", "--method", "mean", "--rank", "3", "--lambda", "7"],
         "--rank, --lambda do not apply to --method mean"),
        (["complete", "--method", "halrtc", "--rank", "3", "--seed", "4"],
         "--rank, --seed do not apply to --method halrtc"),
        (["bench", "--methods", "mean,interp", "--mu0", "5"],
         "--mu0 do not apply to --methods mean,interp"),
        (["complete", "--rho", "nan"], "rho must be finite"),
    ], ids=["complete-mean", "complete-halrtc", "bench-mean-interp", "nan"])
    def test_flags_no_config_reads_are_refused(self, tmp_path, capsys, full_csv, argv, refused):
        out = tmp_path / "out.csv"
        io = ["--output", out] if argv[0] == "complete" else ["--rates", "0.2", "--output", out]
        assert run_cli(*argv, "--input", full_csv, *io) == 1
        assert refused in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,extra", [
        ("complete", ["--output", "out.csv"]),
        ("simulate", ["--output", "out.csv", "--rate", "0.1"]),
        ("eval", ["--truth", "truth.csv", "--masked", "masked.csv"]),
    ])
    def test_no_layout_flag_on_file_input(self, command, extra):
        argv = [command, "--input", "in.csv", *extra]
        build_parser().parse_args(argv)
        for flag in (["--layout", "multi_user_single_measurement"], ["--dims", "5x6x3"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args([*argv, *flag])

    def test_flags_not_given_keep_defaults(self):
        args = build_parser().parse_args(["complete", "--input", "in.csv", "--output", "out.csv"])
        cpd, hal = _solver_configs(args, ["cpd_lrtc", "halrtc"])
        assert cpd == SolverConfig()
        assert hal == HalrtcConfig()


class TestSynth:
    def test_row_count_matches_dims(self, tmp_path):
        path = tmp_path / "big.csv"
        assert run_cli("synth", "--output", path, "--dims", "31x48x114", "--seed", "1") == 0
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1
        assert rows == 31 * 48 * 114

    def test_rank_one_output(self, tmp_path):
        path = tmp_path / "r1.csv"
        assert run_cli("synth", "--output", path, "--dims", "6x10x4", "--rank", "1",
                       "--seed", "2") == 0
        ds = load_dataset(path)
        s = np.linalg.svd(unfold(ds.tensor, 1), compute_uv=False)
        assert (s > 1e-8 * s[0]).sum() == 1

    def test_electrical_layout_needs_four_channels(self, tmp_path):
        path = tmp_path / "e.csv"
        assert run_cli("synth", "--output", path, "--dims", "4x8x5",
                       "--layout", "single_user_multi_measurement") == 1
        assert not path.exists()
        assert run_cli("synth", "--output", path, "--dims", "4x8x4",
                       "--layout", "single_user_multi_measurement") == 0
        assert load_dataset(path).layout == "single_user_multi_measurement"

    @pytest.mark.parametrize(
        "flags", [["--rank", "7"], ["--noise", "0.5"], ["--no-periodic"], ["--periodic"]]
    )
    def test_electrical_generator_refuses_generator_flags(self, tmp_path, capsys, flags):
        path = tmp_path / "e.csv"
        assert run_cli("synth", "--output", path, "--dims", "3x8x4",
                       "--layout", "single_user_multi_measurement", *flags) == 1
        assert flags[0].replace("no-", "") in capsys.readouterr().err
        assert not path.exists()

    def test_multi_user_defaults(self, tmp_path):
        plain, explicit = tmp_path / "plain.csv", tmp_path / "explicit.csv"
        assert run_cli("synth", "--output", plain, "--dims", "4x8x3", "--seed", "2") == 0
        assert run_cli("synth", "--output", explicit, "--dims", "4x8x3", "--seed", "2",
                       "--rank", "3", "--noise", "0", "--periodic",
                       "--layout", "multi_user_single_measurement") == 0
        assert plain.read_bytes() == explicit.read_bytes()


class TestSimulate:
    def test_rate_zero_identical_file(self, tmp_path, full_csv):
        out = tmp_path / "masked.csv"
        assert run_cli("simulate", "--input", full_csv, "--output", out,
                       "--rate", "0", "--seed", "1") == 0
        assert out.read_bytes() == full_csv.read_bytes()

    def test_removed_share(self, tmp_path, full_csv):
        out = tmp_path / "masked.csv"
        assert run_cli("simulate", "--input", full_csv, "--output", out,
                       "--rate", "0.3", "--seed", "1") == 0
        ds = load_dataset(out)
        assert (~ds.mask).sum() == int(round(0.3 * ds.tensor.size))
        truth = load_dataset(tmp_path / "masked.csv.truth.csv")
        assert truth.mask.all()
        assert np.array_equal(truth.tensor[ds.mask], ds.tensor[ds.mask])

    def test_seed_reproducible_bytes(self, tmp_path, full_csv):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("simulate", "--input", full_csv, "--output", a, "--rate", "0.4", "--seed", "7")
        run_cli("simulate", "--input", full_csv, "--output", b, "--rate", "0.4", "--seed", "7")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_rate(self, tmp_path, full_csv):
        out = tmp_path / "masked.csv"
        assert run_cli("simulate", "--input", full_csv, "--output", out,
                       "--rate", "1.5", "--seed", "1") == 1
        assert not out.exists()


class TestComplete:
    def test_fully_observed_passthrough(self, tmp_path, full_csv):
        out = tmp_path / "done.csv"
        assert run_cli("complete", "--input", full_csv, "--output", out, "--rank", "3") == 0
        src = load_dataset(full_csv)
        done = load_dataset(out)
        assert done.mask.all()
        assert np.array_equal(done.tensor, src.tensor)

    def test_masked_file_report(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        out = tmp_path / "done.csv"
        report = tmp_path / "report.json"
        assert run_cli("complete", "--input", masked, "--output", out,
                       "--rank", "4", "--report", report) == 0
        payload = json.loads(report.read_text())
        assert payload["method"] == "cpd_lrtc"
        assert payload["iterations"] == len(payload["residual_history"])
        src = load_dataset(masked)
        done = load_dataset(out)
        assert np.array_equal(done.tensor[src.mask], src.tensor[src.mask])
        assert "converged=True" in capsys.readouterr().out

    def test_prefill_count_single_missing_per_slot(self, tmp_path):
        ds = synth_electrical_tensor(5, 12, seed=9)
        rng = np.random.default_rng(4)
        mask = np.ones(ds.dims, dtype=bool)
        for d in range(5):
            for s in range(12):
                mask[d, s, rng.integers(4)] = False
        from dataclasses import replace

        masked_ds = replace(ds, tensor=np.where(mask, ds.tensor, 0.0), mask=mask)
        masked = tmp_path / "masked.csv"
        save_csv(masked_ds, masked)
        out = tmp_path / "done.csv"
        report = tmp_path / "report.json"
        assert run_cli("complete", "--input", masked, "--output", out,
                       "--rank", "3", "--report", report) == 0
        payload = json.loads(report.read_text())
        assert payload["prefilled"] == 5 * 12

    def test_non_convergence_still_succeeds(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        out = tmp_path / "done.csv"
        assert run_cli("complete", "--input", masked, "--output", out,
                       "--rank", "4", "--max-iters", "2") == 0
        assert "converged=False" in capsys.readouterr().out
        assert out.exists()

    def test_missing_input_fails_without_output(self, tmp_path):
        out = tmp_path / "done.csv"
        assert run_cli("complete", "--input", tmp_path / "nope.csv", "--output", out) == 1
        assert not out.exists()

    def test_unwritable_report_fails_without_output(self, tmp_path, full_csv, capsys):
        out = tmp_path / "done.csv"
        report = tmp_path / "missing" / "report.json"
        assert run_cli("complete", "--input", full_csv, "--output", out,
                       "--rank", "3", "--report", report) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize(
        "bad,path",
        [("output", "missing/done.csv"), ("report", "missing/report.json"), ("output", "a-directory")],
    )
    def test_unwritable_path_fails_before_the_solve(self, tmp_path, full_csv, capsys, monkeypatch, bad, path):
        def solving(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(benchmark, "complete_dataset", solving)
        (tmp_path / "a-directory").mkdir()
        paths = {"output": tmp_path / "done.csv", "report": tmp_path / "report.json"}
        paths[bad] = tmp_path / path
        assert run_cli("complete", "--input", full_csv, "--output", paths["output"],
                       "--report", paths["report"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(p.is_file() for p in paths.values())

    def test_grid_too_large_to_allocate_fails_without_output(self, tmp_path, capsys):
        # Day 1e14 makes a 1e14 x 1 x 2 grid, 1.4 PiB: more than any address
        # space, so the allocation fails at once.
        path = tmp_path / "huge.csv"
        path.write_text("day,slot,channel,value\n1,1,P,1.0\n100000000000000,1,u1,2.0\n")
        out = tmp_path / "done.csv"
        assert run_cli("complete", "--input", path, "--output", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["halrtc", "mean", "interp"])
    def test_other_methods(self, tmp_path, full_csv, method):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.2", "--seed", "3")
        out = tmp_path / f"done_{method}.csv"
        assert run_cli("complete", "--input", masked, "--output", out, "--method", method) == 0
        src = load_dataset(masked)
        done = load_dataset(out)
        assert done.mask.all()
        assert np.array_equal(done.tensor[src.mask], src.tensor[src.mask])


class TestEval:
    def test_completed_electrical_values_load_back(self, tmp_path, capsys):
        # At 80% missing the solve overshoots an I value below 0 before clipping.
        full, masked, out = tmp_path / "full.csv", tmp_path / "masked.csv", tmp_path / "done.csv"
        assert run_cli("synth", "--output", full, "--dims", "7x24x4",
                       "--layout", "single_user_multi_measurement", "--seed", "1") == 0
        assert run_cli("simulate", "--input", full, "--output", masked,
                       "--rate", "0.8", "--seed", "2") == 0
        assert run_cli("complete", "--input", masked, "--output", out) == 0
        capsys.readouterr()
        assert run_cli("eval", "--input", out, "--truth", full, "--masked", masked) == 0
        assert capsys.readouterr().out.startswith("rse_percent=")

    def test_matches_library_rse(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        out = tmp_path / "done.csv"
        run_cli("complete", "--input", masked, "--output", out, "--rank", "4")
        capsys.readouterr()
        assert run_cli("eval", "--input", out, "--truth", full_csv, "--masked", masked) == 0
        printed = capsys.readouterr().out.strip()
        reported = float(printed.split("=", 1)[1])
        completed = load_dataset(out)
        truth = load_dataset(full_csv)
        masked_ds = load_dataset(masked)
        assert reported == rse(completed.tensor, truth.tensor, masked_ds.mask)

    def test_whole_tensor_scope(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        out = tmp_path / "done.csv"
        run_cli("complete", "--input", masked, "--output", out, "--rank", "4")
        capsys.readouterr()
        assert run_cli("eval", "--input", out, "--truth", full_csv, "--masked", masked,
                       "--scope", "all") == 0
        reported = float(capsys.readouterr().out.strip().split("=", 1)[1])
        completed = load_dataset(out)
        truth = load_dataset(full_csv)
        masked_ds = load_dataset(masked)
        assert reported == rse(completed.tensor, truth.tensor, masked_ds.mask, scope="all")

    def test_channels_matched_by_name(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        out = tmp_path / "done.csv"
        run_cli("complete", "--input", masked, "--output", out, "--rank", "4")
        header, *rows = out.read_text().splitlines()
        # The same rows with user_003's first: load_csv numbers channels as they appear.
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("\n".join([header, *sorted(rows, key=lambda r: "user_003" not in r)]))
        capsys.readouterr()
        scores = []
        for completed in (out, reordered):
            assert run_cli("eval", "--input", completed, "--truth", full_csv,
                           "--masked", masked) == 0
            scores.append(capsys.readouterr().out)
        assert load_dataset(reordered).channel_labels[0] == "user_003"
        assert scores[0] == scores[1]

    def test_different_channels_refused(self, tmp_path, full_csv, capsys):
        renamed = tmp_path / "renamed.csv"
        renamed.write_text(full_csv.read_text().replace("user_002", "user_009"))
        assert run_cli("eval", "--input", renamed, "--truth", full_csv, "--masked", full_csv) == 1
        assert "differ in channels ['user_002', 'user_009']" in capsys.readouterr().err

    def test_masked_input_refused(self, tmp_path, full_csv, capsys):
        masked = tmp_path / "masked.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        capsys.readouterr()
        assert run_cli("eval", "--input", masked, "--truth", full_csv, "--masked", masked) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{round(0.3 * 8 * 12 * 5)} values missing" in out.err

    def test_masked_truth_refused(self, tmp_path, full_csv, capsys):
        # An empty truth value would load as 0 and be scored as the answer.
        masked, holes, out = tmp_path / "masked.csv", tmp_path / "holes.csv", tmp_path / "done.csv"
        run_cli("simulate", "--input", full_csv, "--output", masked, "--rate", "0.3", "--seed", "2")
        run_cli("simulate", "--input", full_csv, "--output", holes, "--rate", "0.3", "--seed", "9")
        run_cli("complete", "--input", masked, "--output", out, "--method", "mean")
        capsys.readouterr()
        assert run_cli("eval", "--input", out, "--truth", holes, "--masked", masked) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        missing = round(0.3 * 8 * 12 * 5)
        assert f"{holes} is not a full truth: {missing} values missing" in captured.err


class TestBench:
    def test_rows_and_determinism(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--dims", "8x12x5", "--synth-rank", "2", "--rank", "4",
                "--rates", "0.2,0.5", "--methods", "cpd_lrtc,halrtc", "--seed", "5"]
        assert run_cli(*args, "--output", out_a) == 0
        assert run_cli(*args, "--output", out_b) == 0
        lines = out_a.read_text().splitlines()
        assert len(lines) == 5  # header + 2 rates x 2 methods
        assert strip_time_column(out_a) == strip_time_column(out_b)

    def test_monotone_rse_per_method(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--dims", "10x12x6", "--synth-rank", "2", "--noise", "0.05",
                       "--rank", "4", "--rates", "0.2,0.8", "--methods", "cpd_lrtc",
                       "--seed", "6", "--output", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        scores = {float(r[1]): float(r[2]) for r in rows}
        assert scores[0.8] > scores[0.2]

    def test_two_methods_nine_rates_is_18_rows(self, tmp_path):
        out = tmp_path / "full_sweep.csv"
        assert run_cli("bench", "--dims", "8x12x5", "--synth-rank", "2", "--rank", "4",
                       "--rates", "0.1..0.9", "--methods", "cpd_lrtc,halrtc",
                       "--seed", "9", "--output", out) == 0
        assert len(out.read_text().splitlines()) == 19  # header + 18 cells

    def test_bad_rate_leaves_no_output(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--dims", "8x12x5", "--rates", "0.0,0.5",
                       "--output", out) == 1
        assert not out.exists()

    def test_non_finite_rate_range_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exit_:
            run_cli("bench", "--dims", "4x6x3", "--methods", "mean",
                    "--rates", "0.1..inf", "--output", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "bad rate range '0.1..inf'" in err and "Traceback" not in err
        assert not out.exists()

    def test_rate_range_too_fine_exits_2_without_output(self, tmp_path, capsys):
        # 8e11 rates: refused from the step, before any list is built.
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exit_:
            run_cli("bench", "--dims", "4x6x3", "--methods", "mean",
                    "--rates", "0.1..0.9:1e-12", "--output", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "bad rate range '0.1..0.9:1e-12'" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_rate_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--dims", "4x6x3", "--methods", "mean",
                       "--rates", "0.1..0.3,0.2", "--output", out) == 1
        assert "missing rate 0.2 given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_electrical_layout_needs_four_channels(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--dims", "3x8x7", "--layout", "single_user_multi_measurement",
                       "--rates", "0.2", "--methods", "mean", "--output", out) == 1
        assert "needs I3=4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--synth-rank", "9"], ["--noise", "3"], ["--periodic"]])
    def test_electrical_generator_refuses_generator_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--dims", "3x8x4", "--layout", "single_user_multi_measurement",
                       "--rates", "0.2", "--methods", "mean", "--output", out, *flags) == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--layout", "single_user_multi_measurement"], ["--layout", "multi_user_single_measurement"],
        ["--synth-rank", "9"], ["--noise", "3"], ["--no-periodic"], ["--dims", "5x6x3"],
    ])
    def test_input_refuses_generator_flags(self, tmp_path, capsys, full_csv, flags):
        out = tmp_path / "r.csv"
        assert run_cli("bench", "--input", full_csv, "--rates", "0.2", "--methods", "mean",
                       "--output", out, *flags) == 1
        assert flags[0].replace("no-", "") in capsys.readouterr().err
        assert not out.exists()

    def test_failed_baseline_cell_leaves_the_others_scored(self, tmp_path, capsys):
        # At 99% missing channel user_002 has no observed entry, so neither
        # baseline can fill that rate; the 20% cells are scored.
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--dims", "2x24x8", "--methods", "mean,interp",
                       "--rates", "0.2,0.99", "--output", out) == 0
        captured = capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("mean", "0.2"), ("interp", "0.2"), ("mean", "0.99"), ("interp", "0.99")]
        assert rows[2][2:4] == rows[3][2:4] == ["nan", "nan"]
        assert all(np.isfinite(float(r[2])) for r in rows[:2])
        assert captured.err.splitlines() == [
            f"warning: {name} failed at 99% missing: channel 'user_002' has no observed entries"
            for name in ("MeanFill", "LinearInterp")]
        assert captured.out.splitlines()[2].split()[1:] == ["failed", "-"] * 2

    def test_interp_scores_the_papers_shape_at_90_percent(self, tmp_path, capsys):
        # 24 of the 3534 day/channel series are fully hidden by this mask;
        # each keeps its channel's mean instead of failing the cell.
        out = tmp_path / "b.csv"
        assert run_cli("bench", "--dims", "31x48x114", "--methods", "mean,interp",
                       "--rates", "0.9", "--seed", "0", "--output", out) == 0
        captured = capsys.readouterr()
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("mean", "0.9"), ("interp", "0.9")]
        assert all(np.isfinite(float(r[2])) for r in rows)
        assert captured.err == ""
        assert "failed" not in captured.out

    def test_unknown_method_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            run_cli("bench", "--dims", "8x12x5", "--methods", "kalman")


# The function that does each subcommand's work, which must not run when an
# output is refused.
WORK = {"complete": "complete_dataset", "simulate": "simulate_missing",
        "synth": "synth_load_tensor", "bench": "run_benchmark"}
COMPLETE = ["complete", "--input", "full.csv"]
SIMULATE = ["simulate", "--input", "full.csv", "--rate", "0.5"]
SYNTH = ["synth", "--dims", "4x6x3"]
BENCH = ["bench", "--dims", "4x6x3", "--rates", "0.5", "--methods", "mean"]


class TestOutputsCheckedFirst:
    @pytest.mark.parametrize("argv, error", [
        pytest.param(COMPLETE + ["--output", "o.csv", "--report", "o.csv"],
                     "--output and --report name the same file 'o.csv'", id="complete"),
        pytest.param(COMPLETE + ["--output", "o.csv", "--report", "sub/../o.csv"],
                     "--output and --report name the same file 'sub/../o.csv'", id="complete-respelled"),
        pytest.param(SIMULATE + ["--output", "s.csv", "--truth-output", "s.csv"],
                     "--output and --truth-output name the same file 's.csv'", id="simulate"),
        pytest.param(COMPLETE + ["--output", ""], "No such file or directory: ''", id="complete-empty"),
        pytest.param(COMPLETE + ["--output", "o.csv", "--report", ""],
                     "No such file or directory: ''", id="complete-empty-report"),
        pytest.param(SIMULATE + ["--output", ""], "No such file or directory: ''", id="simulate-empty"),
        pytest.param(SIMULATE + ["--output", "s.csv", "--truth-output", ""],
                     "No such file or directory: ''", id="simulate-empty-truth"),
        pytest.param(SYNTH + ["--output", ""], "No such file or directory: ''", id="synth-empty"),
        pytest.param(BENCH + ["--output", ""], "No such file or directory: ''", id="bench-empty"),
        pytest.param(SIMULATE + ["--output", "s.csv", "--truth-output", "nodir/t.csv"],
                     "No such file or directory: 'nodir/t.csv'", id="simulate-truth-nodir"),
        pytest.param(SIMULATE + ["--output", "nodir/s.csv"],
                     "No such file or directory: 'nodir/s.csv'", id="simulate-nodir"),
        pytest.param(SYNTH + ["--output", "nodir/x.csv"],
                     "No such file or directory: 'nodir/x.csv'", id="synth-nodir"),
        pytest.param(SYNTH + ["--output", "sub"], "Is a directory: 'sub'", id="synth-directory"),
        pytest.param(BENCH + ["--output", "nodir/b.csv"],
                     "No such file or directory: 'nodir/b.csv'", id="bench-nodir"),
    ])
    def test_refused_before_the_work_and_nothing_written(
        self, tmp_path, full_csv, capsys, monkeypatch, argv, error
    ):
        def working(*args, **kwargs):
            raise AssertionError("the work ran")

        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        module = benchmark if argv[0] in ("complete", "bench") else data
        monkeypatch.setattr(module, WORK[argv[0]], working)
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert error in captured.err
        assert sorted(tmp_path.rglob("*")) == before


def test_cli_import_does_not_load_scipy():
    # scipy.linalg alone took about 0.35 s of every CLI run's start-up.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import meterfill.cli, sys; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "False"
