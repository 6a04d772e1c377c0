"""Smoke runs of the experiment scripts on small inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("run_rate_sweep.py", ["--dims", "6", "8", "5"], "Missing rate/%"),
        ("run_prefill_study.py", ["--days", "3", "--slots", "8"], "rate/%  prefilled"),
        ("run_efficiency_check.py", ["--dims", "6", "8", "5", "--rank", "3", "--iters", "5"],
         "SVT operands"),
        ("output_digests.py", ["--dims", "6", "8", "5"], "completion_sha256"),
    ],
)
def test_script_runs(script, args, header, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")
    assert header in capsys.readouterr().out
