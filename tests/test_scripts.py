"""Smoke tests: each experiment script runs to completion on a small input."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import dpconc
from dpconc.bandit import POLICIES
from dpconc.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    src = str(Path(dpconc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_bound_profile():
    proc = run_script("bound_profile.py", "--samples", "2000", "--alphas", "1", "4")
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(proc.stdout.splitlines()))
    assert rows[0] == ["alpha", "bound", "mc_log_mgf", "mc_se", "tail_bound", "empirical_tail"]
    assert [r[0] for r in rows[1:]] == ["1.0", "4.0"]


def test_bandit_comparison(tmp_path):
    proc = run_script("bandit_comparison.py", "--T", "50", "--reps", "1",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    policies = list(POLICIES)  # the default
    # the summary table: two instance lines, a header, then a row per policy
    assert [line.split()[0] for line in proc.stdout.splitlines()[3:]] == policies
    for policy in policies:
        trace = (tmp_path / f"trace_{policy}.csv").read_text().splitlines()
        assert trace[0] == "rep,t,action,cum_regret"
        assert len(trace) == 1 + 50


def test_bandit_comparison_trace_is_the_cli_trace(tmp_path):
    proc = run_script("bandit_comparison.py", "--T", "60", "--reps", "2", "--seed", "7",
                      "--policies", "cucb", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    instance = tmp_path / "instance.json"
    instance.write_text('{"n": 4, "m": 2, "block_means": [0.9, 0.6]}')
    trace = tmp_path / "cli.csv"
    assert main(["--seed", "7", "bandit", str(instance), "--policy", "cucb", "-T", "60",
                 "--reps", "2", "--trace", str(trace)]) == 0
    assert (tmp_path / "trace_cucb.csv").read_bytes() == trace.read_bytes()
