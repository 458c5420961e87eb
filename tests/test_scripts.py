"""The experiment scripts run from a checkout, with nothing installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, agreed",
    [
        ("run_copy_elimination.py", ["--pairs", "20"], "oracle agreed on 3 trials"),
        (
            "run_bank_mapping.py",
            ["--max-blocks", "2", "--max-transposes", "1", "--verify"],
            "oracle agreed on all 8 mapped programs",
        ),
        ("run_copy_elimination.py", ["--pairs", "0", "--non-invertible", "0"], "oracle agreed on 3 trials"),
    ],
)
def test_script_runs_from_checkout(tmp_path, script, args, agreed):
    # no PYTHONPATH: the script itself must find the checkout's src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert agreed in proc.stdout


def test_copy_elimination_refuses_more_verify_trials_than_the_oracle_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_copy_elimination.py"), "--pairs", "4", "--verify-trials", "65537"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--verify-trials: must be <= 65536, got 65537" in proc.stderr
    assert "oracle agreed" not in proc.stdout


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_copy_elimination_refuses_fewer_than_one_verify_trial(tmp_path, trials):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_copy_elimination.py"), "--pairs", "4", "--verify-trials", trials],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "--verify-trials: must be >= 1" in proc.stderr
    assert "oracle agreed" not in proc.stdout


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_copy_elimination.py", ["--pairs", "4"]),
        ("run_bank_mapping.py", ["--max-blocks", "1", "--max-transposes", "0", "--verify"]),
    ],
)
def test_scripts_refuse_a_negative_seed(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--seed", "-1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "argument --seed: must be >= 0, got -1" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("run_bank_mapping.py", ["--banks", "0"], "argument --banks: must be >= 1, got 0"),
        ("run_bank_mapping.py", ["--max-blocks", "0"], "argument --max-blocks: must be >= 1, got 0"),
        ("run_bank_mapping.py", ["--max-transposes", "-1"], "argument --max-transposes: must be >= 0, got -1"),
        ("run_copy_elimination.py", ["--pairs", "-1"], "argument --pairs: must be >= 0, got -1"),
        (
            "run_copy_elimination.py",
            ["--pairs", "3", "--non-invertible", "5"],
            "argument --non-invertible: must be <= --pairs (3), got 5",
        ),
        (
            "run_copy_elimination.py",
            ["--pairs", "2", "--non-invertible", "-1"],
            "argument --non-invertible: must be >= 0, got -1",
        ),
        (
            "run_bank_mapping.py",
            ["--anchors", "missing.json"],
            "argument --anchors: cannot read missing.json: No such file or directory",
        ),
        (
            "run_bank_mapping.py",
            ["--anchors", "not-json.json"],
            "argument --anchors: malformed not-json.json: JSONDecodeError: Expecting value: line 1 column 1 (char 0)",
        ),
        (
            "run_bank_mapping.py",
            ["--anchors", "deep.json"],
            "argument --anchors: malformed deep.json: RecursionError: "
            "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
        ),
    ],
)
def test_scripts_refuse_out_of_range_counts(tmp_path, script, args, message):
    (tmp_path / "not-json.json").write_text("not json\n")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    # argparse's usage, then one error line
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [f"{script}: error: {message}"]
    assert proc.stderr.endswith(f"error: {message}\n")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
