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
