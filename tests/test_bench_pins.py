"""The shape of ``golden/bench_pins.txt``, the benchmark's pinned digests.

CI runs each workload at ``--seed 777`` and compares its two digests with
the table's; running the workloads here would add seconds to every test run,
so this module checks only that the table pins every workload once.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "golden" / "bench_pins.txt"


def test_the_table_names_each_benchmark_workload_once_with_two_digests():
    lines = PINS.read_text(encoding="utf-8").splitlines()
    rows = [line.split() for line in lines if line.strip() and not line.startswith("#")]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    assert sorted(row[0] for row in rows) == sorted(workloads)
    assert len(rows) == len(set(workloads))
    for row in rows:
        assert len(row) == 3, row
        assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in row[1:]), row
