"""CLI subcommands, exit codes, report documents."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nestopt.cli import main
from nestopt.report import validate_document
from nestopt.textual import parse


def test_optimize_then_verify_roundtrip(tmp_path):
    src = tmp_path / "w.ir"
    out = tmp_path / "w_opt.ir"
    rep = tmp_path / "report.json"
    assert main(["gen", "wavenet", "10", "1", "--seed", "2", "-o", str(src)]) == 0
    assert main(["optimize", str(src), "--pass", "dme", "-o", str(out), "--report", str(rep)]) == 0
    assert main(["verify", str(src), str(out), "--trials", "3", "--seed", "5"]) == 0
    doc = json.loads(rep.read_text())
    validate_document(doc)
    assert doc["passes"][0]["pass"] == "dme"
    assert len(doc["passes"][0]["eliminated"]) == 9
    assert doc["traffic"]["compare"]["intermediate_tensor_bytes"]["delta"] < 0


def test_optimize_pipeline_dme_then_bankmap(tmp_path):
    src = tmp_path / "r.ir"
    out = tmp_path / "r_opt.ir"
    rep = tmp_path / "report.json"
    assert main(["gen", "resnet", "3", "1", "--seed", "1", "-o", str(src)]) == 0
    assert (
        main(
            [
                "optimize",
                str(src),
                "--pass",
                "dme",
                "--pass",
                "bankmap",
                "--mode",
                "global",
                "--banks",
                "4",
                "-o",
                str(out),
                "--report",
                str(rep),
            ]
        )
        == 0
    )
    doc = json.loads(rep.read_text())
    validate_document(doc)
    assert [p["pass"] for p in doc["passes"]] == ["dme", "bankmap"]
    assert doc["passes"][1]["banks"] == 4
    assert main(["verify", str(src), str(out)]) == 0


def test_bankmap_local_mode(tmp_path):
    src = tmp_path / "r.ir"
    out = tmp_path / "r_local.ir"
    rep = tmp_path / "report.json"
    assert main(["gen", "resnet", "2", "1", "--seed", "0", "-o", str(src)]) == 0
    code = main(
        ["optimize", str(src), "--pass", "bankmap", "--mode", "local", "-o", str(out), "--report", str(rep)]
    )
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["passes"][0]["mode"] == "local"
    assert len(doc["passes"][0]["inserted"]) > 0
    assert main(["verify", str(src), str(out)]) == 0


def test_report_on_empty_program(tmp_path):
    src = tmp_path / "empty.ir"
    src.write_text("")
    out = tmp_path / "report.json"
    assert main(["report", str(src), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    validate_document(doc)
    t = doc["traffic"]["before"]
    assert t["off_chip_bytes"] == 0
    assert t["on_chip_copy_bytes"] == 0
    assert doc["traffic"]["after"] is None


def test_verify_detects_difference(tmp_path):
    a = tmp_path / "a.ir"
    b = tmp_path / "b.ir"
    a.write_text(
        """\
tensor %x : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=copy (i0 in 0..4) {
  %v = load %x[i0]
  store %y[i0] = %v
}
"""
    )
    b.write_text(
        """\
tensor %x : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in 0..4) {
  %v = load %x[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    )
    assert main(["verify", str(a), str(b)]) == 1


def test_invalid_program_exits_one(tmp_path, capsys):
    src = tmp_path / "bad.ir"
    src.write_text(
        """\
tensor %a : 4x[4] @dram input

nest n kind=copy (i0 in 0..4) {
  %v = load %missing[i0]
  store %a[i0] = %v
}
"""
    )
    assert main(["report", str(src)]) == 1
    assert "UndefinedTensor" in capsys.readouterr().err


def test_parse_error_exits_one(tmp_path, capsys):
    src = tmp_path / "syntax.ir"
    src.write_text("nest broken kind=copy (i0 in 0..4) {\n")
    assert main(["report", str(src)]) == 1
    assert "never closed" in capsys.readouterr().err


def test_unknown_flag_exits_two():
    assert main(["report", "x.ir", "--grannular"]) == 2


def test_missing_subcommand_exits_two():
    assert main([]) == 2


def test_gen_rejects_bad_counts(tmp_path):
    out = tmp_path / "w.ir"
    assert main(["gen", "wavenet", "2", "5", "-o", str(out)]) == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "w.ir"
    # The package is not necessarily installed: put this checkout's src/
    # first on PYTHONPATH, ahead of any relative entries that would point
    # nowhere from tmp_path.
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run(
        [sys.executable, "-m", "nestopt", "gen", "wavenet", "3", "0", "-o", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    program = parse(out.read_text())
    assert len(program.nests) == 8


def _run_module(tmp_path, *args):
    """``python -m nestopt *args`` from this checkout's src/, in tmp_path."""
    src = Path(__file__).resolve().parents[1] / "src"
    pythonpath = filter(None, [str(src), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    return subprocess.run(
        [sys.executable, "-m", "nestopt", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "w.ir", "w.ir", "--trials", "0"], "--trials must be >= 1"),
        (["verify", "w.ir", "w.ir", "--trials", "-3"], "--trials must be >= 1"),
        (["optimize", "w.ir", "--pass", "bankmap", "--banks", "0", "-o", "o.ir"], "--banks must be >= 1"),
        (["optimize", "w.ir", "--pass", "bankmap", "--banks", "-2", "-o", "o.ir"], "--banks must be >= 1"),
        (["optimize", "w.ir", "--pass", "bankmap", "--anchors", "missing.json", "-o", "o.ir"], "cannot read"),
        (["optimize", "w.ir", "--pass", "bankmap", "--anchors", "bad.json", "-o", "o.ir"], "malformed"),
    ],
)
def test_bad_option_values_are_usage_errors(tmp_path, argv, message):
    assert main(["gen", "wavenet", "3", "0", "-o", str(tmp_path / "w.ir")]) == 0
    (tmp_path / "bad.json").write_text('{"operators": \n')
    proc = _run_module(tmp_path, *argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert message in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "o.ir").exists()
