"""CLI subcommands, exit codes, report documents."""

import hashlib
import json
import os
import re
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

import nestopt.interp
import nestopt.ir
import nestopt.textual
from nestopt.cli import _build_parser, main
from nestopt.interp import BUFFER_BYTES
from nestopt.ir import Load, Memcopy, Store
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


PIPELINES = {
    "dme": ["--pass", "dme"],
    "bankmap_global": ["--pass", "bankmap", "--mode", "global"],
    "bankmap_local": ["--pass", "bankmap", "--mode", "local"],
    "dme_bankmap": ["--pass", "dme", "--pass", "bankmap"],
}


GENERATORS = {"wavenet": ["wavenet", "12", "2"], "resnet": ["resnet", "3", "2"]}


def _write_every_report(tmp_path, gen, pipeline) -> list[Path]:
    """``optimize --report`` and ``report --json`` on the input and the output, in that order."""
    src, out = tmp_path / "p.ir", tmp_path / "o.ir"
    reports = [tmp_path / "optimize.json", tmp_path / "before.json", tmp_path / "after.json"]
    assert main(["gen", *GENERATORS[gen], "--seed", "3", "-o", str(src)]) == 0
    assert main(["optimize", str(src), *PIPELINES[pipeline], "-o", str(out), "--report", str(reports[0])]) == 0
    assert main(["report", str(src), "--json", str(reports[1])]) == 0
    assert main(["report", str(out), "--json", str(reports[2])]) == 0
    return reports


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("gen", GENERATORS)
def test_every_report_the_cli_writes_validates(tmp_path, gen, pipeline):
    for path in _write_every_report(tmp_path, gen, pipeline):
        validate_document(json.loads(path.read_text()))


# sha256 of the three reports above, pinned from a build that wrote them
# with json.dumps(doc, indent=2)
REPORT_DIGESTS = {
    ("wavenet", "dme"): (
        "422e9c089dcdb12baffeb4db68923f3fe955f120103aa7b6b64de8b99f9ac313",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
        "4faa0bc5b11a8f9e12a738bbbf856d879ace85f8eab39e887843fced0f804cbb",
    ),
    ("wavenet", "bankmap_global"): (
        "6519fe4763a5c959128152dc6d27af5df60377555f8b320dc0fd4c3e46c4fb55",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
    ),
    ("wavenet", "bankmap_local"): (
        "d85559aec2a848155620b897fd4dd8f611df071fb39c4391fd0ba30282770ff6",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
    ),
    ("wavenet", "dme_bankmap"): (
        "06a54ba954f290983709ed9cc5ba1aeea08c5d995e1be3bba2686b9d0134a773",
        "bf4e2a2c71a9d3e0056a55b716e0263269f3f04dc98049a4c842559cdfd71f2d",
        "4faa0bc5b11a8f9e12a738bbbf856d879ace85f8eab39e887843fced0f804cbb",
    ),
    ("resnet", "dme"): (
        "556704d09de7fbc5c70885d3a00b84ed307f52501ae1c04f911847a6da825406",
        "24a4d16b1ece4eda3f639b790761bd9f924645433ce0357edb229427a63c3365",
        "ca4436bc2d36abdad976fa342364dc980add2b2fb48e8aeda1a47b0c565f59ba",
    ),
    ("resnet", "bankmap_global"): (
        "53d4013460b3424902094b102ef1fa02d2dfe9f91681b313b6cc285bae8de861",
        "24a4d16b1ece4eda3f639b790761bd9f924645433ce0357edb229427a63c3365",
        "4f0ceb799a428484c572c1b6ffb63235e6ce12afcc91dee59e0f16175b946d36",
    ),
    ("resnet", "bankmap_local"): (
        "76e08bbacf304c76300ad8659f9ab3fd6ee13f772aa760a7623cc504cf7d2712",
        "24a4d16b1ece4eda3f639b790761bd9f924645433ce0357edb229427a63c3365",
        "64a14bc0dc76c25fcd0217dbb2f2927b3b81c1bf8a47a383930728d71e5e4eae",
    ),
    ("resnet", "dme_bankmap"): (
        "07edbe328bbfaaabd9795514dea082294c6c9aa76cb1347ad493285096ee3df8",
        "24a4d16b1ece4eda3f639b790761bd9f924645433ce0357edb229427a63c3365",
        "4bac2195bb553f3586c861e997849e3c2541d2db9b5dd561affac1195e69bec3",
    ),
}


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("gen", GENERATORS)
def test_every_report_the_cli_writes_is_unchanged(tmp_path, gen, pipeline):
    digests = [hashlib.sha256(path.read_bytes()).hexdigest() for path in _write_every_report(tmp_path, gen, pipeline)]
    assert tuple(digests) == REPORT_DIGESTS[gen, pipeline]


def test_bundled_anchors_are_read_once_across_optimize_calls(tmp_path, monkeypatch):
    import nestopt.bankmap

    files, reads = nestopt.bankmap.resources.files, []

    def counting_files(package):
        reads.append(package)
        return files(package)

    monkeypatch.setattr(nestopt.bankmap, "resources", SimpleNamespace(files=counting_files))
    nestopt.bankmap._bundled_anchors.cache_clear()
    nestopt.bankmap._default_registry.cache_clear()
    src, out, rep = tmp_path / "r.ir", tmp_path / "o.ir", tmp_path / "o.json"
    assert main(["gen", "resnet", "2", "1", "-o", str(src)]) == 0
    banks = []
    for argv in (["dme"], ["bankmap"], ["bankmap", "--banks", "4"], ["dme", "--pass", "bankmap"], ["bankmap"]):
        assert main(["optimize", str(src), "--pass", *argv, "-o", str(out), "--report", str(rep)]) == 0
        banks.append(json.loads(rep.read_text())["passes"][-1].get("banks"))
    assert banks == [None, 8, 4, 8, 8]
    assert reads == ["nestopt"]


def test_anchors_file_is_read_on_every_call(tmp_path):
    src, out, rep, anchors = (tmp_path / name for name in ("r.ir", "o.ir", "o.json", "anchors.json"))
    assert main(["gen", "resnet", "2", "1", "-o", str(src)]) == 0
    doc = json.loads(resources.files("nestopt").joinpath("data/anchors.json").read_text("utf-8"))
    assigned = []
    for banks in (4, 2):
        doc["banks"] = banks
        anchors.write_text(json.dumps(doc))
        argv = ["optimize", str(src), "--pass", "bankmap", "--anchors", str(anchors), "-o", str(out)]
        assert main([*argv, "--report", str(rep)]) == 0
        entry = json.loads(rep.read_text())["passes"][0]
        assigned.append((entry["banks"], {m["banks"] for m in entry["assignments"].values()}))
    assert assigned == [(4, {4}), (2, {2})]


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


def test_gen_rejects_bad_counts(tmp_path, capsys):
    out = tmp_path / "w.ir"
    for pairs, non_invertible in (("2", "5"), ("5", "-1")):
        assert main(["gen", "wavenet", pairs, non_invertible, "-o", str(out)]) == 2
        assert capsys.readouterr().err == "gen wavenet: need 0 <= non_invertible <= pairs\n"
    assert not out.exists()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    _build_parser.cache_clear()

    def outcomes():
        seen = []
        for argv in (["--help"], ["report", "x.ir", "--grannular"], ["verify", "a.ir", "b.ir", "--trials", "0"]):
            code = main(argv)
            seen.append((code, *capsys.readouterr()))
        return seen

    # the first calls build the parser
    first = outcomes()
    assert [code for code, _, _ in first] == [0, 2, 2]
    assert "usage: nestopt" in first[0][1]
    assert first[1][2].endswith("unrecognized arguments: --grannular\n")
    assert first[2][2] == "nestopt verify: --trials must be >= 1, got 0\n"

    src = tmp_path / "r.ir"
    assert main(["gen", "resnet", "2", "1", "--seed", "0", "-o", str(src)]) == 0
    runs = [
        (["--pass", "dme"], [{"pass": "dme"}]),
        (["--pass", "bankmap", "--mode", "local"], [{"pass": "bankmap", "options": {"mode": "local", "banks": 8}}]),
        (["--pass", "dme"], [{"pass": "dme"}]),
    ]
    for k, (passes, pipeline) in enumerate(runs):
        rep = tmp_path / f"r{k}.json"
        assert main(["optimize", str(src), *passes, "-o", str(tmp_path / "o.ir"), "--report", str(rep)]) == 0
        # nothing accumulates in the shared --pass action between calls
        assert json.loads(rep.read_text())["pipeline"] == pipeline

    assert outcomes() == first
    assert _build_parser() is _build_parser()


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


def _run_module(tmp_path, *args, preexec_fn=None):
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
        preexec_fn=preexec_fn,
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
        (["verify", "w.ir", "w.ir", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["gen", "wavenet", "3", "0", "--seed", "-5", "-o", "o.ir"], "--seed must be >= 0, got -5"),
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


RANK1_CONV = """\
tensor %x : 4x[4] @dram input
tensor %w : 4x[4] @dram input
tensor %u : 4x[4] @sbuf

nest conv kind=conv2d (i0 in 0..4) {
  %a = load %x[i0]
  %b = load %w[i0]
  %c = mul %a %b
  store %u[i0] = %c
}
"""


@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize(
    "trigger, expected",
    [
        # the default conv2d template banks axis 1 of a rank-1 operand
        pytest.param("rank1", "nest 'conv': template banks axis 1 of rank-1 'x'", id="rank1"),
        # a custom template banks axis 7 of a resnet's rank-2 operand
        pytest.param("axis7", "nest 'conv1': template banks axis 7 of rank-2 'x1'", id="axis7"),
    ],
)
def test_template_rank_mismatch_is_a_diagnostic(tmp_path, capsys, mode, trigger, expected):
    src = tmp_path / "p.ir"
    argv = ["optimize", str(src), "--pass", "bankmap", "--mode", mode]
    if trigger == "rank1":
        src.write_text(RANK1_CONV)
    else:
        assert main(["gen", "resnet", "2", "1", "-o", str(src)]) == 0
        anchors = tmp_path / "a.json"
        anchors.write_text(json.dumps({"operators": {"conv2d": {"operands": [{"axis": 7}]}}}))
        argv += ["--anchors", str(anchors)]
    argv += ["-o", str(tmp_path / "o.ir"), "--report", str(tmp_path / "o.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{src}: {expected}\n"
    assert not (tmp_path / "o.ir").exists()
    assert not (tmp_path / "o.json").exists()


def test_anchors_file_without_operators_key_is_a_usage_error(tmp_path):
    assert main(["gen", "resnet", "2", "1", "-o", str(tmp_path / "r.ir")]) == 0
    (tmp_path / "a.json").write_text(json.dumps({"conv2d": {"operands": [{"axis": 7}]}}))
    proc = _run_module(
        tmp_path, "optimize", "r.ir", "--pass", "bankmap", "--anchors", "a.json", "-o", "o.ir"
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "nestopt optimize: malformed anchors file a.json: ValueError: "
        "anchors document has no 'operators' key"
    ]
    assert not (tmp_path / "o.ir").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"banks": 0, "operators": {}}, "anchors document 'banks' must be an integer >= 1, got 0"),
        ({"banks": 2.7, "operators": {}}, "anchors document 'banks' must be an integer >= 1, got 2.7"),
        (
            {"operators": {"conv2d": {"results": [{"axis": True}]}}},
            "operator 'conv2d' result 'axis' must be an integer >= 0, got True",
        ),
    ],
)
def test_anchors_file_numbers_that_are_not_counts_are_usage_errors(tmp_path, doc, message):
    assert main(["gen", "resnet", "2", "1", "-o", str(tmp_path / "r.ir")]) == 0
    (tmp_path / "a.json").write_text(json.dumps(doc))
    proc = _run_module(
        tmp_path, "optimize", "r.ir", "--pass", "bankmap", "--anchors", "a.json", "-o", "o.ir"
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"nestopt optimize: malformed anchors file a.json: ValueError: {message}"]
    assert proc.stdout == ""
    assert not (tmp_path / "o.ir").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "latin1.ir"], "nestopt: cannot read latin1.ir: not UTF-8 (byte 1)"),
        (["verify", "w.ir", "latin1.ir"], "nestopt: cannot read latin1.ir: not UTF-8 (byte 1)"),
        (
            ["optimize", "w.ir", "--pass", "dme", "-o", "no/o.ir"],
            "nestopt: cannot write no/o.ir: No such file or directory",
        ),
        (
            ["optimize", "w.ir", "--pass", "dme", "-o", "o.ir", "--report", "no/r.json"],
            "nestopt: cannot write no/r.json: No such file or directory",
        ),
        (["report", "w.ir", "--json", "no/r.json"], "nestopt: cannot write no/r.json: No such file or directory"),
        (["gen", "wavenet", "3", "0", "-o", "no/w.ir"], "nestopt: cannot write no/w.ir: No such file or directory"),
        (["gen", "resnet", "1", "0", "-o", "."], "nestopt: cannot write .: Is a directory"),
    ],
)
def test_unreadable_input_and_unwritable_output_exit_one(tmp_path, argv, message):
    assert main(["gen", "wavenet", "3", "0", "-o", str(tmp_path / "w.ir")]) == 0
    (tmp_path / "latin1.ir").write_bytes(b"#\xe9\n")
    proc = _run_module(tmp_path, *argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [message]
    assert proc.stdout == ""


HALF_WRITTEN_T = """\
tensor %x : 4x[4] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest a kind=copy (i0 in 0..4) {
  %v = load %x[i0]
  store %t[i0] = %v
}

nest b kind=copy (i0 in 0..8) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""


FULLY_WRITTEN_T = HALF_WRITTEN_T.replace("(i0 in 0..4) {\n  %v = load %x[i0]", "(i0 in 0..8) {\n  %v = load %x[(i0) mod 4]")
POISON = "nest 'b' statement 0: load reads unwritten cell of 't' at point (4,)"


@pytest.mark.parametrize(
    "case, message",
    [
        ("interfaces", "nestopt verify: programs do not share input/output declarations"),
        # both sides read the unwritten cell; the left one runs first
        ("poison", f"nestopt verify: l.ir: {POISON}"),
        ("poison_left_only", f"nestopt verify: l.ir: {POISON}"),
        ("poison_right_only", f"nestopt verify: r.ir: {POISON}"),
    ],
)
def test_verify_reports_interpreter_errors_in_one_line(tmp_path, case, message):
    if case == "interfaces":
        assert main(["gen", "wavenet", "3", "0", "-o", str(tmp_path / "l.ir")]) == 0
        assert main(["gen", "resnet", "1", "0", "-o", str(tmp_path / "r.ir")]) == 0
    else:
        poisoned = {"poison": "lr", "poison_left_only": "l", "poison_right_only": "r"}[case]
        for side in "lr":
            (tmp_path / f"{side}.ir").write_text(HALF_WRITTEN_T if side in poisoned else FULLY_WRITTEN_T)
    proc = _run_module(tmp_path, "verify", "l.ir", "r.ir")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [message]
    assert proc.stdout == ""


# 1000-cell tensors, but a box of 10^9 points: a point array of 8 GB
GIANT_BOX = """\
tensor %x : 4x[1000] @dram input
tensor %y : 4x[1000] @dram output

nest c kind=copy (i0 in 0..1000000000) {
  %v = load %x[(i0) floordiv 1000000]
  store %y[(i0) floordiv 1000000] = %v
}
"""


def test_verify_refuses_a_box_over_the_interpreters_buffer_limit(tmp_path):
    (tmp_path / "p.ir").write_text(GIANT_BOX)
    proc = _run_module(tmp_path, "verify", "p.ir", "p.ir", preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"nestopt verify: p.ir: nest 'c' has {10**9} points, whose arrays need {5 * 10**9 * 8} bytes "
        f"for 5 trial(s), over the interpreter's limit of {BUFFER_BYTES}"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "decl, message",
    [
        ("tensor %x : 4x[4 8] @dram input", "bad.ir: line 1, col 1: bad tensor extents '4 8'"),
        (
            "tensor %x : 4x[4] @sbuf banked(axis=0, banks=0, policy=cyclic) input",
            "bad.ir: line 1, col 1: bank count must be >= 1",
        ),
    ],
)
def test_malformed_tensor_declaration_is_a_parse_error(tmp_path, decl, message):
    (tmp_path / "bad.ir").write_text(decl + "\n")
    proc = _run_module(tmp_path, "report", "bad.ir")
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [message]
    assert proc.stdout == ""


# 8 iterations, but the store's image spans (2^20 + 1)^3 cells: reversing it
# would need an IntBox above the 2^40 cap
OVERSIZE_T = """\
tensor %x : 4x[2, 2, 2] @dram input
tensor %t : 4x[1048577, 1048577, 1048577] @sbuf
tensor %y : 4x[2, 2, 2] @dram output

nest a kind=copy (i0 in 0..2, i1 in 0..2, i2 in 0..2) {
  %v = load %x[i0, i1, i2]
  store %t[1048576*i0, 1048576*i1, 1048576*i2] = %v
}

nest b kind=copy (i0 in 0..2, i1 in 0..2, i2 in 0..2) {
  %v = load %t[1048576*i0, 1048576*i1, 1048576*i2]
  store %y[i0, i1, i2] = %v
}
"""


@pytest.mark.parametrize(
    "argv",
    [["optimize", "p.ir", "--pass", "dme", "-o", "o.ir"], ["verify", "p.ir", "p.ir"], ["report", "p.ir"]],
    ids=["optimize", "verify", "report"],
)
def test_tensor_above_the_cell_cap_is_a_diagnostic(tmp_path, argv):
    (tmp_path / "p.ir").write_text(OVERSIZE_T)
    proc = _run_module(tmp_path, *argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"p.ir: BadDeclaration: tensor 't' has {1048577 ** 3} cells, more than 2^40"
    ]
    assert proc.stdout == ""
    assert not (tmp_path / "o.ir").exists()


# valid, and each tensor is far below the 2^40 cell cap, but 10^9 cells is
# 8 GB per trial
GIANT_COPY = """\
tensor %x : 4x[1000, 1000, 1000] @dram input
tensor %y : 4x[1000, 1000, 1000] @dram output

nest c kind=copy (i0 in 0..1000, i1 in 0..1000, i2 in 0..1000) {
  %v = load %x[i0, i1, i2]
  store %y[i0, i1, i2] = %v
}
"""


def _cap_address_space():
    # should the size check ever be skipped, the child fails with MemoryError
    # instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_verify_refuses_tensors_over_the_interpreters_buffer_limit(tmp_path):
    (tmp_path / "p.ir").write_text(GIANT_COPY)
    proc = _run_module(tmp_path, "verify", "p.ir", "p.ir", preexec_fn=_cap_address_space)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"nestopt verify: p.ir: tensor 'x' needs {5 * 10**9 * 8} bytes for 5 trial(s), "
        f"over the interpreter's limit of {BUFFER_BYTES}"
    ]
    assert proc.stdout == ""


# three programs whose indices int64 cannot hold: the load of the first is
# 2^64 + 1 at (1, 1), which int64 wraps to 1, an in-bounds cell; the load of
# the second is exactly i0 but forms values near 10^20 on the way; the box of
# the third starts at 10^21.  The fourth nests parentheses 5000 deep.
W = 2**62
V = 99999999999999999999
WRAPS_LOAD = " + ".join(f"{W}*(({k}*i0 + {k}*i1 + {k - 1}) floordiv {2 * k})" for k in range(1, 5))
LIMIT_PROGRAMS = {
    "wraps": (
        f"""\
tensor %a : 4x[4] @dram input
tensor %y : 4x[2, 2] @dram output

nest n kind=elementwise (i0 in 0..2, i1 in 0..2) {{
  %v = load %a[{WRAPS_LOAD} + i0]
  store %y[i0, i1] = %v
}}
""",
        "Int64Overflow in nest 'n' statement 0: access to 'a' can take values beyond int64",
    ),
    "intermediate": (
        f"""\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4, 2] @dram output

nest n kind=elementwise (i0 in 0..4, i1 in 0..2) {{
  %v = load %a[{V}*((i0 + i1) floordiv 2) - {V}*((i0 + i1 + 2) floordiv 2) + {V} + i0]
  store %y[i0, i1] = %v
}}
""",
        "Int64Overflow in nest 'n' statement 0: access to 'a' can take values beyond int64",
    ),
    "box": (
        f"""\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in {10**21}..{10**21 + 4}) {{
  %v = load %a[i0 - {10**21}]
  store %y[i0 - {10**21}] = %v
}}
""",
        "Int64Overflow in nest 'n': loop bounds leave int64",
    ),
    "deep": (
        f"""\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in 0..4) {{
  %v = load %a[{"(" * 5000}i0{")" * 5000}]
  store %y[i0] = %v
}}
""",
        "line 5, col 116: parentheses nested deeper than 100",
    ),
}


@pytest.mark.parametrize(
    "argv",
    [["optimize", "p.ir", "--pass", "dme", "-o", "o.ir"], ["verify", "p.ir", "p.ir"], ["report", "p.ir"]],
    ids=["optimize", "verify", "report"],
)
@pytest.mark.parametrize("case", sorted(LIMIT_PROGRAMS))
def test_programs_past_int64_or_nesting_limits_are_one_line_diagnostics(tmp_path, case, argv):
    text, message = LIMIT_PROGRAMS[case]
    (tmp_path / "p.ir").write_text(text)
    proc = _run_module(tmp_path, *argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"p.ir: {message}"]
    assert proc.stdout == ""
    assert not (tmp_path / "o.ir").exists()


def test_anchors_file_nested_too_deep_is_a_usage_error(tmp_path):
    assert main(["gen", "resnet", "2", "1", "-o", str(tmp_path / "r.ir")]) == 0
    (tmp_path / "a.json").write_text("[" * 100_000)
    proc = _run_module(
        tmp_path, "optimize", "r.ir", "--pass", "bankmap", "--anchors", "a.json", "-o", "o.ir"
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("nestopt optimize: malformed anchors file a.json: RecursionError: ")
    assert proc.stdout == ""
    assert not (tmp_path / "o.ir").exists()



# ---------------------------------------------------------------------------
# Memos that last one command: verify's two programs, optimize's input and
# output


def _access_texts(text):
    """(access text, loop text) of every load and store access in ``text``."""
    keys = set()
    loops = None
    for line in text.splitlines():
        header = re.match(r"nest \S+ kind=\w+ \((.*)\) \{$", line)
        if header:
            loops = header.group(1)
        elif line.startswith("  "):
            keys.update((access, loops) for access in re.findall(r"%\w+\[([^\]]*)\]", line))
    return keys


def _access_keys(program):
    """(access map, tensor shape) of every access in ``program``, by value."""
    shapes = {t.name: t.shape for t in program.tensors}
    keys = set()
    for nest in program.nests:
        for stmt in nest.body:
            if isinstance(stmt, (Load, Store)):
                keys.add((stmt.access, shapes[stmt.tensor]))
            elif isinstance(stmt, Memcopy):
                keys.update((stmt.element_map, shapes[name]) for name in (stmt.dst, stmt.src))
    return keys


@pytest.fixture
def wavenet_and_dme_output(tmp_path):
    src, out = tmp_path / "w.ir", tmp_path / "w_opt.ir"
    assert main(["gen", "wavenet", "30", "3", "--seed", "4", "-o", str(src)]) == 0
    assert main(["optimize", str(src), "--pass", "dme", "-o", str(out)]) == 0
    return src, out


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_builds_each_map_of_its_two_files_once(wavenet_and_dme_output, monkeypatch, capsys):
    src, out = wavenet_and_dme_output
    left, right = _access_texts(src.read_text()), _access_texts(out.read_text())
    assert len(left | right) < len(left) + len(right)
    built = _counting(monkeypatch, nestopt.textual, "affine_map")
    assert main(["verify", str(src), str(out)]) == 0
    assert len(built) == len(left | right)
    # nothing outlives the command: a second one builds every map again
    assert main(["verify", str(src), str(out)]) == 0
    assert len(built) == 2 * len(left | right)
    assert capsys.readouterr().out == "equivalent: 5 trial(s), seed 0\n" * 2


def test_verify_checks_and_indexes_each_access_key_of_its_two_files_once(wavenet_and_dme_output, monkeypatch):
    src, out = wavenet_and_dme_output
    left, right = _access_keys(parse(src.read_text())), _access_keys(parse(out.read_text()))
    assert len(left | right) < len(left) + len(right)
    checked = _counting(monkeypatch, nestopt.ir, "image_escape")
    indexed = _counting(monkeypatch, nestopt.interp, "_flat_indices")
    assert main(["verify", str(src), str(out)]) == 0
    assert len(checked) == len(indexed) == len(left | right)
    assert main(["verify", str(src), str(out)]) == 0
    assert len(checked) == len(indexed) == 2 * len(left | right)


def test_optimize_checks_each_access_key_of_its_input_and_output_once(tmp_path, monkeypatch):
    src, out = tmp_path / "w.ir", tmp_path / "w_opt.ir"
    assert main(["gen", "wavenet", "30", "3", "--seed", "4", "-o", str(src)]) == 0
    checked = _counting(monkeypatch, nestopt.ir, "image_escape")
    assert main(["optimize", str(src), "--pass", "dme", "-o", str(out)]) == 0
    before, after = _access_keys(parse(src.read_text())), _access_keys(parse(out.read_text()))
    assert len(before | after) < len(before) + len(after)
    assert len(checked) == len(before | after)
    assert main(["optimize", str(src), "--pass", "dme", "-o", str(out)]) == 0
    assert len(checked) == 2 * len(before | after)


BROADCAST_ROW = """\
tensor %x : 4x[4] @dram input
tensor %y : 4x[4, 4] @dram output

nest n kind=repeat (i0 in 0..4, i1 in 0..4) {
  %v = load %x[i1]
  store %y[i0, i1] = %v
}
"""


def test_verify_parse_error_in_a_line_the_left_file_parsed_names_the_right_file(tmp_path, capsys):
    # the load line parses under the left file's rank-2 loops, not the right's rank-1
    left, right = tmp_path / "l.ir", tmp_path / "r.ir"
    left.write_text(BROADCAST_ROW)
    right.write_text(
        "# one row\n"
        + BROADCAST_ROW.replace("tensor %y : 4x[4, 4]", "tensor %y : 4x[4]")
        .replace("(i0 in 0..4, i1 in 0..4)", "(i0 in 0..4)")
        .replace("%y[i0, i1]", "%y[i0]")
    )
    assert main(["verify", str(left), str(right)]) == 1
    line = "  %v = load %x[i1]"
    assert right.read_text().splitlines()[5] == line
    message = f"{right}: line 6, col {line.index('i1') + 1}: unknown loop variable i1\n"
    assert capsys.readouterr() == ("", message)


SHIFTED_READ = """\
tensor %x : 4x[5] @dram input
tensor %y : 4x[4] @dram output

nest shift kind=copy (i0 in 0..4) {
  %v = load %x[i0 + 1]
  store %y[i0] = %v
}
"""


def test_verify_access_in_bounds_only_on_the_left_is_out_of_bounds_on_the_right(tmp_path, capsys):
    left, right = tmp_path / "l.ir", tmp_path / "r.ir"
    left.write_text(SHIFTED_READ)
    right.write_text(SHIFTED_READ.replace("4x[5]", "4x[4]"))
    assert main(["verify", str(left), str(right)]) == 1
    message = f"{right}: OutOfBoundsAccess in nest 'shift' statement 0: access to 'x' leaves its shape at (3,)\n"
    assert capsys.readouterr() == ("", message)
    # each file on its own: the same verdicts
    assert main(["report", str(left), "--json", str(tmp_path / "l.json")]) == 0
    assert main(["report", str(right)]) == 1
    assert capsys.readouterr() == ("", message)
