"""The one-shot CLI pins of ``golden/cli_pins.txt``, run in-process.

CI runs the same rows as ``python -m nestopt`` processes; both read the one
table, so a pin changes in one place.
"""

import hashlib
from pathlib import Path

import pytest

from nestopt.cli import main

PINS = Path(__file__).resolve().parent / "golden" / "cli_pins.txt"
VERDICT = "equivalent: 5 trial(s), seed 0\n"


def _rows():
    lines = PINS.read_text(encoding="utf-8").splitlines()
    return [line.split() for line in lines if line.strip() and not line.startswith("#")]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_the_table_pins_every_gen_and_optimize_row_once():
    rows = _rows()
    assert {row[0] for row in rows} == {"gen", "optimize"}
    assert all(len(row) == 5 for row in rows if row[0] == "gen")
    assert all(len(row) > 6 for row in rows if row[0] == "optimize")
    assert len({tuple(row) for row in rows}) == len(rows) == 9


def _check_row(row, where: Path, capsys) -> None:
    """Run ``row`` into ``where``'s gen.ir, out.ir and report.json and check its pins."""
    kind, benchmark, a, b, *pins = row
    gen = where / "gen.ir"
    assert main(["gen", benchmark, a, b, "--seed", "0", "-o", str(gen)]) == 0
    if kind == "gen":
        assert _sha256(gen) == pins[0]
        return
    ir_pin, report_pin, *passes = pins
    out, report = where / "out.ir", where / "report.json"
    assert main(["optimize", str(gen), *passes, "-o", str(out), "--report", str(report)]) == 0
    assert (_sha256(out), _sha256(report)) == (ir_pin, report_pin)
    capsys.readouterr()
    assert main(["verify", str(gen), str(out)]) == 0
    assert capsys.readouterr().out == VERDICT


@pytest.mark.parametrize("row", _rows(), ids=lambda row: "-".join(p.lstrip("-") for p in row if len(p) < 64))
def test_one_shot_output_matches_its_pin(row, tmp_path, capsys):
    _check_row(row, tmp_path, capsys)


def test_resnet_8_rewrites_resnet_128s_longer_outputs_to_its_pins(tmp_path, capsys):
    """CI runs every row into the same three files; here each resnet 8 row
    rewrites what resnet 128's row left there, so every file shrinks."""
    rows = _rows()
    (large,) = [row for row in rows if row[:4] == ["optimize", "resnet", "128", "3"]]
    small = [row for row in rows if row[1:4] == ["resnet", "8", "3"]]
    assert [row[0] for row in small] == ["gen", "optimize", "optimize"]
    files = [tmp_path / name for name in ("gen.ir", "out.ir", "report.json")]
    for row in small:
        _check_row(large, tmp_path, capsys)
        sizes = [path.stat().st_size for path in files]
        _check_row(row, tmp_path, capsys)
        assert files[0].stat().st_size < sizes[0]
        if row[0] == "optimize":
            assert all(path.stat().st_size < size for path, size in zip(files, sizes))
