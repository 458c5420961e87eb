"""Report document construction and schema validation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import ValidationError

from nestopt.bankmap import run_global_mapping
from nestopt.dme import run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.report import (
    REPORT_SCHEMA,
    bankmap_pass_entry,
    build_document,
    dme_pass_entry,
    document_text,
)
from nestopt.traffic import account

from schema_check import validate_document


def test_dme_document_validates():
    program = generate_wavenet_analog(6, 1, seed=0)
    result = run_dme(program)
    doc = build_document(
        [{"pass": "dme"}],
        [dme_pass_entry(result)],
        account(program),
        account(result.program, copy_pairs_eliminated=len(result.eliminated)),
    )
    validate_document(doc)
    assert doc["schema"] == 1
    entry = doc["passes"][0]
    assert len(entry["eliminated"]) == 5
    assert entry["skipped"][0]["reason"] == "NotInvertible"


def _bankmap_document():
    program = generate_resnet_analog(2, 2, seed=0)
    out, _, report = run_global_mapping(program)
    return build_document(
        [{"pass": "bankmap", "options": {"mode": "global", "banks": 8}}],
        [bankmap_pass_entry(report, 8)],
        account(program),
        account(out),
    )


def test_bankmap_document_validates():
    doc = _bankmap_document()
    validate_document(doc)
    entry = doc["passes"][0]
    assert entry["mode"] == "global"
    assert entry["inserted"][0]["mapping_to"]["policy"] == "cyclic"


def test_schema_rejects_wrong_version():
    program = generate_wavenet_analog(2, 0, seed=0)
    doc = build_document([], [], account(program), None)
    doc["schema"] = 2
    with pytest.raises(ValidationError):
        validate_document(doc)


def test_schema_rejects_negative_bytes():
    program = generate_wavenet_analog(2, 0, seed=0)
    doc = build_document([], [], account(program), None)
    doc["traffic"]["before"]["off_chip_bytes"] = -1
    with pytest.raises(ValidationError):
        validate_document(doc)


def test_validate_document_rejects_an_unknown_pass():
    # build_document does not check what it builds; the schema does
    program = generate_wavenet_analog(2, 0, seed=0)
    doc = build_document([], [{"pass": "unknown"}], account(program), None)
    with pytest.raises(ValidationError):
        validate_document(doc)


MUTATIONS = {
    "missing_required_key": lambda doc: doc["traffic"]["before"].pop("copy_pairs_total"),
    "wrong_type": lambda doc: doc["traffic"]["before"].update(off_chip_bytes="0"),
    "bad_policy_enum": lambda doc: doc["passes"][0]["inserted"][0]["mapping_to"].update(policy="striped"),
    "extra_mapping_key": lambda doc: next(iter(doc["passes"][0]["assignments"].values())).update(offset=0),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_validate_document_rejects_each_mutation(mutation):
    doc = _bankmap_document()
    validate_document(doc)
    MUTATIONS[mutation](doc)
    with pytest.raises(ValidationError):
        validate_document(doc)


def test_schema_is_draft_2020():
    assert REPORT_SCHEMA["$schema"].endswith("2020-12/schema")


TEXT = st.text(st.characters(exclude_categories=()))
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([-0.0, 1e300, -1e-300, 2.0**63])
    | TEXT
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True)
@given(DOCUMENTS)
@example({})
@example([])
@example({"a": {}, "b": [], "c": ()})
@example({"\x00\x1f\"\\é\u2028\ud800\U0001f600": "\t\n\x7f ünï \udfff"})
@example([True, False, None, 0, -1, 2**64, -(2**200), -0.0, 1e300, float("nan"), float("-inf")])
@example(({"nested": ({"deeper": [[], {}]},)},))
def test_document_text_is_json_dumps_with_indent_2(doc):
    assert document_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{None: 1}]}, [{("k",): 0}], {"a": {2.5: 1}}, {True: 1}])
def test_document_text_rejects_a_key_that_is_not_a_string(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        document_text(doc)


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes"])
def test_document_text_rejects_what_json_cannot_encode(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        document_text({"a": [value]})


IMPORT_PROBE = """\
import sys

def loaded():
    return sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "jsonschema"})

import nestopt
print(loaded())
import nestopt.cli
print(loaded())
from nestopt.cli import main
assert main(["gen", "resnet", "8", "3", "-o", "r.ir"]) == 0
argv = ["optimize", "r.ir", "--pass", "dme", "--pass", "bankmap", "-o", "o.ir", "--report", "o.json"]
assert main(argv) == 0
print(loaded())
assert main(["verify", "r.ir", "o.ir"]) == 0
"""


def test_imports_and_resnet_optimize_load_neither_numpy_nor_jsonschema(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "[]", "equivalent: 5 trial(s), seed 0"]
    validate_document(json.loads((tmp_path / "o.json").read_text()))


def test_importing_the_cli_does_not_build_its_parser(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    probe = "import nestopt.cli; print(nestopt.cli._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
