"""Bank-mapping pass: seeding, transfer, propagation, materialization."""

import hashlib
import json
import random

import pytest

from nestopt.affine import affine_map, variables
from nestopt.bankmap import (
    AnchorRegistry,
    Blocked,
    Conflict,
    Exactly,
    RankMismatchError,
    Unknown,
    default_mapping,
    materialize,
    propagate,
    run_global_mapping,
    run_local_baseline,
    seed_anchors,
    transfer,
)
from nestopt.dme import UseDefIndex, run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.interp import equivalent
from nestopt.ir import BankMapping, BankPolicy, IntBox, OnChip, accesses, validate
from nestopt.report import bankmap_pass_entry
from nestopt.textual import parse, print_program

B8 = 8


def cyclic(axis, banks=B8):
    return BankMapping(axis, banks, BankPolicy.CYCLIC)


MATCHING_REGISTRY = AnchorRegistry.from_dict(
    {
        "banks": 8,
        "operators": {
            "conv2d": {
                "operands": [{"axis": 0, "policy": "cyclic"}, {"axis": 0, "policy": "cyclic"}],
                "results": [{"axis": 0, "policy": "cyclic"}],
            },
            "matmul": {
                "operands": [{"axis": 0, "policy": "cyclic"}, {"axis": 0, "policy": "cyclic"}],
                "results": [{"axis": 0, "policy": "cyclic"}],
            },
            "pooling": {
                "operands": [{"axis": 0, "policy": "cyclic"}],
                "results": [{"axis": 0, "policy": "cyclic"}],
            },
        },
    }
)


CONV_ONLY = """\
tensor %x : 4x[4, 4] @dram input
tensor %w : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %y : 4x[4, 4] @dram output

nest conv kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = load %w[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest out kind=elementwise (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  %b = neg %a
  store %y[i0, i1] = %b
}
"""


def test_seed_single_conv():
    program = parse(CONV_ONLY)
    state = seed_anchors(program, AnchorRegistry.default())
    assert state.values["x"] == Exactly(cyclic(1))
    assert state.values["w"] == Exactly(cyclic(0))
    assert state.values["u"] == Exactly(cyclic(0))
    assert state.values["y"] == Unknown()


def test_seed_elementwise_only_everything_unknown():
    src = """\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    state = seed_anchors(parse(src), AnchorRegistry.default())
    assert all(isinstance(v, Unknown) for v in state.values.values())


def test_seed_shared_weight_identical_templates_join_cleanly():
    src = """\
tensor %a : 4x[4, 4] @dram input
tensor %b : 4x[4, 4] @dram input
tensor %w : 4x[4, 4] @dram input
tensor %m1 : 4x[4, 4] @sbuf
tensor %m2 : 4x[4, 4] @sbuf

nest mm1 kind=matmul (i0 in 0..4, i1 in 0..4) {
  %p = load %a[i0, i1]
  %q = load %w[i0, i1]
  %r = mul %p %q
  store %m1[i0, i1] = %r
}

nest mm2 kind=matmul (i0 in 0..4, i1 in 0..4) {
  %p = load %b[i0, i1]
  %q = load %w[i0, i1]
  %r = mul %p %q
  store %m2[i0, i1] = %r
}
"""
    state = seed_anchors(parse(src), AnchorRegistry.default())
    assert state.values["w"] == Exactly(cyclic(0))


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


def test_bundled_anchors_file_loads_unchanged():
    from importlib import resources

    doc = json.loads(resources.files("nestopt").joinpath("data/anchors.json").read_text("utf-8"))
    registry = AnchorRegistry.from_dict(doc)
    assert registry == AnchorRegistry.default()
    assert registry.banks == 8
    assert sorted(registry.templates) == ["conv2d", "matmul", "pooling"]
    assert registry.templates["conv2d"].operands == (cyclic(1), cyclic(0))


def test_default_registry_is_built_once_per_bank_count():
    bundled, four = AnchorRegistry.default(), AnchorRegistry.default(4)
    assert bundled is not four
    assert (bundled.banks, four.banks) == (8, 4)
    assert AnchorRegistry.default() is bundled
    assert AnchorRegistry.default(4) is four


def test_registry_templates_are_read_only():
    registry = AnchorRegistry.default()
    with pytest.raises(TypeError):
        registry.templates["conv2d"] = registry.templates["pooling"]
    with pytest.raises(TypeError):
        del registry.templates["matmul"]
    # the registry keeps its own copy of the mapping it was built from
    templates = dict(registry.templates)
    copy = AnchorRegistry(templates, registry.banks)
    templates.pop("conv2d")
    assert copy == registry
    assert "conv2d" in copy.templates


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"conv2d": {"operands": [{"axis": 7}]}}, "no 'operators' key"),
        ({"banks": 4}, "no 'operators' key"),
        ({"operators": {}, "bank": 4}, "anchors document has unknown key(s) 'bank'"),
        ({"operators": {"conv3d": {}}}, "unknown operator kind 'conv3d'"),
        ({"operators": {"conv2d": {"operand": []}}}, "operator 'conv2d' has unknown key(s) 'operand'"),
        (
            {"operators": {"conv2d": {"operands": [{"axis": 1, "banks": 4}]}}},
            "operator 'conv2d' operand has unknown key(s) 'banks'",
        ),
        (
            {"operators": {"matmul": {"results": [None, {"axis": 0, "polcy": "blocked"}]}}},
            "operator 'matmul' result has unknown key(s) 'polcy'",
        ),
        # numbers: banks an integer >= 1 and axis an integer >= 0; no bool, float or string
        ({"banks": 0, "operators": {}}, "'banks' must be an integer >= 1, got 0"),
        ({"banks": -3, "operators": {}}, "'banks' must be an integer >= 1, got -3"),
        ({"banks": 2.7, "operators": {}}, "'banks' must be an integer >= 1, got 2.7"),
        ({"banks": 4.0, "operators": {}}, "'banks' must be an integer >= 1, got 4.0"),
        ({"banks": True, "operators": {}}, "'banks' must be an integer >= 1, got True"),
        ({"banks": "8", "operators": {}}, "'banks' must be an integer >= 1, got '8'"),
        ({"banks": None, "operators": {}}, "'banks' must be an integer >= 1, got None"),
        (
            {"operators": {"conv2d": {"operands": [{"axis": 1.5}]}}},
            "operator 'conv2d' operand 'axis' must be an integer >= 0, got 1.5",
        ),
        (
            {"operators": {"pooling": {"results": [{"axis": True}]}}},
            "operator 'pooling' result 'axis' must be an integer >= 0, got True",
        ),
        (
            {"operators": {"matmul": {"operands": [None, {"axis": -1}]}}},
            "operator 'matmul' operand 'axis' must be an integer >= 0, got -1",
        ),
        (
            {"operators": {"matmul": {"operands": [{"axis": "0"}]}}},
            "operator 'matmul' operand 'axis' must be an integer >= 0, got '0'",
        ),
    ],
)
def test_anchor_registry_rejects_keys_nothing_reads(doc, message):
    with pytest.raises(ValueError) as err:
        AnchorRegistry.from_dict(doc)
    assert message in str(err.value)


@pytest.mark.parametrize("banks", [None, 4])
def test_anchor_registry_checks_the_documents_banks_even_when_overridden(banks):
    # the override wins when the document's count is good, and does not hide a bad one
    good = AnchorRegistry.from_dict({"banks": 2, "operators": {}}, banks)
    assert good.banks == (2 if banks is None else banks)
    assert AnchorRegistry.from_dict({"operators": {}}, banks).banks == (8 if banks is None else banks)
    with pytest.raises(ValueError, match="'banks' must be an integer >= 1, got 0"):
        AnchorRegistry.from_dict({"banks": 0, "operators": {}}, banks)


@pytest.mark.parametrize(
    "data, message",
    [
        (b"not json\n", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
        (b"[" * 100_000, "RecursionError: maximum recursion depth exceeded"),
        (b"\xff{}", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
        (b'{"operators": {"conv2d": {"operands": 3}}}', "TypeError: 'int' object is not iterable"),
        (b'{"operators": {"conv2d": {"operands": [{}]}}}', "KeyError: 'axis'"),
        (b'{"operators": {"conv2d": []}}', "AttributeError: 'list' object has no attribute"),
        # a line break in a name the message quotes becomes a space
        (
            b'{"operators": {"conv\\n 2d": {}}}',
            "ValueError: anchors document names unknown operator kind 'conv 2d'",
        ),
    ],
    ids=["not-json", "too-deep", "not-utf8", "type", "key", "attribute", "value"],
)
def test_anchors_file_that_is_malformed_raises_one_value_error(tmp_path, data, message):
    path = tmp_path / "a.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as err:
        AnchorRegistry.from_file(path)
    assert type(err.value) is ValueError
    assert str(err.value).startswith(message) and "\n" not in str(err.value)


def test_anchors_file_that_cannot_be_read_raises_its_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        AnchorRegistry.from_file(tmp_path / "missing.json")
    with pytest.raises(IsADirectoryError):
        AnchorRegistry.from_file(tmp_path)


def test_seed_rank_mismatch_raises():
    with pytest.raises(RankMismatchError) as err:
        seed_anchors(parse(RANK1_CONV), AnchorRegistry.default())
    assert "conv" in str(err.value)


def test_local_rank_mismatch_raises():
    # the default conv2d template banks axis 1 of its first operand, which
    # is the off-chip rank-1 input %x: no memcopy would ever touch it, but
    # the template still does not fit the program
    with pytest.raises(RankMismatchError) as err:
        run_local_baseline(parse(RANK1_CONV), AnchorRegistry.default())
    assert str(err.value) == "nest 'conv': template banks axis 1 of rank-1 'x'"


def test_transfer_identity_elementwise():
    box = IntBox.from_extents(4, 4)
    ident = affine_map(box, variables(2))
    carried = transfer(cyclic(1), ident, ident, "forward")
    assert carried == cyclic(1)


def test_transfer_through_transpose():
    box = IntBox.from_extents(4, 4)
    i0, i1 = variables(2)
    load = affine_map(box, (i0, i1))
    store = affine_map(box, (i1, i0))
    # axis 0 of the input is driven by i0, which drives axis 1 of the output
    assert transfer(cyclic(0), load, store, "forward") == cyclic(1)
    # and the requirement flows back the same way
    assert transfer(cyclic(1), load, store, "backward") == cyclic(0)


def test_transfer_blocked_on_flatten():
    box = IntBox.from_extents(4, 4)
    i0, i1 = variables(2)
    load = affine_map(box, (i0, i1))
    store = affine_map(box, (4 * i0 + i1,))
    res = transfer(cyclic(0), load, store, "forward")
    assert isinstance(res, Blocked)


def test_propagate_through_memcopy_nest():
    # conv's first operand must bank axis 1; the requirement travels back
    # through the memcopy onto %u, which then needs no default
    src = """\
tensor %x : 4x[4, 4] @dram input
tensor %w : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %v : 4x[4, 4] @sbuf
tensor %z : 4x[4, 4] @dram output

nest pre kind=elementwise (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = neg %a
  store %u[i0, i1] = %b
}

nest cp kind=copy (i0 in 0..4, i1 in 0..4) {
  memcopy %v <- %u
}

nest conv kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %v[i0, i1]
  %b = load %w[i0, i1]
  %c = mul %a %b
  store %z[i0, i1] = %c
}
"""
    program = parse(src)
    out, state, report = run_global_mapping(program)
    assert state.values["u"] == Exactly(cyclic(1))
    assert report.defaulted == ()
    assert report.inserted == ()
    assert out.tensor("u").location.mapping == cyclic(1)


def test_propagate_matching_chain_has_no_conflicts():
    src = """\
tensor %x : 4x[4, 4] @dram input
tensor %w1 : 4x[4, 4] @dram input
tensor %w2 : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %e : 4x[4, 4] @sbuf
tensor %z : 4x[4, 4] @sbuf

nest conv1 kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = load %w1[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest mid kind=elementwise (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  %b = neg %a
  store %e[i0, i1] = %b
}

nest conv2 kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %e[i0, i1]
  %b = load %w2[i0, i1]
  %c = mul %a %b
  store %z[i0, i1] = %c
}
"""
    program = parse(src)
    state = propagate(program, seed_anchors(program, MATCHING_REGISTRY))
    assert state.conflicts() == ()
    assert state.values["u"] == Exactly(cyclic(0))
    assert state.values["e"] == Exactly(cyclic(0))


def test_propagate_conflicting_anchors():
    # conv output template (axis 0) collides with matmul input template (axis 1)
    src = """\
tensor %x : 4x[4, 4] @dram input
tensor %w1 : 4x[4, 4] @dram input
tensor %w2 : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %z : 4x[4, 4] @sbuf

nest conv kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = load %w1[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest mm kind=matmul (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  %b = load %w2[i0, i1]
  %c = mul %a %b
  store %z[i0, i1] = %c
}
"""
    program = parse(src)
    state = propagate(program, seed_anchors(program, AnchorRegistry.default()))
    assert state.conflicts() == ("u",)
    conflict = state.values["u"]
    assert isinstance(conflict, Conflict)
    assert conflict.mappings == frozenset({cyclic(0), cyclic(1)})


def test_propagate_isolated_island_stays_unknown():
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest n1 kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %b[i0] = %w
}

nest n2 kind=elementwise (i0 in 0..4) {
  %v = load %b[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    state = propagate(program, seed_anchors(program, AnchorRegistry.default()))
    assert all(isinstance(v, Unknown) for v in state.values.values())


def test_materialize_no_conflicts_only_annotates():
    program = parse(CONV_ONLY)
    out, report = materialize(program, propagate(program, seed_anchors(program, AnchorRegistry.default())))
    assert report.inserted == ()
    assert [n.name for n in out.nests] == [n.name for n in program.nests]
    assert out.tensor("u").location.mapping == cyclic(0)
    assert validate(out) == []


def test_materialize_conflict_inserts_sized_memcopy():
    # 32x32 x 4 bytes = 4096-byte re-banked twin
    src = """\
tensor %x : 4x[32, 32] @dram input
tensor %w1 : 4x[32, 32] @dram input
tensor %w2 : 4x[32, 32] @dram input
tensor %u : 4x[32, 32] @sbuf
tensor %z : 4x[32, 32] @sbuf

nest conv kind=conv2d (i0 in 0..32, i1 in 0..32) {
  %a = load %x[i0, i1]
  %b = load %w1[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest mm kind=matmul (i0 in 0..32, i1 in 0..32) {
  %a = load %u[i0, i1]
  %b = load %w2[i0, i1]
  %c = mul %a %b
  store %z[i0, i1] = %c
}
"""
    program = parse(src)
    out, report = materialize(program, propagate(program, seed_anchors(program, AnchorRegistry.default())))
    assert len(report.inserted) == 1
    copy = report.inserted[0]
    assert copy.tensor == "u"
    assert copy.bytes == 32 * 32 * 4
    assert copy.mapping_from == cyclic(0)
    assert copy.mapping_to == cyclic(1)
    # anchor preservation: producer keeps its template, consumer reads the twin
    assert out.tensor("u").location.mapping == cyclic(0)
    assert out.tensor(copy.new_tensor).location.mapping == cyclic(1)
    assert validate(out) == []
    assert equivalent(program, out, trials=2, seed=0).equivalent


def test_materialize_dedups_equal_requirements():
    # two matmul consumers demand the same remapping: one twin, one memcopy
    src = """\
tensor %x : 4x[4, 4] @dram input
tensor %w1 : 4x[4, 4] @dram input
tensor %w2 : 4x[4, 4] @dram input
tensor %w3 : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %z1 : 4x[4, 4] @sbuf
tensor %z2 : 4x[4, 4] @sbuf

nest conv kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = load %w1[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest mm1 kind=matmul (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  %b = load %w2[i0, i1]
  %c = mul %a %b
  store %z1[i0, i1] = %c
}

nest mm2 kind=matmul (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  %b = load %w3[i0, i1]
  %c = mul %a %b
  store %z2[i0, i1] = %c
}
"""
    program = parse(src)
    out, report = materialize(program, propagate(program, seed_anchors(program, AnchorRegistry.default())))
    assert len(report.inserted) == 1
    assert report.inserted[0].consumers == ("mm1", "mm2")
    assert validate(out) == []
    assert equivalent(program, out, trials=2, seed=1).equivalent


def test_local_coincidental_match_inserts_nothing():
    program = parse(CONV_ONLY)
    out, report = run_local_baseline(program)
    # conv output template is axis 0, the elementwise default is axis 0
    assert report.inserted == ()
    assert validate(out) == []


def test_headline_transpose_between_convs():
    src = """\
tensor %x : 4x[4, 4] @dram input
tensor %w1 : 4x[4, 4] @dram input
tensor %w2 : 4x[4, 4] @dram input
tensor %u : 4x[4, 4] @sbuf
tensor %v : 4x[4, 4] @sbuf
tensor %z : 4x[4, 4] @sbuf

nest conv1 kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %x[i0, i1]
  %b = load %w1[i0, i1]
  %c = mul %a %b
  store %u[i0, i1] = %c
}

nest tr kind=transpose (i0 in 0..4, i1 in 0..4) {
  %a = load %u[i0, i1]
  store %v[i1, i0] = %a
}

nest conv2 kind=conv2d (i0 in 0..4, i1 in 0..4) {
  %a = load %v[i0, i1]
  %b = load %w2[i0, i1]
  %c = mul %a %b
  store %z[i0, i1] = %c
}
"""
    program = parse(src)
    _, _, g_report = run_global_mapping(program)
    _, l_report = run_local_baseline(program)
    # backward transfer through the transpose reconciles what local must copy
    assert g_report.inserted_bytes == 0
    assert l_report.inserted_bytes == 4 * 4 * 4


# sha256 over the printed output and the report entry of every program of
# criterion 4's grid: any change to the mapped IR, twin names, insertion
# order or report fields changes it
GRID_DIGESTS = {
    "global": "336305887c1eb2d71fc94afa5e8dd2820114bd8786f0ae1c2e9f4067765d5ec2",
    "local": "60ee610e97958ee932741c4819eb4a8fde80c09c5c8f93114944cfc8207bb564",
}


@pytest.mark.parametrize("mode", ["global", "local"])
def test_mapped_grid_outputs_are_unchanged(mode):
    digest = hashlib.sha256()
    for blocks in range(1, 9):
        for transposes in range(4):
            program = generate_resnet_analog(blocks, transposes, seed=1)
            registry = AnchorRegistry.default()
            if mode == "global":
                out, _, report = run_global_mapping(program, registry)
            else:
                out, report = run_local_baseline(program, registry)
            digest.update(print_program(out).encode())
            digest.update(json.dumps(bankmap_pass_entry(report, registry.banks), indent=2).encode())
    assert digest.hexdigest() == GRID_DIGESTS[mode]


@pytest.mark.parametrize("mode", ["global", "local"])
def test_mapped_output_shares_locations_and_copy_maps(mode):
    program = generate_resnet_analog(6, 2, seed=1)
    if mode == "global":
        out, _, report = run_global_mapping(program)
    else:
        out, report = run_local_baseline(program)
    locations = {}
    for t in out.tensors:
        if isinstance(t.location, OnChip):
            locations.setdefault(t.location.mapping, set()).add(id(t.location))
    assert len(locations) > 1
    assert all(len(ids) == 1 for ids in locations.values())


def test_local_empty_program():
    out, report = run_local_baseline(parse(""))
    assert report.inserted == ()
    assert out.nests == ()


def test_fixpoint_independent_of_task_order():
    program = generate_resnet_analog(3, 2, seed=7)
    seeded = seed_anchors(program, AnchorRegistry.default())
    baseline = propagate(program, seeded)
    ntasks = sum(
        2 * len(reads) * len(writes)
        for reads, writes in (accesses(n) for n in program.nests if n.name not in seeded.anchored)
    )
    rng = random.Random(0)
    for _ in range(20):
        order = list(range(ntasks))
        rng.shuffle(order)
        assert propagate(program, seeded, task_order=order) == baseline


@pytest.mark.parametrize("mode", ["dme", "global", "local"])
def test_only_dme_builds_a_use_def_index(monkeypatch, mode):
    program = generate_resnet_analog(8, 3)
    builds = []
    init = UseDefIndex.__init__

    def counting_init(self, program):
        builds.append(program)
        init(self, program)

    monkeypatch.setattr(UseDefIndex, "__init__", counting_init)
    if mode == "dme":
        run_dme(program)
    elif mode == "global":
        run_global_mapping(program)
    else:
        run_local_baseline(program)
    # bank mapping finds producers and readers by walking the nests
    assert builds == ([program] if mode == "dme" else [])


def test_update_count_bounded():
    program = generate_resnet_analog(4, 2, seed=3)
    state = propagate(program, seed_anchors(program, AnchorRegistry.default()))
    assert state.updates <= 2 * len(program.tensors)


@pytest.mark.parametrize("blocks,transposes", [(1, 0), (1, 2), (2, 1), (3, 0), (3, 3)])
def test_global_never_worse_than_local(blocks, transposes):
    program = generate_resnet_analog(blocks, transposes, seed=11)
    _, _, g_report = run_global_mapping(program)
    _, l_report = run_local_baseline(program)
    assert g_report.inserted_bytes <= l_report.inserted_bytes
    if transposes >= 1:
        assert g_report.inserted_bytes < l_report.inserted_bytes


@pytest.mark.parametrize("seed", range(6))
def test_passes_preserve_semantics(seed):
    program = generate_resnet_analog(1 + seed % 3, seed % 4, seed=seed)
    g_prog, _, _ = run_global_mapping(program)
    l_prog, _ = run_local_baseline(program)
    assert validate(g_prog) == []
    assert validate(l_prog) == []
    assert equivalent(program, g_prog, trials=3, seed=seed).equivalent
    assert equivalent(program, l_prog, trials=3, seed=seed).equivalent


@pytest.mark.parametrize("blocks,transposes", [(2, 0), (2, 2), (3, 1)])
def test_anchor_preservation_after_materialize(blocks, transposes):
    registry = AnchorRegistry.default()
    program = generate_resnet_analog(blocks, transposes, seed=5)
    out, _, _ = run_global_mapping(program, registry)
    from nestopt.ir import OnChip

    for nest in out.nests:
        template = registry.templates.get(nest.kind)
        if template is None:
            continue
        reads, writes = accesses(nest)
        slots = list(zip(reads, template.operands)) + list(zip(writes, template.results))
        for tname, required in slots:
            if required is None:
                continue
            decl = out.tensor(tname)
            if isinstance(decl.location, OnChip):
                assert decl.location.mapping == required, (nest.name, tname)


def test_bankmap_on_unanchored_chain_defaults_everything():
    program = generate_wavenet_analog(4, 0, seed=2)
    out, state, report = run_global_mapping(program)
    assert report.inserted == ()
    from nestopt.ir import OnChip

    for t in out.tensors:
        if isinstance(t.location, OnChip):
            assert t.location.mapping == default_mapping(8)
