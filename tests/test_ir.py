"""Structural IR checks: validation, dependence edges, copy pairs."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestopt.affine
import nestopt.ir
from nestopt.affine import (
    ImageEscape,
    IntBox,
    MapClass,
    QuasiAffineExpr,
    QuasiAffineMap,
    compose,
    expr_interval,
    identity_map,
)
from nestopt.bankmap import run_global_mapping, run_local_baseline
from nestopt.dme import UseDefIndex, run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.ir import (
    BankMapping,
    Compute,
    DependenceEdge,
    Load,
    Memcopy,
    OnChip,
    OperatorNest,
    Origin,
    Program,
    Store,
    TensorDecl,
    Violation,
    dependence_edges,
    find_copy_pairs,
    is_pure_copy_nest,
    producers,
    validate,
)
from nestopt.textual import parse

TRANSPOSE_SRC = """\
tensor %t0 : 4x[2, 3] @dram input
tensor %t1 : 4x[3, 2] @sbuf

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %t0[i0, i1]
  store %t1[i1, i0] = %v
}
"""


def test_validate_wellformed_transpose():
    assert validate(parse(TRANSPOSE_SRC)) == []


def test_validate_undeclared_tensor():
    src = TRANSPOSE_SRC.replace("load %t0", "load %bogus")
    report = validate(parse(src))
    assert [v.rule for v in report] == ["UndefinedTensor"]


def test_validate_out_of_bounds_with_witness():
    # access i0+5 into an extent-8 tensor over i0 in [0,4): first bad point
    # by enumeration is i0=3 (3+5 == 8 >= 8)
    src = """\
tensor %a : 4x[8] @dram input
tensor %b : 4x[4] @sbuf

nest shift kind=copy (i0 in 0..4) {
  %v = load %a[i0 + 5]
  store %b[i0] = %v
}
"""
    report = validate(parse(src))
    assert len(report) == 1
    v = report[0]
    assert v.rule == "OutOfBoundsAccess"
    assert v.witness == (3,)
    # independent enumeration oracle for the witness
    first_bad = next(i for i in range(4) if not 0 <= i + 5 < 8)
    assert v.witness == (first_bad,)


def _ref_image_escape(access, los, his):
    """Bounds check by evaluating every point in lexicographic order."""
    for p in access.domain.points():
        if not all(lo <= v < hi for v, lo, hi in zip(access.evaluate(p), los, his)):
            return ImageEscape(witness=p)
    return None


def _ref_validate(program):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nestopt.ir, "image_escape", _ref_image_escape)
        return validate(program)


def _shrink_some(program, rng):
    """Shrink one axis of about a third of the tensors by one cell."""
    tensors = []
    for t in program.tensors:
        if rng.random() < 0.3 and max(t.shape) > 1:
            axis = rng.choice([k for k, d in enumerate(t.shape) if d > 1])
            shape = tuple(d - (k == axis) for k, d in enumerate(t.shape))
            t = dataclasses.replace(t, shape=shape)
        tensors.append(t)
    return dataclasses.replace(program, tensors=tuple(tensors))


def test_validate_matches_enumeration_on_shrunk_tensors():
    rng = random.Random(5)
    programs = [generate_wavenet_analog(12, 3, seed=s) for s in range(4)]
    programs += [generate_resnet_analog(2, 2, seed=s) for s in range(2)]
    # copy elimination composes maps, which brings in floordiv accesses
    programs += [run_dme(p).program for p in programs]
    violations = 0
    for program in programs:
        assert validate(program) == _ref_validate(program) == []
        shrunk = _shrink_some(program, rng)
        report = validate(shrunk)
        assert report == _ref_validate(shrunk)
        violations += sum(v.rule == "OutOfBoundsAccess" for v in report)
    assert violations > 0


def test_validate_memo_shared_by_several_programs_answers_as_fresh_calls():
    rng = random.Random(11)
    program = generate_wavenet_analog(12, 3, seed=1)
    programs = [program, run_dme(program).program, _shrink_some(program, rng)]
    memo = {}
    reports = [validate(p, _memo=memo) for p in programs]
    assert reports == [validate(p) for p in programs]
    assert reports[:2] == [[], []] and any(v.rule == "OutOfBoundsAccess" for v in reports[2])


# the interval of i0 mod 2 (i0 - 2*(i0 floordiv 2)) over [0, 4) is [-2, 3],
# but every value lies in [0, 2)
FOLD_SRC = """\
tensor %a : 4x[2] @dram input
tensor %b : 4x[4] @sbuf

nest fold kind=copy (i0 in 0..4) {
  %v = load %a[(i0) mod 2]
  store %b[i0] = %v
}
"""


def test_validate_floordiv_interval_false_alarm():
    program = parse(FOLD_SRC)
    assert validate(program) == _ref_validate(program) == []


def test_validate_follows_the_enumeration_limit(monkeypatch):
    # (i0) mod 2 is a general map: above the limit its escaping interval is
    # all the verdict rests on, and no point is named
    program = parse(FOLD_SRC)
    assert program.nests[0].body[0].access.map_class is MapClass.GENERAL
    assert validate(program) == []
    monkeypatch.setattr(nestopt.affine, "ENUMERATE_LIMIT", 3)
    assert validate(program) == [
        Violation("OutOfBoundsAccess", "fold", 0, "access to 'a' leaves its shape", None)
    ]


# a row-major reshape whose domain is above the enumeration limit: the
# interval of (i0) mod 1024 escapes, the symbolic image of its normal form
# fits
RESHAPE_SRC = """\
tensor %x : 4x[2097152] @dram input
tensor %y : 4x[2048, 1024] @sbuf

nest unflat kind=reshape (i0 in 0..2097152) {
  %v = load %x[i0]
  store %y[(i0) floordiv 1024, (i0) mod 1024] = %v
}
"""


def test_validate_and_compose_agree_on_a_reshape_above_the_limit():
    program = parse(RESHAPE_SRC)
    store = program.nests[0].body[1]
    m = store.access
    assert m.domain.cardinality > nestopt.affine.ENUMERATE_LIMIT
    assert m.map_class is MapClass.MIXED_RADIX
    assert expr_interval(m.exprs[1], m.domain)[0] < 0
    assert validate(program) == []
    assert compose(identity_map(IntBox.from_extents(2048, 1024)), m) == m


def test_validate_store_to_input():
    src = """\
tensor %a : 4x[4] @dram input

nest bad kind=other (i0 in 0..4) {
  %v = load %a[i0]
  store %a[i0] = %v
}
"""
    rules = [v.rule for v in validate(parse(src))]
    assert "StoreToInput" in rules


def test_validate_read_before_produce():
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[4] @sbuf
tensor %c : 4x[4] @sbuf

nest uses_b kind=elementwise (i0 in 0..4) {
  %v = load %b[i0]
  store %c[i0] = %v
}
"""
    rules = [v.rule for v in validate(parse(src))]
    assert rules == ["ReadBeforeProduce"]


def test_validate_ssa_rules():
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[4] @sbuf

nest bad kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %v = neg %v
  %w = add %v %missing
  store %b[i0] = %w
}
"""
    rules = sorted(v.rule for v in validate(parse(src)))
    assert rules == ["Redefinition", "UseBeforeDef"]


def test_validate_multiple_producers():
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[4] @sbuf

nest one kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %b[i0] = %v
}

nest two kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %b[i0] = %v
}
"""
    rules = [v.rule for v in validate(parse(src))]
    assert rules == ["MultipleProducers"]



def _lin(box, *rows):
    return QuasiAffineMap(box, tuple(QuasiAffineExpr(c, k) for c, k in rows))


def _breaks_every_rule():
    """A program breaking every rule ``validate`` has, several within one
    nest, in the order its walk meets them."""
    b = IntBox.from_extents(4)
    far = IntBox((-(1 << 63) - 1,), (-(1 << 63) + 1,))  # two points, past int64
    ident, far_ident = _lin(b, ((1,), 0)), _lin(far, ((1,), 0))
    tensors = (
        TensorDecl("a", 4, (4,), origin=Origin.MODEL_INPUT),
        TensorDecl("m", 4, (2, 2)),
        TensorDecl("bad", 0, (4,)),
        TensorDecl("huge", 4, (1 << 21, 1 << 20)),
        TensorDecl("banked", 4, (4,), OnChip(BankMapping(2, 2))),
        TensorDecl("b", 4, (4,)),
        TensorDecl("c", 4, (4,)),
        TensorDecl("m", 4, (2, 2)),
        TensorDecl("y", 4, (4,), origin=Origin.MODEL_OUTPUT),
    )
    n1 = OperatorNest("n1", "bogus", b, (
        Load("v", "ghost", ident),
        Load("u", "a", _lin(IntBox.from_extents(5), ((1,), 0))),
        Load("w", "a", _lin(b, ((1,), 0), ((1,), 0))),
        Load("x", "b", _lin(b, ((1,), 1))),
        Memcopy("c", "y", ident),
        Compute("z", "frob", ("v", "nope")),
        Compute("z", "add", ("v",)),
        Store("a", ident, "q"),
        Memcopy("a", "m", ident),
        Memcopy("ghost2", "c", _lin(b, ((1,), 2))),
        Store("b", ident, "v"),
        Store("c", _lin(b, ((1 << 62,), 0)), "x"),
        Load("x2", "m", _lin(b, ((0,), 0), ((1,), 0))),
    ))
    n3 = OperatorNest("n3", "copy", far, (
        Load("v", "y", far_ident),
        Memcopy("c", "banked", far_ident),
        Load("u", "m", _lin(far, ((0,), 0), ((0,), 0))),
        Store("b", far_ident, "v"),
        Store("y", far_ident, "v"),
        Memcopy("a", "b", far_ident),
    ))
    return Program(tensors, (n1, OperatorNest("n1", "copy", b, ()), n3))


def test_validate_reports_every_rule_in_walk_order():
    # a memcopy's destination is checked before its source, and a nest's
    # read and written tensors follow their first reference
    expected = [
        ("BadDeclaration", None, None, "tensor 'bad' has bad shape/elem size", None),
        ("BadDeclaration", None, None, "tensor 'huge' has 2199023255552 cells, more than 2^40", None),
        ("BadDeclaration", None, None, "tensor 'banked' banks missing axis", None),
        ("DuplicateTensor", None, None, "tensor 'm' declared twice", None),
        ("UnknownKind", "n1", None, "operator kind 'bogus'", None),
        ("UndefinedTensor", "n1", 0, "tensor 'ghost' not declared", None),
        ("DomainMismatch", "n1", 1, "access domain differs from nest box", None),
        ("RankMismatch", "n1", 2, "access produces 2 indices for rank-1 'a'", None),
        ("OutOfBoundsAccess", "n1", 3, "access to 'b' leaves its shape at (3,)", (3,)),
        ("BadOpcode", "n1", 5, "unknown opcode 'frob'", None),
        ("UseBeforeDef", "n1", 5, "value %nope not defined yet", None),
        ("BadOpcode", "n1", 6, "'add' wants 2 operands", None),
        ("Redefinition", "n1", 6, "value %z redefined", None),
        ("UseBeforeDef", "n1", 7, "value %q not defined yet", None),
        ("StoreToInput", "n1", 7, "model input 'a' written", None),
        ("RankMismatch", "n1", 8, "access produces 1 indices for rank-2 'm'", None),
        ("StoreToInput", "n1", 8, "model input 'a' written", None),
        ("UndefinedTensor", "n1", 9, "tensor 'ghost2' not declared", None),
        ("OutOfBoundsAccess", "n1", 9, "access to 'c' leaves its shape at (2,)", (2,)),
        ("Int64Overflow", "n1", 11, "access to 'c' can take values beyond int64", None),
        ("OutOfBoundsAccess", "n1", 12, "access to 'm' leaves its shape at (2,)", (2,)),
        ("ReadBeforeProduce", "n1", None, "tensor 'b' read before any earlier nest stores it", None),
        ("ReadBeforeProduce", "n1", None, "tensor 'y' read before any earlier nest stores it", None),
        ("ReadBeforeProduce", "n1", None, "tensor 'm' read before any earlier nest stores it", None),
        ("ReadBeforeProduce", "n1", None, "tensor 'c' read before any earlier nest stores it", None),
        ("DuplicateNest", "n1", None, "nest name reused", None),
        ("EmptyBody", "n1", None, "nest body is empty", None),
        ("Int64Overflow", "n3", None, "loop bounds leave int64", None),
        ("StoreToInput", "n3", 5, "model input 'a' written", None),
        ("ReadBeforeProduce", "n3", None, "tensor 'y' read before any earlier nest stores it", None),
        ("ReadBeforeProduce", "n3", None, "tensor 'banked' read before any earlier nest stores it", None),
        ("ReadBeforeProduce", "n3", None, "tensor 'm' read before any earlier nest stores it", None),
        ("MultipleProducers", "n3", None, "tensor 'c' already produced by nest 'n1'", None),
        ("MultipleProducers", "n3", None, "tensor 'b' already produced by nest 'n1'", None),
        ("MultipleProducers", "n3", None, "tensor 'a' already produced by nest 'n1'", None),
    ]
    program = _breaks_every_rule()
    assert validate(program) == [Violation(*v) for v in expected]


CHAIN_SRC = """\
tensor %t0 : 4x[4] @dram input
tensor %t1 : 4x[4] @sbuf
tensor %t2 : 4x[4] @dram output

nest a kind=copy (i0 in 0..4) {
  %v = load %t0[i0]
  store %t1[i0] = %v
}

nest b kind=copy (i0 in 0..4) {
  %v = load %t1[i0]
  store %t2[i0] = %v
}
"""


def test_dependence_edges_chain():
    edges = dependence_edges(parse(CHAIN_SRC))
    assert [(e.producer, e.consumer, e.tensor) for e in edges] == [("a", "b", "t1")]


def test_dependence_edges_diamond():
    src = """\
tensor %x : 4x[4] @dram input
tensor %a : 4x[4] @sbuf
tensor %b : 4x[4] @sbuf
tensor %c : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest na kind=elementwise (i0 in 0..4) {
  %v = load %x[i0]
  %w = neg %v
  store %a[i0] = %w
}

nest nb kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %b[i0] = %w
}

nest nc kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %c[i0] = %w
}

nest nd kind=elementwise (i0 in 0..4) {
  %v = load %b[i0]
  %u = load %c[i0]
  %w = add %v %u
  store %y[i0] = %w
}
"""
    program = parse(src)
    assert validate(program) == []
    edges = dependence_edges(program)
    assert [(e.producer, e.consumer, e.tensor) for e in edges] == [
        ("na", "nb", "a"),
        ("na", "nc", "a"),
        ("nb", "nd", "b"),
        ("nc", "nd", "c"),
    ]


def test_dependence_edges_single_nest():
    assert dependence_edges(parse(TRANSPOSE_SRC)) == []


def _ref_dependence_edges(program):
    """The walk over the nests that ``dependence_edges`` replaced."""
    producer_of = {}
    edges = []
    for nest in program.nests:
        for tname in nest.read_tensors():
            p = producer_of.get(tname)
            if p is not None and p != nest.name:
                edges.append(DependenceEdge(p, nest.name, tname))
        for tname in nest.written_tensors():
            producer_of.setdefault(tname, nest.name)
    return edges


def test_dependence_edges_and_index_queries_match_reference_walk():
    programs = []
    for blocks in range(1, 9):
        for transposes in range(4):
            program = generate_resnet_analog(blocks, transposes, seed=1)
            programs += [
                program,
                run_dme(program).program,
                run_global_mapping(program)[0],
                run_local_baseline(program)[0],
            ]
    memcopy_edges = 0
    for program in programs:
        edges = dependence_edges(program)
        assert edges == _ref_dependence_edges(program)
        memcopy_edges += sum(e.consumer.startswith("bankfix_") for e in edges)
        producer = producers(program)
        index = UseDefIndex(program)
        for t in program.tensors:
            writers = [ni for ni, n in enumerate(program.nests) if t.name in n.written_tensors()]
            loads = [
                (ni, si)
                for ni, n in enumerate(program.nests)
                for si, s in enumerate(n.body)
                if isinstance(s, Load) and s.tensor == t.name
            ]
            assert producer.get(t.name) == (writers[0] if writers else None)
            assert list(index.loads_of(t.name)) == loads
    assert memcopy_edges > 0


def test_find_copy_pairs_transpose():
    program = parse(TRANSPOSE_SRC)
    pairs = find_copy_pairs(program)
    assert len(pairs) == 1
    assert pairs[0].nest == "tr"
    assert is_pure_copy_nest(program.nest("tr"))


def test_find_copy_pairs_compute_blocks():
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[4] @sbuf

nest ew kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %b[i0] = %w
}
"""
    assert find_copy_pairs(parse(src)) == []


@given(st.text(alphabet="abcdef", min_size=1, max_size=4))
@settings(max_examples=30)
def test_edges_invariant_under_value_renaming(prefix):
    program = parse(CHAIN_SRC)
    renamed = parse(CHAIN_SRC.replace("%v", f"%{prefix}x"))
    assert dependence_edges(program) == dependence_edges(renamed)
    assert [(p.nest,) for p in find_copy_pairs(program)] == [
        (p.nest,) for p in find_copy_pairs(renamed)
    ]
