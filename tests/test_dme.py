"""Copy-elimination pass: rewrites, skip reasons, fixpoint behaviour."""

import collections
import copy
from dataclasses import replace

import numpy as np
import pytest

import nestopt.dme
from nestopt.bankmap import AnchorRegistry, run_global_mapping, run_local_baseline
from nestopt.dme import DmeResult, SkipReason, UseDefIndex, run_dme, try_eliminate_pair
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.interp import equivalent
from nestopt.ir import Load, Program, find_copy_pairs, validate
from nestopt.textual import parse, print_program


def pair_for(program, nest_name):
    return next(p for p in find_copy_pairs(program) if p.nest == nest_name)


TRANSPOSE_COPY = """\
tensor %t0 : 4x[2, 3] @dram input
tensor %t1 : 4x[3, 2] @sbuf
tensor %y : 4x[3, 2] @dram output

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %t0[i0, i1]
  store %t1[i1, i0] = %v
}

nest use kind=elementwise (i0 in 0..3, i1 in 0..2) {
  %v = load %t1[i0, i1]
  %w = neg %v
  store %y[i0, i1] = %w
}
"""


def test_eliminate_transpose_rewrites_consumer():
    program = parse(TRANSPOSE_COPY)
    out, record = try_eliminate_pair(program, pair_for(program, "tr"))
    assert record.eliminated
    assert record.tensor == "t1"
    assert record.rewritten_loads == 1
    assert record.bytes == 4 * 6
    assert "t1" not in out.tensor_map
    assert [n.name for n in out.nests] == ["use"]
    load = next(s for s in out.nest("use").body if isinstance(s, Load))
    assert load.tensor == "t0"
    # consumer now reads t0[i1, i0]
    assert load.access.evaluate((1, 0)) == (0, 1)
    assert validate(out) == []
    assert equivalent(program, out, trials=3, seed=0).equivalent


def test_eliminate_strided_slice_checked_by_interpreter():
    src = """\
tensor %t0 : 4x[8] @dram input
tensor %t1 : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest sl kind=strided_slice (i0 in 0..4) {
  %v = load %t0[2*i0]
  store %t1[i0] = %v
}

nest use kind=elementwise (i0 in 0..4) {
  %v = load %t1[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    out, record = try_eliminate_pair(program, pair_for(program, "sl"))
    assert record.eliminated
    load = next(s for s in out.nest("use").body if isinstance(s, Load))
    assert load.tensor == "t0"
    assert [load.access.evaluate((i,)) for i in range(4)] == [(0,), (2,), (4,), (6,)]
    assert equivalent(program, out, trials=4, seed=1).equivalent


def test_collision_skipped_not_invertible():
    src = """\
tensor %t0 : 4x[2, 2] @dram input
tensor %t1 : 4x[3] @sbuf
tensor %y : 4x[3] @dram output

nest bad kind=other (i0 in 0..2, i1 in 0..2) {
  %v = load %t0[i0, i1]
  store %t1[i0 + i1] = %v
}

nest use kind=elementwise (i0 in 0..3) {
  %v = load %t1[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    out, record = try_eliminate_pair(program, pair_for(program, "bad"))
    assert out == program
    assert record.skipped is SkipReason.NOT_INVERTIBLE


def test_partial_cover_skipped():
    src = """\
tensor %t0 : 4x[4] @dram input
tensor %t1 : 4x[10] @sbuf
tensor %y : 4x[4] @dram output

nest partial kind=copy (i0 in 0..4) {
  %v = load %t0[i0]
  store %t1[i0] = %v
}

nest use kind=elementwise (i0 in 0..4) {
  %v = load %t1[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    _, record = try_eliminate_pair(program, pair_for(program, "partial"))
    assert record.skipped is SkipReason.NOT_TOTAL_COVER


def test_model_output_never_eliminated():
    src = """\
tensor %t0 : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest out kind=copy (i0 in 0..4) {
  %v = load %t0[i0]
  store %y[i0] = %v
}
"""
    program = parse(src)
    _, record = try_eliminate_pair(program, pair_for(program, "out"))
    assert record.skipped is SkipReason.ESCAPING_OUTPUT


def test_unrepresentable_composition_skipped():
    # consumer reads the flattened tensor through a floordiv: the rewrite
    # would need a depth-two expression
    src = """\
tensor %t0 : 4x[3, 4] @dram input
tensor %t1 : 4x[12] @sbuf
tensor %y : 4x[24] @dram output

nest flat kind=reshape (i0 in 0..3, i1 in 0..4) {
  %v = load %t0[i0, i1]
  store %t1[4*i0 + i1] = %v
}

nest use kind=elementwise (i0 in 0..24) {
  %v = load %t1[(i0) floordiv 2]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    out, record = try_eliminate_pair(program, pair_for(program, "flat"))
    assert out == program
    assert record.skipped is SkipReason.COMPOSITION_UNREPRESENTABLE
    assert record.detail == "rewritten load in nest 'use' left the expression language"


def test_unrepresentable_store_to_load_map_skipped():
    # the pair's own load reads through a floordiv, and the flatten's
    # inverse feeds it a mod: the store-to-load map needs depth two
    src = """\
tensor %t0 : 4x[2, 3] @dram input
tensor %t1 : 4x[12] @sbuf
tensor %y : 4x[12] @dram output

nest flat kind=reshape (i0 in 0..3, i1 in 0..4) {
  %v = load %t0[(i1) floordiv 2, i0]
  store %t1[4*i0 + i1] = %v
}

nest use kind=elementwise (i0 in 0..12) {
  %v = load %t1[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    out, record = try_eliminate_pair(program, pair_for(program, "flat"))
    assert out == program
    assert record.skipped is SkipReason.COMPOSITION_UNREPRESENTABLE
    assert record.detail == "store-to-load map left the expression language"


def test_tabulated_inverse_skipped():
    src = """\
tensor %t0 : 4x[2, 2] @dram input
tensor %t1 : 4x[2, 2] @sbuf
tensor %y : 4x[2, 2] @dram output

nest weird kind=other (i0 in 0..2, i1 in 0..2) {
  %v = load %t0[i0, i1]
  store %t1[(i0 + i1) mod 2, i1] = %v
}

nest use kind=elementwise (i0 in 0..2, i1 in 0..2) {
  %v = load %t1[i0, i1]
  %w = neg %v
  store %y[i0, i1] = %w
}
"""
    program = parse(src)
    _, record = try_eliminate_pair(program, pair_for(program, "weird"))
    assert record.skipped is SkipReason.COMPOSITION_UNREPRESENTABLE
    assert record.detail == "store map is invertible only by tabulation"


def test_store_whose_inverse_box_passes_the_cap_is_skipped():
    # 8 points, but the store's image spans (2^20 + 1)^3 cells; ``validate``
    # rejects %t, so only a direct caller of run_dme can reach this
    src = """\
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
    result = run_dme(parse(src))
    assert result.eliminated == ()
    record = next(r for r in result.skipped if r.tensor == "t")
    assert record.skipped is SkipReason.NOT_INVERTIBLE
    assert record.detail == f"image's bounding box too large for an inverse's domain ({1048577 ** 3} points)"


THREE_TRANSPOSES = """\
tensor %t0 : 4x[2, 3] @dram input
tensor %t1 : 4x[3, 2] @sbuf
tensor %t2 : 4x[2, 3] @sbuf
tensor %t3 : 4x[3, 2] @sbuf
tensor %y : 4x[3, 2] @dram output

nest tr1 kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %t0[i0, i1]
  store %t1[i1, i0] = %v
}

nest tr2 kind=transpose (i0 in 0..3, i1 in 0..2) {
  %v = load %t1[i0, i1]
  store %t2[i1, i0] = %v
}

nest tr3 kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %t2[i0, i1]
  store %t3[i1, i0] = %v
}

nest use kind=elementwise (i0 in 0..3, i1 in 0..2) {
  %v = load %t3[i0, i1]
  %w = neg %v
  store %y[i0, i1] = %w
}
"""


def test_chain_of_three_transposes_fully_eliminated():
    program = parse(THREE_TRANSPOSES)
    result = run_dme(program)
    assert len(result.eliminated) == 3
    assert [n.name for n in result.program.nests] == ["use"]
    load = next(s for s in result.program.nest("use").body if isinstance(s, Load))
    assert load.tensor == "t0"
    # three swaps compose to one swap: consumer (i0, i1) reads t0[i1, i0]
    for i0 in range(3):
        for i1 in range(2):
            assert load.access.evaluate((i0, i1)) == (i1, i0)
    assert equivalent(program, result.program, trials=3, seed=2).equivalent


def test_no_pairs_is_identity():
    src = """\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    program = parse(src)
    result = run_dme(program)
    assert result.program == program
    assert result.records == ()


def test_generated_chain_eliminates_all_but_colliders():
    program = generate_wavenet_analog(8, 1, seed=3)
    assert validate(program) == []
    assert len(find_copy_pairs(program)) == 8
    result = run_dme(program)
    assert len(result.eliminated) == 7
    assert [r.skipped for r in result.skipped] == [SkipReason.NOT_INVERTIBLE]
    assert result.skipped[0].detail == "collision: f(0, 1) == f(1, 0) == (1,)"
    assert validate(result.program) == []
    assert equivalent(program, result.program, trials=3, seed=4).equivalent


@pytest.mark.parametrize("seed", range(12))
def test_dme_semantic_preservation_randomized(seed):
    program = generate_wavenet_analog(3 + seed % 4, seed % 2, seed=seed)
    result = run_dme(program)
    assert validate(result.program) == []
    res = equivalent(program, result.program, trials=3, seed=seed)
    assert res.equivalent, res.counterexample


def test_dme_idempotent_and_bounded():
    program = generate_wavenet_analog(6, 1, seed=9)
    first = run_dme(program)
    assert first.sweeps <= len(program.tensors)
    second = run_dme(first.program)
    assert second.program == first.program
    assert second.eliminated == ()


def test_eliminated_bytes_match_footprint_drop():
    program = generate_wavenet_analog(10, 2, seed=5)
    result = run_dme(program)
    def intermediate_bytes(p):
        from nestopt.ir import Origin
        return sum(t.footprint_bytes for t in p.tensors if t.origin is Origin.INTERMEDIATE)
    drop = intermediate_bytes(program) - intermediate_bytes(result.program)
    assert drop == result.eliminated_bytes


# ---------------------------------------------------------------------------
# The worklist against the restart-from-the-first-pair loop it replaces


def _restart_dme(program):
    """Reference: after each elimination, sweep again from the first pair."""
    records = []
    sweeps = 0
    while True:
        sweeps += 1
        sweep_skips = []
        for pair in find_copy_pairs(program):
            updated, record = try_eliminate_pair(program, pair)
            if record.eliminated:
                program = updated
                records.append(record)
                break
            sweep_skips.append(record)
        else:
            return DmeResult(program, tuple(records + sweep_skips), sweeps)


def assert_matches_restart(program):
    result = run_dme(program)
    reference = _restart_dme(program)
    assert result.program == reference.program
    assert result.records == reference.records
    assert result.sweeps == reference.sweeps == len(result.eliminated) + 1
    return result


def test_worklist_matches_restart_on_criterion_7_corpus():
    for seed in range(100):
        assert_matches_restart(generate_wavenet_analog(1 + seed % 8, seed % 2, seed=1000 + seed))
        assert_matches_restart(generate_resnet_analog(1 + seed % 4, seed % 4, seed=seed))


def test_worklist_matches_restart_after_bank_mapping():
    # the mapped programs hold memcopies, which block the pairs they read
    registry = AnchorRegistry.default()
    blocked = 0
    for seed in range(8):
        program = generate_resnet_analog(2 + seed % 3, 1 + seed % 3, seed=seed)
        for mapped in (run_global_mapping(program, registry)[0], run_local_baseline(program, registry)[0]):
            result = assert_matches_restart(mapped)
            blocked += sum(r.detail.endswith("feeds a memcopy") for r in result.skipped)
    assert blocked > 0


@pytest.mark.parametrize("seed", [3, 8])
def test_worklist_matches_restart_on_long_chain(seed):
    result = assert_matches_restart(generate_wavenet_analog(200, 20, seed=seed))
    assert len(result.skipped) == 20


# 'flat' is skipped at first: its map cannot route the floordiv read in
# 'rep'.  Eliminating 'rep' replaces that read with the one in 'use', which
# it can route, so 'flat' goes on the next sweep, before 'cp'.
UPSTREAM_UNBLOCKED = """\
tensor %t0 : 4x[3, 4] @dram input
tensor %t1 : 4x[12] @sbuf
tensor %t2 : 4x[24] @sbuf
tensor %t3 : 4x[3, 4] @sbuf
tensor %y : 4x[12] @dram output

nest flat kind=reshape (i0 in 0..3, i1 in 0..4) {
  %v = load %t0[i0, i1]
  store %t1[4*i0 + i1] = %v
}

nest rep kind=repeat (i0 in 0..24) {
  %v = load %t1[(i0) floordiv 2]
  store %t2[i0] = %v
}

nest cp kind=copy (i0 in 0..3, i1 in 0..4) {
  %v = load %t0[i0, i1]
  store %t3[i0, i1] = %v
}

nest use kind=elementwise (i0 in 0..12) {
  %v = load %t2[2*i0]
  %u = load %t3[(i0) floordiv 4, (i0) mod 4]
  %w = add %v %u
  store %y[i0] = %w
}
"""

# 'gather' is skipped at first: its load composed with the inverse of its
# flattening store leaves the expression language.  'split' is skipped
# until 'rep' goes (as 'flat' above); eliminating 'split' then rewrites
# the load of 'gather' to t0[i0 + 6*i1], whose composition is symbolic.
LOAD_REWRITE_UNBLOCKED = """\
tensor %t0 : 4x[12, 2, 2] @dram input
tensor %t1 : 4x[3, 4, 4] @sbuf
tensor %t2 : 4x[12] @sbuf
tensor %t3 : 4x[3, 4, 8] @sbuf
tensor %y1 : 4x[3, 4, 4] @dram output
tensor %y2 : 4x[12] @dram output

nest split kind=reshape (i0 in 0..3, i1 in 0..4, i2 in 0..4) {
  %v = load %t0[4*i0 + i1, (i2) floordiv 2, (i2) mod 2]
  store %t1[i0, i1, i2] = %v
}

nest gather kind=other (i0 in 0..6, i1 in 0..2) {
  %v = load %t1[(i0 + 6*i1) floordiv 4, (i0 + 6*i1) mod 4, 0]
  store %t2[2*i0 + i1] = %v
}

nest rep kind=repeat (i0 in 0..3, i1 in 0..4, i2 in 0..8) {
  %v = load %t1[i0, i1, (i2) floordiv 2]
  store %t3[i0, i1, i2] = %v
}

nest use1 kind=elementwise (i0 in 0..3, i1 in 0..4, i2 in 0..4) {
  %v = load %t3[i0, i1, 2*i2]
  %w = neg %v
  store %y1[i0, i1, i2] = %w
}

nest use2 kind=elementwise (i0 in 0..12) {
  %v = load %t2[i0]
  %w = neg %v
  store %y2[i0] = %w
}
"""


@pytest.mark.parametrize(
    "src, first_skips, order",
    [
        (UPSTREAM_UNBLOCKED, ["t1"], ["t2", "t1", "t3"]),
        (LOAD_REWRITE_UNBLOCKED, ["t1", "t2"], ["t3", "t1", "t2"]),
    ],
)
def test_skip_flips_after_later_elimination(src, first_skips, order):
    program = parse(src)
    assert validate(program) == []
    first = [try_eliminate_pair(program, p)[1] for p in find_copy_pairs(program)]
    assert [r.tensor for r in first if not r.eliminated] == first_skips
    assert all(r.skipped is SkipReason.COMPOSITION_UNREPRESENTABLE for r in first if not r.eliminated)
    result = assert_matches_restart(program)
    assert [r.tensor for r in result.records] == order
    assert result.skipped == ()
    assert equivalent(program, result.program, trials=3, seed=0).equivalent


def test_reverse_runs_once_per_distinct_store_map(monkeypatch):
    program = generate_wavenet_analog(100, 10, seed=2)
    calls = collections.Counter()
    original = nestopt.dme.reverse

    def counting(m, *args, **kwargs):
        calls[m] += 1
        return original(m, *args, **kwargs)

    monkeypatch.setattr(nestopt.dme, "reverse", counting)
    result = run_dme(program)
    assert len(result.eliminated) == 90
    assert calls and max(calls.values()) == 1


def test_index_load_queries_follow_edits_in_program_order():
    program = generate_resnet_analog(3, 1, seed=1)
    index = UseDefIndex(program)
    loads = [
        ((ni, si), s) for ni, n in enumerate(program.nests) for si, s in enumerate(n.body) if isinstance(s, Load)
    ]
    (first_pos, first), (last_pos, last) = loads[0], loads[-1]
    assert first.tensor != last.tensor
    before = list(index.loads_of(last.tensor))
    # the program's first load now reads the tensor its last load reads
    index.replace_load(first_pos, Load(first.result, last.tensor, first.access))
    assert list(index.loads_of(last.tensor)) == [first_pos, *before]
    assert first_pos not in index.loads_of(first.tensor)
    index.remove_statement(last_pos)
    assert list(index.loads_of(last.tensor)) == [first_pos, *before[:-1]]


TWICE_STORED = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[4] @sbuf
tensor %s : 4x[4] @sbuf
tensor %y : 4x[4] @dram output
tensor %z : 4x[4] @dram output

nest twice kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %t[i0] = %v
  store %t[i0] = %v
}

nest once kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %s[i0] = %v
}

nest outs kind=copy (i0 in 0..4) {
  %v = load %t[i0]
  store %y[i0] = %v
  %w = load %s[i0]
  store %z[i0] = %w
}
"""


def test_equal_lines_parsed_as_one_statement_eliminate_as_distinct_ones():
    shared = parse(TWICE_STORED)
    twice, once, _ = shared.nests
    # parse gives equal lines under equal loops one statement object
    assert twice.body[1] is twice.body[2] and twice.body[0] is once.body[0]
    distinct = Program(
        shared.tensors,
        tuple(replace(n, body=tuple(copy.copy(s) for s in n.body)) for n in shared.nests),
    )
    assert distinct == shared and distinct.nests[0].body[1] is not distinct.nests[0].body[2]
    tried = []
    for program in (shared, distinct):
        outcomes = []
        for pair in find_copy_pairs(program):
            after, record = try_eliminate_pair(program, pair)
            outcomes.append((pair.nest, record, print_program(after)))
        tried.append(outcomes)
    assert tried[0] == tried[1]
    reasons = [(nest, r.tensor, r.skipped) for nest, r, _ in tried[0]]
    assert reasons == [
        ("twice", "t", SkipReason.NOT_TOTAL_COVER),
        ("twice", "t", SkipReason.NOT_TOTAL_COVER),
        ("once", "s", None),
        ("outs", "y", SkipReason.ESCAPING_OUTPUT),
        ("outs", "z", SkipReason.ESCAPING_OUTPUT),
    ]
    assert run_dme(shared) == run_dme(distinct)
    assert equivalent(shared, run_dme(shared).program).equivalent
