"""Interpreter semantics against hand-executed oracles."""

import re

import numpy as np
import pytest

from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.interp import (
    INPUT_RANGE,
    TRIALS_LIMIT,
    BufferTooLarge,
    EquivalenceResult,
    InterpError,
    PoisonRead,
    TensorStore,
    equivalent,
    random_inputs,
    run,
)
from nestopt.ir import Load, Memcopy, Origin, Store, validate
from nestopt.textual import parse


def store_of(**arrays):
    return TensorStore({k: np.array(v, dtype=np.int64) for k, v in arrays.items()})


def test_transpose_of_ramp():
    src = """\
tensor %a : 4x[2, 3] @dram input
tensor %b : 4x[3, 2] @dram output

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %a[i0, i1]
  store %b[i1, i0] = %v
}
"""
    program = parse(src)
    assert validate(program) == []
    ramp = np.arange(6).reshape(2, 3)
    out = run(program, store_of(a=ramp))
    assert np.array_equal(out.array("b"), ramp.T)


def test_repeat_hand_executed():
    # store [4*i0 + i1], load [i1] over [0,2)x[0,4): each input cell lands twice
    src = """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[8] @dram output

nest rep kind=repeat (i0 in 0..2, i1 in 0..4) {
  %v = load %a[i1]
  store %b[4*i0 + i1] = %v
}
"""
    program = parse(src)
    inputs = [10, 11, 12, 13]
    # independent oracle: execute the 8 iterations literally
    expected = [0] * 8
    for i0 in range(2):
        for i1 in range(4):
            expected[4 * i0 + i1] = inputs[i1]
    assert expected == [10, 11, 12, 13, 10, 11, 12, 13]
    out = run(program, store_of(a=inputs))
    assert out.array("b").tolist() == expected


def test_empty_program_returns_nothing_and_preserves_inputs():
    program = parse("tensor %a : 4x[4] @dram input\n")
    inputs = store_of(a=[1, 2, 3, 4])
    out = run(program, inputs)
    assert out.names() == set()
    assert inputs.array("a").tolist() == [1, 2, 3, 4]


def test_inputs_must_match_declarations():
    program = parse("tensor %a : 4x[4] @dram input\n")
    with pytest.raises(InterpError):
        run(program, store_of(b=[1]))
    with pytest.raises(InterpError):
        run(program, store_of(a=[1, 2]))


def test_poison_read_of_partially_written_tensor():
    src = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest half kind=strided_slice (i0 in 0..4) {
  %v = load %a[i0]
  store %t[2*i0] = %v
}

nest all kind=copy (i0 in 0..8) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""
    program = parse(src)
    assert validate(program) == []
    with pytest.raises(PoisonRead) as err:
        run(program, store_of(a=[1, 2, 3, 4]))
    assert "t" in str(err.value)


def test_memcopy_execution():
    src = """\
tensor %a : 4x[2, 2] @dram input
tensor %t : 4x[2, 2] @sbuf
tensor %u : 4x[2, 2] @sbuf
tensor %y : 4x[2, 2] @dram output

nest stage kind=copy (i0 in 0..2, i1 in 0..2) {
  %v = load %a[i0, i1]
  store %t[i0, i1] = %v
}

nest fix kind=copy (i0 in 0..2, i1 in 0..2) {
  memcopy %u <- %t
}

nest out kind=copy (i0 in 0..2, i1 in 0..2) {
  %v = load %u[i0, i1]
  store %y[i0, i1] = %v
}
"""
    program = parse(src)
    assert validate(program) == []
    data = np.array([[5, 6], [7, 8]])
    out = run(program, store_of(a=data))
    assert np.array_equal(out.array("y"), data)


def test_overlapping_writes_follow_statement_order():
    # two stores to one tensor: final cells follow lexicographic per-point
    # execution.  Oracle below executes the loop literally.
    src = """\
tensor %a : 4x[2] @dram input
tensor %b : 4x[2] @dram input
tensor %t : 4x[2] @dram output

nest clash kind=other (i0 in 0..2) {
  %v = load %a[i0]
  %w = load %b[i0]
  store %t[i0] = %v
  store %t[1 - i0] = %w
}
"""
    program = parse(src)
    assert validate(program) == []
    a, b = [10, 20], [30, 40]
    t = [0, 0]
    for i in range(2):
        t[i] = a[i]
        t[1 - i] = b[i]
    out = run(program, store_of(a=a, b=b))
    assert out.array("t").tolist() == t == [40, 20]


def test_unknown_opcode_rejected_at_runtime():
    from nestopt.affine import IntBox, affine_map, variables
    from nestopt.ir import Compute, Load, OperatorNest, Origin, Program, Store, TensorDecl

    box = IntBox.from_extents(2)
    ident = affine_map(box, variables(1))
    program = Program(
        (
            TensorDecl("a", 4, (2,), origin=Origin.MODEL_INPUT),
            TensorDecl("y", 4, (2,), origin=Origin.MODEL_OUTPUT),
        ),
        (
            OperatorNest(
                "n",
                "other",
                box,
                (Load("v", "a", ident), Compute("w", "fma", ("v", "v")), Store("y", ident, "w")),
            ),
        ),
    )
    with pytest.raises(InterpError) as err:
        run(program, store_of(a=[1, 2]))
    assert "fma" in str(err.value)


def test_equivalent_reflexive():
    src = """\
tensor %a : 4x[3] @dram input
tensor %y : 4x[3] @dram output

nest n kind=elementwise (i0 in 0..3) {
  %v = load %a[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    p = parse(src)
    assert equivalent(p, p, trials=3, seed=1).equivalent


def test_double_transpose_equivalent_to_copy():
    twice = parse(
        """\
tensor %a : 4x[2, 2] @dram input
tensor %t : 4x[2, 2] @sbuf
tensor %y : 4x[2, 2] @dram output

nest t1 kind=transpose (i0 in 0..2, i1 in 0..2) {
  %v = load %a[i0, i1]
  store %t[i1, i0] = %v
}

nest t2 kind=transpose (i0 in 0..2, i1 in 0..2) {
  %v = load %t[i0, i1]
  store %y[i1, i0] = %v
}
"""
    )
    copy = parse(
        """\
tensor %a : 4x[2, 2] @dram input
tensor %y : 4x[2, 2] @dram output

nest c kind=copy (i0 in 0..2, i1 in 0..2) {
  %v = load %a[i0, i1]
  store %y[i0, i1] = %v
}
"""
    )
    res = equivalent(twice, copy, trials=4, seed=3)
    assert res.equivalent


def test_copy_vs_negate_not_equivalent():
    copy = parse(
        """\
tensor %a : 4x[3] @dram input
tensor %y : 4x[3] @dram output

nest c kind=copy (i0 in 0..3) {
  %v = load %a[i0]
  store %y[i0] = %v
}
"""
    )
    neg = parse(
        """\
tensor %a : 4x[3] @dram input
tensor %y : 4x[3] @dram output

nest n kind=elementwise (i0 in 0..3) {
  %v = load %a[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""
    )
    res = equivalent(copy, neg, trials=4, seed=0)
    assert not res.equivalent
    assert res.counterexample is not None
    assert res.counterexample.tensor == "y"


def test_run_is_deterministic():
    src = """\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest n kind=elementwise (i0 in 0..4) {
  %v = load %a[i0]
  %w = add %v %v
  store %y[i0] = %w
}
"""
    p = parse(src)
    s = store_of(a=[1, -2, 3, -4])
    assert np.array_equal(run(p, s).array("y"), run(p, s).array("y"))


def test_equivalent_refuses_fewer_than_one_trial():
    p = parse("tensor %a : 4x[2] @dram input\ntensor %y : 4x[2] @dram output\n")
    for trials in (0, -2):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            equivalent(p, p, trials=trials)


def test_equivalent_refuses_a_negative_seed_before_running(monkeypatch):
    import nestopt.interp

    def unreachable(*args):
        raise AssertionError("ran a program")

    monkeypatch.setattr(nestopt.interp, "run", unreachable)
    p = parse("tensor %a : 4x[2] @dram input\ntensor %y : 4x[2] @dram output\n")
    for seed in (-1, -7):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}$"):
            equivalent(p, p, seed=seed)


def test_equivalent_refuses_more_trials_than_its_limit_before_drawing(monkeypatch):
    import nestopt.interp

    def unreachable(*args):
        raise AssertionError("drew inputs")

    monkeypatch.setattr(nestopt.interp, "random_inputs", unreachable)
    p = parse("tensor %a : 4x[2] @dram input\ntensor %y : 4x[2] @dram output\n")
    for trials in (TRIALS_LIMIT + 1, 1 << 40):
        with pytest.raises(ValueError, match=f"trials must be <= {TRIALS_LIMIT}, got {trials}$"):
            equivalent(p, p, trials=trials)


def test_equivalent_reads_the_trial_limit_at_call_time(monkeypatch):
    import nestopt.interp

    monkeypatch.setattr(nestopt.interp, "TRIALS_LIMIT", 3)
    p = parse(COPY_A_TO_Y)
    assert equivalent(p, p, trials=3) == EquivalenceResult(True, 3, None)
    with pytest.raises(ValueError, match="trials must be <= 3, got 4$"):
        equivalent(p, p, trials=4)


def test_equivalent_names_the_side_whose_run_raised():
    half = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest w kind=copy (i0 in 0..{n}) {{
  %v = load %a[i0]
  store %t[i0] = %v
}}

nest r kind=copy (i0 in 0..4) {{
  %v = load %t[i0]
  store %y[i0] = %v
}}
"""
    good, bad = parse(half.format(n=4)), parse(half.format(n=2))
    for left, right, side in ((bad, good, 0), (good, bad, 1), (bad, bad, 0)):
        with pytest.raises(PoisonRead) as exc:
            equivalent(left, right)
        assert exc.value.side == side
    interfaces = parse("tensor %b : 4x[4] @dram input\ntensor %y : 4x[4] @dram output\n")
    with pytest.raises(InterpError) as exc:
        equivalent(good, interfaces)
    assert exc.value.side is None


COPY_A_TO_Y = """\
tensor %a : 4x[4] @dram input
tensor %y : 4x[4] @dram output

nest c kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %y[i0] = %v
}
"""


def test_buffer_limit_is_checked_before_inputs_are_drawn(monkeypatch):
    import nestopt.interp

    small = parse(COPY_A_TO_Y)
    # an unused 8-cell intermediate: the largest buffer, 64 bytes a trial
    big = parse("tensor %t : 4x[8] @sbuf\n" + COPY_A_TO_Y)
    monkeypatch.setattr(nestopt.interp, "BUFFER_BYTES", 3 * 64)
    assert equivalent(small, big, trials=3).equivalent
    assert run(big, TensorStore.stack([nestopt.interp.random_inputs(big, 0, k) for k in range(3)]))

    def unreachable(*args):
        raise AssertionError("drew inputs")

    message = re.escape("tensor 't' needs 256 bytes for 4 trial(s), over the interpreter's limit of 192")
    inputs = TensorStore.stack([nestopt.interp.random_inputs(big, 0, k) for k in range(4)])
    with pytest.raises(BufferTooLarge, match=message):
        run(big, inputs)
    monkeypatch.setattr(nestopt.interp, "random_inputs", unreachable)
    for left, right, side in ((small, big, 1), (big, small, 0)):
        with pytest.raises(BufferTooLarge, match=message) as exc:
            equivalent(left, right, trials=4)
        assert exc.value.side == side


# COPY_A_TO_Y's copy spread over a 4x4x4 box: 64 points of 3 coordinates,
# 1536 bytes of points; one statement's values take 512 bytes a trial
SPREAD_COPY = COPY_A_TO_Y.replace("(i0 in 0..4)", "(i0 in 0..4, i1 in 0..4, i2 in 0..4)")


def test_box_limit_is_checked_before_inputs_are_drawn_or_points_built(monkeypatch):
    import nestopt.interp

    small, spread = parse(COPY_A_TO_Y), parse(SPREAD_COPY)
    monkeypatch.setattr(nestopt.interp, "BUFFER_BYTES", 1536)
    assert equivalent(small, spread, trials=3).equivalent
    assert equivalent(small, spread, trials=1).equivalent

    def unreachable(*args):
        raise AssertionError("drew inputs or built points")

    inputs = TensorStore.stack([nestopt.interp.random_inputs(spread, 0, k) for k in range(4)])
    message = re.escape(
        "nest 'c' has 64 points, whose arrays need 2048 bytes for 4 trial(s), "
        "over the interpreter's limit of 1536"
    )
    nestopt.interp._point_cache.clear()
    monkeypatch.setattr(nestopt.interp.IntBox, "points_array", unreachable)
    with pytest.raises(BufferTooLarge, match=message):
        run(spread, inputs)
    monkeypatch.setattr(nestopt.interp, "random_inputs", unreachable)
    for left, right, side in ((small, spread, 1), (spread, small, 0)):
        with pytest.raises(BufferTooLarge, match=message) as exc:
            equivalent(left, right, trials=4)
        assert exc.value.side == side
    # with one trial the point array is the larger one
    monkeypatch.setattr(nestopt.interp, "BUFFER_BYTES", 1535)
    with pytest.raises(BufferTooLarge, match=re.escape("need 1536 bytes for 1 trial(s)")) as exc:
        equivalent(small, spread, trials=1)
    assert exc.value.side == 1


def test_stacked_run_keeps_each_trial_apart():
    src = """\
tensor %a : 4x[2, 3] @dram input
tensor %y : 4x[3, 2] @dram output

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %a[i0, i1]
  %w = neg %v
  store %y[i1, i0] = %w
}
"""
    program = parse(src)
    trials = [store_of(a=np.arange(6).reshape(2, 3) + 10 * k) for k in range(3)]
    out = run(program, TensorStore.stack(trials))
    assert out.trials == 3 and out.array("y").shape == (3, 3, 2)
    for k, single in enumerate(trials):
        assert np.array_equal(out.array("y")[k], run(program, single).array("y"))
    with pytest.raises(InterpError):
        TensorStore.stack([trials[0], store_of(b=[1])])


def test_non_injective_store_keeps_the_last_point():
    # cell k is written at points 2k and 2k+1; a literal walk leaves a[2k+1]
    src = """\
tensor %a : 4x[8] @dram input
tensor %t : 4x[4] @dram output

nest fold kind=other (i0 in 0..8) {
  %v = load %a[i0]
  store %t[(i0) floordiv 2] = %v
}
"""
    program = parse(src)
    assert validate(program) == []
    out = run(program, store_of(a=[5, 4, 3, 2, 1, 0, -1, -2]))
    assert out.array("t").tolist() == [4, 2, 0, -2]


def test_nest_that_reads_what_it_writes_is_refused():
    src = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest first kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %t[i0] = %v
}

nest shift kind=other (i0 in 0..3) {
  %v = load %t[i0]
  store %t[i0 + 1] = %v
}

nest out kind=copy (i0 in 0..4) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""
    program = parse(src)
    assert validate(program) != []
    with pytest.raises(InterpError, match="nest 'shift' reads tensors it writes"):
        run(program, store_of(a=[1, 2, 3, 4]))


def test_out_of_bounds_error_names_nest_statement_tensor_and_first_point():
    src = """\
tensor %a : 4x[2, 3] @dram input
tensor %y : 4x[2, 3] @dram output

nest shift kind=other (i0 in 0..2, i1 in 0..3) {
  %v = load %a[i0, i1]
  %w = neg %v
  store %y[i0, i1 + 1] = %w
}
"""
    with pytest.raises(InterpError) as err:
        run(parse(src), store_of(a=np.zeros((2, 3))))
    message = str(err.value)
    assert "nest 'shift'" in message
    assert "statement 2" in message
    assert "'y'" in message
    # (0, 2) is the first point in lexicographic order that leaves the box
    assert "at point (0, 2)" in message
    assert "index (0, 3)" in message


PARTIAL_T = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest half kind=strided_slice (i0 in 0..4) {
  %v = load %a[i0]
  store %t[2*i0] = %v
}
"""


def test_poison_read_names_nest_statement_tensor_and_first_point():
    program = parse(
        PARTIAL_T
        + """
nest all kind=elementwise (i0 in 0..8) {
  %v = load %a[(i0) floordiv 2]
  %u = load %t[i0]
  %w = add %v %u
  store %y[i0] = %w
}
"""
    )
    with pytest.raises(PoisonRead) as err:
        run(program, store_of(a=[1, 2, 3, 4]))
    message = str(err.value)
    assert "nest 'all'" in message
    assert "statement 1" in message
    assert "load reads unwritten cell of 't'" in message
    assert "at point (1,)" in message


def test_memcopy_poison_read_names_nest_statement_tensor_and_first_point():
    program = parse(
        PARTIAL_T
        + """
nest move kind=copy (i0 in 0..8) {
  memcopy %y <- %t
}
"""
    )
    with pytest.raises(PoisonRead) as err:
        run(program, store_of(a=[1, 2, 3, 4]))
    message = str(err.value)
    assert "nest 'move'" in message
    assert "statement 0" in message
    assert "memcopy reads unwritten cell of 't'" in message
    assert "at point (1,)" in message


def test_partly_written_output_names_its_first_unwritten_cell():
    src = """\
tensor %a : 4x[2] @dram input
tensor %y : 4x[2, 2] @dram output

nest diag kind=other (i0 in 0..2) {
  %v = load %a[i0]
  store %y[i0, i0] = %v
}
"""
    with pytest.raises(PoisonRead) as err:
        run(parse(src), store_of(a=[1, 2]))
    assert "model output 'y'" in str(err.value)
    assert "cell (0, 1)" in str(err.value)


def test_point_cache_stays_under_its_byte_cap(monkeypatch):
    from nestopt import interp
    from nestopt.generators import generate_resnet_analog, generate_wavenet_analog

    programs = [generate_wavenet_analog(4, 1, seed=s) for s in range(3)]
    programs += [generate_resnet_analog(2, 1, seed=s) for s in range(3)]
    interp._point_cache.clear()
    expected = [equivalent(p, p, trials=2, seed=1) for p in programs]
    expected_y = [run(p, interp.random_inputs(p, 4)).data for p in programs]

    # 13 distinct boxes of 64 to 1056 bytes: some never fit, the rest must evict
    cap = 1000
    monkeypatch.setattr(interp, "POINT_CACHE_BYTES", cap)
    interp._point_cache.clear()
    try:
        for p, want, want_y in zip(programs, expected, expected_y):
            assert equivalent(p, p, trials=2, seed=1) == want
            got = run(p, interp.random_inputs(p, 4)).data
            assert got.keys() == want_y.keys()
            assert all(np.array_equal(got[k], want_y[k]) for k in got)
            cached = interp._point_cache.arrays.values()
            assert interp._point_cache.nbytes == sum(a.nbytes for a in cached) <= cap
        boxes = {n.box for p in programs for n in p.nests}
        assert len(interp._point_cache.arrays) < len(boxes)
        assert sum(b.cardinality * b.ndim * 8 for b in boxes) > 2 * cap
    finally:
        interp._point_cache.clear()


def _index_keys(program):
    """Distinct (access, box, tensor shape) keys of the program's index uses, and the number of uses."""
    shapes = {t.name: t.shape for t in program.tensors}
    keys = []
    for nest in program.nests:
        for stmt in nest.body:
            if isinstance(stmt, (Load, Store)):
                keys.append((stmt.access, nest.box, shapes[stmt.tensor]))
            elif isinstance(stmt, Memcopy):
                keys.append((nest.identity, nest.box, shapes[stmt.src]))
                keys.append((nest.identity, nest.box, shapes[stmt.dst]))
    return set(keys), len(keys)


def test_run_computes_each_distinct_index_vector_once_per_call(monkeypatch):
    from nestopt import interp
    from nestopt.bankmap import run_local_baseline
    from nestopt.generators import generate_resnet_analog

    computed = []
    uncached = interp._flat_indices

    def counting_flat_indices(access, pts, decl, nest_name, si):
        flat = uncached(access, pts, decl, nest_name, si)
        computed.append(((access, pts.shape[0], decl.shape), flat))
        return flat

    monkeypatch.setattr(interp, "_flat_indices", counting_flat_indices)
    program = generate_resnet_analog(64, 3, seed=0)
    for p in (program, run_local_baseline(program)[0]):
        keys, uses = _index_keys(p)
        assert uses > 20 * len(keys)
        inputs = interp.random_inputs(p, 7)
        computed.clear()
        first = run(p, inputs)
        assert len(computed) == len(keys)
        assert {(a, b.cardinality, s) for a, b, s in keys} == {k for k, _ in computed}
        assert not any(flat.flags.writeable for _, flat in computed)
        # nothing outlives a call: a second run computes every vector again
        second = run(p, inputs)
        assert len(computed) == 2 * len(keys)
        assert all(np.array_equal(first.array(n), second.array(n)) for n in first.names())
    assert any(isinstance(s, Memcopy) for n in p.nests for s in n.body)


def test_run_checks_poison_and_scans_for_repeats_only_where_it_must(monkeypatch):
    from nestopt import interp
    from nestopt.bankmap import run_local_baseline
    from nestopt.generators import generate_resnet_analog

    checks, scans = [], []
    check_written, write_last = interp._check_written, interp._write_last

    def counting_check_written(mask, flat, pts, nest_name, si, verb, tensor):
        checks.append((nest_name, si))
        return check_written(mask, flat, pts, nest_name, si, verb, tensor)

    def counting_write_last(buf, mask, stmt_writes):
        scans.append(len(stmt_writes))
        return write_last(buf, mask, stmt_writes)

    monkeypatch.setattr(interp, "_check_written", counting_check_written)
    monkeypatch.setattr(interp, "_write_last", counting_write_last)
    program = generate_resnet_analog(8, 3, seed=0)
    for p in (program, run_local_baseline(program)[0]):
        checks.clear()
        scans.clear()
        run(p, random_inputs(p, 7))
        # every tensor is read only after one covering injective store has
        # landed, and every nest writes through one injective store
        assert sum(isinstance(s, (Load, Memcopy)) for n in p.nests for s in n.body) > len(p.nests)
        assert (checks, scans) == ([], [])
    # a store that reaches a cell twice takes the last-writer path, and the
    # tensor it leaves is not fully written by one injective store
    repeat = parse(REPEAT)
    run(repeat, random_inputs(repeat, 7))
    assert (checks, scans) == ([("rd", 0)], [1])
    checks.clear()
    scans.clear()
    halves = parse(HALVES)
    run(halves, random_inputs(halves, 7))
    assert (checks, scans) == ([("rd", 0)], [])


KEYS = """\
tensor %x : 4x[2, 3] @dram input
tensor %r : 4x[69] @dram input
tensor %p : 4x[8] @dram input
tensor %y : 4x[6] @dram output
tensor %b : 4x[3, 2] @dram output
tensor %q : 4x[69] @dram output
tensor %h : 4x[4] @dram output

nest flat kind=reshape (i0 in 0..2, i1 in 0..3) {
  %v = load %x[i0, i1]
  store %y[3*i0 + i1] = %v
}

nest tr kind=transpose (i0 in 0..2, i1 in 0..3) {
  %v = load %x[i0, i1]
  store %b[i1, i0] = %v
}

nest rev kind=copy (i0 in 0..69) {
  %v = load %r[-i0 + 68]
  store %q[i0] = %v
}

nest part kind=copy (i0 in 0..4) {
  %v = load %p[i0]
  store %h[i0] = %v
}
"""


def test_whole_keys_are_exactly_the_accesses_of_every_cell_in_order():
    from nestopt import interp

    program = parse(KEYS)
    assert validate(program) == []
    decls = program.tensor_map
    found = {}
    for nest in program.nests:
        pts = interp._point_cache.points(nest.box)
        for si, stmt in enumerate(nest.body):
            cells = interp._cells(stmt.access, pts, decls[stmt.tensor], nest.name, si)
            found[nest.name, si] = (cells.whole, cells.injective, cells.covers)
    assert found == {
        ("flat", 0): (True, True, True),  # identity at the origin
        ("flat", 1): (True, True, True),  # flatten into [6]
        ("tr", 0): (True, True, True),
        ("tr", 1): (False, True, True),  # transpose
        ("rev", 0): (False, True, True),  # reversed
        ("rev", 1): (True, True, True),
        ("part", 0): (False, True, False),  # half of 'p'
        ("part", 1): (True, True, True),
    }
    inputs = random_inputs(program, 3)
    out = run(program, inputs)
    x, r, p = (inputs.array(n) for n in ("x", "r", "p"))
    assert np.array_equal(out.array("y"), x.reshape(-1)) and np.array_equal(out.array("b"), x.T)
    assert np.array_equal(out.array("q"), r[::-1]) and np.array_equal(out.array("h"), p[:4])


def test_run_whose_keys_all_hit_and_reads_are_all_full_builds_no_points(monkeypatch):
    from nestopt import interp
    from nestopt.bankmap import run_local_baseline

    asked = []
    points = interp._point_cache.points

    def counting(box):
        asked.append(box)
        return points(box)

    monkeypatch.setattr(interp._point_cache, "points", counting)
    program = generate_resnet_analog(8, 3, seed=0)
    for p in (program, run_local_baseline(program)[0], parse(MEMCOPY_FULL)):
        inputs = random_inputs(p, 7)
        memo = {}
        first = run(p, inputs, _indices=memo)
        # one point array per key missed, none for the keys that hit
        assert 0 < len(asked) == len(memo) == len(_index_keys(p)[0])
        asked.clear()
        second = run(p, inputs, _indices=memo)
        assert asked == []
        assert all(np.array_equal(first.array(n), second.array(n)) for n in first.names())


SHARED_ACCESS = """\
tensor %x : 4x[8] @dram input
tensor %u : 4x[8] @dram output
tensor %w : 4x[{shape}] @dram output

nest big kind=copy (i0 in 0..8) {{
  %v = load %x[i0]
  store %u[i0] = %v
}}

nest small kind=copy (i0 in 0..8) {{
  %v = load %x[i0]
  store %w[i0] = %v
}}
"""


@pytest.mark.parametrize(
    "shape, message",
    [
        ("4", "nest 'small' statement 1: access to 'w' out of bounds at point (4,): index (4,) outside shape (4,)"),
        ("8, 1", "nest 'small' statement 1: access to 'w' has 1 indices, tensor has 2 dimensions"),
    ],
)
def test_error_of_a_shared_access_names_the_statement_that_first_fails(shape, message):
    # the same map over the same box passes into 'u' and fails into 'w', so
    # the tensor's shape must be part of the key the indices are shared by
    program = parse(SHARED_ACCESS.format(shape=shape))
    big, small = program.nests
    assert big.body[1].access == small.body[1].access and big.box == small.box
    with pytest.raises(InterpError) as err:
        run(program, store_of(x=np.arange(8)))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# what each access key's cells decide: fully written tensors, single
# injective stores, and the last-writer path

# 't' is written in two halves by two nests (validation calls that
# MultipleProducers; the interpreter runs it), then read whole
HALVES = """\
tensor %a : 4x[8] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest lo kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %t[i0] = %v
}

nest hi kind=elementwise (i0 in 4..8) {
  %v = load %a[i0]
  %w = neg %v
  store %t[i0] = %w
}

nest rd kind=elementwise (i0 in 0..8) {
  %v = load %t[i0]
  %u = load %a[i0]
  %w = mul %v %u
  store %y[i0] = %w
}
"""

# 't' gets its even cells only; 'rd' reads every cell
PART = """\
tensor %a : 4x[8] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest ev kind=copy (i0 in 0..4) {
  %v = load %a[2*i0]
  store %t[2*i0] = %v
}

nest rd kind=elementwise (i0 in 0..8) {
  %u = load %a[i0]
  %v = load %t[i0]
  %w = add %v %u
  store %y[i0] = %w
}
"""

# every cell of 't' is stored twice, by i0 = 0 and then by i0 = 1
REPEAT = """\
tensor %b : 4x[2, 8] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest rep kind=repeat (i0 in 0..2, i1 in 0..8) {
  %v = load %b[i0, i1]
  store %t[i1] = %v
}

nest rd kind=elementwise (i0 in 0..8) {
  %v = load %t[i0]
  %w = neg %v
  store %y[i0] = %w
}
"""

MEMCOPY_FULL = """\
tensor %a : 4x[4, 4] @dram input
tensor %s : 4x[4, 4] @sbuf
tensor %d : 4x[4, 4] @sbuf
tensor %y : 4x[4, 4] @dram output

nest tr kind=transpose (i0 in 0..4, i1 in 0..4) {
  %v = load %a[i0, i1]
  store %s[i1, i0] = %v
}

nest cp kind=copy (i0 in 0..4, i1 in 0..4) {
  memcopy %d <- %s
}

nest rd kind=elementwise (i0 in 0..4, i1 in 0..4) {
  %v = load %d[i0, i1]
  %u = load %a[i0, i1]
  %w = max %v %u
  store %y[i0, i1] = %w
}
"""

# 's' gets its first two rows only
MEMCOPY_PART = MEMCOPY_FULL.replace(
    "nest tr kind=transpose (i0 in 0..4, i1 in 0..4) {\n  %v = load %a[i0, i1]\n  store %s[i1, i0] = %v",
    "nest tr kind=copy (i0 in 0..2, i1 in 0..4) {\n  %v = load %a[i0, i1]\n  store %s[i0, i1] = %v",
)


@pytest.mark.parametrize("src", [HALVES, REPEAT, MEMCOPY_FULL], ids=["halves", "repeat", "memcopy_full"])
def test_fully_written_reads_match_the_literal_walk(src):
    from test_stress import ref_run

    program = parse(src)
    for seed in range(3):
        inputs = TensorStore.stack([random_inputs(program, seed, k) for k in range(2)])
        out = run(program, inputs)
        for k in range(2):
            single = random_inputs(program, seed, k)
            ref = ref_run(program, {n: single.array(n) for n in single.names()})
            assert np.array_equal(out.array("y")[k], ref["y"])


@pytest.mark.parametrize(
    "src, message",
    [
        (PART, "nest 'rd' statement 1: load reads unwritten cell of 't' at point (1,)"),
        (MEMCOPY_PART, "nest 'cp' statement 0: memcopy reads unwritten cell of 's' at point (2, 0)"),
    ],
    ids=["load", "memcopy"],
)
def test_read_of_a_tensor_written_in_part_names_the_first_unwritten_point(src, message):
    # the texts are those of the interpreter before it kept fully written tensors
    program = parse(src)
    assert validate(program) == []
    with pytest.raises(PoisonRead) as err:
        run(program, random_inputs(program, 0))
    assert str(err.value) == message
    with pytest.raises(PoisonRead) as err:
        equivalent(program, program, trials=3, seed=1)
    assert str(err.value) == message and err.value.side == 0


def test_equivalent_checks_each_programs_sizes_once(monkeypatch):
    from nestopt import interp

    checked = []
    uncounted = interp._check_buffer_sizes

    def counting(program, trials):
        checked.append(program)
        return uncounted(program, trials)

    monkeypatch.setattr(interp, "_check_buffer_sizes", counting)
    left, right = parse(COPY_A_TO_Y), parse("tensor %t : 4x[8] @sbuf\n" + COPY_A_TO_Y)
    assert equivalent(left, right, trials=3).equivalent
    assert checked == [left, right]
    checked.clear()
    run(right, random_inputs(right, 0))
    assert checked == [right]


SHRUNK_T = """\
tensor %x : 4x[8] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest a kind=copy (i0 in 0..8) {
  %v = load %x[i0]
  store %t[i0] = %v
}

nest b kind=copy (i0 in 0..8) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""


def test_equivalent_index_key_that_fails_only_on_the_right_names_the_right_side():
    # every access of the left program has the one key (i0 over 0..8, shape
    # (8,)), which the right program shares except for the smaller 't'
    left, right = parse(SHRUNK_T), parse(SHRUNK_T.replace("%t : 4x[8]", "%t : 4x[4]"))
    with pytest.raises(InterpError) as err:
        equivalent(left, right, trials=2)
    assert err.value.side == 1
    message = "nest 'a' statement 1: access to 't' out of bounds at point (4,): index (4,) outside shape (4,)"
    assert str(err.value) == message
    with pytest.raises(InterpError) as err:
        equivalent(right, left, trials=2)
    assert (err.value.side, str(err.value)) == (0, message)


def test_nest_that_reads_what_it_writes_names_every_such_tensor_in_order():
    src = """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[4] @sbuf
tensor %s : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest first kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %t[i0] = %v
}

nest loop kind=other (i0 in 0..4) {
  %v = load %t[i0]
  store %s[i0] = %v
  memcopy %t <- %s
}
"""
    program = parse(src)
    with pytest.raises(InterpError) as err:
        run(program, store_of(a=[1, 2, 3, 4]))
    assert str(err.value) == "nest 'loop' reads tensors it writes: ['s', 't']"


def _inputs_drawn_per_tensor(program, seed, trial):
    """The model inputs drawn one ``integers`` call per tensor, in declaration order."""
    rng = np.random.default_rng([seed, trial])
    return {
        t.name: rng.integers(INPUT_RANGE[0], INPUT_RANGE[1], size=t.shape, dtype=np.int64)
        for t in program.tensors
        if t.origin is Origin.MODEL_INPUT
    }


ODD_SHAPES = """\
tensor %one : 4x[1] @dram input
tensor %odd : 4x[3, 5] @dram input
tensor %mid : 4x[8] @sbuf
tensor %deep : 4x[2, 3, 1, 7] @dram input
tensor %cell : 4x[1, 1] @dram input
tensor %y : 4x[1] @dram output
"""


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_wavenet_analog(12, 3, seed=1),
        lambda: generate_resnet_analog(64, 3, seed=0),
        lambda: generate_resnet_analog(2, 1, seed=3),
        lambda: parse(ODD_SHAPES),
    ],
    ids=["wavenet", "resnet64", "resnet2", "odd_shapes"],
)
def test_random_inputs_match_one_draw_per_tensor(make):
    program = make()
    for seed in (0, 5, 777):
        for trial in range(4):
            drawn = random_inputs(program, seed, trial)
            expected = _inputs_drawn_per_tensor(program, seed, trial)
            assert drawn.trials is None and drawn.names() == set(expected)
            for name, values in expected.items():
                got = drawn.array(name)
                assert got.dtype == values.dtype and got.shape == values.shape
                assert np.array_equal(got, values)
