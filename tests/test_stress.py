"""Cross-cutting stress checks.

Two oracles that share no code with the paths they check:

* a direct per-point dictionary interpreter, compared against the
  vectorized one on generated and hand-written programs, one trial at a
  time and with all trials in one run;
* pure copy chains (no compute between data movements), where each
  elimination rewrites the next copy's load map, compounding compositions
  through every structural map class.
"""

import itertools
import random

import numpy as np
import pytest

from nestopt.bankmap import run_global_mapping, run_local_baseline
from nestopt.dme import run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.interp import (
    Counterexample,
    EquivalenceResult,
    PoisonRead,
    TensorStore,
    equivalent,
    random_inputs,
    run,
)
from nestopt.ir import Compute, Load, Memcopy, Origin, Store, validate
from nestopt.textual import parse, print_program


# ---------------------------------------------------------------------------
# independent reference interpreter


def _ref_expr(expr, point):
    v = expr.const + sum(c * p for c, p in zip(expr.coeffs, point))
    for t in expr.terms:
        iv = t.const + sum(c * p for c, p in zip(t.coeffs, point))
        v += t.weight * (iv // t.divisor)
    return v


def _ref_index(access, point, shape):
    idx = tuple(_ref_expr(e, point) for e in access.exprs)
    flat = 0
    for i, d in zip(idx, shape):
        assert 0 <= i < d
        flat = flat * d + i
    return flat


def ref_run(program, inputs):
    """Per-point, statement-in-order execution over plain dicts."""
    shapes = {t.name: t.shape for t in program.tensors}
    data = {}
    for t in program.tensors:
        if t.origin is Origin.MODEL_INPUT:
            data[t.name] = list(np.asarray(inputs[t.name]).reshape(-1))
        else:
            data[t.name] = [None] * int(np.prod(t.shape))
    for nest in program.nests:
        ranges = [range(l, h) for l, h in zip(nest.box.los, nest.box.his)]
        for point in itertools.product(*ranges):
            env = {}
            for stmt in nest.body:
                if isinstance(stmt, Load):
                    v = data[stmt.tensor][_ref_index(stmt.access, point, shapes[stmt.tensor])]
                    assert v is not None, "reference interpreter read an unwritten cell"
                    env[stmt.result] = v
                elif isinstance(stmt, Compute):
                    a = [env[o] for o in stmt.operands]
                    env[stmt.result] = {
                        "add": lambda: a[0] + a[1],
                        "mul": lambda: a[0] * a[1],
                        "max": lambda: max(a[0], a[1]),
                        "neg": lambda: -a[0],
                        "identity": lambda: a[0],
                    }[stmt.opcode]()
                elif isinstance(stmt, Store):
                    data[stmt.tensor][_ref_index(stmt.access, point, shapes[stmt.tensor])] = env[stmt.value]
                elif isinstance(stmt, Memcopy):
                    flat_src = _ref_index(nest.identity, point, shapes[stmt.src])
                    flat_dst = _ref_index(nest.identity, point, shapes[stmt.dst])
                    v = data[stmt.src][flat_src]
                    assert v is not None
                    data[stmt.dst][flat_dst] = v
    return {
        t.name: np.asarray(data[t.name], dtype=np.int64).reshape(t.shape)
        for t in program.tensors
        if t.origin is Origin.MODEL_OUTPUT
    }


@pytest.mark.parametrize("seed", range(10))
def test_vectorized_interpreter_matches_reference(seed):
    if seed % 2:
        program = generate_resnet_analog(1 + seed % 3, seed % 4, seed=seed)
    else:
        program = generate_wavenet_analog(3 + seed % 4, seed % 2, seed=seed)
    inputs = random_inputs(program, seed)
    fast = run(program, inputs)
    slow = ref_run(program, {k: inputs.array(k) for k in inputs.names()})
    assert fast.names() == set(slow)
    for name in slow:
        assert np.array_equal(fast.array(name), slow[name]), name


def test_reference_agrees_on_transformed_programs():
    program = generate_wavenet_analog(6, 1, seed=17)
    optimized = run_dme(program).program
    inputs = random_inputs(program, 17)
    raw = {k: inputs.array(k) for k in inputs.names()}
    a = ref_run(program, raw)
    b = ref_run(optimized, raw)
    for name in a:
        assert np.array_equal(a[name], b[name])


# ---------------------------------------------------------------------------
# all trials in one run against one run per trial and the literal walk


def _generated(seed):
    """Wavenet chains, resnet blocks, and bank-mapped blocks with memcopies.

    Seeds past 11 give an 8-block resnet and its DME, global and local
    outputs, where every nest shares one of a few access maps.
    """
    if seed >= 12:
        program = generate_resnet_analog(8, 3, seed=seed)
        stage = seed % 4
        if stage == 1:
            return run_dme(program).program
        if stage == 2:
            return run_global_mapping(program)[0]
        return run_local_baseline(program)[0] if stage == 3 else program
    if seed % 2 == 0:
        return generate_wavenet_analog(3 + seed % 4, seed % 2, seed=seed)
    program = generate_resnet_analog(1 + seed % 3, 1 + seed % 3, seed=seed)
    return run_global_mapping(program)[0] if seed % 4 == 1 else program


def _assert_matches_reference(program, seed, trials=3):
    stores = [random_inputs(program, seed, k) for k in range(trials)]
    batched = run(program, TensorStore.stack(stores))
    assert batched.trials == trials
    for k, inputs in enumerate(stores):
        single = run(program, inputs)
        slow = ref_run(program, {n: inputs.array(n) for n in inputs.names()})
        assert batched.names() == single.names() == set(slow)
        for name in slow:
            assert np.array_equal(batched.array(name)[k], single.array(name)), (k, name)
            assert np.array_equal(single.array(name), slow[name]), (k, name)


@pytest.mark.parametrize("seed", range(16))
def test_batched_run_matches_per_trial_runs_and_reference(seed):
    _assert_matches_reference(_generated(seed), seed)


def test_generated_corpus_reaches_memcopies():
    assert any(
        isinstance(stmt, Memcopy)
        for seed in range(12)
        for nest in _generated(seed).nests
        for stmt in nest.body
    )


OVERLAPPING = {
    # two stores, each non-injective, whose cells overlap
    "stores": """\
tensor %a : 4x[3, 3] @dram input
tensor %t : 4x[5] @sbuf
tensor %y : 4x[5] @dram output

nest mix kind=other (i0 in 0..3, i1 in 0..3) {
  %v = load %a[i0, i1]
  %w = neg %v
  store %t[i0 + i1] = %v
  store %t[4 - i0] = %w
}

nest out kind=copy (i0 in 0..5) {
  %v = load %t[i0]
  store %y[i0] = %v
}
""",
    # a store and a later memcopy into one tensor: each wins some cells
    "memcopy": """\
tensor %a : 4x[4] @dram input
tensor %b : 4x[2] @dram input
tensor %s : 4x[4] @sbuf
tensor %u : 4x[4] @sbuf
tensor %y : 4x[4] @dram output

nest stage kind=copy (i0 in 0..4) {
  %v = load %a[i0]
  store %s[i0] = %v
}

nest both kind=other (i0 in 0..4) {
  %v = load %b[(i0) floordiv 2]
  store %u[3 - i0] = %v
  memcopy %u <- %s
}

nest out kind=copy (i0 in 0..4) {
  %v = load %u[i0]
  store %y[i0] = %v
}
""",
    # three stores over a 2-d box, the middle one folding points together
    "three": """\
tensor %a : 4x[3, 4] @dram input
tensor %t : 4x[6] @dram output

nest d kind=other (i0 in 0..3, i1 in 0..4) {
  %v = load %a[i0, i1]
  %w = add %v %v
  %x = max %v %w
  store %t[i0 + i1] = %w
  store %t[(i1) floordiv 2] = %x
  store %t[5 - i1] = %v
}
""",
    # one store whose access is not injective
    "fold": """\
tensor %a : 4x[8] @dram input
tensor %t : 4x[4] @dram output

nest fold kind=other (i0 in 0..8) {
  %v = load %a[i0]
  store %t[(i0) floordiv 2] = %v
}
""",
}


@pytest.mark.parametrize("name", sorted(OVERLAPPING))
def test_overlapping_writes_match_reference(name):
    program = parse(OVERLAPPING[name])
    assert validate(program) == []
    for seed in range(3):
        _assert_matches_reference(program, seed, trials=4)


REWRITTEN_AFTER_A_WHOLE_READ = """\
tensor %x : 4x[6] @dram input
tensor %a : 4x[6] @sbuf
tensor %b : 4x[6] @dram output
tensor %c : 4x[6] @dram output

nest n1 kind=elementwise (i0 in 0..6) {
  %v = load %x[i0]
  %w = neg %v
  store %a[i0] = %w
}

nest n2 kind=elementwise (i0 in 0..6) {
  %v = load %a[i0]
  %w = identity %v
  store %b[i0] = %w
}

nest n3 kind=other (i0 in 0..6, i1 in 0..2) {
  %v = load %x[i0]
  store %a[i0] = %v
}

nest n4 kind=copy (i0 in 0..6) {
  memcopy %c <- %a
}

nest n5 kind=other (i0 in 0..6, i1 in 0..2) {
  %v = load %x[i0]
  %w = mul %v %v
  store %a[i0] = %w
}
"""


def test_whole_reads_and_writes_leave_no_buffer_shared():
    # n2 reads all of 'a' through the identity and passes it on unchanged,
    # and n4 copies all of it: both outputs must hold copies, since n3 and
    # n5 then rewrite 'a' in place (each store reaches every cell twice)
    program = parse(REWRITTEN_AFTER_A_WHOLE_READ)
    assert validate(program) != []
    for seed in range(3):
        _assert_matches_reference(program, seed, trials=2)
    inputs = random_inputs(program, 0)
    x = inputs.array("x").copy()
    out = run(program, inputs)
    assert np.array_equal(out.array("b"), -x) and np.array_equal(out.array("c"), x)
    assert np.array_equal(inputs.array("x"), x)


def test_poisoned_program_raises_the_same_error_batched_or_not():
    program = parse(
        """\
tensor %a : 4x[4] @dram input
tensor %t : 4x[8] @sbuf
tensor %y : 4x[8] @dram output

nest half kind=strided_slice (i0 in 0..4) {
  %v = load %a[i0]
  store %t[2*i0 + 1] = %v
}

nest all kind=copy (i0 in 0..8) {
  %v = load %t[i0]
  store %y[i0] = %v
}
"""
    )
    stores = [random_inputs(program, 0, k) for k in range(3)]
    with pytest.raises(PoisonRead) as single:
        run(program, stores[0])
    with pytest.raises(PoisonRead) as batched:
        run(program, TensorStore.stack(stores))
    with pytest.raises(PoisonRead) as oracle:
        equivalent(program, program, trials=3)
    assert str(single.value) == str(batched.value) == str(oracle.value)
    assert "at point (0,)" in str(single.value)
    with pytest.raises(AssertionError, match="unwritten"):
        ref_run(program, {n: stores[0].array(n) for n in stores[0].names()})


def _loop_equivalent(p1, p2, trials, seed):
    """The oracle as a loop: both programs run once per trial, stop at the first difference."""
    for trial in range(trials):
        inputs = random_inputs(p1, seed, trial)
        r1, r2 = run(p1, inputs), run(p2, inputs)
        for name in sorted(r1.names()):
            a, b = r1.array(name), r2.array(name)
            if not np.array_equal(a, b):
                idx = tuple(int(v) for v in np.argwhere(a != b)[0])
                return EquivalenceResult(False, trials, Counterexample(trial, name, idx, int(a[idx]), int(b[idx])))
    return EquivalenceResult(True, trials)


ONE_OP = """\
tensor %a : 4x[3] @dram input
tensor %y : 4x[3] @dram output

nest n kind=elementwise (i0 in 0..3) {{
  %v = load %a[i0]
  {body}
}}
"""


def test_copy_vs_negate_counterexample_matches_the_loop():
    copy = parse(ONE_OP.format(body="store %y[i0] = %v"))
    neg = parse(ONE_OP.format(body="%w = neg %v\n  store %y[i0] = %w"))
    for seed in range(5):
        res = equivalent(copy, neg, trials=4, seed=seed)
        assert not res.equivalent
        assert res == _loop_equivalent(copy, neg, 4, seed)


TWO_OUTPUTS = """\
tensor %a : 4x[2] @dram input
tensor %b : 4x[2] @dram input
tensor %c : 4x[2] @dram input
tensor %y : 4x[2] @dram output
tensor %z : 4x[2] @dram output

nest n kind=other (i0 in 0..2) {{
  %u = load %a[i0]
  %v = load %b[i0]
  %w = load %c[i0]
  %m = max %u %v
  {body}
}}
"""


def test_counterexample_order_is_trial_then_output_then_cell():
    # y differs where c > max(a, b), z where c > b: so a trial, an output
    # or a cell may agree and the first difference lies anywhere
    plain = parse(TWO_OUTPUTS.format(body="store %y[i0] = %m\n  store %z[i0] = %v"))
    maxed = parse(
        TWO_OUTPUTS.format(
            body="%n = max %m %w\n  %k = max %v %w\n  store %y[i0] = %n\n  store %z[i0] = %k"
        )
    )
    seen = set()
    for seed in range(40):
        res = equivalent(plain, maxed, trials=3, seed=seed)
        assert res == _loop_equivalent(plain, maxed, 3, seed)
        if res.counterexample is not None:
            c = res.counterexample
            seen.update({("trial", c.trial > 0), ("tensor", c.tensor), ("index", c.index)})
    assert {("trial", True), ("tensor", "y"), ("tensor", "z"), ("index", (1,))} <= seen


_SWAPS = (("neg", "identity"), ("mul", "add"), ("add", "max"), ("max", "add"))


def _mutant(program):
    text = print_program(program)
    for old, new in _SWAPS:
        if f"= {old} " in text:
            return parse(text.replace(f"= {old} ", f"= {new} ", 1))
    raise AssertionError("no compute to mutate")


@pytest.mark.parametrize("seed", range(8))
def test_oracle_verdicts_match_the_loop_on_generated_programs(seed):
    program = _generated(seed)
    for other in (run_dme(program).program, _mutant(program)):
        assert equivalent(program, other, trials=3, seed=seed) == _loop_equivalent(program, other, 3, seed)


# ---------------------------------------------------------------------------
# pure copy chains: compounding compositions


CHAIN_HEADER = """\
tensor %x : 4x[4, 6] @dram input
tensor %t1 : 4x[24] @sbuf
tensor %t2 : 4x[8, 3] @sbuf
tensor %t3 : 4x[3, 8] @sbuf
tensor %t4 : 4x[24] @sbuf
tensor %t5 : 4x[12] @sbuf
tensor %y : 4x[12] @dram output

nest flat kind=reshape (i0 in 0..4, i1 in 0..6) {
  %v = load %x[i0, i1]
  store %t1[6*i0 + i1] = %v
}

nest unflat kind=reshape (i0 in 0..24) {
  %v = load %t1[i0]
  store %t2[(i0) floordiv 3, (i0) mod 3] = %v
}

nest tr kind=transpose (i0 in 0..8, i1 in 0..3) {
  %v = load %t2[i0, i1]
  store %t3[i1, i0] = %v
}

nest back kind=reshape (i0 in 0..3, i1 in 0..8) {
  %v = load %t3[i0, i1]
  store %t4[8*i0 + i1] = %v
}

nest sl kind=strided_slice (i0 in 0..12) {
  %v = load %t4[2*i0 + 1]
  store %t5[i0] = %v
}

nest out kind=copy (i0 in 0..12) {
  %v = load %t5[i0]
  store %y[i0] = %v
}
"""


def test_pure_copy_chain_stops_at_genuine_depth_two():
    # flatten -> unflatten(other factorization) -> transpose -> flatten ->
    # strided slice, with no compute breaks: every elimination rewrites the
    # next copy's already-composed load.  The shuffle accumulated at the
    # second flatten ((3*(x mod 8) + (x floordiv 8)) floordiv 6) cannot be
    # written at nesting depth one, so exactly that pair must survive.
    program = parse(CHAIN_HEADER)
    assert validate(program) == []
    result = run_dme(program)
    assert validate(result.program) == []
    res = equivalent(program, result.program, trials=4, seed=8)
    assert res.equivalent, res.counterexample
    assert sorted(r.tensor for r in result.eliminated) == ["t1", "t2", "t3", "t5"]
    assert [n.name for n in result.program.nests] == ["back", "out"]
    assert {r.tensor: r.skipped.value for r in result.skipped} == {
        "t4": "CompositionUnrepresentable",
        "y": "EscapingOutput",
    }


def _random_pure_chain(rng):
    """A no-compute chain of movements over power-of-two sizes."""
    lines = ["tensor %x : 4x[32] @dram input"]
    body = []
    shape = (32,)
    cur = "x"
    n_copies = rng.randint(3, 8)
    for k in range(n_copies):
        name = f"c{k}"
        if len(shape) == 1:
            n = shape[0]
            options = ["reverse"]
            if n % 2 == 0 and n >= 8:
                options += ["slice", "split"]
            if n % 4 == 0 and n >= 8:
                options.append("unflatten")
            if n <= 64:
                options.append("repeat")
            kind = rng.choice(options)
        else:
            kind = rng.choice(["transpose", "flatten"])
        if kind == "reverse":
            new_shape = shape
            box = f"(i0 in 0..{shape[0]})"
            load, store = f"%{cur}[{shape[0] - 1} - i0]", f"%{name}[i0]"
        elif kind == "slice":
            new_shape = (shape[0] // 2,)
            off = rng.choice([0, 1])
            box = f"(i0 in 0..{new_shape[0]})"
            load, store = f"%{cur}[2*i0 + {off}]", f"%{name}[i0]"
        elif kind == "split":
            new_shape = (shape[0] // 2,)
            half = rng.choice([0, shape[0] // 2])
            box = f"(i0 in 0..{new_shape[0]})"
            load, store = f"%{cur}[i0 + {half}]", f"%{name}[i0]"
        elif kind == "unflatten":
            inner = rng.choice([d for d in (2, 4) if shape[0] % d == 0])
            new_shape = (shape[0] // inner, inner)
            box = f"(i0 in 0..{shape[0]})"
            load = f"%{cur}[i0]"
            store = f"%{name}[(i0) floordiv {inner}, (i0) mod {inner}]"
        elif kind == "repeat":
            reps = 2
            new_shape = (reps * shape[0],)
            box = f"(i0 in 0..{reps}, i1 in 0..{shape[0]})"
            load, store = f"%{cur}[i1]", f"%{name}[{shape[0]}*i0 + i1]"
        elif kind == "transpose":
            a, b = shape
            new_shape = (b, a)
            box = f"(i0 in 0..{a}, i1 in 0..{b})"
            load, store = f"%{cur}[i0, i1]", f"%{name}[i1, i0]"
        else:  # flatten
            a, b = shape
            new_shape = (a * b,)
            box = f"(i0 in 0..{a}, i1 in 0..{b})"
            load, store = f"%{cur}[i0, i1]", f"%{name}[{b}*i0 + i1]"
        dims = ", ".join(str(d) for d in new_shape)
        lines.append(f"tensor %{name} : 4x[{dims}] @sbuf")
        body.append(f"nest n{k} kind=copy {box} {{\n  %v = load {load}\n  store {store} = %v\n}}")
        cur, shape = name, new_shape
    dims = ", ".join(str(d) for d in shape)
    lines.append(f"tensor %y : 4x[{dims}] @dram output")
    box = ", ".join(f"i{j} in 0..{d}" for j, d in enumerate(shape))
    body.append(
        f"nest sink kind=copy ({box}) {{\n  %v = load %{cur}[{', '.join(f'i{j}' for j in range(len(shape)))}]\n"
        f"  store %y[{', '.join(f'i{j}' for j in range(len(shape)))}] = %v\n}}"
    )
    return parse("\n".join(lines) + "\n\n" + "\n\n".join(body) + "\n")


@pytest.mark.parametrize("seed", range(25))
def test_random_pure_chains_preserved(seed):
    rng = random.Random(seed)
    program = _random_pure_chain(rng)
    assert validate(program) == []
    result = run_dme(program)
    assert validate(result.program) == []
    res = equivalent(program, result.program, trials=4, seed=seed)
    assert res.equivalent, f"seed {seed}: {res.counterexample}"
    # everything but the output-writing copy is a candidate; eliminations
    # must leave no dangling references either way
    second = run_dme(result.program)
    assert second.program == result.program


@pytest.mark.parametrize("seed", range(6))
def test_dme_then_bankmap_pipeline(seed):
    program = generate_resnet_analog(2 + seed % 2, seed % 4, seed=seed)
    after_dme = run_dme(program).program
    g_prog, _, _ = run_global_mapping(after_dme)
    l_prog, _ = run_local_baseline(after_dme)
    assert validate(g_prog) == []
    assert validate(l_prog) == []
    assert equivalent(program, g_prog, trials=3, seed=seed).equivalent
    assert equivalent(program, l_prog, trials=3, seed=seed).equivalent
