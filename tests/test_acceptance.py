"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the recorded seeds.
"""

import ast
import json
import pathlib
import random
import re
import time

import numpy as np
import pytest

from nestopt.affine import (
    InjectiveOnly,
    IntBox,
    NotInvertible,
    QuasiAffineExpr,
    SymbolicInverse,
    affine_map,
    build_unflatten_exprs,
    compose,
    reverse,
    variables,
)
from nestopt.bankmap import (
    AnchorRegistry,
    propagate,
    run_global_mapping,
    run_local_baseline,
    seed_anchors,
)
from nestopt.cli import main
from nestopt.dme import run_dme
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
from nestopt.interp import equivalent
from nestopt.ir import accesses, validate
from nestopt.textual import parse, print_program
from nestopt.traffic import account

from schema_check import validate_document


def _pass(num: int, name: str, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{name}]: PASS{extra}")


@pytest.fixture(scope="module")
def wavenet_run(tmp_path_factory):
    """gen wavenet 124 1 -> optimize --pass dme, through the CLI."""
    tmp = tmp_path_factory.mktemp("wavenet")
    src, out, rep = tmp / "w.ir", tmp / "w_opt.ir", tmp / "report.json"
    start = time.monotonic()
    assert main(["gen", "wavenet", "124", "1", "--seed", "0", "-o", str(src)]) == 0
    assert main(["optimize", str(src), "--pass", "dme", "-o", str(out), "--report", str(rep)]) == 0
    elapsed = time.monotonic() - start
    return src, out, rep, elapsed


def test_criterion_1_wavenet_elimination_count(wavenet_run):
    src, out, rep, elapsed = wavenet_run
    doc = json.loads(rep.read_text())
    eliminated = doc["passes"][0]["eliminated"]
    skipped = doc["passes"][0]["skipped"]
    assert len(eliminated) == 123
    assert len(skipped) == 1
    assert skipped[0]["reason"] == "NotInvertible"
    assert doc["traffic"]["before"]["copy_pairs_total"] == 124
    assert doc["traffic"]["after"]["copy_pairs_total"] == 1
    assert elapsed < 10.0
    _pass(1, "124-pair chain eliminates exactly 123", f"{elapsed:.2f}s")


def test_criterion_2_footprint_accounting(wavenet_run):
    _, _, rep, _ = wavenet_run
    doc = json.loads(rep.read_text())
    eliminated_bytes = sum(e["bytes"] for e in doc["passes"][0]["eliminated"])
    before = doc["traffic"]["before"]["intermediate_tensor_bytes"]
    after = doc["traffic"]["after"]["intermediate_tensor_bytes"]
    assert before - after == eliminated_bytes
    _pass(2, "footprint drop equals eliminated bytes", f"{before - after} bytes")


def test_criterion_3_oracle_soundness_over_randomized_corpus():
    checked = 0
    seeds_used = []
    for seed in range(600):
        program = generate_wavenet_analog(2 + seed % 5, 1 if seed % 3 == 0 else 0, seed=seed)
        seeds_used.append(("wavenet", seed))
        _check_all_pipelines(program, seed)
        checked += 1
    for seed in range(400):
        program = generate_resnet_analog(1 + seed % 3, seed % 4, seed=seed)
        seeds_used.append(("resnet", seed))
        _check_all_pipelines(program, seed)
        checked += 1
    assert checked >= 1000
    _pass(3, "zero counterexamples over randomized corpus",
          f"{checked} programs, seeds wavenet 0..599 / resnet 0..399, 5 trials each")


def _check_all_pipelines(program, seed):
    dme_out = run_dme(program).program
    assert validate(dme_out) == []
    res = equivalent(program, dme_out, trials=5, seed=seed)
    assert res.equivalent, f"dme seed {seed}: {res.counterexample}"
    global_out, _, _ = run_global_mapping(program)
    assert validate(global_out) == []
    res = equivalent(program, global_out, trials=5, seed=seed)
    assert res.equivalent, f"global seed {seed}: {res.counterexample}"
    local_out, _ = run_local_baseline(program)
    assert validate(local_out) == []
    res = equivalent(program, local_out, trials=5, seed=seed)
    assert res.equivalent, f"local seed {seed}: {res.counterexample}"


def test_criterion_4_global_never_exceeds_local():
    start = time.monotonic()
    rows = []
    for blocks in range(1, 9):
        for transposes in range(0, 4):
            program = generate_resnet_analog(blocks, transposes, seed=1)
            _, _, g_report = run_global_mapping(program)
            _, l_report = run_local_baseline(program)
            g, l = g_report.inserted_bytes, l_report.inserted_bytes
            rows.append((blocks, transposes, g, l))
            assert g <= l, f"B={blocks} T={transposes}: global {g} > local {l}"
            if transposes >= 1:
                assert g < l, f"B={blocks} T={transposes}: expected strict win, got {g} vs {l}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _pass(4, "global <= local over the 8x4 grid, strict for T>=1", f"{elapsed:.2f}s")


def _map_corpus(total: int, rng: random.Random):
    """Maps across every structural class, domains <= 10^4 points."""
    kinds = ["perm", "strided", "flatten", "unflatten", "linear", "quasi"]
    for k in range(total):
        kind = kinds[k % len(kinds)]
        n = rng.randint(1, 3)
        los = [rng.randint(-4, 4) for _ in range(n)]
        exts = [rng.randint(1, 9) for _ in range(n)]
        box = IntBox(tuple(los), tuple(l + e for l, e in zip(los, exts)))
        xs = variables(n)
        if kind == "perm":
            order = list(range(n))
            rng.shuffle(order)
            yield affine_map(box, tuple(xs[j] + rng.randint(-5, 5) for j in order))
        elif kind == "strided":
            order = list(range(n))
            rng.shuffle(order)
            yield affine_map(
                box,
                tuple(rng.choice([-3, -2, -1, 1, 2, 3]) * xs[j] + rng.randint(-5, 5) for j in order),
            )
        elif kind == "flatten":
            weights = [1] * n
            for j in range(n - 2, -1, -1):
                weights[j] = weights[j + 1] * exts[j + 1]
            acc = QuasiAffineExpr(tuple(0 for _ in range(n)), rng.randint(-3, 3))
            for w, x in zip(weights, xs):
                acc = acc + w * x
            yield affine_map(box, (acc,))
        elif kind == "unflatten":
            radices = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(2, 3)))
            total_pts = 1
            for r in radices:
                total_pts *= r
            base = rng.randint(-3, 3)
            dom = IntBox((base,), (base + total_pts,))
            yield affine_map(dom, build_unflatten_exprs(base, radices))
        elif kind == "linear":
            m = rng.randint(1, 3)
            yield affine_map(
                box,
                tuple(
                    QuasiAffineExpr(
                        tuple(rng.randint(-4, 4) for _ in range(n)), rng.randint(-5, 5)
                    )
                    for _ in range(m)
                ),
            )
        else:
            exprs = []
            for _ in range(rng.randint(1, 2)):
                e = QuasiAffineExpr(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-4, 4))
                inner = QuasiAffineExpr(tuple(rng.randint(-3, 3) for _ in range(n)), rng.randint(-3, 3))
                d = rng.randint(2, 5)
                extra = inner.floordiv(d) if rng.random() < 0.5 else inner.mod(d)
                exprs.append(e + rng.randint(-2, 2) * extra)
            yield affine_map(box, tuple(exprs))


COLLISION = re.compile(r"collision: f(\([^)]*\)) == f(\([^)]*\)) == (\([^)]*\))")


def test_criterion_5_affine_round_trip_corpus():
    rng = random.Random(20240501)
    total = 10_000
    symbolic = 0
    injective = 0
    composed = 0
    for m in _map_corpus(total, rng):
        assert m.domain.cardinality <= 10_000
        pts = m.domain.points_array()
        vals = m.evaluate_batch(pts)
        inv = reverse(m)
        if isinstance(inv, SymbolicInverse):
            symbolic += 1
            back = inv.map.evaluate_batch(vals)
            assert np.array_equal(back, pts), "reverse-then-apply is not the identity"
        elif isinstance(inv, InjectiveOnly):
            injective += 1
            assert np.unique(vals, axis=0).shape[0] == pts.shape[0], "injective-only map repeats a value"
        else:
            assert isinstance(inv, NotInvertible)
            if inv.reason.startswith("collision"):
                p_i, p_j, v = (ast.literal_eval(t) for t in COLLISION.fullmatch(inv.reason).groups())
                assert p_i != p_j and m.evaluate(p_i) == m.evaluate(p_j) == v, inv.reason
        if pts.shape[0]:
            lo = vals.min(axis=0)
            hi = vals.max(axis=0) + 1
            outer_box = IntBox(tuple(int(v) for v in lo), tuple(int(v) for v in hi))
            ys = variables(outer_box.ndim)
            outer = affine_map(outer_box, tuple(2 * y + 1 for y in ys))
            c = compose(outer, m)
            direct = 2 * vals + 1
            assert np.array_equal(c.evaluate_batch(pts), direct), "compose disagrees pointwise"
            composed += 1
    inverted = symbolic + injective
    assert inverted > total // 2
    assert composed == total
    _pass(
        5,
        "map corpus round-trips",
        f"{total} maps, {inverted} invertible ({symbolic} symbolic, {injective} injective only), seed 20240501",
    )


def test_criterion_6_fixpoint_order_independence():
    program = generate_resnet_analog(3, 2, seed=7)
    seeded = seed_anchors(program, AnchorRegistry.default())
    baseline = propagate(program, seeded)
    ntasks = sum(
        2 * len(reads) * len(writes)
        for reads, writes in (accesses(n) for n in program.nests if n.name not in seeded.anchored)
    )
    rng = random.Random(99)
    for trial in range(100):
        order = list(range(ntasks))
        rng.shuffle(order)
        state = propagate(program, seeded, task_order=order)
        assert state == baseline, f"permutation {trial} changed the fixpoint"
    _pass(6, "100 task permutations give identical states", f"{ntasks} transfer tasks")


def test_criterion_7_dme_idempotent_and_bounded():
    checked = 0
    for seed in range(100):
        program = generate_wavenet_analog(1 + seed % 8, seed % 2, seed=1000 + seed)
        first = run_dme(program)
        assert first.sweeps <= max(1, len(program.tensors))
        second = run_dme(first.program)
        assert second.program == first.program
        assert second.eliminated == ()
        checked += 1
    for seed in range(100):
        program = generate_resnet_analog(1 + seed % 4, seed % 4, seed=seed)
        first = run_dme(program)
        assert first.sweeps <= max(1, len(program.tensors))
        second = run_dme(first.program)
        assert second.program == first.program
        checked += 1
    _pass(7, "termination bound and idempotence", f"{checked} programs")


def test_criterion_8_round_trips_and_schema(wavenet_run, tmp_path):
    golden = pathlib.Path(__file__).parent / "golden"
    count = 0
    for path in sorted(golden.glob("*.ir")):
        text = path.read_text()
        program = parse(text)
        assert print_program(program) == text, path.name
        count += 1
    for seed in range(25):
        for program in (
            generate_wavenet_analog(3 + seed % 6, seed % 2, seed=seed),
            generate_resnet_analog(1 + seed % 3, seed % 4, seed=seed),
        ):
            text = print_program(program)
            assert parse(text) == program
            count += 1
    # reports produced by the CLI pipelines validate against schema 1
    _, _, rep, _ = wavenet_run
    validate_document(json.loads(rep.read_text()))
    src = tmp_path / "r.ir"
    out = tmp_path / "r_opt.ir"
    rep2 = tmp_path / "r.json"
    assert main(["gen", "resnet", "3", "2", "--seed", "0", "-o", str(src)]) == 0
    assert (
        main(["optimize", str(src), "--pass", "bankmap", "--mode", "global", "-o", str(out), "--report", str(rep2)])
        == 0
    )
    validate_document(json.loads(rep2.read_text()))
    _pass(8, "print/parse identity and schema-1 reports", f"{count} programs round-tripped")
