"""Tests of the benchmark's own code: span arithmetic, the wrappers, the
canary and the consistency checks.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import run as bench  # noqa: E402
from perfbench import reference, spans, workloads  # noqa: E402
from perfbench.spans import Span, Tracer, layer_totals, self_times  # noqa: E402

import nestopt.cli as cli  # noqa: E402


def test_self_time_with_nested_children():
    tree = [
        Span("outer", 0.0, 10.0, None, "p"),
        Span("mid", 2.0, 6.0, 0, "p"),
        Span("inner", 3.0, 4.0, 1, "p"),
    ]
    assert self_times(tree) == pytest.approx([6.0, 3.0, 1.0])


def test_self_time_with_adjacent_children():
    tree = [
        Span("outer", 0.0, 10.0, None, "p"),
        Span("a", 1.0, 3.0, 0, "p"),
        Span("b", 3.0, 6.0, 0, "p"),
        Span("c", 6.0, 7.0, 0, "p"),
    ]
    assert self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_never_subtracts_overlap_twice():
    tree = [
        Span("outer", 0.0, 10.0, None, "p"),
        Span("a", 1.0, 5.0, 0, "p"),
        Span("b", 4.0, 12.0, 0, "p"),
    ]
    assert self_times(tree)[0] == pytest.approx(1.0)


def test_layer_totals_cover_every_layer():
    totals = layer_totals([Span("dme.run_dme", 0.0, 2.0, None, "p"), Span("affine.reverse", 0.5, 1.0, 0, "p")])
    assert set(totals) == set(spans.LAYER_NAMES)
    assert totals["dme.run_dme"] == pytest.approx((1, 1.5))
    assert totals["affine.reverse"] == pytest.approx((1, 0.5))
    assert totals["interp.run"] == (0, 0.0)


def _attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in spans.LAYERS
    }


def test_leaving_the_tracer_restores_every_attribute():
    before = _attributes()
    with Tracer():
        during = _attributes()
        assert all(during[key] is not before[key] for key in before)
    after = _attributes()
    assert all(after[key] is before[key] for key in before)


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(_attributes()[key] is before[key] for key in before)


def test_spans_record_parent_and_program():
    tracer = Tracer(layers=())
    outer = tracer.wrap("outer", lambda: inner() + 1)
    inner = tracer.wrap("inner", lambda: 1)
    tracer.program = "prog7"
    assert outer() == 2
    assert [(s.name, s.parent, s.program) for s in tracer.spans] == [("outer", None, "prog7"), ("inner", 0, "prog7")]
    assert all(s.end >= s.start for s in tracer.spans)


def _tiny_items():
    from nestopt.generators import generate_resnet_analog, generate_wavenet_analog
    from nestopt.textual import print_program

    chain = print_program(generate_wavenet_analog(6, 1, seed=3))
    blocks = print_program(generate_resnet_analog(2, 1, seed=3))
    return [
        workloads.Item("chain", "wavenet", (6, 1), 3, (workloads.DME,), chain),
        workloads.Item("blocks", "resnet", (2, 1), 3, (workloads.DME_GLOBAL, workloads.LOCAL), blocks),
    ]


@pytest.fixture
def tiny(tmp_path):
    items = _tiny_items()
    for item in items:
        (tmp_path / f"{item.name}.ir").write_text(item.text, encoding="utf-8")
    return items, tmp_path


def test_traced_run_reports_every_per_layer_metric_and_ratios_with_their_bases(tiny):
    items, workdir = tiny
    warmup, rounds = bench.measure(cli, spans, items, workdir, seed=1, seconds=0.0, trials=2, trace=True)
    assert warmup.tracer is None and not warmup.failures
    assert [r.tracer is not None for r in rounds] == [False, True]
    assert all(not r.failures for r in rounds)
    assert bench.consistency_failures(spans, rounds) == []
    metrics = bench.per_layer_metrics(spans, rounds, import_s=0.1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    for ratio, (num, den) in bench.RATIOS.items():
        assert num in metrics and den in metrics
        assert metrics[den][0] > 0
        assert metrics[ratio][0] == pytest.approx(metrics[num][0] / metrics[den][0])


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    items, workdir = tiny
    warmup, rounds = bench.measure(cli, spans, items, workdir, seed=1, seconds=0.0, trials=2, trace=False)
    assert warmup.attempted == 2 and not warmup.failures
    assert len(rounds) == 1 and rounds[0].tracer is None
    metrics = bench.end_to_end_metrics(rounds, setup_s=0.5, attempted=7, failed=0)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(value != 0 for value, _ in metrics.values())


def test_call_times_are_medians_over_rounds_summed_over_calls():
    times = [(1.0, 5.0), (3.0, 4.0), (2.0, 9.0)]
    nominal = [reference.NOMINAL_S]
    rounds = [bench.Round(calls={"optimize a": a, "optimize b": b, "verify a": 0.5}, reference=nominal) for a, b in times]
    assert bench.summed_call_medians(rounds, "optimize") == pytest.approx(2.0 + 5.0)
    assert bench.summed_call_medians(rounds, "verify") == pytest.approx(0.5)
    rounds[0].counts.update((f"before.{key}", 1) for key in bench.TRAFFIC)
    metrics = bench.end_to_end_metrics(rounds, setup_s=0.5, attempted=7, failed=0)
    assert metrics["optimize_s"][0] == pytest.approx(7.0)
    assert metrics["verify_s"][0] == pytest.approx(0.5)


def test_times_are_scaled_by_the_reference_loop_and_nothing_else_is():
    def rounds(reference_s):
        timed = bench.Round(calls={"optimize a": 2.0, "verify a": 1.0, "item a": 4.0}, reference=[reference_s] * 3)
        timed.counts.update((f"before.{key}", 1) for key in bench.TRAFFIC)
        return [timed]

    fast = bench.end_to_end_metrics(rounds(reference.NOMINAL_S), setup_s=0.5, attempted=7, failed=0)
    slow = bench.end_to_end_metrics(rounds(2 * reference.NOMINAL_S), setup_s=0.5, attempted=7, failed=0)
    for name in ("setup_s", "optimize_s", "verify_s", "total_s"):
        assert slow[name][0] == pytest.approx(fast[name][0] / 2)
    for name in set(fast) - {"setup_s", "optimize_s", "verify_s", "total_s", "peak_rss_mib"}:
        assert slow[name] == fast[name]


def test_reference_sample_leaves_the_garbage_collector_as_it_found_it():
    import gc

    assert gc.isenabled()
    assert reference.sample() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert reference.sample() > 0 and not gc.isenabled()
    finally:
        gc.enable()


def test_canary_is_rejected_by_a_working_oracle(tiny):
    items, workdir = tiny
    bench.run_round(cli, items, workdir, seed=1, trials=2)
    for item in items:
        assert bench.run_canary(cli, item, workdir, seed=1, trials=2) is None


def test_canary_catches_an_oracle_that_always_says_equivalent(tiny, monkeypatch):
    from nestopt.interp import EquivalenceResult

    items, workdir = tiny
    bench.run_round(cli, items, workdir, seed=1, trials=2)
    monkeypatch.setattr(cli, "equivalent", lambda a, b, trials, seed: EquivalenceResult(True, trials))
    assert bench.run_canary(cli, items[0], workdir, seed=1, trials=2) is not None


def test_mutate_swaps_exactly_one_opcode():
    text = "  %w = neg %v\n  %u = neg %w\n"
    assert bench.mutate(text) == "  %w = identity %v\n  %u = neg %w\n"
    assert bench.mutate("  %w = mul %v %u\n") == "  %w = add %v %u\n"
    assert bench.mutate("  %v = load %x[i0]\n") is None


def test_digest_or_count_changes_between_rounds_are_reported():
    a, b, c = bench.Round(digest="x"), bench.Round(digest="y"), bench.Round(digest="x")
    c.counts["dme.sweeps"] = 1
    problems = bench.consistency_failures(spans, [a, b, c])
    assert len(problems) == 2
    assert "digest" in problems[0] and "counts" in problems[1]


def test_every_declared_workload_is_generated_from_its_seed_alone():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        first = workloads.make_items(workload, 5)
        assert first and first == workloads.make_items(workload, 5)
        assert [i.seed for i in first] != [i.seed for i in workloads.make_items(workload, 6)]
