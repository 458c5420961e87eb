"""Benchmark nestopt through its CLI, in one process and one closed loop.

    python3 perfbench/run.py --workload dme_chain --seed 1 --seconds 38 --trace 0

Run it from the root of a checkout.  It generates the workload's programs
from the seed, then repeats rounds of ``nestopt.cli.main(["optimize", ...])``
and ``main(["verify", ...])`` on files in a temporary directory inside the
checkout until ``--seconds`` is used up, one call at a time, after an
untimed warm-up on the first program.  Each call's time is its median over
the rounds, and ``optimize_s`` and ``verify_s`` sum those medians.  Between
calls it times a fixed pure-Python loop (``reference.py``), and every
end-to-end time is scaled by that loop's nominal time over its median time
in the run, so that the host's swings in speed cancel.  With ``--trace 1`` it alternates untraced and traced rounds
and reports per-layer call counts and self times, unscaled, instead.

Every round must produce the same output bytes (sha256 over every output
IR and report) and the same exact counts, and every verify must say
"equivalent" for the requested trials; a mutated output (the canary) must
make verify fail.  Any breach makes the result ``correct: false`` and the
exit status 1.  The last line of stdout is the result; the line before it
holds provenance and the output digest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import reference  # noqa: E402  (needs ROOT on the path when run as a script)

SETUP_REPEATS = 7
# Least gap between reference samples, so that many short calls in a row
# are not slowed by one sample each.
REFERENCE_EVERY_S = 0.1
IMPORT_PROBE = "import time; t = time.perf_counter(); import nestopt.cli; print(time.perf_counter() - t)"

# Fields of the reports' traffic documents, summed over a round before and
# after optimization.
TRAFFIC = ("off_chip_bytes", "on_chip_copy_bytes", "intermediate_tensor_bytes", "copy_pairs_total")
# end-to-end quality metric -> traffic field whose after/before share it is
KEPT = {
    "off_chip_kept": "off_chip_bytes",
    "on_chip_copy_kept": "on_chip_copy_bytes",
    "intermediate_kept": "intermediate_tensor_bytes",
}
SKIP_REASONS = ("NotInvertible", "NotTotalCover", "EscapingOutput", "CompositionUnrepresentable")
# exact counts reported by the traced run
LAYER_COUNTS = (
    "bankmap.interbank_copy_bytes",
    "dme.eliminated",
    "dme.sweeps",
    *(f"dme.skipped.{reason}" for reason in SKIP_REASONS),
)
EXACT_COUNTS = (*(f"{when}.{key}" for when in ("before", "after") for key in TRAFFIC), *LAYER_COUNTS)
# ratio -> (numerator, denominator); each is reported next to its base
RATIOS = {
    "dme.eliminated_per_attempt": ("dme.eliminated", "dme.try_eliminate_pair.calls"),
    "affine.reverse.repeat_ratio": ("affine.reverse.calls", "affine.reverse.distinct_maps"),
}
# The first compute opcode found is swapped; each swap changes the value
# computed for inputs drawn from the oracle's range.
CANARY_SWAPS = (("neg", "identity"), ("mul", "add"), ("add", "max"), ("max", "add"))


@dataclass
class Round:
    total_s: float = 0.0
    # "optimize <program>.<pipeline>", "verify ..." or "item <program>"
    # (everything the round does for that program) -> wall seconds
    calls: dict[str, float] = field(default_factory=dict)
    # wall seconds of each reference loop timed in the round
    reference: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(EXACT_COUNTS, 0))
    digest: str = ""
    tracer: object = None

    def count(self, doc: dict) -> None:
        for when in ("before", "after"):
            for key in TRAFFIC:
                self.counts[f"{when}.{key}"] += doc["traffic"][when][key]
        for entry in doc["passes"]:
            if entry["pass"] == "dme":
                self.counts["dme.sweeps"] += entry["sweeps"]
                self.counts["dme.eliminated"] += len(entry["eliminated"])
                for skip in entry["skipped"]:
                    key = f"dme.skipped.{skip['reason']}"
                    self.counts[key] = self.counts.get(key, 0) + 1
            else:
                self.counts["bankmap.interbank_copy_bytes"] += sum(c["bytes"] for c in entry["inserted"])


def call(cli, argv: list[str]) -> tuple[int, float, str, str]:
    """Run ``cli.main(argv)`` in-process; returns exit code, seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def verify_argv(left: Path, right: Path, trials: int, seed: int) -> list[str]:
    return ["verify", str(left), str(right), "--trials", str(trials), "--seed", str(seed)]


def run_round(cli, items, workdir: Path, seed: int, trials: int, tracer=None) -> Round:
    """Every pipeline of every item, optimize then verify.  After a call
    that ends at least REFERENCE_EVERY_S after the last reference sample,
    the reference loop is timed; ``total_s`` and the item times leave it
    out."""
    r = Round(tracer=tracer)
    last = 0.0

    def take_reference():
        nonlocal last
        if time.perf_counter() - last >= REFERENCE_EVERY_S:
            r.reference.append(reference.sample())
            last = time.perf_counter()

    digest = hashlib.sha256()
    start = time.perf_counter()
    for item in items:
        item_start, before = time.perf_counter(), len(r.reference)
        source = workdir / f"{item.name}.ir"
        for label, passes in item.pipelines:
            out = workdir / f"{item.name}.{label}.ir"
            report = workdir / f"{item.name}.{label}.json"
            if tracer is not None:
                tracer.program = f"{item.name}/{label}"
            argv = ["optimize", str(source), *passes, "-o", str(out), "--report", str(report)]
            code, took, _, err = call(cli, argv)
            r.calls[f"optimize {item.name}.{label}"] = took
            take_reference()
            r.attempted += 1
            if code != 0:
                r.failures.append(f"optimize {item.name} {label}: exit {code}: {err.strip()}")
                continue
            doc = report.read_bytes()
            digest.update(f"{item.name}.{label}\n".encode())
            digest.update(out.read_bytes())
            digest.update(doc)
            r.count(json.loads(doc))
            code, took, stdout, err = call(cli, verify_argv(source, out, trials, seed))
            r.calls[f"verify {item.name}.{label}"] = took
            take_reference()
            r.attempted += 1
            if code != 0 or stdout != f"equivalent: {trials} trial(s), seed {seed}\n":
                r.failures.append(f"verify {item.name} {label}: exit {code}: {stdout.strip()} {err.strip()}")
        r.calls[f"item {item.name}"] = time.perf_counter() - item_start - sum(r.reference[before:])
    r.total_s = time.perf_counter() - start - sum(r.reference)
    r.digest = digest.hexdigest()
    return r


def mutate(text: str) -> str | None:
    """The program with its first swappable compute opcode swapped."""
    for old, new in CANARY_SWAPS:
        marker = f" = {old} %"
        if marker in text:
            return text.replace(marker, f" = {new} %", 1)
    return None


def run_canary(cli, item, workdir: Path, seed: int, trials: int) -> str | None:
    """Verify a mutated optimized output; returns a failure message, or None
    when verify rejects it as it must."""
    label = item.pipelines[0][0]
    mutated = mutate((workdir / f"{item.name}.{label}.ir").read_text(encoding="utf-8"))
    if mutated is None:
        return f"canary: no compute statement to mutate in {item.name}.{label}"
    canary = workdir / "canary.ir"
    canary.write_text(mutated, encoding="utf-8")
    code, _, _, err = call(cli, verify_argv(workdir / f"{item.name}.ir", canary, trials, seed))
    if code != 1 or not err.startswith("NOT equivalent"):
        return f"canary: verify of a mutated {item.name}.{label} exited {code}: {err.strip()}"
    return None


def cold_import_s() -> float:
    """Time ``import nestopt.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workloads, name: str, seed: int, workdir: Path):
    """Cold import plus generating and writing the inputs, SETUP_REPEATS times.

    Returns the items, the median set-up time and the median import time."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        imported = cold_import_s()
        start = time.perf_counter()
        items = workloads.make_items(name, seed)
        for item in items:
            (workdir / f"{item.name}.ir").write_text(item.text, encoding="utf-8")
        totals.append(imported + time.perf_counter() - start)
        imports.append(imported)
    return items, statistics.median(totals), statistics.median(imports)


def measure(cli, spans, items, workdir: Path, seed: int, seconds: float, trials: int, trace: bool):
    """A warm-up over the first item, then rounds while the next one,
    taking as long as the last, still ends within ``seconds``.  Returns the
    warm-up, which is checked but not timed, and the rounds.  With
    ``trace``, odd rounds are traced and there are at least two."""
    start = time.perf_counter()
    warmup = run_round(cli, items[:1], workdir, seed, trials)
    rounds: list[Round] = []
    while (
        len(rounds) < (2 if trace else 1)
        or time.perf_counter() - start + rounds[-1].total_s + sum(rounds[-1].reference) <= seconds
    ):
        if trace and len(rounds) % 2:
            with spans.Tracer() as tracer:
                rounds.append(run_round(cli, items, workdir, seed, trials, tracer))
        else:
            rounds.append(run_round(cli, items, workdir, seed, trials))
    return warmup, rounds


def summed_call_medians(timed, kind: str) -> float:
    """Each ``kind`` call's median time over the rounds, summed over the
    calls of a round."""
    keys = [key for key in timed[0].calls if key.startswith(f"{kind} ")]
    return sum(statistics.median(r.calls[key] for r in timed) for key in keys)


def machine_scale(timed) -> float:
    """The reference loop's nominal time over its median time in the
    rounds: below 1 when the host ran slower than the nominal machine."""
    return reference.NOMINAL_S / statistics.median(t for r in timed for t in r.reference)


def end_to_end_metrics(rounds, setup_s, attempted, failed) -> dict:
    """Times are medians over the rounds, scaled by ``machine_scale``."""
    scale = machine_scale(rounds)
    metrics = {
        "setup_s": (setup_s * scale, "s"),
        "optimize_s": (summed_call_medians(rounds, "optimize") * scale, "s"),
        "verify_s": (summed_call_medians(rounds, "verify") * scale, "s"),
        "total_s": (summed_call_medians(rounds, "item") * scale, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "1"),
    }
    counts = rounds[0].counts
    for name, key in KEPT.items():
        metrics[name] = (counts[f"after.{key}"] / counts[f"before.{key}"], "1")
    metrics["copy_pairs_left"] = (counts["after.copy_pairs_total"], "count")
    return metrics


def ratio_metrics(values: dict) -> dict:
    """Each ratio in RATIOS from its base values; 0 when the denominator is 0."""
    out = {}
    for name, (num, den) in RATIOS.items():
        out[name] = values[num] / values[den] if values[den] else 0.0
    return out


def per_layer_metrics(spans, rounds, import_s) -> dict:
    traced = [r for r in rounds if r.tracer is not None]
    totals = [spans.layer_totals(r.tracer.spans) for r in traced]
    values = {}
    for layer in spans.LAYER_NAMES:
        values[f"{layer}.calls"] = totals[0][layer][0]
        values[f"{layer}.self_s"] = statistics.median(t[layer][1] for t in totals)
    values.update((name, rounds[0].counts[name]) for name in LAYER_COUNTS)
    values["affine.reverse.distinct_maps"] = len(traced[0].tracer.distinct["affine.reverse"])
    values.update(ratio_metrics(values))
    values["trace.traced_total_s"] = statistics.median(r.total_s for r in traced)
    values["trace.untraced_total_s"] = statistics.median(r.total_s for r in rounds if r.tracer is None)
    values["trace.overhead_s"] = values["trace.traced_total_s"] - values["trace.untraced_total_s"]
    values["cli.import_s"] = import_s
    return {name: (value, _unit(name)) for name, value in values.items()}


def _unit(name: str) -> str:
    if name in RATIOS:
        return "1"
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


def consistency_failures(spans, rounds) -> list[str]:
    """Every round must give the same output digest and exact counts, and
    every traced round the same call counts."""
    problems = []
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 1):
        if r.digest != first.digest:
            problems.append(f"round {i}: output digest {r.digest} != {first.digest}")
        if r.counts != first.counts:
            problems.append(f"round {i}: exact counts changed: {r.counts} != {first.counts}")
    calls = [
        {layer: c for layer, (c, _) in spans.layer_totals(r.tracer.spans).items()}
        for r in rounds
        if r.tracer is not None
    ]
    if any(c != calls[0] for c in calls):
        problems.append("traced rounds made different numbers of calls")
    return problems


def provenance(name: str, why: str, seed: int, trials: int, items) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "workload": name,
        "why": why,
        "seed": seed,
        "trials": trials,
        "programs": [item.params() for item in items],
    }


def write_spans(spans_dir: Path, name: str, seed: int, rounds) -> Path:
    spans_dir.mkdir(exist_ok=True)
    path = spans_dir / f"spans-{name}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as f:
        for i, r in enumerate(rounds):
            if r.tracer is not None:
                for k, span in enumerate(r.tracer.spans):
                    f.write(json.dumps({"round": i, "id": k, **asdict(span)}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nestopt" / "cli.py").is_file():
        print(f"perfbench: no nestopt sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from perfbench import spans, workloads

    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(why)}", file=sys.stderr)
        return 2
    import nestopt.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "nestopt":
        print(f"perfbench: imported nestopt from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    trials = workloads.TRIALS
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        items, setup_s, import_s = setup(workloads, args.workload, args.seed, workdir)
        warmup, rounds = measure(cli, spans, items, workdir, args.seed, args.seconds, trials, bool(args.trace))
        canary = run_canary(cli, items[0], workdir, args.seed, trials)

    failures = [f for r in (warmup, *rounds) for f in r.failures] + ([canary] if canary else [])
    attempted = sum(r.attempted for r in (warmup, *rounds)) + 1
    failed = len(failures)
    problems = failures + consistency_failures(spans, rounds)
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(spans, rounds, import_s)
        spans_file = write_spans(ROOT / "perfbench-out", args.workload, args.seed, rounds)
    else:
        metrics = end_to_end_metrics(rounds, setup_s, attempted, failed)
        spans_file = None
    record = {
        "provenance": provenance(args.workload, why[args.workload], args.seed, trials, items),
        "digest": rounds[0].digest,
        "rounds": len(rounds),
        "machine_scale": machine_scale(rounds),
        "counts": rounds[0].counts,
        "spans": str(spans_file.relative_to(ROOT)) if spans_file else None,
    }
    print(json.dumps(record))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
