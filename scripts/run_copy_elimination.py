#!/usr/bin/env python3
"""Copy-elimination experiment on the generated copy-chain workload.

Builds a chain with a configurable number of copy pairs (one of which is
non-reversible by default), runs the elimination pass, cross-checks with
the interpreter, and prints the before/after traffic table.
"""

import argparse
import sys
import time
from pathlib import Path

# run from a checkout without installing: this checkout's src/ comes first
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nestopt.dme import run_dme  # noqa: E402
from nestopt.generators import generate_wavenet_analog  # noqa: E402
from nestopt.interp import equivalent  # noqa: E402
from nestopt.traffic import account, compare  # noqa: E402


def fmt_bytes(n: int) -> str:
    return f"{n:,}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=124)
    ap.add_argument("--non-invertible", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--verify-trials", type=int, default=3)
    args = ap.parse_args()

    program = generate_wavenet_analog(args.pairs, args.non_invertible, args.seed)
    before = account(program)
    start = time.monotonic()
    result = run_dme(program)
    elapsed = time.monotonic() - start
    after = account(result.program, copy_pairs_eliminated=len(result.eliminated))

    check = equivalent(program, result.program, trials=args.verify_trials, seed=args.seed)
    if not check.equivalent:
        print(f"FAILED oracle check: {check.counterexample}", file=sys.stderr)
        return 1

    print(f"chain: {args.pairs} copy pairs, {args.non_invertible} non-reversible, seed {args.seed}")
    print(f"pass: eliminated {len(result.eliminated)}/{before.copy_pairs_total} pairs "
          f"in {result.sweeps} sweeps ({elapsed:.3f}s); oracle agreed on {check.trials} trials")
    for rec in result.skipped:
        print(f"  skipped {rec.tensor}: {rec.skipped.value} ({rec.detail})")
    print()
    print(f"{'metric':<28}{'before':>14}{'after':>14}{'change':>10}")
    for name in ("off_chip_bytes", "on_chip_copy_bytes", "intermediate_tensor_bytes"):
        d = compare(before, after).fields[name]
        pct = "n/a" if d.pct_change is None else f"{d.pct_change:+.1f}%"
        print(f"{name:<28}{fmt_bytes(d.before):>14}{fmt_bytes(d.after):>14}{pct:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
