#!/usr/bin/env python3
"""Global-vs-local bank mapping sweep over the anchored-block workload.

For each (blocks, transposes) grid point, assigns mappings with the
propagating pass and with the per-operator baseline, and tabulates the
inter-bank memcopy bytes each one inserts.
"""

import argparse
import sys
from pathlib import Path

# run from a checkout without installing: this checkout's src/ comes first
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nestopt.bankmap import AnchorRegistry, run_global_mapping, run_local_baseline  # noqa: E402
from nestopt.generators import generate_resnet_analog  # noqa: E402
from nestopt.interp import equivalent  # noqa: E402


def at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return integer


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-blocks", type=at_least(1), default=8)
    ap.add_argument("--max-transposes", type=at_least(0), default=3)
    ap.add_argument("--banks", type=at_least(1), default=None)
    ap.add_argument("--anchors", type=str, default=None, help="anchor registry JSON")
    ap.add_argument("--seed", type=at_least(0), default=1)
    ap.add_argument("--verify", action="store_true", help="also run the interpreter oracle")
    args = ap.parse_args()

    if args.anchors is None:
        registry = AnchorRegistry.default(args.banks)
    else:
        try:
            registry = AnchorRegistry.from_file(args.anchors, args.banks)
        except OSError as exc:
            ap.error(f"argument --anchors: cannot read {args.anchors}: {exc.strerror}")
        except ValueError as exc:
            ap.error(f"argument --anchors: malformed {args.anchors}: {exc}")

    print(f"{'B':>3}{'T':>3}{'global bytes':>14}{'local bytes':>13}{'saved':>9}")
    worst = 0.0
    verified = 0
    for blocks in range(1, args.max_blocks + 1):
        for transposes in range(0, args.max_transposes + 1):
            program = generate_resnet_analog(blocks, transposes, args.seed)
            g_prog, _, g_report = run_global_mapping(program, registry)
            l_prog, l_report = run_local_baseline(program, registry)
            if args.verify:
                for name, opt in (("global", g_prog), ("local", l_prog)):
                    res = equivalent(program, opt, trials=2, seed=args.seed)
                    if not res.equivalent:
                        print(f"FAILED {name} oracle at B={blocks} T={transposes}: "
                              f"{res.counterexample}", file=sys.stderr)
                        return 1
                    verified += 1
            g, l = g_report.inserted_bytes, l_report.inserted_bytes
            saved = "n/a" if l == 0 else f"{100.0 * (l - g) / l:.0f}%"
            if l:
                worst = max(worst, g / l)
            print(f"{blocks:>3}{transposes:>3}{g:>14,}{l:>13,}{saved:>9}")
    print(f"\nglobal/local byte ratio never above {worst:.2f}")
    if args.verify:
        print(f"oracle agreed on all {verified} mapped programs, 2 trials each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
