"""Command-line driver.

Subcommands:

    optimize <in> --pass dme [--pass bankmap] [--mode global|local]
             [--banks B] [--anchors file] -o <out> [--report <json>]
    verify <a> <b> [--trials N] [--seed S]
    report <in> [--json <out>] [--count-all-onchip] [--interbank-via-dram]
    gen wavenet <pairs> <non_invertible> [--seed S] -o <out>
    gen resnet <blocks> <transposes> [--seed S] -o <out>

Exit status: 0 success, 1 diagnostics (invalid program, an anchor template
banking an axis its tensor lacks, non-equivalence, a program the interpreter
cannot run, an input that cannot be read as UTF-8, an output that cannot be
written), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .bankmap import AnchorRegistry, RankMismatchError, run_global_mapping, run_local_baseline
from .dme import run_dme
from .generators import generate_resnet_analog, generate_wavenet_analog
from .interp import InterpError, equivalent
from .ir import Program, validate
from .report import bankmap_pass_entry, build_document, dme_pass_entry, document_text
from .textual import ParseError, _CallMemo, parse, print_program
from .traffic import account


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one.

    Sharing is safe because ``parse_args`` keeps no state between calls: each
    returns a fresh namespace, and help, usage and errors look up the terminal
    width and ``sys.stdout``/``sys.stderr`` when they print.
    """
    parser = argparse.ArgumentParser(prog="nestopt")
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("optimize", help="run optimization passes over a program")
    opt.add_argument("input", type=Path)
    opt.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=["dme", "bankmap"],
        required=True,
        help="pass to run; may be repeated to form a pipeline",
    )
    opt.add_argument("--mode", choices=["global", "local"], default="global")
    opt.add_argument("--banks", type=int, default=None)
    opt.add_argument("--anchors", type=Path, default=None, help="anchor registry JSON")
    opt.add_argument("--count-all-onchip", action="store_true")
    opt.add_argument("--interbank-via-dram", action="store_true")
    opt.add_argument("-o", "--output", type=Path, required=True)
    opt.add_argument("--report", type=Path, default=None)

    ver = sub.add_parser("verify", help="check two programs for behavioural equivalence")
    ver.add_argument("left", type=Path)
    ver.add_argument("right", type=Path)
    ver.add_argument("--trials", type=int, default=5)
    ver.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("report", help="traffic accounting for one program")
    rep.add_argument("input", type=Path)
    rep.add_argument("--json", dest="json_out", type=Path, default=None)
    rep.add_argument("--count-all-onchip", action="store_true")
    rep.add_argument("--interbank-via-dram", action="store_true")

    gen = sub.add_parser("gen", help="generate a benchmark program")
    gen_sub = gen.add_subparsers(dest="benchmark", required=True)
    gw = gen_sub.add_parser("wavenet", help="copy-chain analog")
    gw.add_argument("pairs", type=int)
    gw.add_argument("non_invertible", type=int)
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument("-o", "--output", type=Path, required=True)
    gr = gen_sub.add_parser("resnet", help="anchored-block analog")
    gr.add_argument("blocks", type=int)
    gr.add_argument("transposes", type=int)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("-o", "--output", type=Path, required=True)
    return parser


def _load_program(path: Path, parses: _CallMemo, bounds: dict) -> Program:
    """Read, parse and validate ``path``, sharing the command's memos."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"nestopt: cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"nestopt: cannot read {path}: not UTF-8 (byte {exc.start})")
    try:
        program = parse(text, _memo=parses)
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise _Diagnostic()
    violations = validate(program, _memo=bounds)
    if violations:
        for v in violations:
            print(f"{path}: {v}", file=sys.stderr)
        raise _Diagnostic()
    return program


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"nestopt: cannot write {path}: {exc.strerror}")


class _Diagnostic(Exception):
    pass


class _UsageError(Exception):
    """Bad command-line input: one line on stderr, exit status 2."""


def _refuse_clobber(option: str, path: Path | None, *others: tuple[str, Path | None]) -> None:
    """Refuse ``path``, which ``option`` writes, when it names the same file
    as one of ``others``, the command's other files as (what it is, path)."""
    if path is None:
        return
    for what, other in others:
        if other is None:
            continue
        try:
            same = path.samefile(other)
        except OSError:  # one of the two does not exist yet
            same = path.resolve() == other.resolve()
        if same:
            raise _UsageError(f"{option} {path} is also the {what}; refusing to overwrite it")


def _load_registry(args) -> AnchorRegistry:
    if args.banks is not None and args.banks < 1:
        raise _UsageError(f"--banks must be >= 1, got {args.banks}")
    if args.anchors is None:
        return AnchorRegistry.default(args.banks)
    try:
        return AnchorRegistry.from_file(args.anchors, args.banks)
    except OSError as exc:
        raise _UsageError(f"cannot read anchors file {args.anchors}: {exc.strerror}")
    except ValueError as exc:
        raise _UsageError(f"malformed anchors file {args.anchors}: {exc}")


def _cmd_optimize(args) -> int:
    # -o may name the input: the output replaces it
    _refuse_clobber("-o", args.output, ("anchors file", args.anchors))
    others = (("input", args.input), ("output", args.output), ("anchors file", args.anchors))
    _refuse_clobber("--report", args.report, *others)
    registry = _load_registry(args)
    # the output shares most accesses with the input
    bounds = {}
    program = _load_program(args.input, _CallMemo(), bounds)
    traffic_opts = {
        "count_all_onchip": args.count_all_onchip,
        "interbank_via_dram": args.interbank_via_dram,
    }
    before = account(program, **traffic_opts)
    pipeline = []
    pass_entries = []
    current = program
    eliminated_pairs = 0
    for name in args.passes:
        if name == "dme":
            result = run_dme(current)
            current = result.program
            eliminated_pairs += len(result.eliminated)
            pipeline.append({"pass": "dme"})
            pass_entries.append(dme_pass_entry(result))
        else:
            try:
                if args.mode == "global":
                    current, _, report = run_global_mapping(current, registry)
                else:
                    current, report = run_local_baseline(current, registry)
            except RankMismatchError as exc:
                print(f"{args.input}: {exc}", file=sys.stderr)
                raise _Diagnostic()
            pipeline.append({"pass": "bankmap", "options": {"mode": args.mode, "banks": registry.banks}})
            pass_entries.append(bankmap_pass_entry(report, registry.banks))
    violations = validate(current, _memo=bounds)
    if violations:
        for v in violations:
            print(f"optimized program is invalid: {v}", file=sys.stderr)
        return 1
    after = account(current, **traffic_opts, copy_pairs_eliminated=eliminated_pairs)
    _write_text(args.output, print_program(current))
    if args.report is not None:
        doc = build_document(pipeline, pass_entries, before, after)
        _write_text(args.report, document_text(doc) + "\n")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    # the two programs are usually a program and its optimized output,
    # which repeats most of its lines
    parses, bounds = _CallMemo(), {}
    left = _load_program(args.left, parses, bounds)
    right = _load_program(args.right, parses, bounds)
    try:
        result = equivalent(left, right, trials=args.trials, seed=args.seed)
    except InterpError as exc:
        where = "" if exc.side is None else f"{(args.left, args.right)[exc.side]}: "
        print(f"nestopt verify: {where}{exc}", file=sys.stderr)
        return 1
    if result.equivalent:
        print(f"equivalent: {args.trials} trial(s), seed {args.seed}")
        return 0
    print(f"NOT equivalent: {result.counterexample}", file=sys.stderr)
    return 1


def _cmd_report(args) -> int:
    _refuse_clobber("--json", args.json_out, ("input", args.input))
    program = _load_program(args.input, _CallMemo(), {})
    report = account(
        program,
        count_all_onchip=args.count_all_onchip,
        interbank_via_dram=args.interbank_via_dram,
    )
    doc = build_document([], [], report, None)
    text = document_text(doc)
    if args.json_out is not None:
        _write_text(args.json_out, text + "\n")
    else:
        print(text)
    return 0


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.benchmark == "wavenet":
        if not 0 <= args.non_invertible <= args.pairs:
            print("gen wavenet: need 0 <= non_invertible <= pairs", file=sys.stderr)
            return 2
        program = generate_wavenet_analog(args.pairs, args.non_invertible, args.seed)
    else:
        if args.blocks < 1 or args.transposes < 0:
            print("gen resnet: need blocks >= 1 and transposes >= 0", file=sys.stderr)
            return 2
        program = generate_resnet_analog(args.blocks, args.transposes, args.seed)
    _write_text(args.output, print_program(program))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_gen(args)
    except _Diagnostic:
        return 1
    except _UsageError as exc:
        print(f"nestopt {args.command}: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
