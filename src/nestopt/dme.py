"""Copy elimination through access-map reversal and composition.

A load/store pair that moves data unchanged from tensor ``src`` to tensor
``dst`` can be removed when the store map is a bijection from the nest box
onto the whole index space of ``dst``: every downstream read of ``dst`` is
rewritten to read ``src`` through the composed map
``load_map . reverse(store_map) . downstream_map``, after which the copy
statements and the ``dst`` declaration are deleted.

The pass eliminates, at each step, the first eliminable pair in program
order, until no pair can be eliminated.  It runs over one ``UseDefIndex``,
the mutable use-def view of a program that only this pass edits, and a
priority worklist of pairs keyed by their position in the input program.
A pair that was tried and skipped is tried again only when one of its
inputs changes; after eliminating ``src -> dst`` those are the pairs
whose load was rewritten (they read ``dst``) and the pairs that store
``src`` (its downstream loads changed).  Every other input of a pair (the
origin, definitions, memcopy readers and store map of its destination) is
untouched by an elimination, so a skipped pair not re-enqueued would be
skipped again.  Taking the lowest dirty position therefore picks the same
pair as a sweep restarted from the first pair.  Within one run,
``reverse`` runs once per distinct store map and ``compose`` once per
distinct (outer, inner) map pair, since a chain's copies share their maps.

Failures never throw: each considered pair yields a record that is either
an elimination or a named skip reason.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .affine import (
    AffineError,
    InjectiveOnly,
    InverseResult,
    NotInvertible,
    QuasiAffineMap,
    UnrepresentableComposition,
    compose,
    reverse,
)
from .ir import (
    Compute,
    CopyPair,
    Load,
    Memcopy,
    OperatorNest,
    Origin,
    Program,
    Statement,
    Store,
    copy_pair_slots,
    find_copy_pairs,  # noqa: F401  (kept here: perfbench's tracer wraps it in this module)
)


class SkipReason(Enum):
    NOT_INVERTIBLE = "NotInvertible"
    NOT_TOTAL_COVER = "NotTotalCover"
    ESCAPING_OUTPUT = "EscapingOutput"
    COMPOSITION_UNREPRESENTABLE = "CompositionUnrepresentable"


@dataclass(frozen=True)
class EliminationRecord:
    """Outcome for one considered pair: eliminated or skipped with a reason."""

    tensor: str
    bytes: int
    rewritten_loads: int = 0
    skipped: SkipReason | None = None
    detail: str = ""

    @property
    def eliminated(self) -> bool:
        return self.skipped is None


Position = tuple[int, int]


class UseDefIndex:
    """Where each tensor is defined and read, kept current while copy
    elimination edits the program in place.

    A statement is addressed by its position ``(nest, stmt)``: indices into
    the input program's nests and their bodies.  Positions never shift, so
    sorting them gives program order at any time.  A removed statement
    leaves a hole; ``to_program`` drops the holes, and any nest left empty,
    once at the end.  Copy pairs are keyed by the position of their store.
    Nest names are assumed unique, as ``validate`` requires.
    """

    def __init__(self, program: Program):
        self.program = program
        self.bodies: list[list[Statement | None]] = [list(n.body) for n in program.nests]
        # tensor -> stores and memcopies writing it
        self.defs: dict[str, list[Position]] = {}
        # tensor -> loads reading it
        self.loads: dict[str, list[Position]] = {}
        # tensor -> memcopies reading it
        self.memcopy_readers: dict[str, list[Position]] = {}
        # copy pair (its store) -> statement index of its load, in the same nest
        self.pairs: dict[Position, int] = {}
        # tensor -> copy pairs storing it
        self.pairs_storing: dict[str, list[Position]] = {}
        # load -> copy pairs it feeds
        self.pairs_fed_by: dict[Position, list[Position]] = {}
        self._removed_tensors: set[str] = set()
        self._edited_nests: set[int] = set()
        for ni, nest in enumerate(program.nests):
            # its own walk, not ``ir.accesses``: the index records each statement's position
            for si, stmt in enumerate(nest.body):
                if isinstance(stmt, Load):
                    self.loads.setdefault(stmt.tensor, []).append((ni, si))
                elif isinstance(stmt, Store):
                    self.defs.setdefault(stmt.tensor, []).append((ni, si))
                elif isinstance(stmt, Memcopy):
                    self.defs.setdefault(stmt.dst, []).append((ni, si))
                    self.memcopy_readers.setdefault(stmt.src, []).append((ni, si))
            for li, si in copy_pair_slots(nest.body):
                self.pairs[(ni, si)] = li
                self.pairs_storing.setdefault(nest.body[si].tensor, []).append((ni, si))
                self.pairs_fed_by.setdefault((ni, li), []).append((ni, si))

    def statement(self, pos: Position) -> Statement | None:
        return self.bodies[pos[0]][pos[1]]

    def loads_of(self, tensor: str) -> list[Position]:
        """Loads reading ``tensor``, in program order."""
        return sorted(self.loads.get(tensor, ()))

    def remove_statement(self, pos: Position) -> None:
        stmt = self.statement(pos)
        ni, si = pos
        if isinstance(stmt, Load):
            self.loads[stmt.tensor].remove(pos)
            self.pairs_fed_by.pop(pos, None)
        elif isinstance(stmt, Store):
            self.defs[stmt.tensor].remove(pos)
            li = self.pairs.pop(pos, None)
            if li is not None:
                self.pairs_storing[stmt.tensor].remove(pos)
                fed = self.pairs_fed_by.get((ni, li))
                if fed is not None:
                    fed.remove(pos)
        else:
            raise TypeError(f"cannot remove {type(stmt).__name__} statements")
        self.bodies[ni][si] = None
        self._edited_nests.add(ni)

    def replace_load(self, pos: Position, load: Load) -> None:
        """Put ``load`` in place of the load at ``pos``; its result is kept."""
        ni, si = pos
        self.loads[self.statement(pos).tensor].remove(pos)
        self.loads.setdefault(load.tensor, []).append(pos)
        self.bodies[ni][si] = load
        self._edited_nests.add(ni)

    def remove_tensor(self, name: str) -> None:
        """Drop ``name``'s declaration; the caller has removed its uses."""
        self._removed_tensors.add(name)

    def to_program(self) -> Program:
        """The edited program; the input itself when nothing was edited."""
        if not self._edited_nests and not self._removed_tensors:
            return self.program
        nests = []
        for ni, nest in enumerate(self.program.nests):
            if ni not in self._edited_nests:
                nests.append(nest)
                continue
            body = tuple(s for s in self.bodies[ni] if s is not None)
            if body:
                nests.append(OperatorNest(nest.name, nest.kind, nest.box, body))
        tensors = tuple(t for t in self.program.tensors if t.name not in self._removed_tensors)
        return Program(tensors, tuple(nests))


def try_eliminate_pair(program: Program, pair: CopyPair) -> tuple[Program, EliminationRecord]:
    """Attempt one elimination; on failure the program is returned unchanged.

    ``pair`` must be one of ``find_copy_pairs(program)``.
    """
    index = UseDefIndex(program)
    for ni, si in index.pairs:  # in program order
        if program.nests[ni].name == pair.nest and program.nests[ni].body[si] is pair.store:
            break
    else:
        raise ValueError(f"no copy pair with that store in nest '{pair.nest}'")
    record, _ = _eliminate(index, (ni, si), {}, {})
    return (index.to_program() if record.eliminated else program), record


# compose's answer per (outer, inner) pair: the map, or the AffineError's class and message
ComposeMemo = dict[tuple[QuasiAffineMap, QuasiAffineMap], QuasiAffineMap | tuple[type, str]]


def _eliminate(
    index: UseDefIndex,
    pos: Position,
    inverses: dict[QuasiAffineMap, InverseResult],
    composed: ComposeMemo,
) -> tuple[EliminationRecord, list[Position]]:
    """Try the pair whose store is at ``pos``, editing ``index`` if it goes.

    Returns the record and, after an elimination, the pairs whose inputs
    changed.  ``inverses`` memoizes ``reverse`` by store map, ``composed``
    memoizes ``compose`` by (outer, inner) map pair.
    """
    nest_i, store_i = pos
    load_i = index.pairs[pos]
    load, store = index.bodies[nest_i][load_i], index.bodies[nest_i][store_i]
    dst = index.program.tensor(store.tensor)
    src_name = load.tensor

    def skip(reason: SkipReason, detail: str = "") -> tuple[EliminationRecord, list[Position]]:
        return EliminationRecord(dst.name, dst.footprint_bytes, 0, reason, detail), []

    if dst.origin is not Origin.INTERMEDIATE:
        return skip(SkipReason.ESCAPING_OUTPUT, f"'{dst.name}' is a model {dst.origin.value}")
    # the pair's store must be the sole definition of dst
    if any(d != pos for d in index.defs[dst.name]):
        return skip(SkipReason.NOT_TOTAL_COVER, f"'{dst.name}' has other defining statements")
    # memcopy reads cannot be retargeted through a different access map
    if index.memcopy_readers.get(dst.name):
        return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, f"'{dst.name}' feeds a memcopy")

    store_map = store.access
    if store_map not in inverses:
        inverses[store_map] = reverse(store_map)
    inv = inverses[store_map]
    if isinstance(inv, NotInvertible):
        return skip(SkipReason.NOT_INVERTIBLE, inv.reason)
    if isinstance(inv, InjectiveOnly):
        return skip(
            SkipReason.COMPOSITION_UNREPRESENTABLE,
            "store map is invertible only by tabulation",
        )
    if not inv.image.equals_box(dst.index_box):
        return skip(
            SkipReason.NOT_TOTAL_COVER,
            f"store covers {inv.image.cardinality} of {dst.index_box.cardinality} cells",
        )

    try:
        dst_to_src = _compose_once(composed, load.access, inv.map)
    except UnrepresentableComposition:
        return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, "store-to-load map left the expression language")
    except AffineError as exc:
        return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, str(exc))

    # plan every downstream rewrite before committing anything
    rewrites: list[tuple[Position, Load]] = []
    for load_pos in index.loads_of(dst.name):
        if load_pos[0] == nest_i:
            continue
        stmt = index.statement(load_pos)
        try:
            routed = _compose_once(composed, dst_to_src, stmt.access)
        except UnrepresentableComposition:
            return skip(
                SkipReason.COMPOSITION_UNREPRESENTABLE,
                f"rewritten load in nest '{index.program.nests[load_pos[0]].name}' "
                "left the expression language",
            )
        except AffineError as exc:
            return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, str(exc))
        rewrites.append((load_pos, Load(stmt.result, src_name, routed)))

    index.remove_statement(pos)
    if not _has_other_uses(index.bodies[nest_i], load.result):
        index.remove_statement((nest_i, load_i))
    touched: list[Position] = []
    for rewrite_pos, load in rewrites:
        index.replace_load(rewrite_pos, load)
        touched.extend(index.pairs_fed_by.get(rewrite_pos, ()))
    touched.extend(index.pairs_storing.get(src_name, ()))
    index.remove_tensor(dst.name)
    return EliminationRecord(dst.name, dst.footprint_bytes, len(rewrites)), touched


def _compose_once(composed: ComposeMemo, outer: QuasiAffineMap, inner: QuasiAffineMap) -> QuasiAffineMap:
    """``compose(outer, inner)``, computed on the pair's first request only.
    A failure is kept as its class and message, not as the exception, whose
    traceback would hold the attempt's frames, and raised anew each time."""
    key = (outer, inner)
    answer = composed.get(key)
    if answer is None:
        try:
            answer = compose(outer, inner)
        except AffineError as exc:
            answer = (type(exc), str(exc))
        composed[key] = answer
    if isinstance(answer, tuple):
        error, message = answer
        raise error(message)
    return answer


def _has_other_uses(body, value: str) -> bool:
    """Whether a store or compute in ``body`` still uses ``value``."""
    for s in body:
        if isinstance(s, Store) and s.value == value:
            return True
        if isinstance(s, Compute) and value in s.operands:
            return True
    return False


@dataclass(frozen=True)
class DmeResult:
    program: Program
    records: tuple[EliminationRecord, ...]
    sweeps: int

    @property
    def eliminated(self) -> tuple[EliminationRecord, ...]:
        return tuple(r for r in self.records if r.eliminated)

    @property
    def skipped(self) -> tuple[EliminationRecord, ...]:
        return tuple(r for r in self.records if not r.eliminated)


def run_dme(program: Program) -> DmeResult:
    """Eliminate copy pairs, always the first eliminable one in program
    order, until none is left.

    Pairs wait in a heap keyed by position; each is tried when popped.  A
    skip is cached, and the pair is pushed again only when an elimination
    rewrites its load or changes the downstream loads of its destination
    (see the module docstring).  The result matches restarting a sweep from
    the first pair after every elimination: ``sweeps`` is the number of
    such sweeps, ``len(eliminated) + 1``.

    Records hold one entry per eliminated tensor, in elimination order,
    then the skip reasons of the pairs that remain, in program order.
    """
    index = UseDefIndex(program)
    inverses: dict[QuasiAffineMap, InverseResult] = {}
    composed: ComposeMemo = {}
    worklist = sorted(index.pairs)  # a sorted list is already a heap
    queued = set(worklist)
    skips: dict[Position, EliminationRecord] = {}
    eliminated: list[EliminationRecord] = []
    while worklist:
        pos = heapq.heappop(worklist)
        queued.remove(pos)
        record, touched = _eliminate(index, pos, inverses, composed)
        if not record.eliminated:
            skips[pos] = record
            continue
        eliminated.append(record)
        skips.pop(pos, None)
        for p in touched:
            if p not in queued:
                queued.add(p)
                heapq.heappush(worklist, p)
    records = eliminated + [skips[p] for p in sorted(skips)]
    return DmeResult(index.to_program(), tuple(records), len(eliminated) + 1)
