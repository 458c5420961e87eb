"""Copy elimination through access-map reversal and composition.

A load/store pair that moves data unchanged from tensor ``src`` to tensor
``dst`` can be removed when the store map is a bijection from the nest box
onto the whole index space of ``dst``: every downstream read of ``dst`` is
rewritten to read ``src`` through the composed map
``load_map . reverse(store_map) . downstream_map``, after which the copy
statements and the ``dst`` declaration are deleted.

The pass eliminates, at each step, the first eliminable pair in program
order, until no pair can be eliminated.  It runs over one ``UseDefIndex``
and a priority worklist of pairs keyed by their position in the input
program.  A pair that was tried and skipped is tried again only when one
of its inputs changes; after eliminating ``src -> dst`` those are the pairs
whose load was rewritten (they read ``dst``) and the pairs that store
``src`` (its downstream loads changed).  Every other input of a pair (the
origin, definitions, memcopy readers and store map of its destination) is
untouched by an elimination, so a skipped pair not re-enqueued would be
skipped again.  Taking the lowest dirty position therefore picks the same
pair as a sweep restarted from the first pair, and ``reverse`` runs once
per distinct store map.

Failures never throw: each considered pair yields a record that is either
an elimination or a named skip reason.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum

from .affine import (
    AffineError,
    InverseResult,
    NotInvertible,
    QuasiAffineMap,
    TabulatedInverse,
    compose,
    reverse,
)
from .ir import (
    Compute,
    CopyPair,
    Load,
    Origin,
    Position,
    Program,
    Store,
    UseDefIndex,
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


def try_eliminate_pair(program: Program, pair: CopyPair) -> tuple[Program, EliminationRecord]:
    """Attempt one elimination; on failure the program is returned unchanged.

    ``pair`` must be one of ``find_copy_pairs(program)``.
    """
    index = UseDefIndex(program)
    record, _ = _eliminate(index, index.position_of(pair), {})
    return (index.to_program() if record.eliminated else program), record


def _eliminate(
    index: UseDefIndex, pos: Position, inverses: dict[QuasiAffineMap, InverseResult]
) -> tuple[EliminationRecord, list[Position]]:
    """Try the pair whose store is at ``pos``, editing ``index`` if it goes.

    Returns the record and, after an elimination, the pairs whose inputs
    changed.  ``inverses`` memoizes ``reverse`` by store map.
    """
    pair = index.pair_at(pos)
    nest_i = pos[0]
    dst = index.program.tensor(pair.store.tensor)
    src_name = pair.load.tensor

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

    store_map = pair.store.access
    if store_map not in inverses:
        inverses[store_map] = reverse(store_map)
    inv = inverses[store_map]
    if isinstance(inv, NotInvertible):
        return skip(SkipReason.NOT_INVERTIBLE, inv.reason)
    if isinstance(inv, TabulatedInverse):
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
        dst_to_src = compose(pair.load.access, inv.map)
    except AffineError as exc:
        return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, str(exc))
    if not dst_to_src.is_symbolic:
        return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, "store-to-load map left the expression language")

    # plan every downstream rewrite before committing anything
    rewrites: list[tuple[Position, Load]] = []
    for load_pos in index.loads_of(dst.name):
        if load_pos[0] == nest_i:
            continue
        stmt = index.statement(load_pos)
        try:
            routed = compose(dst_to_src, stmt.access)
        except AffineError as exc:
            return skip(SkipReason.COMPOSITION_UNREPRESENTABLE, str(exc))
        if not routed.is_symbolic:
            return skip(
                SkipReason.COMPOSITION_UNREPRESENTABLE,
                f"rewritten load in nest '{index.program.nests[load_pos[0]].name}' "
                "left the expression language",
            )
        rewrites.append((load_pos, Load(stmt.result, src_name, routed)))

    pair_load_pos = (nest_i, index.pairs[pos])
    index.remove_statement(pos)
    if not _has_other_uses(index.bodies[nest_i], pair.load.result):
        index.remove_statement(pair_load_pos)
    touched: list[Position] = []
    for rewrite_pos, load in rewrites:
        index.replace_load(rewrite_pos, load)
        touched.extend(index.pairs_fed_by.get(rewrite_pos, ()))
    touched.extend(index.pairs_storing.get(src_name, ()))
    index.remove_tensor(dst.name)
    return EliminationRecord(dst.name, dst.footprint_bytes, len(rewrites)), touched


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

    @property
    def eliminated_bytes(self) -> int:
        return sum(r.bytes for r in self.eliminated)


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
    worklist = sorted(index.pairs)  # a sorted list is already a heap
    queued = set(worklist)
    skips: dict[Position, EliminationRecord] = {}
    eliminated: list[EliminationRecord] = []
    while worklist:
        pos = heapq.heappop(worklist)
        queued.remove(pos)
        record, touched = _eliminate(index, pos, inverses)
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
