"""Loop-nest intermediate representation.

A Program is a dependence-ordered list of perfectly nested operator loops
over tensors with declared locations (off-chip DRAM vs on-chip scratchpad,
optionally annotated with a bank mapping).  Statements are element-wise
loads/stores with quasi-affine access maps, a small fixed set of compute
opcodes, and first-class memcopies.

Everything is an immutable value: passes build new Programs.  The one
mutable view is ``UseDefIndex``, which a pass edits in place and turns back
into a Program once it is done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterator, Union

import numpy as np

from .affine import DEFAULT_LIMITS, IntBox, Limits, QuasiAffineMap, expr_interval


OPCODE_ARITY = {"add": 2, "mul": 2, "max": 2, "neg": 1, "identity": 1}

OPERATOR_KINDS = {
    "conv2d",
    "matmul",
    "pooling",
    "elementwise",
    "repeat",
    "tile",
    "split",
    "transpose",
    "strided_slice",
    "reshape",
    "copy",
    "other",
}


class BankPolicy(Enum):
    CYCLIC = "cyclic"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class BankMapping:
    """One banked tensor axis: bank = f(index along axis)."""

    axis: int
    banks: int
    policy: BankPolicy = BankPolicy.CYCLIC

    def __post_init__(self) -> None:
        if self.banks < 1:
            raise ValueError("bank count must be >= 1")
        if self.axis < 0:
            raise ValueError("banked axis must be >= 0")


@dataclass(frozen=True)
class OffChip:
    pass


@dataclass(frozen=True)
class OnChip:
    mapping: BankMapping | None = None


Location = Union[OffChip, OnChip]


class Origin(Enum):
    MODEL_INPUT = "input"
    MODEL_OUTPUT = "output"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class TensorDecl:
    name: str
    elem_size: int
    shape: tuple[int, ...]
    location: Location = OffChip()
    origin: Origin = Origin.INTERMEDIATE

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def index_box(self) -> IntBox:
        return IntBox.from_extents(*self.shape)

    @property
    def footprint_bytes(self) -> int:
        return self.elem_size * math.prod(self.shape)


@dataclass(frozen=True)
class Load:
    result: str
    tensor: str
    access: QuasiAffineMap


@dataclass(frozen=True)
class Store:
    tensor: str
    access: QuasiAffineMap
    value: str


@dataclass(frozen=True)
class Compute:
    result: str
    opcode: str
    operands: tuple[str, ...]


@dataclass(frozen=True)
class Memcopy:
    """Element-wise copy dst[f(i)] = src[f(i)] over the nest box."""

    dst: str
    src: str
    element_map: QuasiAffineMap


Statement = Union[Load, Store, Compute, Memcopy]


@dataclass(frozen=True)
class OperatorNest:
    name: str
    kind: str
    box: IntBox
    body: tuple[Statement, ...]

    def loads(self) -> Iterator[Load]:
        return (s for s in self.body if isinstance(s, Load))

    def stores(self) -> Iterator[Store]:
        return (s for s in self.body if isinstance(s, Store))

    def read_tensors(self) -> tuple[str, ...]:
        """Tensors read, in first-reference order, deduplicated."""
        seen: list[str] = []
        for s in self.body:
            name = s.tensor if isinstance(s, Load) else s.src if isinstance(s, Memcopy) else None
            if name is not None and name not in seen:
                seen.append(name)
        return tuple(seen)

    def written_tensors(self) -> tuple[str, ...]:
        seen: list[str] = []
        for s in self.body:
            name = s.tensor if isinstance(s, Store) else s.dst if isinstance(s, Memcopy) else None
            if name is not None and name not in seen:
                seen.append(name)
        return tuple(seen)


@dataclass(frozen=True)
class Program:
    tensors: tuple[TensorDecl, ...]
    nests: tuple[OperatorNest, ...]

    @cached_property
    def tensor_map(self) -> dict[str, TensorDecl]:
        return {t.name: t for t in self.tensors}

    def tensor(self, name: str) -> TensorDecl:
        return self.tensor_map[name]

    def nest(self, name: str) -> OperatorNest:
        for n in self.nests:
            if n.name == name:
                return n
        raise KeyError(name)

    def producer_index(self) -> dict[str, int]:
        """Tensor name -> index of the first nest that writes it."""
        out: dict[str, int] = {}
        for i, n in enumerate(self.nests):
            for t in n.written_tensors():
                out.setdefault(t, i)
        return out


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    rule: str
    nest: str | None
    statement: int | None
    message: str
    witness: tuple[int, ...] | None = None

    def __str__(self) -> str:
        where = f" in nest '{self.nest}'" if self.nest else ""
        at = f" statement {self.statement}" if self.statement is not None else ""
        return f"{self.rule}{where}{at}: {self.message}"


def _access_in_bounds(
    access: QuasiAffineMap, shape: tuple[int, ...], limits: Limits
) -> tuple[bool, tuple[int, ...] | None]:
    """(out_of_bounds, first bad point in lexicographic order when known)."""
    if access.domain.is_empty:
        return False, None
    if access.domain.cardinality <= limits.enumerate_limit:
        pts = access.domain.points_array()
        vals = access.evaluate_batch(pts)
        bad = (vals < 0) | (vals >= np.asarray(shape, dtype=np.int64))
        rows = bad.any(axis=1)
        if rows.any():
            return True, tuple(int(v) for v in pts[int(np.argmax(rows))])
        return False, None
    # interval bound: conservative, no concrete witness
    for e, extent in zip(access.exprs, shape):
        lo, hi = expr_interval(e, access.domain)
        if lo < 0 or hi >= extent:
            return True, None
    return False, None


def validate(program: Program, limits: Limits = DEFAULT_LIMITS) -> list[Violation]:
    """Structural validity report; empty iff the program is well formed."""
    out: list[Violation] = []
    seen_tensors: set[str] = set()
    for t in program.tensors:
        if t.name in seen_tensors:
            out.append(Violation("DuplicateTensor", None, None, f"tensor '{t.name}' declared twice"))
        seen_tensors.add(t.name)
        if t.elem_size < 1 or any(d < 1 for d in t.shape):
            out.append(Violation("BadDeclaration", None, None, f"tensor '{t.name}' has bad shape/elem size"))
        if isinstance(t.location, OnChip) and t.location.mapping is not None:
            if t.location.mapping.axis >= t.rank:
                out.append(
                    Violation("BadDeclaration", None, None, f"tensor '{t.name}' banks missing axis")
                )

    decls = program.tensor_map
    produced: set[str] = {t.name for t in program.tensors if t.origin is Origin.MODEL_INPUT}
    produced_by: dict[str, str] = {}
    seen_nests: set[str] = set()

    for nest in program.nests:
        if nest.name in seen_nests:
            out.append(Violation("DuplicateNest", nest.name, None, "nest name reused"))
        seen_nests.add(nest.name)
        if not nest.body:
            out.append(Violation("EmptyBody", nest.name, None, "nest body is empty"))
        if nest.kind not in OPERATOR_KINDS:
            out.append(Violation("UnknownKind", nest.name, None, f"operator kind '{nest.kind}'"))

        defined: set[str] = set()
        for si, stmt in enumerate(nest.body):
            for tname, access in _accesses_of(stmt):
                decl = decls.get(tname)
                if decl is None:
                    out.append(
                        Violation("UndefinedTensor", nest.name, si, f"tensor '{tname}' not declared")
                    )
                    continue
                if access.domain != nest.box:
                    out.append(
                        Violation("DomainMismatch", nest.name, si, "access domain differs from nest box")
                    )
                    continue
                if access.out_arity != decl.rank:
                    out.append(
                        Violation(
                            "RankMismatch",
                            nest.name,
                            si,
                            f"access produces {access.out_arity} indices for rank-{decl.rank} '{tname}'",
                        )
                    )
                    continue
                bad, witness = _access_in_bounds(access, decl.shape, limits)
                if bad:
                    where = f" at {witness}" if witness is not None else ""
                    out.append(
                        Violation(
                            "OutOfBoundsAccess",
                            nest.name,
                            si,
                            f"access to '{tname}' leaves its shape{where}",
                            witness,
                        )
                    )
            if isinstance(stmt, Compute):
                arity = OPCODE_ARITY.get(stmt.opcode)
                if arity is None:
                    out.append(Violation("BadOpcode", nest.name, si, f"unknown opcode '{stmt.opcode}'"))
                elif len(stmt.operands) != arity:
                    out.append(Violation("BadOpcode", nest.name, si, f"'{stmt.opcode}' wants {arity} operands"))
                for op in stmt.operands:
                    if op not in defined:
                        out.append(Violation("UseBeforeDef", nest.name, si, f"value %{op} not defined yet"))
            if isinstance(stmt, Store) and stmt.value not in defined:
                out.append(Violation("UseBeforeDef", nest.name, si, f"value %{stmt.value} not defined yet"))
            if isinstance(stmt, (Load, Compute)):
                if stmt.result in defined:
                    out.append(Violation("Redefinition", nest.name, si, f"value %{stmt.result} redefined"))
                defined.add(stmt.result)
            for tname in _written_by(stmt):
                decl = decls.get(tname)
                if decl is not None and decl.origin is Origin.MODEL_INPUT:
                    out.append(Violation("StoreToInput", nest.name, si, f"model input '{tname}' written"))

        for tname in nest.read_tensors():
            if tname in decls and tname not in produced:
                out.append(
                    Violation(
                        "ReadBeforeProduce",
                        nest.name,
                        None,
                        f"tensor '{tname}' read before any earlier nest stores it",
                    )
                )
        for tname in nest.written_tensors():
            if tname in produced_by:
                out.append(
                    Violation(
                        "MultipleProducers",
                        nest.name,
                        None,
                        f"tensor '{tname}' already produced by nest '{produced_by[tname]}'",
                    )
                )
            elif tname in decls:
                produced_by[tname] = nest.name
                produced.add(tname)
    return out


def _accesses_of(stmt: Statement):
    if isinstance(stmt, Load):
        yield stmt.tensor, stmt.access
    elif isinstance(stmt, Store):
        yield stmt.tensor, stmt.access
    elif isinstance(stmt, Memcopy):
        yield stmt.dst, stmt.element_map
        yield stmt.src, stmt.element_map


def _written_by(stmt: Statement):
    if isinstance(stmt, Store):
        yield stmt.tensor
    elif isinstance(stmt, Memcopy):
        yield stmt.dst


# ---------------------------------------------------------------------------
# Dependences and copy pairs


@dataclass(frozen=True)
class DependenceEdge:
    producer: str
    consumer: str
    tensor: str


def dependence_edges(program: Program) -> list[DependenceEdge]:
    """Producer/consumer nest pairs connected through a tensor, program order."""
    producer_of: dict[str, str] = {}
    edges: list[DependenceEdge] = []
    for nest in program.nests:
        for tname in nest.read_tensors():
            p = producer_of.get(tname)
            if p is not None and p != nest.name:
                edges.append(DependenceEdge(p, nest.name, tname))
        for tname in nest.written_tensors():
            producer_of.setdefault(tname, nest.name)
    return edges


@dataclass(frozen=True)
class CopyPair:
    nest: str
    load: Load
    store: Store


def _copy_pair_slots(body: tuple[Statement, ...]) -> Iterator[tuple[int, int]]:
    """(load index, store index) of each store fed directly by a load, in store order."""
    loads_by_result = {s.result: si for si, s in enumerate(body) if isinstance(s, Load)}
    for si, stmt in enumerate(body):
        if isinstance(stmt, Store):
            li = loads_by_result.get(stmt.value)
            if li is not None:
                yield li, si


def find_copy_pairs(program: Program) -> list[CopyPair]:
    """Load/store pairs where the load result feeds the store directly."""
    return [
        CopyPair(nest.name, nest.body[li], nest.body[si])
        for nest in program.nests
        for li, si in _copy_pair_slots(nest.body)
    ]


Position = tuple[int, int]


class UseDefIndex:
    """Where each tensor is defined and read, kept current while a pass
    edits the program in place.

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
        # tensor -> nest -> statement indices of the loads reading it
        self.loads: dict[str, dict[int, list[int]]] = {}
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
            for si, stmt in enumerate(nest.body):
                if isinstance(stmt, Load):
                    self.loads.setdefault(stmt.tensor, {}).setdefault(ni, []).append(si)
                elif isinstance(stmt, Store):
                    self.defs.setdefault(stmt.tensor, []).append((ni, si))
                elif isinstance(stmt, Memcopy):
                    self.defs.setdefault(stmt.dst, []).append((ni, si))
                    self.memcopy_readers.setdefault(stmt.src, []).append((ni, si))
            for li, si in _copy_pair_slots(nest.body):
                self.pairs[(ni, si)] = li
                self.pairs_storing.setdefault(nest.body[si].tensor, []).append((ni, si))
                self.pairs_fed_by.setdefault((ni, li), []).append((ni, si))

    def statement(self, pos: Position) -> Statement | None:
        return self.bodies[pos[0]][pos[1]]

    def pair_at(self, pos: Position) -> CopyPair:
        ni, si = pos
        body = self.bodies[ni]
        return CopyPair(self.program.nests[ni].name, body[self.pairs[pos]], body[si])

    def position_of(self, pair: CopyPair) -> Position:
        """Position of ``pair``, whose store must be a statement of this program."""
        for ni, nest in enumerate(self.program.nests):
            if nest.name == pair.nest:
                for si, stmt in enumerate(self.bodies[ni]):
                    if stmt is pair.store and (ni, si) in self.pairs:
                        return ni, si
        raise ValueError(f"no copy pair with that store in nest '{pair.nest}'")

    def loads_of(self, tensor: str) -> Iterator[Position]:
        """Loads reading ``tensor``, in program order."""
        by_nest = self.loads.get(tensor, {})
        for ni in sorted(by_nest):
            for si in sorted(by_nest[ni]):
                yield ni, si

    def remove_statement(self, pos: Position) -> None:
        stmt = self.statement(pos)
        ni, si = pos
        if isinstance(stmt, Load):
            self.loads[stmt.tensor][ni].remove(si)
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
        old = self.statement(pos)
        self.loads[old.tensor][ni].remove(si)
        self.loads.setdefault(load.tensor, {}).setdefault(ni, []).append(si)
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
                nests.append(replace(nest, body=body))
        tensors = tuple(t for t in self.program.tensors if t.name not in self._removed_tensors)
        return Program(tensors, tuple(nests))


def is_pure_copy_nest(nest: OperatorNest) -> bool:
    """Body is exactly one load feeding one store."""
    if len(nest.body) != 2:
        return False
    first, second = nest.body
    return (
        isinstance(first, Load)
        and isinstance(second, Store)
        and second.value == first.result
    )
