"""Loop-nest intermediate representation.

A Program is a dependence-ordered list of perfectly nested operator loops
over tensors with declared locations (off-chip DRAM vs on-chip scratchpad,
optionally annotated with a bank mapping).  Statements are element-wise
loads/stores with quasi-affine access maps, a small fixed set of compute
opcodes, and first-class memcopies.  A memcopy holds no map: it copies
``dst[i] = src[i]`` at each point ``i`` of its nest box, and the nest's
``identity`` is the one place that map is built.

Everything is an immutable value: passes build new Programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Union

from .affine import HARD_CARDINALITY_CAP, INT64_MAX, ImageEscape, IntBox, QuasiAffineMap
from .affine import identity_map, image_escape, map_fits_int64


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

    @cached_property
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
    """Element-wise copy dst[i] = src[i] at each point i of the nest box."""

    dst: str
    src: str


Statement = Union[Load, Store, Compute, Memcopy]


@dataclass(frozen=True)
class OperatorNest:
    name: str
    kind: str
    box: IntBox
    body: tuple[Statement, ...]

    @cached_property
    def identity(self) -> QuasiAffineMap:
        """The map of both sides of each memcopy in the body."""
        return identity_map(self.box)


@dataclass(frozen=True)
class Program:
    tensors: tuple[TensorDecl, ...]
    nests: tuple[OperatorNest, ...]

    @cached_property
    def tensor_map(self) -> dict[str, TensorDecl]:
        return {t.name: t for t in self.tensors}

    def tensor(self, name: str) -> TensorDecl:
        return self.tensor_map[name]


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


# the rule of a box or access that the oracle's int64 evaluation would wrap
INT64_OVERFLOW = "Int64Overflow"


def validate(program: Program, *, _memo: dict | None = None) -> list[Violation]:
    """Structural validity report; empty iff the program is well formed.

    ``_memo`` carries each access's bounds check by (map, shape) from another
    program of the same command, whose programs share most accesses; by
    default the call starts empty.  A map's key holds its domain, the nest
    box, which fixes the magnitude its check depends on.
    """
    memo = {} if _memo is None else _memo
    out: list[Violation] = []
    seen_tensors: set[str] = set()
    for t in program.tensors:
        if t.name in seen_tensors:
            out.append(Violation("DuplicateTensor", None, None, f"tensor '{t.name}' declared twice"))
        seen_tensors.add(t.name)
        if t.elem_size < 1 or not t.shape or any(d < 1 for d in t.shape):
            out.append(Violation("BadDeclaration", None, None, f"tensor '{t.name}' has bad shape/elem size"))
        elif math.prod(t.shape) > HARD_CARDINALITY_CAP:
            # so that every access image checked below fits an IntBox
            message = f"tensor '{t.name}' has {math.prod(t.shape)} cells, more than 2^40"
            out.append(Violation("BadDeclaration", None, None, message))
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
        if nest.box.magnitude > INT64_MAX:
            out.append(Violation(INT64_OVERFLOW, nest.name, None, "loop bounds leave int64"))

        # reads and writes from this walk, not ``accesses``: it visits every statement anyway
        reads: dict[str, None] = {}
        writes: dict[str, None] = {}
        defined: set[str] = set()
        for si, stmt in enumerate(nest.body):
            if isinstance(stmt, Load):
                _check_access(out, memo, decls, nest, si, stmt.tensor, stmt.access)
                reads[stmt.tensor] = None
                result = stmt.result
            elif isinstance(stmt, Store):
                _check_access(out, memo, decls, nest, si, stmt.tensor, stmt.access)
                if stmt.value not in defined:
                    out.append(Violation("UseBeforeDef", nest.name, si, f"value %{stmt.value} not defined yet"))
                _check_write(out, decls, nest, si, stmt.tensor)
                writes[stmt.tensor] = None
                continue
            elif isinstance(stmt, Memcopy):
                _check_access(out, memo, decls, nest, si, stmt.dst, nest.identity)
                _check_access(out, memo, decls, nest, si, stmt.src, nest.identity)
                _check_write(out, decls, nest, si, stmt.dst)
                reads[stmt.src] = None
                writes[stmt.dst] = None
                continue
            elif isinstance(stmt, Compute):
                arity = OPCODE_ARITY.get(stmt.opcode)
                if arity is None:
                    out.append(Violation("BadOpcode", nest.name, si, f"unknown opcode '{stmt.opcode}'"))
                elif len(stmt.operands) != arity:
                    out.append(Violation("BadOpcode", nest.name, si, f"'{stmt.opcode}' wants {arity} operands"))
                for op in stmt.operands:
                    if op not in defined:
                        out.append(Violation("UseBeforeDef", nest.name, si, f"value %{op} not defined yet"))
                result = stmt.result
            else:
                continue
            if result in defined:
                out.append(Violation("Redefinition", nest.name, si, f"value %{result} redefined"))
            defined.add(result)

        for tname in reads:
            if tname in decls and tname not in produced:
                out.append(
                    Violation(
                        "ReadBeforeProduce",
                        nest.name,
                        None,
                        f"tensor '{tname}' read before any earlier nest stores it",
                    )
                )
        for tname in writes:
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


def _check_access(
    out: list[Violation],
    memo: dict,
    decls: dict[str, TensorDecl],
    nest: OperatorNest,
    si: int,
    tname: str,
    access: QuasiAffineMap,
) -> None:
    """Append the violation, if any, of statement ``si``'s access to ``tname``."""
    decl = decls.get(tname)
    if decl is None:
        out.append(Violation("UndefinedTensor", nest.name, si, f"tensor '{tname}' not declared"))
        return
    if access.domain != nest.box:
        out.append(Violation("DomainMismatch", nest.name, si, "access domain differs from nest box"))
        return
    if access.out_arity != decl.rank:
        message = f"access produces {access.out_arity} indices for rank-{decl.rank} '{tname}'"
        out.append(Violation("RankMismatch", nest.name, si, message))
        return
    key = (access, decl.shape)  # the access's domain is the nest box
    escape = memo.get(key, False)
    if escape is False:
        if nest.box.magnitude > INT64_MAX:  # no image is checked that int64 cannot hold
            escape = None
        elif map_fits_int64(access):
            escape = image_escape(access, (0,) * decl.rank, decl.shape)
        else:
            escape = INT64_OVERFLOW
        memo[key] = escape
    if escape is not None:
        out.append(_bounds_violation(escape, nest.name, si, tname))


def _check_write(
    out: list[Violation], decls: dict[str, TensorDecl], nest: OperatorNest, si: int, tname: str
) -> None:
    """Append the violation, if any, of statement ``si``'s write to ``tname``."""
    decl = decls.get(tname)
    if decl is not None and decl.origin is Origin.MODEL_INPUT:
        out.append(Violation("StoreToInput", nest.name, si, f"model input '{tname}' written"))


def _bounds_violation(escape: ImageEscape | str, nest: str, si: int, tname: str) -> Violation:
    """The violation of an access whose bounds check found ``escape``."""
    if escape is INT64_OVERFLOW:
        return Violation(INT64_OVERFLOW, nest, si, f"access to '{tname}' can take values beyond int64")
    where = f" at {escape.witness}" if escape.witness is not None else ""
    message = f"access to '{tname}' leaves its shape{where}"
    return Violation("OutOfBoundsAccess", nest, si, message, escape.witness)


Accesses = dict[str, list[QuasiAffineMap]]


def accesses(nest: OperatorNest) -> tuple[Accesses, Accesses]:
    """What ``nest`` reads (loads, memcopy sources) and writes (stores,
    memcopy destinations): each a dict from tensor, in first-reference
    order, to its access maps in body order; a memcopy's through the nest's
    identity map.  Built on each call: kept on the nest, it slowed ``verify``."""
    reads: Accesses = {}
    writes: Accesses = {}
    for s in nest.body:
        if isinstance(s, Load):
            reads.setdefault(s.tensor, []).append(s.access)
        elif isinstance(s, Store):
            writes.setdefault(s.tensor, []).append(s.access)
        elif isinstance(s, Memcopy):
            reads.setdefault(s.src, []).append(nest.identity)
            writes.setdefault(s.dst, []).append(nest.identity)
    return reads, writes


# ---------------------------------------------------------------------------
# Dependences and copy pairs


@dataclass(frozen=True)
class DependenceEdge:
    producer: str
    consumer: str
    tensor: str


def producers(program: Program) -> dict[str, int]:
    """Each written tensor -> index of the first nest that writes it."""
    first: dict[str, int] = {}
    for ni, nest in enumerate(program.nests):
        for tname in accesses(nest)[1]:
            first.setdefault(tname, ni)
    return first


def dependence_edges(program: Program) -> list[DependenceEdge]:
    """Producer/consumer nest pairs connected through a tensor, in consumer
    order; a consumer's edges follow the order it first reads the tensors.
    The producer is a tensor's first definer, and only an earlier one counts."""
    producer = producers(program)
    edges: list[DependenceEdge] = []
    for ri, nest in enumerate(program.nests):
        for tname in accesses(nest)[0]:
            p = producer.get(tname)
            if p is not None and p < ri:
                edges.append(DependenceEdge(program.nests[p].name, nest.name, tname))
    return edges


@dataclass(frozen=True)
class CopyPair:
    nest: str
    load: Load
    store: Store


def copy_pair_slots(body: tuple[Statement, ...]) -> Iterator[tuple[int, int]]:
    """(load index, store index) of each store fed directly by a load, in
    store order: the one rule for what a copy pair is."""
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
        for li, si in copy_pair_slots(nest.body)
    ]


def is_pure_copy_nest(nest: OperatorNest) -> bool:
    """Body is exactly one load feeding one store."""
    return len(nest.body) == 2 and list(copy_pair_slots(nest.body)) == [(0, 1)]
