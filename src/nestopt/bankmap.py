"""Scratchpad bank-mapping assignment.

Operators with hardware placement requirements (conv-like, matmul,
pooling) seed bank mappings on their tensors from a registry of
templates.  A fixed-point pass then pushes mappings across dependence
edges through unconstrained operators, forward and backward, over the
three-level lattice unknown -> exact -> conflict.  Conflicting tensors are
resolved by materializing a re-banked twin plus an inter-bank memcopy in
front of the first consumer that needs it.

A local baseline assigns templates/defaults per operator with no
propagation and pays a memcopy on every mismatched dependence edge.

Every question of what a nest reads or writes goes to ``ir.accesses``:
template slots, propagation tasks, requirements and readers.  A propagation
task carries the load and store maps its transfer needs, so no round walks
a body again.  Both modes find each tensor's producer through
``ir.producers``, and both insert memcopies through the same rewrite; an
inserted memcopy holds no map, only its two tensors.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType
from typing import Sequence, Union

from .affine import QuasiAffineMap
from .ir import (
    OPERATOR_KINDS,
    BankMapping,
    BankPolicy,
    Load,
    Memcopy,
    OperatorNest,
    OffChip,
    OnChip,
    Program,
    Statement,
    TensorDecl,
    accesses,
    dependence_edges,
    producers,
)


class RankMismatchError(Exception):
    pass


DEFAULT_BANKS = 8


def default_mapping(banks: int) -> BankMapping:
    """Mapping used for tensors nothing constrains: outermost axis, cyclic."""
    return BankMapping(0, banks, BankPolicy.CYCLIC)


# ---------------------------------------------------------------------------
# Anchor registry


@dataclass(frozen=True)
class AnchorTemplate:
    operands: tuple[BankMapping | None, ...]
    results: tuple[BankMapping | None, ...]


def _reject_unknown_keys(entry: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}")


def _integer_at_least(value, low: int, what: str) -> int:
    if type(value) is not int or value < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


@dataclass(frozen=True)
class AnchorRegistry:
    """Per-operator-kind required mappings for each operand/result slot.

    ``templates`` is a read-only copy of the mapping it is given, so a
    registry cannot change once built and ``default`` can share one.
    """

    templates: Mapping[str, AnchorTemplate]
    banks: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "templates", MappingProxyType(dict(self.templates)))

    @staticmethod
    def from_dict(doc: dict, banks: int | None = None) -> "AnchorRegistry":
        """Registry from an anchors document; a key nothing reads is an error, not a no-op."""
        if "operators" not in doc:
            raise ValueError("anchors document has no 'operators' key")
        _reject_unknown_keys(doc, {"banks", "operators"}, "anchors document")
        doc_banks = _integer_at_least(doc.get("banks", DEFAULT_BANKS), 1, "anchors document 'banks'")
        bank_count = banks if banks is not None else doc_banks

        def slot(entry, where: str) -> BankMapping | None:
            if entry is None:
                return None
            _reject_unknown_keys(entry, {"axis", "policy"}, where)
            axis = _integer_at_least(entry["axis"], 0, f"{where} 'axis'")
            return BankMapping(axis, bank_count, BankPolicy(entry.get("policy", "cyclic")))

        templates = {}
        for kind, spec in doc["operators"].items():
            if kind not in OPERATOR_KINDS:
                raise ValueError(f"anchors document names unknown operator kind '{kind}'")
            _reject_unknown_keys(spec, {"operands", "results"}, f"operator '{kind}'")
            templates[kind] = AnchorTemplate(
                tuple(slot(e, f"operator '{kind}' operand") for e in spec.get("operands", [])),
                tuple(slot(e, f"operator '{kind}' result") for e in spec.get("results", [])),
            )
        return AnchorRegistry(templates, bank_count)

    @staticmethod
    def from_file(path, banks: int | None = None) -> "AnchorRegistry":
        """Registry from the anchors file at ``path``.  A file that cannot be read
        raises its ``OSError``; a malformed one (bad JSON or UTF-8, JSON nested too
        deep, a bad document) one ``ValueError`` reading ``"<ExcType>: <detail>"``."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return AnchorRegistry.from_dict(json.load(fh), banks)
            except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
                detail = " ".join(str(exc).split())
                raise ValueError(f"{type(exc).__name__}: {detail}") from None

    @staticmethod
    def default(banks: int | None = None) -> "AnchorRegistry":
        """The registry of the bundled ``data/anchors.json`` for ``banks`` banks.

        The file is read and decoded at most once per process, and each bank
        count's registry is built once and shared by every later call.
        """
        return _default_registry(banks)


@cache
def _bundled_anchors() -> dict:
    return json.loads(resources.files("nestopt").joinpath("data/anchors.json").read_text("utf-8"))


@cache
def _default_registry(banks: int | None) -> AnchorRegistry:
    return AnchorRegistry.from_dict(_bundled_anchors(), banks)


# ---------------------------------------------------------------------------
# Lattice


@dataclass(frozen=True)
class Unknown:
    pass


@dataclass(frozen=True)
class Exactly:
    mapping: BankMapping


@dataclass(frozen=True)
class Conflict:
    mappings: frozenset


LatticeValue = Union[Unknown, Exactly, Conflict]

UNKNOWN = Unknown()


def join(value: LatticeValue, mapping: BankMapping) -> LatticeValue:
    """Commutative/associative/idempotent join of one contribution."""
    if isinstance(value, Unknown):
        return Exactly(mapping)
    if isinstance(value, Exactly):
        if value.mapping == mapping:
            return value
        return Conflict(frozenset({value.mapping, mapping}))
    return Conflict(value.mappings | {mapping})


@dataclass(frozen=True)
class MappingState:
    """Per-tensor lattice values plus the seeding facts materialize needs."""

    values: dict[str, LatticeValue]
    anchored: frozenset[str]
    requirements: dict[tuple[str, str], BankMapping]
    default_banks: int
    updates: int = field(default=0, compare=False)

    def conflicts(self) -> tuple[str, ...]:
        return tuple(sorted(t for t, v in self.values.items() if isinstance(v, Conflict)))


# ---------------------------------------------------------------------------
# Seeding


def _template_slots(
    program: Program, registry: AnchorRegistry, nest: OperatorNest
) -> tuple[dict[str, BankMapping], dict[str, BankMapping]]:
    """The mappings the template for ``nest``'s kind requires of the tensors
    it reads and of those it writes; both empty when no template covers it.

    Raises RankMismatchError when a slot banks an axis its tensor lacks.
    """
    template = registry.templates.get(nest.kind)
    if template is None:
        return {}, {}
    sides = []
    for names, slots in zip(accesses(nest), (template.operands, template.results)):
        side = {}
        for tname, mapping in zip(names, slots):
            if mapping is None:
                continue
            decl = program.tensor_map.get(tname)
            if decl is not None and mapping.axis >= decl.rank:
                raise RankMismatchError(
                    f"nest '{nest.name}': template banks axis {mapping.axis} of rank-{decl.rank} '{tname}'"
                )
            side[tname] = mapping
        sides.append(side)
    return sides[0], sides[1]


def seed_anchors(program: Program, registry: AnchorRegistry) -> MappingState:
    """Assign template mappings to every tensor of every anchored nest."""
    values: dict[str, LatticeValue] = {t.name: UNKNOWN for t in program.tensors}
    requirements: dict[tuple[str, str], BankMapping] = {}
    anchored = set()
    for nest in program.nests:
        if nest.kind not in registry.templates:
            continue
        anchored.add(nest.name)
        for side in _template_slots(program, registry, nest):
            for tname, mapping in side.items():
                requirements[(nest.name, tname)] = mapping
                values[tname] = join(values[tname], mapping)
    return MappingState(values, frozenset(anchored), requirements, registry.banks)


# ---------------------------------------------------------------------------
# Transfer


@dataclass(frozen=True)
class Blocked:
    reason: str


def _axis_driver(m: QuasiAffineMap, axis: int) -> int | None:
    """Loop dimension driving a tensor axis with unit stride, if unique."""
    if axis >= len(m.exprs):
        return None
    e = m.exprs[axis]
    if e.terms:
        return None
    nz = [(j, c) for j, c in enumerate(e.coeffs) if c != 0]
    if len(nz) != 1 or abs(nz[0][1]) != 1:
        return None
    return nz[0][0]


def _axes_driven_by(m: QuasiAffineMap, dim: int) -> list[int]:
    return [k for k in range(len(m.exprs)) if _axis_driver(m, k) == dim]


def transfer(
    mapping: BankMapping,
    load_map: QuasiAffineMap,
    store_map: QuasiAffineMap,
    direction: str,
) -> BankMapping | Blocked:
    """Carry a banked axis through an unconstrained nest.

    forward: banked axis of the loaded tensor -> axis of the stored tensor;
    backward: the reverse.  Requires the axis to be driven by one loop
    dimension with coefficient +-1 on both sides, uniquely.
    """
    src_map, dst_map = (load_map, store_map) if direction == "forward" else (store_map, load_map)
    dim = _axis_driver(src_map, mapping.axis)
    if dim is None:
        return Blocked(f"axis {mapping.axis} is not driven by a single unit-stride loop dim")
    axes = _axes_driven_by(dst_map, dim)
    if len(axes) != 1:
        return Blocked(f"loop dim i{dim} drives {len(axes)} destination axes, need exactly 1")
    return BankMapping(axes[0], mapping.banks, mapping.policy)


def _nest_transfer(
    load_maps: list[QuasiAffineMap], store_maps: list[QuasiAffineMap], mapping: BankMapping, direction: str
) -> BankMapping | None:
    """Transfer through a nest, from one tensor's load maps to another's store
    maps, as a whole; None when blocked or ambiguous."""
    results = set()
    for lm in load_maps:
        for sm in store_maps:
            r = transfer(mapping, lm, sm, direction)
            if isinstance(r, Blocked):
                return None
            results.add(r)
    if len(results) != 1:
        return None
    return results.pop()


# ---------------------------------------------------------------------------
# Propagation (synchronous rounds: result independent of task order)


def propagate(
    program: Program, seeded: MappingState, task_order: Sequence[int] | None = None
) -> MappingState:
    """Push mappings across dependence edges until nothing changes.

    Each round computes every transfer from the previous state and joins
    the contributions; the join is commutative/associative/idempotent, so
    any task permutation yields the same fixpoint.
    """
    tasks = []
    for nest in program.nests:
        if nest.name in seeded.anchored:
            continue
        reads, writes = accesses(nest)
        tasks += [
            (direction, u, w, load_maps, store_maps)
            for u, load_maps in reads.items()
            for w, store_maps in writes.items()
            for direction in ("forward", "backward")
        ]
    if task_order is not None:
        tasks = [tasks[i] for i in task_order]

    values = dict(seeded.values)
    updates = seeded.updates
    while True:
        contributions: list[tuple[str, BankMapping]] = []
        for direction, u, w, load_maps, store_maps in tasks:
            src, dst = (u, w) if direction == "forward" else (w, u)
            val = values.get(src, UNKNOWN)
            if not isinstance(val, Exactly):
                continue
            carried = _nest_transfer(load_maps, store_maps, val.mapping, direction)
            if carried is not None:
                contributions.append((dst, carried))
        new_values = dict(values)
        for tname, mapping in contributions:
            new_values[tname] = join(new_values.get(tname, UNKNOWN), mapping)
        if new_values == values:
            return MappingState(
                values, seeded.anchored, seeded.requirements, seeded.default_banks, updates
            )
        for tname, v in new_values.items():
            if type(v) is not type(values.get(tname, UNKNOWN)):
                updates += 1
        values = new_values


# ---------------------------------------------------------------------------
# Materialization


@dataclass(frozen=True)
class InsertedCopy:
    tensor: str
    new_tensor: str
    nest: str
    mapping_from: BankMapping
    mapping_to: BankMapping
    consumers: tuple[str, ...]
    bytes: int


@dataclass(frozen=True)
class MappingReport:
    mode: str
    inserted: tuple[InsertedCopy, ...]
    assignments: dict[str, BankMapping]
    defaulted: tuple[str, ...]
    conflicts: tuple[str, ...]
    ignored_offchip: tuple[str, ...]

    @property
    def inserted_bytes(self) -> int:
        return sum(c.bytes for c in self.inserted)


def _nest_requirement(
    state: MappingState, nest: OperatorNest, tensor: str, direction: str
) -> BankMapping | None:
    """The mapping ``nest`` gives ``tensor`` (forward: a tensor it writes)
    or needs of it (backward: a tensor it reads): its template's, else one
    carried through the nest from an exact tensor on the other side."""
    req = state.requirements.get((nest.name, tensor))
    if req is not None:
        return req
    if nest.name in state.anchored:
        return None
    reads, writes = accesses(nest)
    forward = direction == "forward"
    for other, other_maps in (reads if forward else writes).items():
        val = state.values.get(other, UNKNOWN)
        if isinstance(val, Exactly):
            load_maps, store_maps = (other_maps, writes[tensor]) if forward else (reads[tensor], other_maps)
            r = _nest_transfer(load_maps, store_maps, val.mapping, direction)
            if r is not None:
                return r
    return None


def _retarget_reads(nest: OperatorNest, old: str, new: str) -> OperatorNest:
    body: list[Statement] = []
    for s in nest.body:
        if isinstance(s, Load) and s.tensor == old:
            body.append(Load(s.result, new, s.access))
        elif isinstance(s, Memcopy) and s.src == old:
            body.append(Memcopy(s.dst, new))
        else:
            body.append(s)
    return OperatorNest(nest.name, nest.kind, nest.box, tuple(body))


# (tensor, mapping its consumers need, indices of those consumers, ascending)
_Fix = tuple[str, BankMapping, list[int]]


def _rebank(
    program: Program,
    mode: str,
    final: dict[str, BankMapping],
    fixes: list[_Fix],
    defaulted: tuple[str, ...] = (),
    conflicts: tuple[str, ...] = (),
    ignored_offchip: tuple[str, ...] = (),
) -> tuple[Program, MappingReport]:
    """Annotate every on-chip tensor with its ``final`` mapping, then apply
    ``fixes`` in order.

    A fix declares a twin of its tensor banked as its consumers need, fills
    it with a ``bankfix_`` identity-memcopy nest placed before the first
    consumer, and makes every consumer read the twin.  Twins are named
    ``<tensor>__r<k>`` in global mode and ``<tensor>__l<k>`` in local mode,
    with one counter for all fixes that skips names already taken.
    """
    tag = "r" if mode == "global" else "l"
    # one location per distinct mapping, for this call
    locations: dict[BankMapping, OnChip] = {}
    new_tensors = []
    for decl in program.tensors:
        if isinstance(decl.location, OnChip):
            m = final[decl.name]
            loc = locations.get(m) or locations.setdefault(m, OnChip(m))
            new_tensors.append(TensorDecl(decl.name, decl.elem_size, decl.shape, loc, decl.origin))
        else:
            new_tensors.append(decl)

    inserted: list[InsertedCopy] = []
    nest_replacements: dict[int, OperatorNest] = {}
    inserts_at: dict[int, list[OperatorNest]] = {}
    existing = {t.name for t in program.tensors}
    counter = 0
    for tensor, req, consumers in fixes:
        new_name = f"{tensor}__{tag}{counter}"
        while new_name in existing:
            counter += 1
            new_name = f"{tensor}__{tag}{counter}"
        existing.add(new_name)
        counter += 1
        decl = program.tensor(tensor)
        loc = locations.get(req) or locations.setdefault(req, OnChip(req))
        new_tensors.append(TensorDecl(new_name, decl.elem_size, decl.shape, loc))
        copy_nest = OperatorNest(f"bankfix_{new_name}", "copy", decl.index_box, (Memcopy(new_name, tensor),))
        inserts_at.setdefault(consumers[0], []).append(copy_nest)
        for ni in consumers:
            base = nest_replacements.get(ni, program.nests[ni])
            nest_replacements[ni] = _retarget_reads(base, tensor, new_name)
        inserted.append(
            InsertedCopy(
                tensor,
                new_name,
                copy_nest.name,
                final[tensor],
                req,
                tuple(program.nests[ni].name for ni in consumers),
                decl.footprint_bytes,
            )
        )

    new_nests: list[OperatorNest] = []
    for ni, nest in enumerate(program.nests):
        new_nests.extend(inserts_at.get(ni, ()))
        new_nests.append(nest_replacements.get(ni, nest))
    out = Program(tuple(new_tensors), tuple(new_nests))
    report = MappingReport(
        mode,
        tuple(inserted),
        {t: m for t, m in final.items() if isinstance(program.tensor(t).location, OnChip)},
        defaulted,
        conflicts,
        ignored_offchip,
    )
    return out, report


def materialize(program: Program, state: MappingState) -> tuple[Program, MappingReport]:
    """Annotate final mappings and insert memcopies for conflicting tensors."""
    default = default_mapping(state.default_banks)
    producer = producers(program)
    readers: dict[str, list[int]] = {}
    for ni, nest in enumerate(program.nests):
        for tname in accesses(nest)[0]:
            readers.setdefault(tname, []).append(ni)
    final: dict[str, BankMapping] = {}
    defaulted: list[str] = []
    ignored_offchip: list[str] = []
    fixes: list[_Fix] = []
    for decl in program.tensors:
        value = state.values.get(decl.name, UNKNOWN)
        if isinstance(value, Unknown):
            final[decl.name] = default
            if isinstance(decl.location, OnChip):
                defaulted.append(decl.name)
            continue
        if isinstance(value, Exactly):
            final[decl.name] = value.mapping
            continue
        pi = producer.get(decl.name)
        keeper = None if pi is None else _nest_requirement(state, program.nests[pi], decl.name, "forward")
        groups: dict[BankMapping, list[int]] = {}
        for ni in readers.get(decl.name, ()):
            req = _nest_requirement(state, program.nests[ni], decl.name, "backward")
            if req is None:
                continue
            if keeper is None:
                keeper = req
            if req != keeper:
                groups.setdefault(req, []).append(ni)
        final[decl.name] = keeper if keeper is not None else default
        if isinstance(decl.location, OffChip):
            if groups:
                ignored_offchip.append(decl.name)
            continue
        for req, consumers in sorted(
            groups.items(), key=lambda kv: (min(kv[1]), kv[0].axis, kv[0].policy.value)
        ):
            fixes.append((decl.name, req, consumers))
    return _rebank(
        program, "global", final, fixes, tuple(defaulted), state.conflicts(), tuple(ignored_offchip)
    )


def run_global_mapping(
    program: Program, registry: AnchorRegistry | None = None
) -> tuple[Program, MappingState, MappingReport]:
    registry = registry or AnchorRegistry.default()
    state = propagate(program, seed_anchors(program, registry))
    out, report = materialize(program, state)
    return out, state, report


# ---------------------------------------------------------------------------
# Local baseline


def run_local_baseline(
    program: Program, registry: AnchorRegistry | None = None
) -> tuple[Program, MappingReport]:
    """Per-operator template/default assignment, memcopy on every mismatched
    dependence edge, no propagation."""
    registry = registry or AnchorRegistry.default()
    default = default_mapping(registry.banks)
    slots = [_template_slots(program, registry, nest) for nest in program.nests]

    produced = {tname: slots[ni][1].get(tname, default) for tname, ni in producers(program).items()}
    final = {decl.name: produced.get(decl.name, default) for decl in program.tensors}

    position = {n.name: i for i, n in enumerate(program.nests)}
    fixes: list[_Fix] = []
    for edge in dependence_edges(program):
        if not isinstance(program.tensor(edge.tensor).location, OnChip):
            continue
        ci = position[edge.consumer]
        needed = slots[ci][0].get(edge.tensor, default)
        if needed != final[edge.tensor]:
            fixes.append((edge.tensor, needed, [ci]))
    return _rebank(program, "local", final, fixes)
