"""Reference interpreter: the correctness oracle for every pass.

Runs a program on concrete integer tensors with per-cell poison tracking
(reading a never-written intermediate cell is an error).  The semantics are
those of a literal walk: each nest visits its box's points in lexicographic
order and runs its body statements in order at each point.

There is one execution path, vectorized over the whole box.  A statement's
flat cell indices, and their arity and bounds checks, depend only on (access
map, nest box, tensor shape).  A whole-model program repeats a few such keys
many times, and ``equivalent``'s two programs share most of theirs, so one
``equivalent`` call (or one ``run`` called on its own) computes and checks
each distinct key once and keeps, read-only, what every later statement
with that key needs: the indices, whether they hit no cell twice
(``injective``) and whether they hit every cell of the tensor
(``covers``).  Only a key whose checks pass is kept, so a bad key raises
at its first occurrence, naming that statement and its program.  ``run``
also keeps the set of fully written tensors: the model inputs, and each
tensor on which a covering
injective store lands.  Nothing is kept past the call.  A nest's loads and
memcopy sources are checked for poison, statement by statement, before
any of its writes land; a read of a fully written tensor needs no check.
This is exact because a nest never reads a tensor it writes (validation
forbids it, and the interpreter refuses such a nest), so the only order a
reader can observe is the order of writes to one cell.  A tensor written
once in a nest, through an injective key, takes a plain scatter.
Otherwise the last-writer rule settles it: a cell's final value is the
write with the greatest (point index, statement index), picked with a
stable sort whenever some cell is written more than once, whether by
several statements or by one store whose access is not injective.

Buffers carry a leading trial axis, so ``equivalent`` runs each program once
for all its trials.  Which cells a program writes does not depend on its
inputs, so the written-cell masks, indices, bounds checks and poison checks
are shared by every trial.  Before drawing inputs or allocating, each
tensor's buffer over all trials, and each nest's point array and values of
one statement over all trials, are checked against ``BUFFER_BYTES``, once
per program: by ``equivalent`` before it draws inputs, or by ``run`` when
called on its own.

numpy is imported inside the functions that use it, so importing this
module (as ``import nestopt`` and ``import nestopt.cli`` do) does not load it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .affine import IntBox, QuasiAffineMap
from .ir import Compute, Load, Memcopy, Origin, Program, Store

if TYPE_CHECKING:
    import numpy as np


class InterpError(Exception):
    """A program the interpreter cannot run.

    ``equivalent`` sets ``side`` to 0 or 1, the argument whose run raised;
    it stays None for an error that concerns both programs.
    """

    side: int | None = None


class PoisonRead(InterpError):
    pass


class BufferTooLarge(InterpError):
    """A tensor's buffers, or a nest's point or value arrays, would pass ``BUFFER_BYTES``."""


@dataclass
class TensorStore:
    """Dense integer buffers by tensor name.

    A store made by ``stack`` holds several trials: each buffer then has a
    leading trial axis of length ``trials``.  For a single run ``trials`` is
    None and each buffer has its tensor's shape.
    """

    data: dict[str, np.ndarray]
    trials: int | None = None

    @staticmethod
    def from_arrays(arrays: dict[str, np.ndarray]) -> "TensorStore":
        import numpy as np

        return TensorStore({k: np.array(v, dtype=np.int64) for k, v in arrays.items()})

    @staticmethod
    def stack(stores: list["TensorStore"]) -> "TensorStore":
        """One store holding each single-trial store as a trial, in order."""
        import numpy as np

        names = stores[0].names()
        if any(s.trials is not None or s.names() != names for s in stores):
            raise InterpError("only single-trial stores over the same tensors can be stacked")
        return TensorStore({k: np.stack([s.data[k] for s in stores]) for k in names}, len(stores))

    def array(self, name: str) -> np.ndarray:
        return self.data[name]

    def names(self) -> set[str]:
        return set(self.data)


# ---------------------------------------------------------------------------
# Point arrays, cached across runs up to a byte budget

POINT_CACHE_BYTES = 64 << 20
# largest int64 array, over all trials, that ``run`` allocates for one tensor,
# one nest's points or one statement's values
BUFFER_BYTES = 1 << 30


class _PointCache:
    """Least-recently-used point arrays by box, at most POINT_CACHE_BYTES in all."""

    def __init__(self) -> None:
        self.arrays: OrderedDict[IntBox, np.ndarray] = OrderedDict()
        self.nbytes = 0

    def points(self, box: IntBox) -> np.ndarray:
        pts = self.arrays.get(box)
        if pts is not None:
            self.arrays.move_to_end(box)
            return pts
        pts = box.points_array()
        pts.flags.writeable = False
        if pts.nbytes <= POINT_CACHE_BYTES:
            self.arrays[box] = pts
            self.nbytes += pts.nbytes
            while self.nbytes > POINT_CACHE_BYTES:
                self.nbytes -= self.arrays.popitem(last=False)[1].nbytes
        return pts

    def clear(self) -> None:
        self.arrays.clear()
        self.nbytes = 0


_point_cache = _PointCache()


# ---------------------------------------------------------------------------
# Execution


def run(
    program: Program,
    inputs: TensorStore,
    *,
    _sizes_checked: bool = False,
    _indices: dict[tuple[QuasiAffineMap, IntBox, tuple[int, ...]], _Cells] | None = None,
) -> TensorStore:
    """Execute and return the model-output tensors.

    If ``inputs`` holds several trials (``TensorStore.stack``), all of them
    run in one pass and the outputs are stacked the same way.  The input
    store is not modified.  Raises InterpError for missing or mis-shaped
    inputs and out-of-bounds accesses, PoisonRead for reads of never-written
    cells, BufferTooLarge before allocating a buffer or building a nest's
    points over BUFFER_BYTES.  ``equivalent``, which checks the sizes itself
    before drawing inputs, passes ``_sizes_checked``, and passes both of its
    runs one ``_indices`` memo; by default the call starts its own.
    """
    import numpy as np

    expected = {t.name for t in program.tensors if t.origin is Origin.MODEL_INPUT}
    if inputs.names() != expected:
        raise InterpError(
            f"inputs must cover exactly the model inputs {sorted(expected)}, got {sorted(inputs.names())}"
        )
    batch = 1 if inputs.trials is None else inputs.trials
    if not _sizes_checked:
        _check_buffer_sizes(program, batch)
    data: dict[str, np.ndarray] = {}
    written: dict[str, np.ndarray] = {}
    for t in program.tensors:
        if t.origin is Origin.MODEL_INPUT:
            src = inputs.array(t.name)
            shape = src.shape if inputs.trials is None else src.shape[1:]
            if tuple(shape) != t.shape:
                raise InterpError(f"input '{t.name}' has shape {shape}, declared {t.shape}")
            data[t.name] = np.array(src, dtype=np.int64).reshape(batch, -1)
            written[t.name] = np.ones(data[t.name].shape[1], dtype=bool)
        else:
            size = math.prod(t.shape)
            data[t.name] = np.zeros((batch, size), dtype=np.int64)
            written[t.name] = np.zeros(size, dtype=bool)

    decls = program.tensor_map
    # the cells of each (access, box, shape), shared by every statement that has it
    indices = {} if _indices is None else _indices
    # tensors whose every cell is written: their masks are all True
    full = {t.name for t in program.tensors if t.origin is Origin.MODEL_INPUT}
    for nest in program.nests:
        pts = _point_cache.points(nest.box)
        if pts.shape[0]:
            _run_nest(nest, pts, decls, data, written, indices, full)

    outputs = {}
    for t in program.tensors:
        if t.origin is Origin.MODEL_OUTPUT:
            if t.name not in full and not written[t.name].all():
                cell = np.unravel_index(int(np.argmin(written[t.name])), t.shape)
                raise PoisonRead(
                    f"model output '{t.name}' is not fully written: cell {_tuple(cell)} never is"
                )
            trial_axis = () if inputs.trials is None else (batch,)
            outputs[t.name] = data[t.name].reshape(trial_axis + t.shape)
    return TensorStore(outputs, inputs.trials)


def _check_buffer_sizes(program: Program, trials: int) -> None:
    for t in program.tensors:
        nbytes = trials * math.prod(t.shape) * 8
        if nbytes > BUFFER_BYTES:
            raise BufferTooLarge(
                f"tensor '{t.name}' needs {nbytes} bytes for {trials} trial(s), "
                f"over the interpreter's limit of {BUFFER_BYTES}"
            )
    for nest in program.nests:
        # the larger of the point array (points x ndim) and one statement's
        # values (trials x points)
        box = nest.box
        nbytes = box.cardinality * max(len(box.los), trials) * 8
        if nbytes > BUFFER_BYTES:
            raise BufferTooLarge(
                f"nest '{nest.name}' has {box.cardinality} points, whose arrays need {nbytes} bytes "
                f"for {trials} trial(s), over the interpreter's limit of {BUFFER_BYTES}"
            )


def _tuple(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


class _Cells(NamedTuple):
    """What a statement's access key decides about the cells it reaches."""

    flat: np.ndarray  # row-major cell at each point, read-only
    injective: bool  # no cell is reached twice
    covers: bool  # every cell of the tensor is reached


def _cells(access, pts, decl, nest_name, si) -> _Cells:
    import numpy as np

    flat = _flat_indices(access, pts, decl, nest_name, si)
    flat.flags.writeable = False
    hit = np.zeros(math.prod(decl.shape), dtype=bool)
    hit[flat] = True
    reached = int(np.count_nonzero(hit))
    return _Cells(flat, reached == flat.size, reached == hit.size)


def _flat_indices(access, pts, decl, nest_name, si):
    """Row-major cell of ``decl`` that ``access`` reaches at each point."""
    import numpy as np

    if access.out_arity != len(decl.shape):
        raise InterpError(
            f"nest '{nest_name}' statement {si}: access to '{decl.name}' has "
            f"{access.out_arity} indices, tensor has {len(decl.shape)} dimensions"
        )
    cols = [e.evaluate_batch(pts) for e in access.exprs]
    flat = np.zeros(pts.shape[0], dtype=np.int64)
    bad = np.zeros(pts.shape[0], dtype=bool)
    for col, extent in zip(cols, decl.shape):
        bad |= (col < 0) | (col >= extent)
        flat = flat * extent + col
    if bad.any():
        row = int(np.argmax(bad))
        raise InterpError(
            f"nest '{nest_name}' statement {si}: access to '{decl.name}' out of bounds "
            f"at point {_tuple(pts[row])}: index {_tuple(c[row] for c in cols)} outside shape {decl.shape}"
        )
    return flat


def _check_written(mask, flat, pts, nest_name, si, verb, tensor):
    """Raise PoisonRead naming the first point, in lexicographic order, that reads an unwritten cell."""
    import numpy as np

    read = mask[flat]
    if not read.all():
        point = _tuple(pts[int(np.argmin(read))])
        raise PoisonRead(
            f"nest '{nest_name}' statement {si}: {verb} unwritten cell of '{tensor}' at point {point}"
        )


def _apply_compute(opcode: str, args: list[np.ndarray]) -> np.ndarray:
    if opcode == "add":
        return args[0] + args[1]
    if opcode == "mul":
        return args[0] * args[1]
    if opcode == "max":
        import numpy as np

        return np.maximum(args[0], args[1])
    if opcode == "neg":
        return -args[0]
    if opcode == "identity":
        return args[0].copy()
    raise InterpError(f"unknown opcode '{opcode}'")


def _run_nest(nest, pts, decls, data, written, indices, full):
    reads: set[str] = set()
    writes_to: set[str] = set()
    for stmt in nest.body:
        if isinstance(stmt, Load):
            reads.add(stmt.tensor)
        elif isinstance(stmt, Store):
            writes_to.add(stmt.tensor)
        elif isinstance(stmt, Memcopy):
            reads.add(stmt.src)
            writes_to.add(stmt.dst)
    clash = reads & writes_to
    if clash:
        raise InterpError(f"nest '{nest.name}' reads tensors it writes: {sorted(clash)}")

    def cells(access, tensor, si):
        decl = decls[tensor]
        key = (access, nest.box, decl.shape)
        found = indices.get(key)
        if found is None:
            found = indices[key] = _cells(access, pts, decl, nest.name, si)
        return found

    env: dict[str, np.ndarray] = {}
    # per written tensor, (cells, values) of each writing statement in body order
    writes: dict[str, list[tuple[_Cells, np.ndarray]]] = {}
    for si, stmt in enumerate(nest.body):
        if isinstance(stmt, Load):
            flat = cells(stmt.access, stmt.tensor, si).flat
            if stmt.tensor not in full:
                _check_written(written[stmt.tensor], flat, pts, nest.name, si, "load reads", stmt.tensor)
            env[stmt.result] = data[stmt.tensor][:, flat]
        elif isinstance(stmt, Compute):
            env[stmt.result] = _apply_compute(stmt.opcode, [env[o] for o in stmt.operands])
        elif isinstance(stmt, Store):
            dst = cells(stmt.access, stmt.tensor, si)
            writes.setdefault(stmt.tensor, []).append((dst, env[stmt.value]))
        elif isinstance(stmt, Memcopy):
            sflat = cells(stmt.element_map, stmt.src, si).flat
            dst = cells(stmt.element_map, stmt.dst, si)
            if stmt.src not in full:
                _check_written(written[stmt.src], sflat, pts, nest.name, si, "memcopy reads", stmt.src)
            writes.setdefault(stmt.dst, []).append((dst, data[stmt.src][:, sflat]))
    for name, stmt_writes in writes.items():
        if len(stmt_writes) == 1 and stmt_writes[0][0].injective:
            (flat, _, covers), vals = stmt_writes[0]
            data[name][:, flat] = vals
            if covers:
                full.add(name)
            elif name not in full:
                written[name][flat] = True
        else:
            _write_last(data[name], written[name], [(c.flat, v) for c, v in stmt_writes])


def _write_last(buf, mask, stmt_writes):
    """Give each written cell of ``buf`` the value of its last write.

    Writes are ordered by (point index, statement index): stacking each
    statement's points as a column and reading the rows in order lists them
    that way.  When some cell is hit more than once, a stable sort by cell
    keeps each cell's final write.  ``_run_nest`` sends only several
    statements' writes, or one non-injective store's, this way.
    """
    import numpy as np

    if len(stmt_writes) == 1:
        flat, vals = stmt_writes[0]
    else:
        flat = np.stack([f for f, _ in stmt_writes], axis=1).reshape(-1)
        vals = np.stack([v for _, v in stmt_writes], axis=2).reshape(buf.shape[0], -1)
    hit = np.zeros_like(mask)
    hit[flat] = True
    if np.count_nonzero(hit) != flat.size:
        order = np.argsort(flat, kind="stable")
        cells = flat[order]
        last = np.append(cells[1:] != cells[:-1], True)
        keep = order[last]
        flat, vals = flat[keep], vals[:, keep]
    buf[:, flat] = vals
    mask |= hit


# ---------------------------------------------------------------------------
# Equivalence oracle


@dataclass(frozen=True)
class Counterexample:
    trial: int
    tensor: str
    index: tuple[int, ...]
    left: int
    right: int

    def __str__(self) -> str:
        return (
            f"trial {self.trial}: output '{self.tensor}' differs at {self.index}: "
            f"{self.left} != {self.right}"
        )


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    trials: int
    counterexample: Counterexample | None = None


INPUT_RANGE = (-50, 50)


def random_inputs(program: Program, seed: int, trial: int = 0) -> TensorStore:
    """Deterministic pseudo-random integer inputs for the model-input tensors.

    One draw covers every input, in declaration order, and each tensor's
    array is its slice of that draw (a view): the same values as one draw
    per tensor, in one generator call.
    """
    import numpy as np

    decls = [t for t in program.tensors if t.origin is Origin.MODEL_INPUT]
    sizes = [math.prod(t.shape) for t in decls]
    rng = np.random.default_rng([seed, trial])
    cells = rng.integers(INPUT_RANGE[0], INPUT_RANGE[1], size=sum(sizes), dtype=np.int64)
    arrays = {}
    start = 0
    for t, size in zip(decls, sizes):
        arrays[t.name] = cells[start : start + size].reshape(t.shape)
        start += size
    return TensorStore(arrays)


def equivalent(p1: Program, p2: Program, trials: int = 5, seed: int = 0) -> EquivalenceResult:
    """Compare observable behaviour on deterministic random inputs, exactly.

    Trial ``k`` feeds both programs ``random_inputs(p1, seed, k)``; each
    program runs once over all trials.  The counterexample is the first
    difference by trial, then output name, then cell.  Raises ValueError
    for ``trials < 1`` or ``seed < 0`` before running anything, and
    BufferTooLarge before drawing inputs; an ``InterpError`` from a size
    check or a run names that program in its ``side``.
    """
    import numpy as np

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    in1 = {(t.name, t.shape, t.elem_size) for t in p1.tensors if t.origin is Origin.MODEL_INPUT}
    in2 = {(t.name, t.shape, t.elem_size) for t in p2.tensors if t.origin is Origin.MODEL_INPUT}
    out1 = {(t.name, t.shape) for t in p1.tensors if t.origin is Origin.MODEL_OUTPUT}
    out2 = {(t.name, t.shape) for t in p2.tensors if t.origin is Origin.MODEL_OUTPUT}
    if in1 != in2 or out1 != out2:
        raise InterpError("programs do not share input/output declarations")
    for side, program in enumerate((p1, p2)):
        try:
            _check_buffer_sizes(program, trials)
        except BufferTooLarge as exc:
            exc.side = side
            raise
    inputs = TensorStore.stack([random_inputs(p1, seed, trial) for trial in range(trials)])
    # the two programs usually share most access keys; a key is stored only
    # once its checks pass, so a bad one still raises on its own side
    indices = {}
    results = []
    for side, program in enumerate((p1, p2)):
        try:
            results.append(run(program, inputs, _sizes_checked=True, _indices=indices))
        except InterpError as exc:
            exc.side = side
            raise
    r1, r2 = results
    names = sorted(r1.names())
    for trial in range(trials):
        for name in names:
            a, b = r1.array(name)[trial], r2.array(name)[trial]
            if not np.array_equal(a, b):
                flat = int(np.argmax((a != b).reshape(-1)))
                idx = _tuple(np.unravel_index(flat, a.shape))
                return EquivalenceResult(
                    False,
                    trials,
                    Counterexample(trial, name, idx, int(a[idx]), int(b[idx])),
                )
    return EquivalenceResult(True, trials, None)
