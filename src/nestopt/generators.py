"""Synthetic benchmark programs.

Two structural analogs of real networks, sized for desk-scale runs:

* a long chain interleaving elementwise compute with data-movement nests
  (transpose / reshape / repeat / slice / split), a configurable number of
  which use colliding store maps that no pass can eliminate;
* a chain of anchored blocks (conv-like, pooling, matmul-like) separated by
  transposes, shaped so that propagating bank mappings across operators
  beats purely local assignment.

Generation is deterministic per seed: identical arguments produce
byte-identical printed programs.

A builder makes each box once per shape and each access map once per
distinct (box, expressions), and identity maps share the unit expressions
of ``variables``: the values are immutable, so one object serves every nest
and access that needs it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .affine import IntBox, QuasiAffineMap, affine_map, variables
from .ir import (
    OPCODE_ARITY,
    Compute,
    Load,
    OffChip,
    OnChip,
    OperatorNest,
    Origin,
    Program,
    Store,
    TensorDecl,
)

ELEM_SIZE = 4


@dataclass
class _Builder:
    tensors: list[TensorDecl] = field(default_factory=list)
    nests: list[OperatorNest] = field(default_factory=list)
    counter: int = 0
    boxes: dict[tuple[int, ...], IntBox] = field(default_factory=dict)
    maps: dict[tuple[IntBox, tuple], QuasiAffineMap] = field(default_factory=dict)

    def box(self, *extents: int) -> IntBox:
        return self.boxes.get(extents) or self.boxes.setdefault(extents, IntBox.from_extents(*extents))

    def map(self, box: IntBox, exprs: tuple) -> QuasiAffineMap:
        key = (box, exprs)
        return self.maps.get(key) or self.maps.setdefault(key, affine_map(box, exprs))

    def identity(self, box: IntBox) -> QuasiAffineMap:
        return self.map(box, variables(box.ndim))

    def fresh(self, prefix: str = "t") -> str:
        name = f"{prefix}{self.counter}"
        self.counter += 1
        return name

    def declare(self, name: str, shape, location, origin=Origin.INTERMEDIATE) -> str:
        self.tensors.append(TensorDecl(name, ELEM_SIZE, tuple(shape), location, origin))
        return name

    def program(self) -> Program:
        return Program(tuple(self.tensors), tuple(self.nests))


def _emit_op(b: _Builder, name: str, kind: str, opcode: str, srcs: tuple[str, ...], out: str, box: IntBox):
    """``out = opcode(srcs)`` element-wise over ``box``; a binary op on one
    source reads it as both operands."""
    ident = b.identity(box)
    loads = tuple(Load(v, src, ident) for v, src in zip("vu", srcs))
    operands = ("v", "u") if len(srcs) == 2 else ("v",) * OPCODE_ARITY[opcode]
    body = (*loads, Compute("w", opcode, operands), Store(out, ident, "w"))
    b.nests.append(OperatorNest(name, kind, box, body))


# ---------------------------------------------------------------------------
# copy-chain analog


def _emit_compute(b: _Builder, idx: int, src: str, shape, opcode: str, out_decl=None) -> str:
    out = b.declare(b.fresh(), shape, OnChip()) if out_decl is None else out_decl
    _emit_op(b, f"ew{idx}", "elementwise", opcode, (src,), out, b.box(*shape))
    return out


def _legal_kinds(shape, collider: bool) -> list[str]:
    if collider:
        return ["collide2" if len(shape) == 2 else "collide1"]
    if len(shape) == 2:
        return ["transpose", "flatten"]
    (n,) = shape
    kinds = ["reverse"]
    if n <= 64:
        kinds.append("repeat")
    if n % 2 == 0 and n >= 8:
        kinds += ["slice", "split"]
        if n % 4 == 0:
            kinds.append("unflatten")
    return kinds


def _emit_copy(b: _Builder, idx: int, src: str, shape, kind: str, rng: random.Random):
    """One data-movement nest: returns (new tensor, new shape).

    Each kind picks its box, load and store maps, destination shape and
    nest kind; the destination, body and nest are built the same way for all.
    """
    if kind == "transpose":
        a, c = shape
        box = b.box(a, c)
        i0, i1 = variables(2)
        load_map, store_map = b.identity(box), b.map(box, (i1, i0))
        dst_shape, nest_kind = (c, a), "transpose"
    elif kind == "flatten":
        a, c = shape
        box = b.box(a, c)
        i0, i1 = variables(2)
        load_map, store_map = b.identity(box), b.map(box, (c * i0 + i1,))
        dst_shape, nest_kind = (a * c,), "reshape"
    elif kind == "unflatten":
        (n,) = shape
        inner = rng.choice([d for d in (2, 4, 8) if n % d == 0 and n // d >= 2])
        box = b.box(n)
        (x,) = variables(1)
        load_map, store_map = b.identity(box), b.map(box, (x.floordiv(inner), x.mod(inner)))
        dst_shape, nest_kind = (n // inner, inner), "reshape"
    elif kind == "repeat":
        (n,) = shape
        reps = rng.choice([2, 4]) if n <= 32 else 2
        box = b.box(reps, n)
        i0, i1 = variables(2)
        load_map, store_map = b.map(box, (i1,)), b.map(box, (n * i0 + i1,))
        dst_shape, nest_kind = (reps * n,), "repeat"
    elif kind == "slice":
        (n,) = shape
        off = rng.choice([0, 1])
        box = b.box(n // 2)
        (x,) = variables(1)
        load_map, store_map = b.map(box, (2 * x + off,)), b.identity(box)
        dst_shape, nest_kind = (n // 2,), "strided_slice"
    elif kind == "split":
        (n,) = shape
        half = rng.choice([0, 1])
        box = b.box(n // 2)
        (x,) = variables(1)
        load_map, store_map = b.map(box, (x + half * (n // 2),)), b.identity(box)
        dst_shape, nest_kind = (n // 2,), "split"
    elif kind == "reverse":
        (n,) = shape
        box = b.box(n)
        (x,) = variables(1)
        load_map, store_map = b.map(box, ((n - 1) - x,)), b.identity(box)
        dst_shape, nest_kind = (n,), "strided_slice"
    elif kind == "collide2":
        a, c = shape
        box = b.box(a, c)
        i0, i1 = variables(2)
        load_map, store_map = b.identity(box), b.map(box, (i0 + i1,))
        dst_shape, nest_kind = (a + c - 1,), "other"
    elif kind == "collide1":
        # broadcast-load over (2, n) with a colliding store; grows by one
        # cell so consecutive colliders never shrink below collision size
        (n,) = shape
        box = b.box(2, n)
        i0, i1 = variables(2)
        load_map, store_map = b.map(box, (i1,)), b.map(box, (i0 + i1,))
        dst_shape, nest_kind = (n + 1,), "other"
    else:
        raise ValueError(kind)
    dst = b.declare(b.fresh(), dst_shape, OnChip())
    body = (Load("v", src, load_map), Store(dst, store_map, "v"))
    b.nests.append(OperatorNest(f"copy{idx}", nest_kind, box, body))
    return dst, dst_shape


def generate_wavenet_analog(copy_pairs: int, non_invertible: int, seed: int = 0) -> Program:
    """Chain of `copy_pairs` data-movement nests interleaved with compute,
    exactly `non_invertible` of which use colliding (non-reversible) stores.
    """
    if copy_pairs < 0:
        raise ValueError("copy_pairs must be >= 0")
    if non_invertible < 0:
        raise ValueError("non_invertible must be >= 0")
    if non_invertible > copy_pairs:
        raise ValueError("non_invertible must be <= copy_pairs")
    rng = random.Random(seed)
    b = _Builder()
    shape: tuple[int, ...] = (32,)
    cur = b.declare("x", shape, OffChip(), Origin.MODEL_INPUT)
    colliders = set(rng.sample(range(copy_pairs), non_invertible))
    adds_left = 8

    opcode = "neg"
    cur = _emit_compute(b, 0, cur, shape, opcode)
    for k in range(copy_pairs):
        kinds = _legal_kinds(shape, k in colliders)
        # steer sizes back toward the working range
        size = math.prod(shape)
        if len(shape) == 1 and size > 64 and "slice" in kinds:
            kind = rng.choice(["slice", "split"])
        elif len(shape) == 1 and size < 16 and "repeat" in kinds:
            kind = "repeat"
        else:
            kind = rng.choice(kinds)
        cur, shape = _emit_copy(b, k, cur, shape, kind, rng)
        if rng.random() < 0.2 and adds_left > 0:
            opcode = "add"
            adds_left -= 1
        else:
            opcode = rng.choice(["neg", "max"])
        cur = _emit_compute(b, k + 1, cur, shape, opcode)
    out = b.declare("y", shape, OffChip(), Origin.MODEL_OUTPUT)
    _emit_compute(b, copy_pairs + 1, cur, shape, "neg", out_decl=out)
    return b.program()


# ---------------------------------------------------------------------------
# anchored-block analog


def generate_resnet_analog(blocks: int, transposes_between: int, seed: int = 0) -> Program:
    """Blocks of anchored nests (conv-like, pooling, matmul-like) whose
    shared tensors pass through `transposes_between` transposes, so that
    mapping propagation can reconcile what local assignment copies for.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if transposes_between < 0:
        raise ValueError("transposes_between must be >= 0")
    rng = random.Random(seed)
    side = rng.choice([4, 8])
    b = _Builder()
    box = b.box(side, side)
    i0, i1 = variables(2)
    ident, transposed = b.identity(box), b.map(box, (i1, i0))

    if blocks == 1 and transposes_between == 0:
        x = b.declare("x1", (side, side), OffChip(), Origin.MODEL_INPUT)
        w = b.declare("wconv1", (side, side), OffChip(), Origin.MODEL_INPUT)
        u = b.declare("u1", (side, side), OffChip(), Origin.MODEL_OUTPUT)
        _emit_op(b, "conv1", "conv2d", "mul", (x, w), u, box)
        return b.program()

    cur = b.declare("x1", (side, side), OffChip(), Origin.MODEL_INPUT)
    for blk in range(1, blocks + 1):
        w = b.declare(f"wconv{blk}", (side, side), OffChip(), Origin.MODEL_INPUT)
        u = b.declare(f"u{blk}", (side, side), OnChip())
        _emit_op(b, f"conv{blk}", "conv2d", "mul", (cur, w), u, box)
        v = u
        for t in range(1, transposes_between + 1):
            vt = b.declare(f"v{blk}_{t}", (side, side), OnChip())
            b.nests.append(
                OperatorNest(
                    f"tr{blk}_{t}",
                    "transpose",
                    box,
                    (Load("v", v, ident), Store(vt, transposed, "v")),
                )
            )
            v = vt
        p = b.declare(f"p{blk}", (side, side), OnChip())
        _emit_op(b, f"pool{blk}", "pooling", "max", (v,), p, box)
        wm = b.declare(f"wmm{blk}", (side, side), OffChip(), Origin.MODEL_INPUT)
        m = b.declare(f"m{blk}", (side, side), OnChip())
        _emit_op(b, f"mm{blk}", "matmul", "mul", (v, wm), m, box)
        y = b.declare(f"y{blk}", (side, side), OffChip(), Origin.MODEL_OUTPUT)
        _emit_op(b, f"res{blk}", "elementwise", "add", (p, m), y, box)
        cur = v
    return b.program()
