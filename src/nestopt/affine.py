"""Exact integer quasi-affine map algebra over bounded box domains.

A map sends points of an integer box (a loop iteration space) to integer
vectors (tensor coordinates).  Every output is an expression, never a list
of points: a linear part plus weighted floor divisions of linear parts by
positive constants (div/mod nesting depth one).  The module provides
evaluation, symbolic composition (``UnrepresentableComposition`` when
substitution would leave the depth-one language), structural
classification, image computation, and reversal.  ``reverse`` answers one
of three ways: a symbolic inverse for the recognized normal forms,
``InjectiveOnly`` for a general map that is injective but has no symbolic
inverse, or ``NotInvertible``.

Every expression is kept in one normal form, and building a map puts each
output into it once.  The normal form holds no ``mod``: as in isl,
``e mod d`` is read as ``e - d*(e floordiv d)`` where it is written
(``.mod()`` and the textual parser).  ``compose`` is a pullback by
substitution: per outer output it sums the scaled coefficients, constants
and div/mod terms of the inner outputs into one coefficient list and one
term list, then normalizes (the inner expression of a substituted div/mod
term is normalized on its own first, for its depth check).  ``reverse``
and ``build_unflatten_exprs`` write their unit, shifted and floordiv terms
straight into one expression per output.  The operator algebra on ``QuasiAffineExpr`` (``+``, ``*``,
``floordiv``, ``mod``) normalizes after every operation; it is there for
building expressions by hand.  ``image_escape``, the one containment check,
serves ``compose`` and ``ir.validate``: interval-first, it computes the exact
image or enumerates only when some output's value interval leaves the box.
Enumeration is in numpy int64, so ``ir.validate`` rejects each box and access
whose values ``IntBox.magnitude`` and ``map_fits_int64`` cannot bound within it.

floordiv rounds toward -inf, so ``x mod d`` read that way is always in
``[0, d)`` and ``x == d * (x floordiv d) + (x mod d)`` holds unconditionally.

The value types ``IntBox``, ``DivModTerm``, ``QuasiAffineExpr`` and
``QuasiAffineMap`` are frozen, and the passes key their memos on them.
Each computes the hash of its field tuple once, on first use, and keeps it
on the instance (the cached hash of hash-consing, Filliatre & Conchon
2006), so a lookup keyed by a map no longer rehashes its whole expression
tree.  ``==`` answers at once for the same object and otherwise compares
fields, as the generated method did.

numpy is imported only inside the functions that enumerate points
(``points_array``, ``evaluate_batch``, and the enumerating branches of
``image``, ``image_escape`` and ``reverse``), so a process that only builds,
composes and reverses normal forms never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Union

if TYPE_CHECKING:
    import numpy as np

HARD_CARDINALITY_CAP = 1 << 40
# the most points ``image``, ``image_escape`` and ``reverse`` enumerate; read
# at call time, so a change reaches every caller
ENUMERATE_LIMIT = 1 << 20


class AffineError(Exception):
    """Base class for algebra errors."""


class PointOutsideDomain(AffineError):
    pass


class ArityMismatch(AffineError):
    pass


class ImageEscapesDomain(AffineError):
    pass


class DomainTooLarge(AffineError):
    pass


class UnrepresentableComposition(AffineError):
    """Substitution would nest div/mod deeper than one level."""


class _HashOnce:
    """The ``_hash`` of a frozen value type: the hash of its field tuple,
    computed on first use and stored on the instance, where every later
    read finds it before this descriptor.  The fields are normalized by
    then (``__post_init__`` runs first), so equal values hash alike."""

    def __init__(self, fields) -> None:
        self.fields = fields

    def __get__(self, value, owner=None):
        if value is None:
            return self
        h = value.__dict__["_hash"] = hash(self.fields(value))
        return h


def _state_without_hash(value) -> dict:
    """Pickled state of a value type: its ``__dict__`` minus the stored hash,
    which the loading process computes again."""
    state = dict(value.__dict__)
    state.pop("_hash", None)
    return state


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class IntBox:
    """Product of per-dimension half-open integer intervals [lo, hi).

    Like the other value types here, it hashes its fields once and keeps
    the hash, and ``==`` compares fields after an identity check.
    """

    los: tuple[int, ...]
    his: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "los", tuple(int(v) for v in self.los))
        object.__setattr__(self, "his", tuple(int(v) for v in self.his))
        if len(self.los) != len(self.his):
            raise ValueError("lo/hi arity mismatch")
        for lo, hi in zip(self.los, self.his):
            if lo > hi:
                raise ValueError(f"empty-reversed bound {lo}..{hi}")
        if self.cardinality > HARD_CARDINALITY_CAP:
            raise ValueError(f"box cardinality exceeds 2^40: {self.cardinality}")

    _hash = _HashOnce(lambda v: (v.los, v.his))
    __getstate__ = _state_without_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.los == other.los and self.his == other.his

    @staticmethod
    def from_extents(*extents: int) -> "IntBox":
        return IntBox(tuple(0 for _ in extents), tuple(extents))

    @property
    def ndim(self) -> int:
        return len(self.los)

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(h - l for l, h in zip(self.los, self.his))

    @cached_property
    def cardinality(self) -> int:
        return math.prod(self.extents)

    @cached_property
    def magnitude(self) -> int:
        """The largest magnitude of a bound, at least 1: a bound on every coordinate."""
        return max(-min(self.los), max(self.his), 1) if self.los else 1

    @property
    def is_empty(self) -> bool:
        return self.cardinality == 0

    def contains(self, point: tuple[int, ...]) -> bool:
        if len(point) != self.ndim:
            return False
        return all(l <= p < h for p, l, h in zip(point, self.los, self.his))

    def points(self) -> Iterator[tuple[int, ...]]:
        """Lexicographic iteration over all points."""
        return itertools.product(*(range(l, h) for l, h in zip(self.los, self.his)))

    def points_array(self) -> np.ndarray:
        """All points as an int64 array of shape (cardinality, ndim), lexicographic."""
        import numpy as np

        if self.ndim == 0:
            return np.zeros((1, 0), dtype=np.int64)
        if self.is_empty:
            return np.zeros((0, self.ndim), dtype=np.int64)
        axes = [np.arange(l, h, dtype=np.int64) for l, h in zip(self.los, self.his)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.ndim)


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class DivModTerm:
    """weight * ((coeffs . i + const) floordiv divisor).

    The one div/mod term of the normal form: its inner part is linear by
    construction (depth-one nesting), and ``mod`` is never stored.  Hashed
    once, compared by fields.
    """

    coeffs: tuple[int, ...]
    const: int
    divisor: int
    weight: int

    def __post_init__(self) -> None:
        if self.divisor <= 0:
            raise ValueError("divisor must be strictly positive")

    _hash = _HashOnce(lambda v: (v.coeffs, v.const, v.divisor, v.weight))
    __getstate__ = _state_without_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.const == other.const
            and self.divisor == other.divisor
            and self.weight == other.weight
        )


def _gcd_many(values) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
    return g


@dataclass(frozen=True)
class QuasiAffineExpr:
    """Canonical sum of a linear part and weighted depth-one div/mod terms.

    Hashed once, after normalization, and compared by fields.
    """

    coeffs: tuple[int, ...]
    const: int = 0
    terms: tuple[DivModTerm, ...] = ()

    def __post_init__(self) -> None:
        coeffs, const, terms = _normalize_expr(self.coeffs, self.const, self.terms)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)
        object.__setattr__(self, "terms", terms)
        for t in self.terms:
            if len(t.coeffs) != len(self.coeffs):
                raise ValueError("term arity mismatch")

    _hash = _HashOnce(lambda v: (v.coeffs, v.const, v.terms))
    __getstate__ = _state_without_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const and self.terms == other.terms

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @property
    def is_linear(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> int:
        v = self.const + sum(c * p for c, p in zip(self.coeffs, point))
        for t in self.terms:
            v += t.weight * ((t.const + sum(c * p for c, p in zip(t.coeffs, point))) // t.divisor)
        return v

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        import numpy as np

        out = pts @ np.asarray(self.coeffs, dtype=np.int64) + self.const
        for t in self.terms:
            out = out + t.weight * ((pts @ np.asarray(t.coeffs, dtype=np.int64) + t.const) // t.divisor)
        return out

    # small algebra for convenient construction
    def __add__(self, other: "QuasiAffineExpr | int") -> "QuasiAffineExpr":
        if isinstance(other, int):
            return QuasiAffineExpr(self.coeffs, self.const + other, self.terms)
        if other.arity != self.arity:
            raise ArityMismatch("expression arity mismatch")
        coeffs = tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        return QuasiAffineExpr(coeffs, self.const + other.const, self.terms + other.terms)

    def __radd__(self, other: int) -> "QuasiAffineExpr":
        return self + other

    def __neg__(self) -> "QuasiAffineExpr":
        return self * -1

    def __sub__(self, other: "QuasiAffineExpr | int") -> "QuasiAffineExpr":
        return self + (-other)

    def __rsub__(self, other: int) -> "QuasiAffineExpr":
        return (-self) + other

    def __mul__(self, k: int) -> "QuasiAffineExpr":
        terms = tuple(DivModTerm(t.coeffs, t.const, t.divisor, t.weight * k) for t in self.terms)
        return QuasiAffineExpr(tuple(c * k for c in self.coeffs), self.const * k, terms)

    def __rmul__(self, k: int) -> "QuasiAffineExpr":
        return self * k

    def floordiv(self, d: int) -> "QuasiAffineExpr":
        if not self.is_linear:
            raise ValueError("floordiv of a non-linear expression exceeds nesting depth 1")
        term = DivModTerm(self.coeffs, self.const, d, 1)
        return QuasiAffineExpr(tuple(0 for _ in self.coeffs), 0, (term,))

    def mod(self, d: int) -> "QuasiAffineExpr":
        """``self - d*(self floordiv d)``, the normal form of ``self mod d``."""
        if not self.is_linear:
            raise ValueError("mod of a non-linear expression exceeds nesting depth 1")
        return QuasiAffineExpr(self.coeffs, self.const, (DivModTerm(self.coeffs, self.const, d, -d),))


def variables(arity: int) -> tuple[QuasiAffineExpr, ...]:
    """Unit expressions i0..i{arity-1}."""
    return tuple(
        QuasiAffineExpr(tuple(1 if j == k else 0 for j in range(arity)))
        for k in range(arity)
    )


def const_expr(arity: int, value: int) -> QuasiAffineExpr:
    return QuasiAffineExpr(tuple(0 for _ in range(arity)), value)


def _normalize_expr(coeffs, const, terms):
    """Canonicalize to a linear part plus merged floordiv terms.

    Every function gets exactly one normal form: constants folded,
    divisor-1 and gcd reductions applied, terms merged and sorted.
    """
    coeffs = [int(c) for c in coeffs]
    const = int(const)
    bucket: dict[tuple, int] = {}
    pending = [(t.coeffs, t.const, t.divisor, t.weight) for t in terms]
    while pending:
        ic, ib, d, w = pending.pop()
        if w == 0:
            continue
        if all(c == 0 for c in ic):
            const += w * (ib // d)
            continue
        if d == 1:
            coeffs = [a + w * b for a, b in zip(coeffs, ic)]
            const += w * ib
            continue
        g = _gcd_many([*ic, ib, d])
        if g > 1:
            ic = tuple(c // g for c in ic)
            ib //= g
            d //= g
            if d == 1:
                pending.append((ic, ib, d, w))
                continue
        key = (d, tuple(ic), ib)
        bucket[key] = bucket.get(key, 0) + w
    out_terms = [DivModTerm(ic, ib, d, w) for (d, ic, ib), w in bucket.items() if w]
    out_terms.sort(key=lambda t: (t.divisor, t.coeffs, t.const))
    return tuple(coeffs), const, tuple(out_terms)


def _linear_interval(coeffs, const, box: IntBox) -> tuple[int, int]:
    """Exact inclusive value range of a linear expression over a non-empty box."""
    lo = hi = const
    for c, l, h in zip(coeffs, box.los, box.his):
        if c >= 0:
            lo += c * l
            hi += c * (h - 1)
        else:
            lo += c * (h - 1)
            hi += c * l
    return lo, hi


def _box_simplify(expr: QuasiAffineExpr, box: IntBox) -> QuasiAffineExpr:
    """Resolve floordiv terms that the box bounds make exact.

    Splits each term's inner expression as inner = d*q + r with r's
    coefficients in [0, d); when the value range of r over the box lies in
    [0, d), ``inner floordiv d`` is exactly q.
    """
    if not expr.terms or box.is_empty:
        return expr
    coeffs = list(expr.coeffs)
    const = expr.const
    kept = []
    changed = False
    for t in expr.terms:
        d = t.divisor
        lo, hi = _linear_interval([c % d for c in t.coeffs], t.const % d, box)
        if 0 <= lo and hi < d:
            coeffs = [a + t.weight * (c // d) for a, c in zip(coeffs, t.coeffs)]
            const += t.weight * (t.const // d)
            changed = True
        else:
            kept.append(t)
    if not changed:
        return expr
    return QuasiAffineExpr(tuple(coeffs), const, tuple(kept))


def expr_interval(expr: QuasiAffineExpr, box: IntBox) -> tuple[int, int]:
    """Conservative (exact when linear) inclusive value range over a non-empty box."""
    lo, hi = _linear_interval(expr.coeffs, expr.const, box)
    for t in expr.terms:
        ilo, ihi = _linear_interval(t.coeffs, t.const, box)
        tlo, thi = ilo // t.divisor, ihi // t.divisor
        lo += t.weight * (tlo if t.weight >= 0 else thi)
        hi += t.weight * (thi if t.weight >= 0 else tlo)
    return lo, hi


INT64_MAX = (1 << 63) - 1


def map_fits_int64(m: QuasiAffineMap) -> bool:
    """Whether ``evaluate_batch`` computes ``m`` exactly.  With ``mag`` the magnitude
    of its domain, a linear part's partial sums are at most |constant| plus ``mag``
    times the sum of |coefficients|, a floor quotient lies in the quotient range of
    its inner interval, and a running sum adds |weight| times each quotient's bound.
    ``mag`` and quotient bounds count as at least 1, so every coefficient and
    weight must be an int64 too."""
    mag = m.domain.magnitude
    for e in m.exprs:
        total = abs(e.const) + mag * sum(map(abs, e.coeffs))
        for t in e.terms:
            if abs(t.const) + mag * sum(map(abs, t.coeffs)) > INT64_MAX or t.divisor > INT64_MAX:
                return False
            lo, hi = _linear_interval(t.coeffs, t.const, m.domain)
            total += abs(t.weight) * max(-(lo // t.divisor), hi // t.divisor, 1)
        if total > INT64_MAX:
            return False
    return True


# ---------------------------------------------------------------------------
# Maps


class MapClass(Enum):
    PERM_SHIFT = "perm_shift"
    STRIDED_EMBED = "strided_embed"
    MIXED_RADIX = "mixed_radix"
    GENERAL = "general"


@dataclass(frozen=True)
class QuasiAffineMap:
    """Map from a box domain to integer vectors, one expression per output dimension.

    Hashed once, after box simplification, and compared by fields: the
    keys of parse's, validate's, the interpreter's and DME's memos.  The
    cached ``map_class`` and ``unflatten`` take no part in either.
    """

    domain: IntBox
    exprs: tuple[QuasiAffineExpr, ...]

    def __post_init__(self) -> None:
        exprs = tuple(_box_simplify(e, self.domain) for e in self.exprs)
        object.__setattr__(self, "exprs", exprs)
        for e in exprs:
            if e.arity != self.domain.ndim:
                raise ValueError("output expression arity != domain arity")

    _hash = _HashOnce(lambda v: (v.domain, v.exprs))
    __getstate__ = _state_without_hash

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.domain == other.domain and self.exprs == other.exprs

    @property
    def in_arity(self) -> int:
        return self.domain.ndim

    @property
    def out_arity(self) -> int:
        return len(self.exprs)

    @property
    def is_pure_affine(self) -> bool:
        """True when representable as C@i + b (no div/mod terms)."""
        return all(e.is_linear for e in self.exprs)

    @cached_property
    def map_class(self) -> MapClass:
        return _classify(self)

    @cached_property
    def unflatten(self) -> tuple[int, tuple[int, ...]] | None:
        """(base, radices) when the map is canonical digit extraction."""
        return _match_unflatten(self)

    def evaluate(self, point) -> tuple[int, ...]:
        point = tuple(int(p) for p in point)
        if not self.domain.contains(point):
            raise PointOutsideDomain(f"{point} outside domain")
        return tuple(e.evaluate(point) for e in self.exprs)

    def evaluate_batch(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate on (N, in_arity) int64 points, assumed inside the domain."""
        import numpy as np

        if pts.shape[0] == 0:
            return np.zeros((0, self.out_arity), dtype=np.int64)
        return np.stack([e.evaluate_batch(pts) for e in self.exprs], axis=-1)


def affine_map(box: IntBox, exprs) -> QuasiAffineMap:
    return QuasiAffineMap(box, tuple(exprs))


def identity_map(box: IntBox) -> QuasiAffineMap:
    return affine_map(box, variables(box.ndim))


# ---------------------------------------------------------------------------
# Classification


def _single_var(e: QuasiAffineExpr) -> tuple[int, int] | None:
    """(dim, coeff) when e == coeff*i_dim + const with exactly one variable."""
    if e.terms:
        return None
    nz = [(j, c) for j, c in enumerate(e.coeffs) if c != 0]
    if len(nz) != 1:
        return None
    return nz[0]


def _suffix_products(extents: tuple[int, ...]) -> tuple[int, ...]:
    out = [1] * len(extents)
    for j in range(len(extents) - 2, -1, -1):
        out[j] = out[j + 1] * extents[j + 1]
    return tuple(out)


def build_unflatten_exprs(base: int, radices: tuple[int, ...]) -> tuple[QuasiAffineExpr, ...]:
    """Digit-extraction expressions for a 1-d domain value x in [base, base+prod)."""
    return _unflatten_exprs(base, radices, tuple(0 for _ in radices))


def _unflatten_exprs(base: int, radices, offsets) -> tuple[QuasiAffineExpr, ...]:
    """``build_unflatten_exprs`` with ``offsets[j]`` added to digit j.

    Digit j is ``(x - base) floordiv w_j - r_j * ((x - base) floordiv (w_j * r_j))``
    for suffix product w_j, with ``floordiv 1`` written as ``x - base``;
    each digit is normalized once.
    """
    exprs = []
    for j, (w, r, off) in enumerate(zip(_suffix_products(radices), radices, offsets)):
        if j == 0:
            if w > 1:
                exprs.append(QuasiAffineExpr((0,), off, (DivModTerm((1,), -base, w, 1),)))
            else:
                exprs.append(QuasiAffineExpr((1,), off - base))
        elif w == 1:
            exprs.append(QuasiAffineExpr((1,), off - base, (DivModTerm((1,), -base, r, -r),)))
        else:
            terms = (DivModTerm((1,), -base, w, 1), DivModTerm((1,), -base, w * r, -r))
            exprs.append(QuasiAffineExpr((0,), off, terms))
    return tuple(exprs)


def _match_unflatten(m: QuasiAffineMap) -> tuple[int, tuple[int, ...]] | None:
    """Recognize canonical digit extraction; returns (base, radices)."""
    if m.in_arity != 1 or m.out_arity < 2:
        return None
    lo, hi = m.domain.los[0], m.domain.his[0]
    total = hi - lo
    if total < 4:
        return None
    base = lo
    # per-output weights: smallest floordiv divisor; innermost digit has weight 1
    weights = []
    for e in m.exprs[:-1]:
        divisors = sorted(t.divisor for t in e.terms)
        if not divisors:
            return None
        weights.append(divisors[0])
    weights.append(1)
    if total % weights[0] != 0:
        return None
    radices = [total // weights[0]]
    for prev, cur in zip(weights, weights[1:]):
        if cur <= 0 or prev % cur != 0:
            return None
        radices.append(prev // cur)
    if any(r < 2 for r in radices) or math.prod(radices) != total:
        return None
    # each output must be ``build_unflatten_exprs``'s digit, already in normal
    # form: ``(x - base) floordiv w - r * ((x - base) floordiv (w * r))``, the
    # first floordiv written ``x - base`` when w is 1 and the second absent for
    # the first digit, terms sorted by divisor
    for j, (e, w, r) in enumerate(zip(m.exprs, _suffix_products(radices), radices)):
        linear = ((1,), -base) if w == 1 else ((0,), 0)
        terms = ([((1,), -base, w, 1)] if w > 1 else []) + ([((1,), -base, w * r, -r)] if j else [])
        found = [(t.coeffs, t.const, t.divisor, t.weight) for t in e.terms]
        if (e.coeffs, e.const) != linear or found != terms:
            return None
    return base, tuple(radices)


def _classify(m: QuasiAffineMap) -> MapClass:
    n, k = m.in_arity, m.out_arity
    if n == k and n > 0:
        sv = [_single_var(e) for e in m.exprs]
        if all(v is not None for v in sv):
            dims = [v[0] for v in sv]
            if sorted(dims) == list(range(n)):
                if all(v[1] == 1 for v in sv):
                    return MapClass.PERM_SHIFT
                return MapClass.STRIDED_EMBED
    if k == 1 and n >= 2 and m.exprs[0].is_linear:
        ext = m.domain.extents
        if all(x >= 1 for x in ext) and m.exprs[0].coeffs == _suffix_products(ext):
            return MapClass.MIXED_RADIX
    if m.unflatten is not None:
        return MapClass.MIXED_RADIX
    return MapClass.GENERAL


def classify(m: QuasiAffineMap) -> MapClass:
    return m.map_class


# ---------------------------------------------------------------------------
# Images


@dataclass(frozen=True)
class LatticeImage:
    """Separable image: per output dimension an arithmetic progression."""

    los: tuple[int, ...]
    strides: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def cardinality(self) -> int:
        return math.prod(self.counts)

    def bounding_box(self) -> IntBox:
        his = tuple(
            lo + s * (c - 1) + 1 if c > 0 else lo
            for lo, s, c in zip(self.los, self.strides, self.counts)
        )
        return IntBox(self.los, his)

    def __contains__(self, point) -> bool:
        if len(point) != len(self.los):
            return False
        for p, lo, s, c in zip(point, self.los, self.strides, self.counts):
            if c == 0 or p < lo or p > lo + s * (c - 1) or (p - lo) % s != 0:
                return False
        return True

    def points(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(
            *(range(lo, lo + s * c, s) for lo, s, c in zip(self.los, self.strides, self.counts))
        )

    def is_subset_of_box(self, box: IntBox) -> bool:
        if self.cardinality == 0:
            return True
        bb = self.bounding_box()
        return all(l >= bl and h <= bh for l, h, bl, bh in zip(bb.los, bb.his, box.los, box.his))

    def equals_box(self, box: IntBox) -> bool:
        """``bounding_box() == box`` with unit strides, compared field by field."""
        return (
            self.los == box.los
            and all(s == 1 for s in self.strides)
            and box.his == tuple(lo + c for lo, c in zip(self.los, self.counts))
        )


@dataclass(frozen=True)
class ExplicitImage:
    """Image as an explicit finite point set."""

    pts: frozenset

    @property
    def cardinality(self) -> int:
        return len(self.pts)

    def bounding_box(self) -> IntBox:
        if not self.pts:
            return IntBox((), ())
        arr = list(self.pts)
        nd = len(arr[0])
        los = tuple(min(p[j] for p in arr) for j in range(nd))
        his = tuple(max(p[j] for p in arr) + 1 for j in range(nd))
        return IntBox(los, his)

    def __contains__(self, point) -> bool:
        return tuple(point) in self.pts

    def points(self) -> Iterator[tuple[int, ...]]:
        return iter(sorted(self.pts))

    def is_subset_of_box(self, box: IntBox) -> bool:
        return all(box.contains(p) for p in self.pts)

    def equals_box(self, box: IntBox) -> bool:
        if len(self.pts) != box.cardinality:
            return False
        return all(box.contains(p) for p in self.pts)


ImageSet = Union[LatticeImage, ExplicitImage]


def image(m: QuasiAffineMap) -> ImageSet:
    """Exact image {f(p) : p in domain}, symbolic when the class permits."""
    if m.domain.is_empty:
        return ExplicitImage(frozenset())
    cls = m.map_class
    if cls is MapClass.PERM_SHIFT or cls is MapClass.STRIDED_EMBED:
        los, strides, counts = [], [], []
        for e in m.exprs:
            dim, s = _single_var(e)
            lo, hi = m.domain.los[dim], m.domain.his[dim]
            count = hi - lo
            if s > 0:
                los.append(s * lo + e.const)
            else:
                los.append(s * (hi - 1) + e.const)
            strides.append(abs(s))
            counts.append(count)
        return LatticeImage(tuple(los), tuple(strides), tuple(counts))
    if cls is MapClass.MIXED_RADIX:
        if m.out_arity == 1:
            base, _ = _linear_interval(m.exprs[0].coeffs, m.exprs[0].const, m.domain)
            return LatticeImage((base,), (1,), (m.domain.cardinality,))
        _, radices = m.unflatten
        return LatticeImage(
            tuple(0 for _ in radices), tuple(1 for _ in radices), radices
        )
    if m.domain.cardinality > ENUMERATE_LIMIT:
        raise DomainTooLarge(
            f"cannot enumerate image of {m.domain.cardinality} points"
        )
    pts = m.domain.points_array()
    vals = m.evaluate_batch(pts)
    return ExplicitImage(frozenset(map(tuple, vals.tolist())))


@dataclass(frozen=True)
class ImageEscape:
    """A map's image leaves a box.  ``witness`` is the first domain point,
    in lexicographic order, that lands outside, when the domain was
    enumerated; ``interval`` is ``(lo, hi, box_lo, box_hi)`` for the first
    output whose value range leaves the box, when that range is all the
    verdict rests on."""

    witness: tuple[int, ...] | None = None
    interval: tuple[int, int, int, int] | None = None


def image_escape(m: QuasiAffineMap, los: tuple[int, ...], his: tuple[int, ...]) -> ImageEscape | None:
    """None when every image point of ``m`` lies in the box ``[los, his)``.

    Each output's value interval is exact when linear and an
    over-approximation otherwise, so when all fit no point escapes.
    Otherwise the symbolic image of a normal form decides, and a domain of
    at most ``ENUMERATE_LIMIT`` points is enumerated for the first
    witness (or, for a general map, to rule out a false alarm).  A general
    map above the limit escapes as soon as an interval does.
    """
    dom = m.domain
    if dom.is_empty:
        return None
    intervals = [expr_interval(e, dom) for e in m.exprs]
    if all(lo <= elo and ehi < hi for (elo, ehi), lo, hi in zip(intervals, los, his)):
        return None
    general = m.map_class is MapClass.GENERAL
    if not general:
        img = image(m)  # a LatticeImage, never enumerated
        spans = zip(img.los, img.strides, img.counts, los, his)
        if all(lo <= first and first + s * (c - 1) < hi for first, s, c, lo, hi in spans):
            return None
    if dom.cardinality <= ENUMERATE_LIMIT:
        import numpy as np

        pts = dom.points_array()
        vals = m.evaluate_batch(pts)
        box_lo, box_hi = np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)
        rows = ((vals < box_lo) | (vals >= box_hi)).any(axis=1)
        if not rows.any():
            return None
        return ImageEscape(witness=tuple(int(v) for v in pts[int(np.argmax(rows))]))
    if not general:
        return ImageEscape()
    for (elo, ehi), lo, hi in zip(intervals, los, his):
        if elo < lo or ehi >= hi:
            return ImageEscape(interval=(elo, ehi, lo, hi))


# ---------------------------------------------------------------------------
# Reversal


@dataclass(frozen=True)
class SymbolicInverse:
    map: QuasiAffineMap
    image: ImageSet

    def apply(self, point) -> tuple[int, ...]:
        return self.map.evaluate(point)


@dataclass(frozen=True)
class InjectiveOnly:
    """The map is injective, but no symbolic inverse is known for it."""


@dataclass(frozen=True)
class NotInvertible:
    reason: str


InverseResult = Union[SymbolicInverse, InjectiveOnly, NotInvertible]


def reverse(m: QuasiAffineMap) -> InverseResult:
    """Inverse of ``m`` restricted to its image.

    Symbolic for the PermShift / StridedEmbed / MixedRadix normal forms
    (the symbolic inverse's declared box is the image's bounding box; the
    precise image accompanies the result).  A strided image whose bounding
    box passes ``HARD_CARDINALITY_CAP`` has no such box: ``NotInvertible``.
    A general map of at most ``ENUMERATE_LIMIT`` points is probed for a collision: the answer
    is ``InjectiveOnly`` or ``NotInvertible`` naming the first collision in
    point order.  Non-invertibility is a value, not an error.
    """
    if m.domain.is_empty:
        empty = IntBox(tuple(0 for _ in range(m.out_arity)), tuple(0 for _ in range(m.out_arity)))
        exprs = tuple(const_expr(m.out_arity, 0) for _ in range(m.in_arity))
        return SymbolicInverse(QuasiAffineMap(empty, exprs), ExplicitImage(frozenset()))
    cls = m.map_class
    img = None
    if cls in (MapClass.PERM_SHIFT, MapClass.STRIDED_EMBED, MapClass.MIXED_RADIX):
        img = image(m)
    if cls in (MapClass.PERM_SHIFT, MapClass.STRIDED_EMBED):
        span = math.prod(s * (c - 1) + 1 for s, c in zip(img.strides, img.counts))
        if span > HARD_CARDINALITY_CAP:
            return NotInvertible(f"image's bounding box too large for an inverse's domain ({span} points)")
        # output k == s*i_j + b inverts to i_j == (sign(s)*(x_k - b)) floordiv |s|,
        # which divides exactly on the image
        n = m.in_arity
        zeros = tuple(0 for _ in range(n))
        inv_exprs: list[QuasiAffineExpr] = [None] * n  # type: ignore[list-item]
        for k, e in enumerate(m.exprs):
            j, s = _single_var(e)
            b = e.const
            sign = 1 if s > 0 else -1
            unit = tuple(sign if i == k else 0 for i in range(n))
            if s == sign:
                inv_exprs[j] = QuasiAffineExpr(unit, -sign * b)
            else:
                term = DivModTerm(unit, -sign * b, sign * s, 1)
                inv_exprs[j] = QuasiAffineExpr(zeros, 0, (term,))
        inv = QuasiAffineMap(img.bounding_box(), tuple(inv_exprs))
        return SymbolicInverse(inv, img)
    if cls is MapClass.MIXED_RADIX:
        if m.out_arity == 1:  # row-major flatten -> digit extraction
            inv_exprs = _unflatten_exprs(img.los[0], m.domain.extents, m.domain.los)
            inv = QuasiAffineMap(img.bounding_box(), inv_exprs)
            return SymbolicInverse(inv, img)
        base, radices = m.unflatten
        inv = QuasiAffineMap(img.bounding_box(), (QuasiAffineExpr(_suffix_products(radices), base),))
        return SymbolicInverse(inv, img)
    card = m.domain.cardinality
    if card > ENUMERATE_LIMIT:
        return NotInvertible(f"domain too large to tabulate ({card} points)")
    import numpy as np

    pts = m.domain.points_array()
    vals = m.evaluate_batch(pts)
    # lexsort is stable, so equal values stay in point order and every row
    # after a group's first is a repeat; the earliest repeat is the first
    # collision a scan in point order meets
    order = np.lexsort(vals.T)
    ranked = vals[order]
    repeat = (ranked[1:] == ranked[:-1]).all(axis=1)
    if not repeat.any():
        return InjectiveOnly()
    j = int(order[1:][repeat].min())
    i = int(np.argmax((vals == vals[j]).all(axis=1)))
    key = tuple(vals[j].tolist())
    return NotInvertible(f"collision: f{tuple(pts[i].tolist())} == f{tuple(pts[j].tolist())} == {key}")


# ---------------------------------------------------------------------------
# Composition


def compose(outer: QuasiAffineMap, inner: QuasiAffineMap) -> QuasiAffineMap:
    """outer after inner: evaluate(result, p) == outer(inner(p)).

    A pullback by substitution, in one pass per output: each inner output,
    scaled by its outer coefficient, adds its coefficients, constant and
    div/mod terms into one coefficient list, constant and term list, which
    is normalized once.  The inner expression of an outer div/mod term is
    summed the same way and normalized on its own, because the depth check
    needs its canonical form; ``UnrepresentableComposition`` when it is not
    linear.  It needs no box simplification: every div/mod term it holds is
    a scaled term of an inner output, which the inner map already
    box-simplified over the same domain.  The inner image is checked
    against the outer domain first, by ``image_escape``
    (``ImageEscapesDomain``).
    """
    if inner.out_arity != outer.in_arity:
        raise ArityMismatch(
            f"inner produces {inner.out_arity} values, outer consumes {outer.in_arity}"
        )
    escape = image_escape(inner, outer.domain.los, outer.domain.his)
    if escape is not None:
        if escape.interval is None:
            raise ImageEscapesDomain("inner image escapes outer domain")
        raise ImageEscapesDomain("output range [{}, {}] escapes [{}, {})".format(*escape.interval))
    exprs = []
    for oe in outer.exprs:
        coeffs, const, terms = _substitute(oe, inner)
        for t in oe.terms:
            sub = QuasiAffineExpr(*_substitute(t, inner))
            if not sub.is_linear:
                raise UnrepresentableComposition("substitution nests div/mod deeper than one level")
            terms.append(DivModTerm(sub.coeffs, sub.const, t.divisor, t.weight))
        exprs.append(QuasiAffineExpr(coeffs, const, tuple(terms)))
    return QuasiAffineMap(inner.domain, tuple(exprs))


def _substitute(e: QuasiAffineExpr | DivModTerm, inner: QuasiAffineMap):
    """The linear part of ``e`` (an expression, or a term's inner part) with
    ``inner``'s outputs substituted for its variables, unnormalized: a
    coefficient tuple, a constant and a list of scaled div/mod terms."""
    out = [0] * inner.in_arity
    const = e.const
    terms: list[DivModTerm] = []
    for c, ie in zip(e.coeffs, inner.exprs):
        if c:
            for j, a in enumerate(ie.coeffs):
                out[j] += c * a
            const += c * ie.const
            terms.extend(DivModTerm(t.coeffs, t.const, t.divisor, c * t.weight) for t in ie.terms)
    return tuple(out), const, terms
