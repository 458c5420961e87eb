"""Tests for the quasi-affine map algebra.

Expected values marked as derived were computed with the reference
evaluator / full enumeration below, which deliberately does not share code
with the implementation under test.
"""

import collections
import dataclasses
import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestopt.dme
from nestopt import affine as affine_module
from nestopt.affine import (
    ArityMismatch,
    DivModTerm,
    DomainTooLarge,
    ExplicitImage,
    ImageEscape,
    ImageEscapesDomain,
    InjectiveOnly,
    IntBox,
    LatticeImage,
    MapClass,
    NotInvertible,
    PointOutsideDomain,
    QuasiAffineExpr,
    QuasiAffineMap,
    SymbolicInverse,
    UnrepresentableComposition,
    affine_map,
    build_unflatten_exprs,
    classify,
    compose,
    const_expr,
    identity_map,
    image,
    image_escape,
    map_fits_int64,
    reverse,
    _box_simplify,
    _substitute,
    _match_unflatten,
    _single_var,
    _suffix_products,
    expr_interval,
    variables,
)
from nestopt.generators import generate_resnet_analog, generate_wavenet_analog


# ---------------------------------------------------------------------------
# reference oracle: direct recursive evaluation, no shared code paths


def ref_eval_expr(expr, point):
    v = expr.const
    for c, p in zip(expr.coeffs, point):
        v += c * p
    for t in expr.terms:
        iv = t.const
        for c, p in zip(t.coeffs, point):
            iv += c * p
        v += t.weight * (iv // t.divisor)
    return v


def ref_eval_map(m, point):
    return tuple(ref_eval_expr(e, point) for e in m.exprs)


def ref_graph(m):
    """Full point->value table by enumeration."""
    ranges = [range(l, h) for l, h in zip(m.domain.los, m.domain.his)]
    return {p: ref_eval_map(m, p) for p in itertools.product(*ranges)}


def box(*bounds):
    return IntBox(tuple(b[0] for b in bounds), tuple(b[1] for b in bounds))


# ---------------------------------------------------------------------------
# some fixed maps


def transpose_map():
    i0, i1 = variables(2)
    return affine_map(box((0, 4), (0, 8)), (i1, i0))


def flatten_map():
    # [4*i0 + i1] on [0,3)x[0,4)
    i0, i1 = variables(2)
    return affine_map(box((0, 3), (0, 4)), (4 * i0 + i1,))


def unflatten_map():
    (x,) = variables(1)
    return affine_map(box((0, 12)), (x.floordiv(4), x.mod(4)))


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_shift():
    (i,) = variables(1)
    m = affine_map(box((0, 10)), (i + 5,))
    assert m.evaluate((3,)) == (8,)


def test_evaluate_transpose():
    m = transpose_map()
    assert m.evaluate((2, 7)) == (7, 2)


def test_evaluate_flatten_matches_enumeration():
    m = flatten_map()
    g = ref_graph(m)
    assert len(g) == 12
    assert g[(2, 3)] == (11,)
    assert m.evaluate((2, 3)) == (11,)
    for p, v in g.items():
        assert m.evaluate(p) == v


def test_evaluate_outside_domain():
    m = flatten_map()
    with pytest.raises(PointOutsideDomain):
        m.evaluate((3, 0))


def test_floordiv_rounds_down_mod_nonnegative():
    (x,) = variables(1)
    m = affine_map(box((-8, 8)), (x.floordiv(3), x.mod(3)))
    for p in range(-8, 8):
        q, r = m.evaluate((p,))
        assert p == 3 * q + r
        assert 0 <= r < 3


# ---------------------------------------------------------------------------
# compose


def test_compose_transpose_involution():
    t = transpose_map()
    # the inverse direction has the transposed domain
    i0, i1 = variables(2)
    t_back = affine_map(box((0, 8), (0, 4)), (i1, i0))
    c = compose(t_back, t)
    assert c == identity_map(t.domain)
    for p in c.domain.points():
        assert c.evaluate(p) == p


def test_compose_linear():
    (i,) = variables(1)
    f = affine_map(box((0, 20)), (2 * i,))
    g = affine_map(box((0, 9)), (i + 1,))
    c = compose(f, g)
    assert c.exprs[0].coeffs == (2,)
    assert c.exprs[0].const == 2
    for p in range(9):
        assert c.evaluate((p,)) == (2 * p + 2,)


def test_compose_unflatten_after_flatten_is_identity():
    f = flatten_map()
    u = unflatten_map()
    c = compose(u, f)
    assert c == identity_map(f.domain)
    g = ref_graph(f)
    for p in g:
        assert c.evaluate(p) == p


def test_compose_flatten_after_unflatten_is_identity():
    c = compose(flatten_map(), unflatten_map())
    assert c == identity_map(unflatten_map().domain)


def test_compose_agrees_pointwise_with_functional():
    f = flatten_map()
    u = unflatten_map()
    c = compose(u, f)
    for p in f.domain.points():
        assert c.evaluate(p) == u.evaluate(f.evaluate(p))


def test_compose_arity_mismatch():
    with pytest.raises(ArityMismatch):
        compose(flatten_map(), flatten_map())


def test_compose_image_escape():
    (i,) = variables(1)
    f = affine_map(box((0, 4)), (i,))
    g = affine_map(box((0, 9)), (i + 1,))  # image [1, 10) escapes [0, 4)
    with pytest.raises(ImageEscapesDomain):
        compose(f, g)


def test_compose_depth_overflow_is_unrepresentable():
    (x,) = variables(1)
    u = unflatten_map()
    # feeding a floordiv into an unflatten exceeds depth 1
    h = affine_map(box((0, 24)), (x.floordiv(2),))
    with pytest.raises(UnrepresentableComposition):
        compose(u, h)


# ---------------------------------------------------------------------------
# classify


def test_classify_fixed_examples():
    i0, i1 = variables(2)
    assert classify(transpose_map()) is MapClass.PERM_SHIFT
    strided = affine_map(box((0, 4), (0, 4)), (2 * i0 + 1, i1))
    assert classify(strided) is MapClass.STRIDED_EMBED
    summed = affine_map(box((0, 2), (0, 2)), (i0 + i1,))
    assert classify(summed) is MapClass.GENERAL
    assert summed.is_pure_affine
    assert classify(flatten_map()) is MapClass.MIXED_RADIX
    assert classify(unflatten_map()) is MapClass.MIXED_RADIX
    assert not unflatten_map().is_pure_affine


def test_classify_reversal_is_strided():
    (i,) = variables(1)
    rev = affine_map(box((0, 6)), (5 - i,))
    assert classify(rev) is MapClass.STRIDED_EMBED


def test_classify_three_digit_unflatten():
    exprs = build_unflatten_exprs(0, (2, 3, 4))
    m = affine_map(box((0, 24)), exprs)
    assert classify(m) is MapClass.MIXED_RADIX


# ---------------------------------------------------------------------------
# image


def test_image_identity():
    m = identity_map(box((0, 4)))
    img = image(m)
    assert set(img.points()) == {(0,), (1,), (2,), (3,)}


def test_image_stride_lattice():
    (i,) = variables(1)
    m = affine_map(box((0, 3)), (3 * i,))
    img = image(m)
    assert set(img.points()) == {(0,), (3,), (6,)}
    assert (3,) in img and (2,) not in img


def test_image_flatten_dense():
    img = image(flatten_map())
    assert set(img.points()) == {(k,) for k in range(12)}
    assert img.equals_box(box((0, 12)))


def test_image_too_large(monkeypatch):
    monkeypatch.setattr(affine_module, "ENUMERATE_LIMIT", 100)
    m = affine_map(box((0, 100), (0, 100)), (variables(2)[0] + variables(2)[1],))
    with pytest.raises(DomainTooLarge):
        image(m)


# ---------------------------------------------------------------------------
# reverse


def test_reverse_shift():
    (i,) = variables(1)
    m = affine_map(box((0, 10)), (i + 5,))
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)
    assert inv.map.domain == box((5, 15))
    assert inv.map.exprs[0].coeffs == (1,)
    assert inv.map.exprs[0].const == -5


def test_reverse_stride_two():
    (i,) = variables(1)
    m = affine_map(box((0, 5)), (2 * i,))
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)
    assert set(inv.image.points()) == {(0,), (2,), (4,), (6,), (8,)}
    for p in range(5):
        assert inv.apply(m.evaluate((p,))) == (p,)


def test_reverse_collision():
    i0, i1 = variables(2)
    m = affine_map(box((0, 2), (0, 2)), (i0 + i1,))
    inv = reverse(m)
    assert isinstance(inv, NotInvertible)
    assert "collision" in inv.reason


def test_reverse_general_tabulated():
    i0, i1 = variables(2)
    # bijective on a 2x2 box but no per-axis normal form
    m = affine_map(box((0, 2), (0, 2)), ((i0 + i1).mod(2), i1))
    assert isinstance(reverse(m), InjectiveOnly)
    vals = list(ref_graph(m).values())
    assert len(set(vals)) == len(vals)


def test_reverse_tabulate_limit(monkeypatch):
    monkeypatch.setattr(affine_module, "ENUMERATE_LIMIT", 100)
    i0, i1 = variables(2)
    m = affine_map(box((0, 40), (0, 40)), (i0 + 41 * i1, i1 + i0))
    res = reverse(m)
    assert isinstance(res, NotInvertible)
    assert "too large" in res.reason


def test_reverse_of_a_strided_map_whose_image_box_passes_the_cap():
    # 10^9 domain points, but the image's bounding box spans 999001^3 cells
    i0, i1, i2 = variables(3)
    m = affine_map(box((0, 1000), (0, 1000), (0, 1000)), (1000 * i0, 1000 * i1, 1000 * i2))
    res = reverse(m)
    assert isinstance(res, NotInvertible)
    assert res.reason == f"image's bounding box too large for an inverse's domain ({999001 ** 3} points)"
    # two points whose span is exactly the cap still get a symbolic inverse
    (i,) = variables(1)
    at_cap = reverse(affine_map(box((0, 2)), (((1 << 40) - 1) * i,)))
    assert isinstance(at_cap, SymbolicInverse)
    assert at_cap.map.domain.cardinality == 1 << 40
    assert isinstance(reverse(affine_map(box((0, 2)), ((1 << 40) * i,))), NotInvertible)


def _ref_reverse_general(m):
    """The general-map answer of ``reverse`` by a dict scan in point order."""
    seen = {}
    pts = m.domain.points_array()
    for p, v in zip(pts.tolist(), m.evaluate_batch(pts).tolist()):
        key = tuple(v)
        if key in seen:
            return NotInvertible(f"collision: f{seen[key]} == f{tuple(p)} == {key}")
        seen[key] = tuple(p)
    return InjectiveOnly()


def test_reverse_general_matches_reference_scan():
    from test_acceptance import _map_corpus

    general = [m for m in _map_corpus(10_000, random.Random(20240501)) if classify(m) is MapClass.GENERAL]
    assert len(general) == 3045
    i0, i1 = variables(2)
    large = box((0, 400), (0, 400))
    general += [
        affine_map(large, (i0 + i0.floordiv(7) + 1000 * i1,)),  # injective
        affine_map(large, (i0.mod(399), i1)),  # first repeat at (399, 0)
    ]
    for m in general:
        assert reverse(m) == _ref_reverse_general(m)
    assert reverse(general[-1]) == NotInvertible("collision: f(0, 0) == f(399, 0) == (0, 0)")


@pytest.mark.parametrize(
    "make",
    [
        transpose_map,
        flatten_map,
        unflatten_map,
        lambda: affine_map(box((0, 7)), (3 * variables(1)[0] + 2,)),
        lambda: affine_map(box((2, 9)), (-variables(1)[0],)),
        lambda: affine_map(box((0, 24)), build_unflatten_exprs(0, (2, 3, 4))),
        lambda: affine_map(box((1, 4), (0, 5)), (5 * variables(2)[0] + variables(2)[1],)),
    ],
)
def test_reverse_round_trip(make):
    m = make()
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)
    for p, v in ref_graph(m).items():
        assert inv.apply(v) == p


def test_reverse_then_compose_gives_identity():
    m = flatten_map()
    inv = reverse(m)
    c = compose(inv.map, m)
    for p in m.domain.points():
        assert c.evaluate(p) == p


# ---------------------------------------------------------------------------
# box / limits sanity


def test_box_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        IntBox((3,), (1,))


def test_box_rejects_giant_cardinality():
    with pytest.raises(ValueError):
        IntBox((0, 0), (1 << 21, 1 << 21))


def test_empty_box_map():
    m = identity_map(box((0, 0)))
    assert m.domain.is_empty
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)


# ---------------------------------------------------------------------------
# property tests


small_int = st.integers(-6, 6)


@st.composite
def boxes(draw, max_dims=3, max_extent=6):
    n = draw(st.integers(1, max_dims))
    los = [draw(st.integers(-3, 3)) for _ in range(n)]
    exts = [draw(st.integers(1, max_extent)) for _ in range(n)]
    return IntBox(tuple(los), tuple(l + e for l, e in zip(los, exts)))


@st.composite
def linear_maps(draw, b=None, out_dims=None):
    b = b or draw(boxes())
    m = out_dims or draw(st.integers(1, 3))
    exprs = []
    for _ in range(m):
        coeffs = tuple(draw(small_int) for _ in range(b.ndim))
        exprs.append(QuasiAffineExpr(coeffs, draw(small_int)))
    return affine_map(b, tuple(exprs))


@st.composite
def quasi_maps(draw):
    b = draw(boxes())
    m = draw(st.integers(1, 3))
    exprs = []
    for _ in range(m):
        coeffs = tuple(draw(small_int) for _ in range(b.ndim))
        e = QuasiAffineExpr(coeffs, draw(small_int))
        if draw(st.booleans()):
            inner = QuasiAffineExpr(
                tuple(draw(small_int) for _ in range(b.ndim)), draw(small_int)
            )
            d = draw(st.integers(2, 5))
            kinded = inner.floordiv(d) if draw(st.booleans()) else inner.mod(d)
            e = e + draw(st.integers(-3, 3)) * kinded
        exprs.append(e)
    return affine_map(b, tuple(exprs))


@st.composite
def perm_shift_maps(draw):
    b = draw(boxes())
    perm = draw(st.permutations(range(b.ndim)))
    xs = variables(b.ndim)
    exprs = tuple(xs[j] + draw(small_int) for j in perm)
    return affine_map(b, exprs)


@st.composite
def strided_maps(draw):
    b = draw(boxes())
    perm = draw(st.permutations(range(b.ndim)))
    xs = variables(b.ndim)
    exprs = []
    for j in perm:
        s = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        exprs.append(s * xs[j] + draw(small_int))
    return affine_map(b, tuple(exprs))


@given(st.integers(-1000, 1000), st.integers(1, 64))
def test_floor_mod_law(x, d):
    assert x == d * (x // d) + (x % d)
    assert 0 <= x % d < d


@given(quasi_maps())
@settings(max_examples=150)
def test_evaluation_matches_reference(m):
    for p, v in ref_graph(m).items():
        assert m.evaluate(p) == v


@given(perm_shift_maps())
@settings(max_examples=100)
def test_perm_shift_classified_and_invertible(m):
    assert classify(m) is MapClass.PERM_SHIFT
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)
    for p, v in ref_graph(m).items():
        assert inv.apply(v) == p


@given(strided_maps())
@settings(max_examples=100)
def test_strided_round_trip(m):
    assert classify(m) in (MapClass.PERM_SHIFT, MapClass.STRIDED_EMBED)
    inv = reverse(m)
    assert isinstance(inv, SymbolicInverse)
    for p, v in ref_graph(m).items():
        assert inv.apply(v) == p


@given(quasi_maps())
@settings(max_examples=100)
def test_general_reverse_sound(m):
    inv = reverse(m)
    vals = list(ref_graph(m).values())
    if isinstance(inv, NotInvertible):
        assert len(set(vals)) < len(vals) or m.domain.cardinality > (1 << 20)
    elif isinstance(inv, InjectiveOnly):
        assert len(set(vals)) == len(vals)
    else:
        for p, v in ref_graph(m).items():
            assert inv.apply(v) == p


@given(boxes(), st.data())
@settings(max_examples=100)
def test_compose_agreement_property(b, data):
    from nestopt.affine import expr_interval

    inner = data.draw(linear_maps(b=b))
    # build an outer whose domain surely covers inner's image
    lo = []
    hi = []
    for e in inner.exprs:
        elo, ehi = expr_interval(e, b) if not b.is_empty else (0, 0)
        lo.append(elo)
        hi.append(ehi + 1)
    outer_box = IntBox(tuple(lo), tuple(hi))
    outer = data.draw(linear_maps(b=outer_box))
    c = compose(outer, inner)
    for p in b.points():
        assert c.evaluate(p) == outer.evaluate(inner.evaluate(p))


@given(boxes(max_dims=2, max_extent=4), st.data())
@settings(max_examples=60)
def test_compose_associativity(b, data):
    from nestopt.affine import expr_interval

    f = data.draw(linear_maps(b=b, out_dims=2))
    f_box = IntBox(
        tuple(expr_interval(e, b)[0] for e in f.exprs),
        tuple(expr_interval(e, b)[1] + 1 for e in f.exprs),
    )
    g = data.draw(linear_maps(b=f_box, out_dims=2))
    g_box = IntBox(
        tuple(expr_interval(e, f_box)[0] for e in g.exprs),
        tuple(expr_interval(e, f_box)[1] + 1 for e in g.exprs),
    )
    h = data.draw(linear_maps(b=g_box, out_dims=1))
    left = compose(compose(h, g), f)
    right = compose(h, compose(g, f))
    for p in b.points():
        assert left.evaluate(p) == right.evaluate(p)


# ---------------------------------------------------------------------------
# one-normalization builders against the operator-algebra references
#
# ``ref_compose``, ``ref_reverse`` and ``ref_build_unflatten_exprs`` build
# every map through ``+``, ``*``, ``floordiv`` and ``mod``, which normalize
# after each operation; ``ref_check_image_in_domain`` computes the image
# before any interval.  The module builds each output in one normalization
# and checks intervals first, and must agree with them byte for byte.


def ref_build_unflatten_exprs(base, radices):
    (x,) = variables(1)
    shifted = x - base
    weights = _suffix_products(radices)
    exprs = []
    for j, (w, r) in enumerate(zip(weights, radices)):
        if j == 0:
            exprs.append(shifted.floordiv(w) if w > 1 else shifted)
        elif w == 1:
            exprs.append(shifted - r * shifted.floordiv(r))
        else:
            exprs.append(shifted.floordiv(w) - r * shifted.floordiv(w * r))
    return tuple(exprs)


def ref_reverse(m):
    if m.domain.is_empty:
        empty = IntBox(tuple(0 for _ in range(m.out_arity)), tuple(0 for _ in range(m.out_arity)))
        exprs = tuple(const_expr(m.out_arity, 0) for _ in range(m.in_arity))
        return SymbolicInverse(QuasiAffineMap(empty, exprs), ExplicitImage(frozenset()))
    cls = classify(m)
    if cls is MapClass.GENERAL:
        return reverse(m)  # the tabulating branch builds no expression
    img = image(m)
    if cls in (MapClass.PERM_SHIFT, MapClass.STRIDED_EMBED):
        n = m.in_arity
        by_dim = {}
        for k, e in enumerate(m.exprs):
            dim, s = _single_var(e)
            by_dim[dim] = (k, s, e.const)
        xs = variables(n)
        inv_exprs = [None] * n
        for j in range(n):
            k, s, b = by_dim[j]
            if s == 1:
                inv_exprs[j] = xs[k] - b
            elif s == -1:
                inv_exprs[j] = -(xs[k] - b)
            elif s > 0:
                inv_exprs[j] = (xs[k] - b).floordiv(s)
            else:
                inv_exprs[j] = (const_expr(n, b) - xs[k]).floordiv(-s)
        return SymbolicInverse(QuasiAffineMap(img.bounding_box(), tuple(inv_exprs)), img)
    if m.out_arity == 1:
        digit = ref_build_unflatten_exprs(img.los[0], m.domain.extents)
        inv_exprs = tuple(d + lo for d, lo in zip(digit, m.domain.los))
        return SymbolicInverse(QuasiAffineMap(img.bounding_box(), inv_exprs), img)
    base, radices = _match_unflatten(m)
    acc = const_expr(len(radices), base)
    for w, y in zip(_suffix_products(radices), variables(len(radices))):
        acc = acc + w * y
    return SymbolicInverse(QuasiAffineMap(img.bounding_box(), (acc,)), img)


def ref_check_image_in_domain(inner, b):
    if inner.domain.is_empty:
        return
    if inner.out_arity != b.ndim:
        raise ArityMismatch("image arity != domain arity")
    try:
        img = image(inner)
    except DomainTooLarge:
        for e, lo, hi in zip(inner.exprs, b.los, b.his):
            elo, ehi = expr_interval(e, inner.domain)
            if elo < lo or ehi >= hi:
                raise ImageEscapesDomain(f"output range [{elo}, {ehi}] escapes [{lo}, {hi})")
        return
    if not img.is_subset_of_box(b):
        raise ImageEscapesDomain("inner image escapes outer domain")


def ref_compose(outer, inner):
    if inner.out_arity != outer.in_arity:
        raise ArityMismatch(f"inner produces {inner.out_arity} values, outer consumes {outer.in_arity}")
    ref_check_image_in_domain(inner, outer.domain)
    exprs = []
    for oe in outer.exprs:
        acc = const_expr(inner.in_arity, oe.const)
        for c, ie in zip(oe.coeffs, inner.exprs):
            if c:
                acc = acc + c * ie
        for t in oe.terms:
            sub = const_expr(inner.in_arity, t.const)
            for c, ie in zip(t.coeffs, inner.exprs):
                if c:
                    sub = sub + c * ie
            sub = _box_simplify(sub, inner.domain)
            if not sub.is_linear:
                raise UnrepresentableComposition("substitution nests div/mod deeper than one level")
            acc = acc + t.weight * sub.floordiv(t.divisor)
        exprs.append(acc)
    return QuasiAffineMap(inner.domain, tuple(exprs))


def _outcome(f, *args):
    """The result's repr (which shows every int's type), or the exception's type and message."""
    try:
        return repr(f(*args))
    except Exception as exc:  # the type and message are the compared outcome
        return type(exc), str(exc)


def _assert_compose_matches(outer, inner):
    got = _outcome(compose, outer, inner)
    assert got == _outcome(ref_compose, outer, inner), (outer, inner)
    return got


def _hull_outer(inner, rng):
    """A map whose domain is the interval hull of ``inner``'s outputs, with
    random linear and div/mod outputs (so ``compose`` substitutes into both)."""
    hull = [expr_interval(e, inner.domain) for e in inner.exprs]
    b = IntBox(tuple(lo for lo, _ in hull), tuple(hi + 1 for _, hi in hull))
    ys = variables(b.ndim)
    exprs = []
    for _ in range(rng.randint(1, 3)):
        e = const_expr(b.ndim, rng.randint(-4, 4))
        for y in ys:
            e = e + rng.randint(-3, 3) * y
        lin = const_expr(b.ndim, rng.randint(-3, 3))
        for y in ys:
            lin = lin + rng.randint(-2, 2) * y
        d = rng.randint(1, 6)
        e = e + rng.randint(-2, 2) * (lin.floordiv(d) if rng.random() < 0.5 else lin.mod(d))
        exprs.append(e)
    return affine_map(b, tuple(exprs))


def test_builders_match_operator_algebra_on_criterion_5_corpus():
    from test_acceptance import _map_corpus

    rng = random.Random(7)
    # the first 1 500 of criterion 5's maps: every kind, 250 times
    corpus = list(_map_corpus(1_500, random.Random(20240501)))
    pairs = []
    for k, m in enumerate(corpus):
        assert _outcome(reverse, m) == _outcome(ref_reverse, m), m
        inv = reverse(m)
        if isinstance(inv, SymbolicInverse):
            pairs += [(inv.map, m), (m, inv.map)]
        if not m.domain.is_empty:
            # criterion 5's outer: 2*y + 1 over the bounding box of the image
            vals = m.evaluate_batch(m.domain.points_array())
            tight = IntBox(tuple(int(v) for v in vals.min(axis=0)), tuple(int(v) + 1 for v in vals.max(axis=0)))
            pairs.append((affine_map(tight, tuple(2 * y + 1 for y in variables(tight.ndim))), m))
            pairs.append((_hull_outer(m, rng), m))
        # the neighbouring map: mostly an arity mismatch or an escaping image
        pairs.append((corpus[k - 1], m))
    outcomes = collections.Counter()
    for outer, inner in pairs:
        got = _assert_compose_matches(outer, inner)
        outcomes[got[0].__name__ if isinstance(got, tuple) else "composed"] += 1
    # every outcome the comparison is meant to cover occurs
    assert outcomes["composed"] > 3_000
    for error in ("ArityMismatch", "ImageEscapesDomain", "UnrepresentableComposition"):
        assert outcomes[error] > 50, outcomes


@pytest.mark.parametrize(
    "base, radices",
    [
        (0, (2, 3, 4)), (-3, (4, 2)), (5, (7,)), (0, (1,)), (2, (3, 1, 2)), (0, (1, 1)),
        (1, (2, 0, 3)), (0, (0, 2)), (0, (2, -3)),
    ],
)
def test_build_unflatten_exprs_matches_operator_algebra(base, radices):
    assert _outcome(build_unflatten_exprs, base, radices) == _outcome(ref_build_unflatten_exprs, base, radices)


def _recorded_dme_calls(monkeypatch, programs):
    """Every (outer, inner) pair ``run_dme`` hands to ``compose``, and every
    map it hands to ``reverse``."""
    pairs, reversed_maps = [], []

    def recording_compose(outer, inner, *rest):
        pairs.append((outer, inner))
        return compose(outer, inner, *rest)

    def recording_reverse(m, *rest):
        reversed_maps.append(m)
        return reverse(m, *rest)

    monkeypatch.setattr(nestopt.dme, "compose", recording_compose)
    monkeypatch.setattr(nestopt.dme, "reverse", recording_reverse)
    for p in programs:
        nestopt.dme.run_dme(p)
    return pairs, reversed_maps


@pytest.mark.parametrize(
    "programs",
    [
        pytest.param(lambda: [generate_wavenet_analog(200, 20, seed=s) for s in range(8)], id="wavenet"),
        pytest.param(lambda: [generate_resnet_analog(8, 3, seed=s) for s in range(4)], id="resnet"),
    ],
)
def test_builders_match_operator_algebra_on_dme_calls(monkeypatch, programs):
    pairs, reversed_maps = _recorded_dme_calls(monkeypatch, programs())
    assert pairs and reversed_maps
    for outer, inner in pairs:
        _assert_compose_matches(outer, inner)
    for m in reversed_maps:
        assert _outcome(reverse, m) == _outcome(ref_reverse, m)


# i0 mod 21 over 0..42: the floordiv term widens its interval to [-21, 41],
# but every value lies in [0, 21)
WRAPPED = affine_map(box((0, 42)), (variables(1)[0].mod(21),))


@pytest.mark.parametrize(
    "outer_box, limits, expected",
    [
        ((0, 21), {}, None),
        ((0, 20), {}, "inner image escapes outer domain"),
        ((0, 21), {"ENUMERATE_LIMIT": 10}, "output range [-21, 41] escapes [0, 21)"),
    ],
)
def test_compose_falls_back_to_the_image_when_an_interval_escapes(monkeypatch, outer_box, limits, expected):
    for name, value in limits.items():
        monkeypatch.setattr(affine_module, name, value)
    assert expr_interval(WRAPPED.exprs[0], WRAPPED.domain) == (-21, 41)
    (y,) = variables(1)
    outer = affine_map(box(outer_box), (3 * y + 1,))
    _assert_compose_matches(outer, WRAPPED)
    if expected is None:
        c = compose(outer, WRAPPED)
        assert [c.evaluate((p,)) for p in range(42)] == [(3 * (p % 21) + 1,) for p in range(42)]
    else:
        with pytest.raises(ImageEscapesDomain) as exc:
            compose(outer, WRAPPED)
        assert str(exc.value) == expected


@st.composite
def reshape_maps(draw):
    """A canonical unflatten (digit extraction) or row-major flatten map."""
    radices = tuple(draw(st.integers(2, 4)) for _ in range(draw(st.integers(2, 3))))
    base = draw(small_int)
    if draw(st.booleans()):
        return affine_map(box((base, base + math.prod(radices))), build_unflatten_exprs(base, radices))
    return affine_map(IntBox.from_extents(*radices), (QuasiAffineExpr(_suffix_products(radices), base),))


@given(st.one_of(quasi_maps(), reshape_maps()), st.data())
@settings(max_examples=300)
def test_image_escape_matches_enumeration(m, data):
    pts = list(m.domain.points())
    vals = [ref_eval_map(m, p) for p in pts]
    # a target box within one cell of the image's hull on each side
    los = tuple(min(col) + data.draw(st.integers(-1, 1)) for col in zip(*vals))
    his = tuple(max(col) + 1 + data.draw(st.integers(-1, 1)) for col in zip(*vals))
    first_bad = next(
        (p for p, v in zip(pts, vals) if not all(lo <= x < hi for x, lo, hi in zip(v, los, his))), None
    )
    escape = image_escape(m, los, his)
    assert escape == (None if first_bad is None else ImageEscape(witness=first_bad))
    # above the limit a normal form stays exact without its witness; a
    # general map escapes exactly when some value interval does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(affine_module, "ENUMERATE_LIMIT", 4)
        small = image_escape(m, los, his)
    if m.domain.cardinality <= 4:
        assert small == escape
    elif m.map_class is not MapClass.GENERAL:
        assert small == (None if first_bad is None else ImageEscape())
    else:
        intervals = [expr_interval(e, m.domain) for e in m.exprs]
        outside = [(elo, ehi, lo, hi) for (elo, ehi), lo, hi in zip(intervals, los, his) if elo < lo or ehi >= hi]
        assert small == (ImageEscape(interval=outside[0]) if outside else None)
        assert first_bad is None or small is not None


@given(quasi_maps(), st.data())
@settings(max_examples=200)
def test_substitution_needs_no_box_simplification(inner, data):
    # compose substitutes an outer div/mod term's linear inner expression
    # without box-simplifying it: each div/mod term it gets is a scaled term
    # of an inner output, already box-simplified over the same domain
    coeffs = tuple(data.draw(small_int) for _ in range(inner.out_arity))
    sub = QuasiAffineExpr(*_substitute(QuasiAffineExpr(coeffs, data.draw(small_int)), inner))
    assert _box_simplify(sub, inner.domain) == sub


def _count_normalizations(monkeypatch):
    calls = [0]
    original = affine_module._normalize_expr

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(affine_module, "_normalize_expr", counting)
    return calls


def test_compose_normalizes_each_output_once(monkeypatch):
    i0, i1 = variables(2)
    t = transpose_map()
    t_back = affine_map(box((0, 8), (0, 4)), (i1 + 2 * i0 - 1, 3 * i0))
    u, f = unflatten_map(), flatten_map()
    calls = _count_normalizations(monkeypatch)
    compose(t_back, t)
    # one per output; the operator algebra took 8
    assert calls[0] == 2
    calls[0] = 0
    compose(u, f)
    # per output: the div/mod term's inner expression, the output, and the
    # output again when box simplification resolves the term; the operator
    # algebra took 18
    assert calls[0] == 6


def test_run_dme_normalizes_under_half_as_often(monkeypatch):
    program = generate_wavenet_analog(100, 10, seed=5)
    calls = _count_normalizations(monkeypatch)
    nestopt.dme.run_dme(program)
    # 315 today; the operator algebra took 1 079
    assert calls[0] < 1_079 // 2


# ---------------------------------------------------------------------------
# value types: hashed once, compared by fields


def _rebuilt(m: QuasiAffineMap) -> QuasiAffineMap:
    """An equal map that shares no object with ``m`` but its ints."""
    exprs = tuple(
        QuasiAffineExpr(
            tuple(e.coeffs),
            e.const,
            tuple(DivModTerm(tuple(t.coeffs), t.const, t.divisor, t.weight) for t in e.terms),
        )
        for e in m.exprs
    )
    return QuasiAffineMap(IntBox(tuple(m.domain.los), tuple(m.domain.his)), exprs)


@given(quasi_maps(), boxes())
@settings(max_examples=150)
def test_value_rebuilt_from_its_fields_is_equal_and_hashes_alike(m, b):
    hash(m)  # the original's hashes are stored before the copy is made
    copy = _rebuilt(m)
    assert copy == m and m == copy and not copy != m
    assert hash(copy) == hash(m) == hash((m.domain, m.exprs))
    assert hash(copy.domain) == hash((m.domain.los, m.domain.his))
    for e, f in zip(m.exprs, copy.exprs):
        assert e == f and hash(e) == hash(f) == hash((f.coeffs, f.const, f.terms))
        for t, u in zip(e.terms, f.terms):
            assert t == u and hash(t) == hash(u) == hash((u.coeffs, u.const, u.divisor, u.weight))
    other = IntBox(b.los, b.his)
    assert other == b and hash(other) == hash(b) == hash((b.los, b.his))
    assert ({m: 1, b: 2}[copy], {m: 1, b: 2}[other]) == (1, 2)
    assert (copy.domain == b) is (m.domain.los == b.los and m.domain.his == b.his)


def test_replace_gives_a_value_that_hashes_by_its_new_fields():
    b = box((0, 4), (0, 8))
    table = {b: "old"}
    wider = dataclasses.replace(b, his=(4, 9))
    assert wider != b and wider == box((0, 4), (0, 9))
    assert hash(wider) == hash(box((0, 4), (0, 9)))
    assert wider not in table and table[dataclasses.replace(wider, his=(4, 8))] == "old"
    e = QuasiAffineExpr((1, 2), 3)
    hash(e)
    shifted = dataclasses.replace(e, const=4)
    assert shifted == QuasiAffineExpr((1, 2), 4) and hash(shifted) == hash(QuasiAffineExpr((1, 2), 4))
    # replace runs the normalization again: 2*((2*i0) floordiv 2) is 2*i0
    t = DivModTerm((1, 0), 0, 2, 2)
    hash(t)
    assert hash(dataclasses.replace(t, coeffs=(2, 0))) == hash(DivModTerm((2, 0), 0, 2, 2))
    folded = dataclasses.replace(QuasiAffineExpr((0, 0), 0, (t,)), terms=(DivModTerm((2, 0), 0, 2, 2),))
    assert folded == QuasiAffineExpr((2, 0)) and hash(folded) == hash(QuasiAffineExpr((2, 0)))
    m = transpose_map()
    hash(m)
    moved = dataclasses.replace(m, domain=box((0, 4), (0, 9)))
    assert moved != m and hash(moved) == hash(affine_map(box((0, 4), (0, 9)), m.exprs))


@given(quasi_maps())
@settings(max_examples=50)
def test_pickle_round_trip_keeps_equality_and_hash(m):
    hash(m)
    m.map_class
    loaded = pickle.loads(pickle.dumps(m))
    assert loaded == m and hash(loaded) == hash(m)
    assert loaded.map_class is m.map_class
    for e, f in zip(m.exprs, loaded.exprs):
        assert f == e and hash(f) == hash(e)
    assert loaded.domain == m.domain and hash(loaded.domain) == hash(m.domain)


def test_comparing_with_another_class_is_false():
    b = box((0, 4))
    e = QuasiAffineExpr((1,), 0, (DivModTerm((1,), 0, 2, 1),))
    m = affine_map(b, (e,))
    values = (b, e.terms[0], e, m)
    for value in values:
        for other in (*values, (b.los, b.his), (1,), 0, None, "i0"):
            if other is not value:
                assert value != other and not value == other and other != value
        assert value.__eq__((value,)) is NotImplemented
    assert b != LatticeImage((0,), (1,), (4,)) and LatticeImage((0,), (1,), (4,)) != b


def test_map_with_filled_cached_properties_is_still_a_dict_key():
    m = unflatten_map()
    table = {m: "u"}
    assert m.map_class is MapClass.MIXED_RADIX and m.unflatten == (0, (3, 4))
    assert m.domain.cardinality == 12
    assert table[m] == "u" and table[_rebuilt(m)] == "u"
    assert {m, _rebuilt(m)} == {m}
    bigger = {m: "u", _rebuilt(flatten_map()): "f"}
    assert flatten_map().map_class is MapClass.MIXED_RADIX and bigger[flatten_map()] == "f"


def test_int64_bounds_are_tight_at_the_edge():
    top = (1 << 63) - 1
    assert IntBox((top - 4, -3), (top, 2)).magnitude == top
    assert IntBox((top - 4,), (top + 1,)).magnitude > top
    assert IntBox((-top - 1,), (-top + 3,)).magnitude > top
    assert IntBox((), ()).magnitude == IntBox.from_extents(1).magnitude == 1
    # the bound takes every coordinate as large as the box's largest bound
    box = IntBox((top - 5,), (top - 1,))
    (x,) = variables(1)
    fits = affine_map(box, (x + 1,))
    assert map_fits_int64(fits)
    pts = box.points_array()
    assert fits.evaluate_batch(pts)[:, 0].tolist() == [fits.evaluate(p)[0] for p in box.points()]
    assert not map_fits_int64(affine_map(box, (x + 2,)))
    # a coefficient on a one-point dimension still has to be an int64
    assert not map_fits_int64(affine_map(IntBox.from_extents(1), ((1 << 63) * x,)))


def test_int64_bound_counts_each_floordiv_term():
    box = IntBox.from_extents(2, 2)
    i0, i1 = variables(2)
    # each term is 0 or 1 times 2^61 here, and all four are 1 at (1, 1)
    terms = [(1 << 61) * (k * i0 + k * i1 + k - 1).floordiv(2 * k) for k in range(1, 5)]
    assert map_fits_int64(affine_map(box, (sum(terms[:3]) + i0,)))
    wraps = affine_map(box, (sum(terms) + i0,))
    assert wraps.evaluate((1, 1)) == (2**63 + 1,)
    assert not map_fits_int64(wraps)


def _ref_match_unflatten(m):
    """Reference recognizer: find (base, radices) from the divisors, then
    rebuild the digits and compare."""
    if m.in_arity != 1 or m.out_arity < 2 or m.domain.his[0] - m.domain.los[0] < 4:
        return None
    base, total = m.domain.los[0], m.domain.his[0] - m.domain.los[0]
    weights = [min((t.divisor for t in e.terms), default=None) for e in m.exprs[:-1]] + [1]
    if None in weights or total % weights[0]:
        return None
    radices = [total // weights[0]]
    for prev, cur in zip(weights, weights[1:]):
        if prev % cur:
            return None
        radices.append(prev // cur)
    if min(radices) < 2 or math.prod(radices) != total:
        return None
    return (base, tuple(radices)) if _rebuilt_digits(base, tuple(radices)) == m.exprs else None


_rebuilt_digits = functools.cache(build_unflatten_exprs)


def _perturbed(e, kind):
    """``e`` with its constant, its first term's constant or its coefficient moved by one."""
    if kind == 0:
        return QuasiAffineExpr(e.coeffs, e.const + 1, e.terms)
    if kind == 1 and e.terms:
        t = e.terms[0]
        moved = DivModTerm(t.coeffs, t.const + 1, t.divisor, t.weight)
        return QuasiAffineExpr(e.coeffs, e.const, (moved, *e.terms[1:]))
    return QuasiAffineExpr((e.coeffs[0] + 1,), e.const, e.terms)


def test_unflatten_recognizer_agrees_with_rebuilding_the_digits():
    # every base and radix list of the grid, canonical, on a shifted domain,
    # and with one digit's constant, first term or coefficient moved; the
    # moved digit and what moves rotate through the grid
    grid = itertools.product(
        range(-13, 14),
        itertools.chain.from_iterable(itertools.product(range(2, 6), repeat=n) for n in (2, 3, 4)),
    )
    recognized = 0
    for i, (base, radices) in enumerate(grid):
        total = math.prod(radices)
        exprs = _rebuilt_digits(base, radices)
        j = i % len(radices)
        moved = (*exprs[:j], _perturbed(exprs[j], i % 3), *exprs[j + 1 :])
        maps = [affine_map(box((lo, lo + total)), exprs) for lo in (base, base + 1)]
        maps.append(affine_map(box((base, base + total)), moved))
        for m in maps:
            got = _match_unflatten(m)
            assert got == _ref_match_unflatten(m), m
            recognized += got is not None
    assert recognized == 27 * (16 + 64 + 256)


@st.composite
def lattices_and_boxes(draw):
    """A lattice image and a box, often its own bounding box, moved a little
    or of another rank."""
    n = draw(st.integers(0, 3))
    img = LatticeImage(
        tuple(draw(small_int) for _ in range(n)),
        tuple(draw(st.integers(1, 3)) for _ in range(n)),
        tuple(draw(st.integers(0, 4)) for _ in range(n)),
    )
    bb = img.bounding_box()
    los, his = list(bb.los), list(bb.his)
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        los[k] -= draw(st.integers(0, 1))
        his[k] += draw(st.integers(0, 1))
    if draw(st.integers(0, 3)) == 0:
        m = draw(st.integers(0, 3))
        los, his = los[:m] + [0] * (m - n), his[:m] + [1] * (m - n)
    return img, IntBox(tuple(los), tuple(his))


@given(lattices_and_boxes())
@settings(max_examples=300, derandomize=True)
def test_lattice_equals_box_is_bounding_box_equality_with_unit_strides(case):
    img, b = case
    assert img.equals_box(b) == (all(s == 1 for s in img.strides) and img.bounding_box() == b)
