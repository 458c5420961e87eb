"""Tests for the quasi-affine map algebra.

Expected values marked as derived were computed with the reference
evaluator / full enumeration below, which deliberately does not share code
with the implementation under test.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestopt.affine import (
    ArityMismatch,
    DomainTooLarge,
    ExplicitImage,
    ImageEscapesDomain,
    InjectiveOnly,
    IntBox,
    LatticeImage,
    Limits,
    MapClass,
    NotInvertible,
    PointOutsideDomain,
    QuasiAffineExpr,
    QuasiAffineMap,
    SymbolicInverse,
    TermKind,
    UnrepresentableComposition,
    affine_map,
    build_unflatten_exprs,
    classify,
    compose,
    const_expr,
    identity_map,
    image,
    reverse,
    variables,
)


# ---------------------------------------------------------------------------
# reference oracle: direct recursive evaluation, no shared code paths


def ref_eval_expr(expr, point):
    v = expr.const
    for c, p in zip(expr.coeffs, point):
        v += c * p
    for t in expr.terms:
        iv = t.inner.const
        for c, p in zip(t.inner.coeffs, point):
            iv += c * p
        if t.kind is TermKind.FLOORDIV:
            v += t.weight * (iv // t.divisor)
        else:
            v += t.weight * (iv % t.divisor)
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


def test_image_too_large():
    m = affine_map(box((0, 100), (0, 100)), (variables(2)[0] + variables(2)[1],))
    with pytest.raises(DomainTooLarge):
        image(m, Limits(enumerate_limit=100))


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


def test_reverse_tabulate_limit():
    i0, i1 = variables(2)
    m = affine_map(box((0, 40), (0, 40)), (i0 + 41 * i1, i1 + i0))
    res = reverse(m, Limits(enumerate_limit=100))
    assert isinstance(res, NotInvertible)
    assert "too large" in res.reason


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
    from nestopt.affine import DivModTerm

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
            kind = draw(st.sampled_from([TermKind.FLOORDIV, TermKind.MOD]))
            term = DivModTerm(inner, d, kind, draw(st.integers(-3, 3)))
            e = e + QuasiAffineExpr(tuple(0 for _ in range(b.ndim)), 0, (term,))
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
