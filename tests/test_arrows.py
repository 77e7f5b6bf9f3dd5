"""Arrow category: squares, pasting, Tgt, Leibniz pushout application."""

import pytest
from hypothesis import given, settings, strategies as st

from garnet.arrows import (ArrowAmbient, ArrowObj, EndoData, FinSetAmbient,
                           NatTransData, PresheafAmbient, Session, Square,
                           compose_arrows, compose_squares, identity_square,
                           leibniz_pushout_apply, stack_squares,
                           tgt_endofunctor)
from garnet.errors import BoundaryMismatch, DomainMismatch, NaturalityViolation
from garnet.fincat import FinCategory
from garnet.finset import EMPTY, FinFunction, FinSet, compose, identity
from garnet.presheaf import Presheaf, PresheafMap, yoneda

AMB = FinSetAmbient()
ARR = ArrowAmbient(AMB)


def fin(n, prefix="x"):
    return FinSet.fresh(n, prefix=prefix)


def fn(a, b, *table):
    return FinFunction(a, b, tuple(table))


def arrow(m):
    return ArrowObj(AMB, m)


ONE = fin(1, "p")
TWO = fin(2, "a")


def test_square_requires_commuting():
    f = arrow(fn(TWO, ONE, 0, 0))
    g = arrow(identity(TWO))
    # top: 2->2 swap, bottom: 1->2; g . top = swap but bottom . f is constant
    with pytest.raises(BoundaryMismatch):
        Square(f, g, fn(TWO, TWO, 1, 0), fn(ONE, TWO, 0))


def test_square_rejects_mistyped_sides():
    f = arrow(fn(TWO, ONE, 0, 0))
    with pytest.raises(BoundaryMismatch):
        Square(f, f, identity(ONE), identity(ONE))


def test_square_constructor_exhaustive_on_small_shapes():
    # every (top, bottom) pair either commutes and builds, or raises
    f = arrow(fn(TWO, ONE, 0, 0))
    g = arrow(fn(TWO, TWO, 0, 0))
    built = 0
    for top in AMB.hom(f.dom, g.dom):
        for bottom in AMB.hom(f.cod, g.cod):
            commutes = compose(g.mor, top) == compose(bottom, f.mor)
            if commutes:
                Square(f, g, top, bottom)
                built += 1
            else:
                with pytest.raises(BoundaryMismatch):
                    Square(f, g, top, bottom)
    assert built == len(ARR.hom(f, g))
    # g is constant, so any top works once bottom hits g's image: 4 tops
    assert built == 4


def test_identity_squares_are_neutral():
    f = arrow(fn(TWO, ONE, 0, 0))
    g = arrow(identity(ONE))
    s = Square(f, g, fn(TWO, ONE, 0, 0), identity(ONE))
    assert compose_squares(s, identity_square(f)) == s
    assert compose_squares(identity_square(g), s) == s


def test_compose_squares_rejects_middle_mismatch():
    f = arrow(fn(TWO, ONE, 0, 0))
    s = identity_square(f)
    t = identity_square(arrow(identity(ONE)))
    with pytest.raises(BoundaryMismatch):
        compose_squares(t, s)


def _small_sets():
    return st.integers(min_value=1, max_value=3).map(fin)


@st.composite
def _random_map(draw, a=None, b=None):
    a = a if a is not None else draw(_small_sets())
    b = b if b is not None else draw(_small_sets())
    table = tuple(draw(st.integers(0, b.size - 1)) for _ in range(a.size))
    return FinFunction(a, b, table)


@st.composite
def _random_square(draw):
    # nonempty codomains guarantee at least the constant squares exist
    f = arrow(draw(_random_map()))
    g = arrow(draw(_random_map()))
    candidates = ARR.hom(f, g)
    return candidates[draw(st.integers(0, len(candidates) - 1))]


@st.composite
def _grid(draw):
    """A 2x2 grid of squares sharing boundaries; the inner corners come from
    pushouts, which makes every square commute by construction."""
    r00 = draw(_random_map())
    r01 = draw(_random_map(a=r00.cod))
    c00 = draw(_random_map(a=r00.dom))
    c10 = draw(_random_map(a=c00.cod))
    po_a = AMB.pushout(r00, c00)
    c01, r10 = po_a.left, po_a.right
    po_b = AMB.pushout(r01, c01)
    c02, r11 = po_b.left, po_b.right
    po_c = AMB.pushout(r10, c10)
    c11, r20 = po_c.left, po_c.right
    po_d = AMB.pushout(r11, c11)
    c12, r21 = po_d.left, po_d.right
    s11 = Square(arrow(c00), arrow(c01), r00, r10)
    s12 = Square(arrow(c01), arrow(c02), r01, r11)
    s21 = Square(arrow(c10), arrow(c11), r10, r20)
    s22 = Square(arrow(c11), arrow(c12), r11, r21)
    return (s11, s12), (s21, s22)


@settings(max_examples=60, deadline=None)
@given(_grid())
def test_pasting_interchange(rows):
    (s11, s12), (s21, s22) = rows
    horizontal_first = stack_squares(compose_squares(s12, s11),
                                     compose_squares(s22, s21))
    vertical_first = compose_squares(stack_squares(s12, s22),
                                     stack_squares(s11, s21))
    assert horizontal_first == vertical_first


def test_stack_squares_requires_shared_row():
    f = arrow(fn(TWO, ONE, 0, 0))
    s = identity_square(f)
    with pytest.raises(BoundaryMismatch):
        stack_squares(s, identity_square(arrow(identity(TWO))))


def test_stage_squares_compose_to_the_two_stage_comparison():
    # factorizing 0 -> 1 proceeds through a two point midpoint and then a
    # quotient back to the point; the stage comparison squares compose to
    # the square (0 -> 1, id)
    pt = fin(1, "pt")
    mid = fin(2, "m")
    f0 = arrow(fn(EMPTY, pt))
    f1 = arrow(fn(mid, pt, 0, 0))
    f2 = arrow(identity(pt))
    m1 = Square(f0, f1, fn(EMPTY, mid), identity(pt))
    m2 = Square(f1, f2, fn(mid, pt, 0, 0), identity(pt))
    total = compose_squares(m2, m1)
    assert total.top == fn(EMPTY, pt)
    assert total.bottom == identity(pt)


def test_tgt_on_identity_is_identity_unit():
    t = tgt_endofunctor(AMB)
    f = ArrowObj(AMB, identity(TWO))
    assert t.on_obj(f) == f
    assert t.unit(f) == identity_square(f)


def test_tgt_on_empty_inclusion():
    t = tgt_endofunctor(AMB)
    pt = fin(1, "pt")
    f = ArrowObj(AMB, fn(EMPTY, pt))
    assert t.on_obj(f) == ArrowObj(AMB, identity(pt))
    assert t.unit(f) == Square(f, t.on_obj(f), f.mor, identity(pt))


def test_tgt_unit_natural_on_coprojection_square():
    t = tgt_endofunctor(AMB)
    two = fin(2, "c")
    inj0 = fn(ONE, two, 0)
    sq = Square(arrow(inj0), arrow(identity(two)), inj0, identity(two))
    assert t.unit_is_natural_at(sq)


@settings(max_examples=40, deadline=None)
@given(_random_square())
def test_tgt_functorial_and_well_pointed(sq):
    t = tgt_endofunctor(AMB)
    assert t.unit_is_natural_at(sq)
    assert t.is_well_pointed_at(sq.source)
    assert t.is_well_pointed_at(sq.target)
    ts = t.on_mor(sq)
    assert ts.source == t.on_obj(sq.source)
    assert ts.target == t.on_obj(sq.target)


def _identity_endo():
    return EndoData(AMB, lambda x: x, lambda m: m)


def _constant_endo(pt):
    return EndoData(AMB, lambda x: pt, lambda m: identity(pt))


def test_leibniz_identity_transformation_gap_is_iso():
    idf = _identity_endo()
    alpha = NatTransData(idf, idf, lambda x: identity(x))
    f = fn(TWO, ONE, 0, 0)
    res = leibniz_pushout_apply(alpha, f)
    assert res.gap.is_bijective
    assert compose(res.gap, res.pushout.left) == f
    assert compose(res.gap, res.pushout.right) == identity(ONE)


def test_leibniz_collapse_to_point():
    pt = fin(1, "pt")
    idf = _identity_endo()
    bang = _constant_endo(pt)
    alpha = NatTransData(idf, bang, lambda x: fn(x, pt, *([0] * x.size)))
    f = fn(TWO, ONE, 0, 0)
    res = leibniz_pushout_apply(alpha, f)
    # independent oracle: the pushout 1 Union_2 1 collapses to a point
    assert res.pushout.obj.size == 1
    assert res.gap.table == (0,)
    assert res.gap.is_bijective


def test_leibniz_triangle_identities():
    pt = fin(1, "pt")
    idf = _identity_endo()
    bang = _constant_endo(pt)
    alpha = NatTransData(idf, bang, lambda x: fn(x, pt, *([0] * x.size)))
    three = fin(3, "t")
    f = fn(three, TWO, 0, 0, 1)
    res = leibniz_pushout_apply(alpha, f)
    assert compose(res.gap, res.pushout.left) == identity(pt)  # G f
    assert compose(res.gap, res.pushout.right) == fn(TWO, pt, 0, 0)  # alpha_B


def test_leibniz_rejects_non_natural_data():
    swap = fn(TWO, TWO, 1, 0)
    idf = _identity_endo()
    broken = NatTransData(idf, idf,
                          lambda x: swap if x == TWO else identity(x))
    f = fn(ONE, TWO, 0)
    with pytest.raises(NaturalityViolation):
        leibniz_pushout_apply(broken, f)


def test_leibniz_mono_preservation_observed():
    # alpha cartesian and mono-valued: inclusion of Id into Id + constant 1
    pt = fin(1, "pt")

    def on_obj(x):
        return FinSet(tuple(x.labels) + ("extra",))

    def on_mor(m):
        big_dom, big_cod = on_obj(m.dom), on_obj(m.cod)
        return FinFunction(big_dom, big_cod,
                           tuple(m.table) + (big_cod.size - 1,))

    side = EndoData(AMB, on_obj, on_mor)
    incl = NatTransData(_identity_endo(), side, lambda x: FinFunction(
        x, on_obj(x), tuple(range(x.size))))
    mono = fn(ONE, TWO, 1)
    res = leibniz_pushout_apply(incl, mono)
    assert mono.is_injective
    assert res.gap.is_injective


# -- the arrow category as an ambient ------------------------------------------

def _all_squares(a, b):
    return ARR.hom(a, b)


def test_arrow_ambient_pushout_universal_property():
    pt = fin(1, "pt")
    f = arrow(fn(EMPTY, pt))
    g = arrow(identity(pt))
    s = Square(f, g, fn(EMPTY, pt), identity(pt))
    t = identity_square(f)
    po = ARR.pushout(s, t)
    assert compose_squares(po.left, s) == compose_squares(po.right, t)
    for w in (g, arrow(fn(pt, fin(2, "w"), 1))):
        for q in _all_squares(g, w):
            for r in _all_squares(f, w):
                if compose_squares(q, s) != compose_squares(r, t):
                    continue
                med = po.mediate(q, r)
                assert compose_squares(med, po.left) == q
                assert compose_squares(med, po.right) == r
                others = [u for u in _all_squares(po.obj, w)
                          if compose_squares(u, po.left) == q
                          and compose_squares(u, po.right) == r]
                assert others == [med]


def test_arrow_ambient_coproduct_and_initial():
    pt = fin(1, "pt")
    f = arrow(fn(EMPTY, pt))
    g = arrow(identity(pt))
    cp = ARR.coproduct([f, g])
    assert cp.obj.dom.size == 1 and cp.obj.cod.size == 2
    legs = [Square(f, g, fn(EMPTY, pt), identity(pt)), identity_square(g)]
    med = cp.mediate(legs)
    for inj, leg in zip(cp.injections, legs):
        assert compose_squares(med, inj) == leg
    empty = ARR.coproduct([])
    assert empty.obj.dom.size == 0 and empty.obj.cod.size == 0
    bang = empty.mediate([], cod=f)
    assert bang.source == empty.obj and bang.target == f


def test_arrow_ambient_coequalizer():
    two = fin(2, "c")
    f = arrow(identity(two))
    swap = Square(f, f, fn(two, two, 1, 0), fn(two, two, 1, 0))
    ce = ARR.coequalizer(identity_square(f), swap)
    assert ce.obj.dom.size == 1 and ce.obj.cod.size == 1
    collapse = Square(f, arrow(identity(ONE)),
                      fn(two, ONE, 0, 0), fn(two, ONE, 0, 0))
    med = ce.mediate(collapse)
    assert compose_squares(med, ce.proj) == collapse


def test_arrow_ambient_chain_colimit():
    pt = fin(1, "pt")
    mid = fin(2, "m")
    f0 = arrow(fn(EMPTY, pt))
    f1 = arrow(fn(mid, pt, 0, 0))
    f2 = arrow(identity(pt))
    s1 = Square(f0, f1, fn(EMPTY, mid), identity(pt))
    s2 = Square(f1, f2, fn(mid, pt, 0, 0), identity(pt))
    s3 = identity_square(f2)
    res = ARR.sequential_colimit([s1, s2, s3])
    assert res.stable_from == 2
    assert res.obj == f2
    cocone = [compose_squares(s2, s1), s2, s3, s3]
    assert res.mediate(cocone) == s3
    bad = [cocone[0], identity_square(f1), s3, s3]
    with pytest.raises(DomainMismatch):
        res.mediate(bad)


def test_arrow_ambient_pullback():
    two = fin(2, "c")
    f = arrow(identity(two))
    g = arrow(identity(ONE))
    s = Square(f, g, fn(two, ONE, 0, 0), fn(two, ONE, 0, 0))
    t = identity_square(g)
    pb = ARR.pullback(s, t)
    assert compose_squares(s, pb.left) == compose_squares(t, pb.right)
    assert pb.obj.dom.size == 2 and pb.obj.cod.size == 2
    assert ARR.is_iso(pb.left)


def test_arrow_ambient_hom_counts():
    f = arrow(fn(TWO, ONE, 0, 0))
    g = arrow(identity(ONE))
    assert len(ARR.hom(f, g)) == 1
    isos = [s for s in ARR.hom(f, f) if ARR.is_iso(s)]
    assert len(isos) == 2  # either swap of the fiber


def test_double_arrow_ambient_closes_the_loop():
    arr2 = ArrowAmbient(ARR)
    f = arrow(fn(TWO, ONE, 0, 0))
    g = arrow(identity(ONE))
    s = ArrowObj(ARR, Square(f, g, fn(TWO, ONE, 0, 0), identity(ONE)))
    ident = arr2.identity(s)
    assert arr2.compose(ident, ident) == ident
    assert arr2.is_iso(ident)
    po = arr2.pushout(ident, ident)
    # pushing out along identities relabels but does not change shape
    assert arr2.is_iso(po.left) and arr2.is_iso(po.right)


def test_presheaf_ambient_round_trip():
    base = FinCategory(("x", "y"), (("m", "x", "y"),), {})
    amb = PresheafAmbient(base)
    yx, yy = yoneda(base, "x"), yoneda(base, "y")
    maps = amb.hom(yx, yy)
    assert len(maps) == 1
    t = tgt_endofunctor(amb)
    f = ArrowObj(amb, maps[0])
    assert t.is_well_pointed_at(f)
    arr = ArrowAmbient(amb)
    po = arr.pushout(identity_square(f), identity_square(f))
    assert arr.is_iso(po.left)
    assert amb.obj_size(po.obj.dom) == amb.obj_size(yx)


def test_compose_arrows_matches_stacking():
    pt = fin(1, "pt")
    mid = fin(2, "m")
    up = arrow(fn(EMPTY, mid))
    down = arrow(fn(mid, pt, 0, 0))
    total = compose_arrows(down, up)
    assert total.mor == fn(EMPTY, pt)


def test_session_memoizes():
    session = Session()
    calls = []

    def thunk():
        calls.append(1)
        return 42

    assert session.memo(("density", "key"), thunk) == 42
    assert session.memo(("density", "key"), thunk) == 42
    assert len(calls) == 1
