"""Arrow category: squares, their composition, and the arrow ambient."""

import dataclasses
import json
import os

import pytest

from garnet.arrows import (ArrowAmbient, ArrowObj, FinSetAmbient,
                           PresheafAmbient, Session, Square, compose_squares,
                           identity_square)
from garnet.errors import BoundaryMismatch, CodomainMismatch, DomainMismatch
from garnet.fincat import FinCategory, category_from_json, category_to_json
from garnet.finset import EMPTY, FinFunction, FinSet, compose, identity
from garnet.presheaf import yoneda

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


def test_arrow_coproduct_legs_into_different_arrows_raise():
    # g1 and g2 share their ends and agree on the point both legs hit, so
    # each level mediates, but the legs land in different arrows
    pt = arrow(identity(ONE))
    g1 = arrow(identity(TWO))
    g2 = arrow(fn(TWO, TWO, 0, 0))
    into = fn(ONE, TWO, 0)
    cp = ARR.coproduct([pt, pt])
    with pytest.raises(CodomainMismatch):
        cp.mediate([Square(pt, g1, into, into), Square(pt, g2, into, into)])


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
    # its legs are taken like every colimit's: apart, or as lists
    assert res.mediate(*cocone) == res.mediate(cocone[:2], *cocone[2:]) == s3
    bad = [cocone[0], identity_square(f1), s3, s3]
    with pytest.raises(DomainMismatch):
        res.mediate(bad)
    with pytest.raises(DomainMismatch):
        res.mediate(*bad)


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
    f = ArrowObj(amb, maps[0])
    arr = ArrowAmbient(amb)
    po = arr.pushout(identity_square(f), identity_square(f))
    assert arr.is_iso(po.left)
    assert amb.obj_size(po.obj.dom) == amb.obj_size(yx)


def test_ambients_are_values():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                           "graph_base.json")) as fh:
        base = category_from_json(json.load(fh))
    copy = category_from_json(category_to_json(base))
    assert copy is not base
    graph, graph2 = PresheafAmbient(base), PresheafAmbient(copy)
    assert graph == graph2 and hash(graph) == hash(graph2)
    assert FinSetAmbient() == FinSetAmbient()
    assert hash(FinSetAmbient()) == hash(FinSetAmbient())
    assert ArrowAmbient(graph) == ArrowAmbient(graph2)
    chain = PresheafAmbient(FinCategory(("x", "y"), (("m", "x", "y"),), {}))
    kinds = [AMB, graph, chain, ARR, ArrowAmbient(graph), ArrowAmbient(ARR)]
    for i, a in enumerate(kinds):
        for b in kinds[i + 1:]:
            assert a != b
    # an arrow on either of two equal ambients finds the other's entry
    x = yoneda(base, base.objects[0])
    found = {ArrowObj(graph, graph.identity(x)): "entry"}
    assert found[ArrowObj(graph2, graph2.identity(x))] == "entry"
    found = {ArrowObj(AMB, identity(TWO)): "entry"}
    assert found[ArrowObj(FinSetAmbient(), identity(TWO))] == "entry"
    for amb, attr in ((graph, "base"), (ARR, "inner")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(amb, attr, chain)


def test_session_memoizes():
    session = Session()
    calls = []

    def thunk():
        calls.append(1)
        return 42

    assert session.memo(("density", "key"), thunk) == 42
    assert session.memo(("density", "key"), thunk) == 42
    assert len(calls) == 1
