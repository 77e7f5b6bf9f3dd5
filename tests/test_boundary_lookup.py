"""Boundary lookup against the filter-and-compare search it replaced.

Squares are found by indexing each hom-set once by boundary, and filler
candidates and plain lifting read each problem's own diagonals.  The
oracles below are the earlier code, which tests every candidate pair: on
small finite-set and graph shapes, with random caps, squares must give
equal lists in the same order, or both must raise EnumerationCap.  The
diagonals' cap bounds each problem's diagonals, not their hom-set, so
candidates and plain lifting may raise EnumerationCap only where the
oracle does, and otherwise equal the oracle run without a cap.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import AMB, arrow, func, point_inclusion, walking_cospan
from garnet.arrows import ArrowAmbient, ArrowObj, PresheafAmbient, Square
from garnet.awfs import _fillers, has_rlp
from garnet.density import ArrowDiagram, arrow_diagram_from_json
from garnet.errors import EnumerationCap
from garnet.fincat import category_from_json, discrete_category
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import Presheaf, enumerate_maps, presheaf_identity

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


GRAPH = category_from_json(_fixture("graph_base.json"))
PAMB = PresheafAmbient(GRAPH)


# -- the oracles: the filter-and-compare code ----------------------------------

def oracle_hom(inner, a, b, cap=None):
    out = []
    for top in inner.hom(a.dom, b.dom, cap=cap):
        lhs = inner.compose(b.mor, top)
        for bottom in inner.hom(a.cod, b.cod, cap=cap):
            if lhs == inner.compose(bottom, a.mor):
                out.append(Square(a, b, top, bottom))
    return out


def oracle_candidates(inner, gen, f, cap=None):
    return [[s for s in inner.hom(gen.cod, f.dom, cap=cap)
             if inner.compose(s, gen.mor) == a.top
             and inner.compose(f.mor, s) == a.bottom]
            for a in oracle_hom(inner, gen, f, cap=cap)]


def oracle_has_rlp(f, u, cap=None):
    inner = u.ambient
    for i in u.index.objects:
        gen = u.arrow(i)
        for a in oracle_hom(inner, gen, f, cap=cap):
            if not any(inner.compose(s, gen.mor) == a.top
                       and inner.compose(f.mor, s) == a.bottom
                       for s in inner.hom(gen.cod, f.dom, cap=cap)):
                return False
    return True


# -- the code under test, in the same shapes -----------------------------------

def indexed_candidates(inner, gen, f, cap=None):
    u = ArrowDiagram(inner, discrete_category(("j",)), {"j": gen})
    keys = [("j", inner.tables(a.top), inner.tables(a.bottom))
            for a in ArrowAmbient(inner).hom(gen, f, cap=cap)]
    return [[inner.from_tables(gen.cod, f.dom, d) for d in diagonals]
            for diagonals in _fillers(u, f, keys, cap)]


def outcome(fn, *args, **kwargs):
    try:
        return ("ok", fn(*args, **kwargs))
    except EnumerationCap:
        return ("cap", None)


# -- shapes ----------------------------------------------------------------------

@st.composite
def finset_arrows(draw, most=3):
    cod = draw(st.integers(0, most))
    dom = draw(st.integers(0, most if cod else 0))
    table = draw(st.lists(st.integers(0, max(cod - 1, 0)),
                          min_size=dom, max_size=dom))
    return arrow(FinFunction(FinSet.fresh(dom, "a"), FinSet.fresh(cod, "b"),
                             tuple(table)))


@st.composite
def graphs(draw):
    nv = draw(st.integers(0, 2))
    ne = draw(st.integers(0, 2 if nv else 0))
    ends = st.lists(st.integers(0, max(nv - 1, 0)), min_size=ne, max_size=ne)
    v, e = FinSet.fresh(nv, "v"), FinSet.fresh(ne, "e")
    return Presheaf(GRAPH, {"v": v, "e": e},
                    {"src": FinFunction(e, v, tuple(draw(ends))),
                     "tgt": FinFunction(e, v, tuple(draw(ends)))})


@st.composite
def graph_arrows(draw):
    g, h = draw(graphs()), draw(graphs())
    maps = enumerate_maps(g, h) or [presheaf_identity(g)]
    return ArrowObj(PAMB, maps[draw(st.integers(0, len(maps) - 1))])


CAPS = st.one_of(st.none(), st.integers(1, 40))


def _check_hom(inner, a, b, cap):
    assert outcome(ArrowAmbient(inner).hom, a, b, cap=cap) \
        == outcome(oracle_hom, inner, a, b, cap=cap)


def _check_capped(got, oracle, *args, cap):
    """got raises EnumerationCap only where the oracle does under the same
    cap, and otherwise equals the oracle run without a cap."""
    want = outcome(oracle, *args, cap=cap)
    if got[0] == "cap":
        assert want[0] == "cap"
    else:
        assert got == (want if want[0] == "ok" else outcome(oracle, *args))


def _check_candidates(inner, gen, f, cap):
    _check_capped(outcome(indexed_candidates, inner, gen, f, cap=cap),
                  oracle_candidates, inner, gen, f, cap=cap)


def _check_has_rlp(f, u, cap):
    _check_capped(outcome(has_rlp, f, u, cap=cap), oracle_has_rlp, f, u,
                  cap=cap)


@settings(max_examples=150, deadline=None)
@given(finset_arrows(), finset_arrows(), CAPS)
def test_finset_squares_match_the_oracle(a, b, cap):
    _check_hom(AMB, a, b, cap)
    _check_candidates(AMB, a, b, cap)


@settings(max_examples=60, deadline=None)
@given(graph_arrows(), graph_arrows(), CAPS)
def test_graph_squares_match_the_oracle(a, b, cap):
    _check_hom(PAMB, a, b, cap)
    _check_candidates(PAMB, a, b, cap)


@settings(max_examples=100, deadline=None)
@given(finset_arrows(), finset_arrows(), CAPS)
def test_finset_has_rlp_matches_the_oracle(gen, f, cap):
    single = ArrowDiagram(AMB, discrete_category(("j",)), {"j": gen})
    for u in (single, point_inclusion(), walking_cospan()):
        _check_has_rlp(f, u, cap)


@settings(max_examples=40, deadline=None)
@given(graph_arrows(), graph_arrows(), CAPS)
def test_graph_has_rlp_matches_the_oracle(gen, f, cap):
    single = ArrowDiagram(PAMB, discrete_category(("j",)), {"j": gen})
    boundary = arrow_diagram_from_json(_fixture("graph_boundary.json"), PAMB)
    for u in (single, boundary):
        _check_has_rlp(f, u, cap)


def _fn(dom, cod, *table):
    return arrow(func(FinSet.fresh(dom, "a"), FinSet.fresh(cod, "b"), *table))


@pytest.mark.parametrize("a, b, cap, raises", [
    # no top, so the 3^5 bottoms are never enumerated
    (_fn(1, 5, 0), _fn(0, 3), 10, False),
    # the 3^2 tops exceed the cap
    (_fn(2, 2, 0, 1), _fn(3, 3, 0, 1, 2), 5, True),
    # one top, then the 3^4 bottoms exceed the cap
    (_fn(1, 4, 0), _fn(1, 3, 0), 10, True),
], ids=["no-top-large-bottom", "tops-over-cap", "bottoms-over-cap"])
def test_cap_applies_as_before(a, b, cap, raises):
    expected = ("cap", None) if raises else ("ok", [])
    assert outcome(oracle_hom, AMB, a, b, cap=cap) == expected
    assert outcome(ArrowAmbient(AMB).hom, a, b, cap=cap) == expected


def test_has_rlp_enumerates_no_fillers_without_problems():
    # no square from the edge's boundary inclusion into 3 vertices -> 1
    # vertex, since the target has no edge; the diagonals' candidate count
    # 3^2 still exceeds the cap, so enumerating them would raise
    def graph(nv, ne, src=(), tgt=()):
        v, e = FinSet.fresh(nv, "v"), FinSet.fresh(ne, "e")
        return Presheaf(GRAPH, {"v": v, "e": e},
                        {"src": FinFunction(e, v, src),
                         "tgt": FinFunction(e, v, tgt)})
    edge, empty = graph(2, 1, (0,), (1,)), graph(0, 0)
    three, one = graph(3, 0), graph(1, 0)
    gen = ArrowObj(PAMB, enumerate_maps(empty, edge)[0])
    f = ArrowObj(PAMB, enumerate_maps(three, one)[0])
    u = ArrowDiagram(PAMB, discrete_category(("j",)), {"j": gen})
    assert outcome(oracle_has_rlp, f, u, cap=5) == ("ok", True)
    assert outcome(has_rlp, f, u, cap=5) == ("ok", True)
    with pytest.raises(EnumerationCap):
        PAMB.diagonals(gen.mor, f.mor, cap=5)
