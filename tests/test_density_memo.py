"""Densities memoized up to relabeling agree with densities built fresh.

A session builds the density comonad once per skeleton of a map (its
sizes and tables) and retargets it to every relabeled copy.  Every field of
a retargeted density, and the action between retargeted densities, must
equal what ``density_comonad`` builds from scratch at the copy.  The
gluing's action on squares is memoized the same way, and must equal the
action a fresh session computes at the copy.  So is the one-step gluing:
its pushout is built once per skeleton, and the gluing at a copy must equal
a fresh session's.  A count pins the finite maps the 16 -> 8 law suite
builds.
"""

import dataclasses
import json
import os

from hypothesis import given, settings, strategies as st

from conftest import AMB, arrow, finite, func, walking_cospan
from garnet import awfs, finset
from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient, Square, \
    identity_square, square_from_tables
from garnet.awfs import GeneratedAWFS, _cell_record, verify_trace
from garnet.density import (arrow_diagram_from_json, density_action,
                            density_comonad)
from garnet.fincat import category_from_json
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import Presheaf, PresheafMap, enumerate_maps

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


WC = walking_cospan()
GRAPH = category_from_json(_fixture("graph_base.json"))
PAMB = PresheafAmbient(GRAPH)
BOUNDARY = arrow_diagram_from_json(_fixture("graph_boundary.json"), PAMB)


# -- relabeled copies ----------------------------------------------------------

def _renamed_set(x, prefix):
    return FinSet(tuple(prefix + lbl for lbl in x.labels))


def _renamed_presheaf(p, prefix):
    at = {c: _renamed_set(p.at(c), prefix) for c in GRAPH.objects}
    return Presheaf(GRAPH, at, {
        m.name: FinFunction(at[m.cod], at[m.dom], p.restrict(m.name).table)
        for m in GRAPH.non_identity_morphisms()})


def relabeled(f, prefix):
    """f with every label renamed and every table kept; a map whose domain
    is its codomain keeps that."""
    m = f.mor
    if isinstance(f.ambient, FinSetAmbient):
        dom = _renamed_set(m.dom, prefix)
        cod = dom if m.cod == m.dom else _renamed_set(m.cod, prefix + "'")
        return arrow(FinFunction(dom, cod, m.table))
    src = _renamed_presheaf(m.source, prefix)
    tgt = src if m.target == m.source \
        else _renamed_presheaf(m.target, prefix + "'")
    return ArrowObj(PAMB, PresheafMap(src, tgt, {
        c: FinFunction(src.at(c), tgt.at(c), m.at(c).table)
        for c in GRAPH.objects}))


def _renaming(a, b):
    """The map a -> b with table 0..n-1 at every level."""
    if isinstance(a, FinSet):
        return FinFunction(a, b, tuple(range(a.size)))
    return PresheafMap(a, b, {c: _renaming(a.at(c), b.at(c))
                              for c in GRAPH.objects})


def renaming_square(f, g):
    return Square(f, g, _renaming(f.dom, g.dom), _renaming(f.cod, g.cod))


# -- the check -----------------------------------------------------------------

def assert_same_density(got, fresh):
    assert got.f == fresh.f
    assert got.den == fresh.den
    assert got.counit == fresh.counit
    assert list(got.legs.items()) == list(fresh.legs.items())
    assert list(got.cells.items()) == list(fresh.cells.items())
    assert got.comma.objects == fresh.comma.objects
    assert list(got.comma.problems.items()) \
        == list(fresh.comma.problems.items())
    # the squares handed out of the library, rebuilt from the tables
    got_cell, fresh_cell = _cell_record(got), _cell_record(fresh)
    assert tuple(got_cell.legs) == tuple(fresh_cell.legs)
    assert tuple(got_cell.problems) == tuple(fresh_cell.problems)
    assert got.comma.by_boundary == fresh.comma.by_boundary
    assert got.comma.relations == fresh.comma.relations
    assert got.comma.over == fresh.comma.over


def check_relabeled_copies(u, f):
    aw = GeneratedAWFS(u)
    g, h = relabeled(f, "p"), relabeled(f, "q")
    core = aw.density(f)
    got_g, got_h = aw.density(g), aw.density(h)
    fresh_f = density_comonad(u, f)
    fresh_g, fresh_h = density_comonad(u, g), density_comonad(u, h)
    assert_same_density(core, fresh_f)
    assert_same_density(got_g, fresh_g)
    assert_same_density(got_h, fresh_h)
    # one core serves the three copies
    assert got_g.den is core.den and got_h.legs is core.legs
    for sigma, (src, tgt), (fresh_src, fresh_tgt) in (
            (renaming_square(f, g), (core, got_g), (fresh_f, fresh_g)),
            (renaming_square(g, h), (got_g, got_h), (fresh_g, fresh_h)),
            (renaming_square(h, h), (got_h, got_h), (fresh_h, fresh_h))):
        assert density_action(u, sigma, src, tgt) \
            == density_action(u, sigma, fresh_src, fresh_tgt)


@st.composite
def finset_maps(draw):
    dom = FinSet.fresh(draw(st.integers(0, 3)), "x")
    endo = draw(st.booleans())
    cod = dom if endo else FinSet.fresh(draw(st.integers(1, 3)), "y")
    table = draw(st.lists(st.integers(0, max(cod.size - 1, 0)),
                          min_size=dom.size, max_size=dom.size))
    return arrow(FinFunction(dom, cod, tuple(table)))


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
def graph_maps(draw):
    g = draw(graphs())
    h = g if draw(st.booleans()) else draw(graphs())
    maps = enumerate_maps(g, h)
    if not maps:
        h = g
        maps = enumerate_maps(g, g)
    return ArrowObj(PAMB, maps[draw(st.integers(0, len(maps) - 1))])


@settings(max_examples=60, deadline=None)
@given(finset_maps())
def test_finset_density_memo_matches_fresh_build(f):
    check_relabeled_copies(WC, f)


@settings(max_examples=30, deadline=None)
@given(graph_maps())
def test_graph_density_memo_matches_fresh_build(f):
    check_relabeled_copies(BOUNDARY, f)


# -- the one-step action, memoized the same way --------------------------------

def check_relabeled_square(u, f, g, k):
    """The gluing's action at a relabeled copy of the k-th square f -> g
    (the identity square on f if there is none), in a session that saw the
    square first, is its action in a fresh session: the same endpoints and
    tables.  That session still passes the law suite at the copy of f."""
    tables = u.ambient.tables
    sides = list(u.arr.boundaries(f, g))
    if not sides:
        ident = identity_square(f)
        g, sides = f, [(tables(ident.top), tables(ident.bottom))]
    top, bottom = sides[k % len(sides)]
    f2 = relabeled(f, "p")
    g2 = f2 if g == f else relabeled(g, "q")
    sigma = square_from_tables(f, g, top, bottom)
    copy = square_from_tables(f2, g2, top, bottom)
    aw = GeneratedAWFS(u)
    seen = aw.t.on_mor(sigma)
    got = aw.t.on_mor(copy)
    fresh = GeneratedAWFS(u).t.on_mor(copy)
    assert got == fresh
    assert (got.source, got.target) == (aw.t.on_obj(f2), aw.t.on_obj(g2))
    assert u.arr.tables(got) == u.arr.tables(fresh)
    assert tables(got.top) == tables(seen.top)
    assert aw.t.on_mor(copy) is got and aw.t.on_mor(sigma) is seen
    assert aw.law_suite(f2)["pass"]


@settings(max_examples=25, deadline=None)
@given(finset_maps(), finset_maps(), st.booleans(), st.integers(0, 50))
def test_finset_action_memo_matches_fresh_build(f, g, endo, k):
    check_relabeled_square(WC, f, f if endo else g, k)


@settings(max_examples=10, deadline=None)
@given(graph_maps(), graph_maps(), st.booleans(), st.integers(0, 50))
def test_graph_action_memo_matches_fresh_build(f, g, endo, k):
    check_relabeled_square(BOUNDARY, f, f if endo else g, k)


# -- the one-step gluing, glued once per skeleton -------------------------------

def check_relabeled_step(u, f):
    """The one-step gluing at a relabeled copy of f, in a session that glued
    f first, is the gluing a fresh session builds at the copy, field by
    field, and keeps the classes of f's gluing."""
    g = relabeled(f, "p")
    aw = GeneratedAWFS(u)
    first = aw.one_step(f)
    got, fresh = aw.one_step(g), GeneratedAWFS(u).one_step(g)
    assert got.obj == fresh.obj
    assert got.unit == fresh.unit
    assert got.po.obj == fresh.po.obj
    assert got.po.left == fresh.po.left
    assert got.po.right == fresh.po.right
    assert got.po.feet == fresh.po.feet
    assert tuple(got.po.levels) == tuple(fresh.po.levels)
    assert [level.classes for level in got.po.levels] \
        == [level.classes for level in first.po.levels]


@settings(max_examples=60, deadline=None)
@given(finset_maps())
def test_finset_one_step_memo_matches_fresh_build(f):
    check_relabeled_step(WC, f)


@settings(max_examples=30, deadline=None)
@given(graph_maps())
def test_graph_one_step_memo_matches_fresh_build(f):
    check_relabeled_step(BOUNDARY, f)


def test_law_suite_glues_once_per_skeleton(monkeypatch):
    """The 16 -> 8 surjection's law suite under the walking cospan builds
    one gluing pushout per density skeleton, although it glues more maps
    than that."""
    pushout, glued = finset.pushout, []

    def counted(f, g, tags=("i0", "i1")):
        if tags == ("mid", "cell"):
            glued.append(f.cod)
        return pushout(f, g, tags)
    monkeypatch.setattr(finset, "pushout", counted)
    f = arrow(FinFunction(FinSet.fresh(16, "a"), FinSet.fresh(8, "b"),
                          tuple(i // 2 for i in range(16))))
    aw = GeneratedAWFS(WC)
    assert aw.law_suite(f)["pass"]
    keys = list(aw.session._cache)
    skeletons = [key for key in keys if key[0] == "density"]
    steps = [key for key in keys if key[0] == "step"]
    assert len(glued) == len(skeletons)
    assert len(steps) > len(skeletons)


def test_law_suite_builds_a_pinned_number_of_finite_maps(monkeypatch):
    """The 16 -> 8 surjection's law suite under the walking cospan builds
    776 FinFunctions, and 601 under ``python -O``, which strips the
    invariant asserts that compose maps (4,312 and 4,137 when each
    canonical structure built a checked map per problem, before structures
    kept their fillers as tables): a count guards that, as wall time
    cannot."""
    built = []
    check = FinFunction.__post_init__

    def counted(self):
        built.append(self)
        check(self)
    f = arrow(FinFunction(FinSet.fresh(16, "a"), FinSet.fresh(8, "b"),
                          tuple(i // 2 for i in range(16))))
    aw = GeneratedAWFS(WC)
    monkeypatch.setattr(FinFunction, "__post_init__", counted)
    assert aw.law_suite(f)["pass"]
    assert len(built) == (776 if __debug__ else 601)


def test_density_memo_on_endomaps():
    x = finite(2)
    check_relabeled_copies(WC, arrow(func(x, x, 0, 0)))
    check_relabeled_copies(WC, arrow(func(x, x, 1, 0)))
    loop = Presheaf(GRAPH, {"v": FinSet(("v0",)), "e": FinSet(("e0",))},
                    {"src": FinFunction(FinSet(("e0",)), FinSet(("v0",)),
                                        (0,)),
                     "tgt": FinFunction(FinSet(("e0",)), FinSet(("v0",)),
                                        (0,))})
    check_relabeled_copies(BOUNDARY, ArrowObj(PAMB, enumerate_maps(
        loop, loop)[0]))


def test_same_table_other_codomain_gets_its_own_core():
    # 2 -> 1 and 2 -> 2 both have the table (0, 0)
    f = arrow(func(finite(2), finite(1, "y"), 0, 0))
    g = arrow(func(finite(2), finite(2, "y"), 0, 0))
    aw = GeneratedAWFS(WC)
    den_f, den_g = aw.density(f), aw.density(g)
    assert AMB.skeleton(f.mor) != AMB.skeleton(g.mor)
    assert den_g is not den_f and den_g.f == g
    assert_same_density(den_f, density_comonad(WC, f))
    assert_same_density(den_g, density_comonad(WC, g))


def test_verify_trace_rebuilds_every_cell(monkeypatch):
    aw = GeneratedAWFS(WC)
    f = arrow(func(finite(2), finite(1, "y"), 0, 0))
    fact = aw.factorize(f)
    stages = fact.trace.stages
    built = []

    def counted(u, g, cap=None):
        built.append(g)
        return density_comonad(u, g, cap=cap)
    monkeypatch.setattr(awfs, "density_comonad", counted)
    assert verify_trace(fact.trace, fact)["pass"]
    assert built == [st.arrow for st in stages]
    # a cell recorded for a relabeled copy of the stage arrow shares the
    # arrow's core in the session memo, yet is not the arrow's cell
    k = len(stages) - 1
    copy = relabeled(stages[k].arrow, "p")
    forged = _cell_record(aw.density(copy))
    assert forged.den == stages[k].cell.den and forged != stages[k].cell
    bad = dataclasses.replace(fact.trace, stages=stages[:k] + (
        dataclasses.replace(stages[k], cell=forged),))
    report = verify_trace(bad, fact)
    failed = [(i["stage"], i["check"]) for i in report["items"]
              if not i["pass"]]
    assert failed == [(k, "cell")]
