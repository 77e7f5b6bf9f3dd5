"""The lifting search reads the comma category of lifting problems.

``find_lifting_structures`` takes its problems, their order and the links
that force fillers from ``comma_category``, and searches on the tables of
each problem's own fillers.  The oracle below is the search it replaced,
which enumerated the problems itself, keyed them and their fillers by
maps, looked fillers up in the whole hom-set, built each problem's links
on first use by composing squares, and counted by walking every
structure: on random finite-set and graph maps, with random caps, the
search may raise EnumerationCap only where the oracle does under the same
cap, as the cap now bounds each problem's fillers rather than their
hom-set, and otherwise returns what the oracle returns without a cap, the
same structures in the same order; the oracle's structures are its
fillers keyed by problem squares, which is what a structure's ``fillers``
reads.  Count guards pin the single index (one comma category and no
density per search), the retarget (one square, the counit, and no
composite), and the structure JSON (no square).  The 4-to-1 surjection
40 -> 10 against the generator 0 -> 4 has 10,000 problems of 256 fillers
each, which the search handles under the default cap.  ``find_filler``
reads one square's diagonals the same way; the filter of the whole hom-set
that it replaced is its oracle, and raises the cap on that square.
"""

import contextlib
import io
import json
import os
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrow, func, finite
from garnet import awfs as awfs_module, cli, density
from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient, Square
from garnet.awfs import GeneratedAWFS, find_lifting_structures
from garnet.density import (arrow_diagram_from_json, density_comonad,
                            lifting_problems, retarget_density)
from garnet.errors import EnumerationCap
from garnet.fincat import category_from_json, discrete_category
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import presheaf_identity
from test_density_memo import graph_maps, relabeled

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
AMB = FinSetAmbient()


def _fixture(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


WC = arrow_diagram_from_json(_fixture("walking_cospan.json"), AMB)
POINT = arrow_diagram_from_json(_fixture("point_inclusion.json"), AMB)
GRAPH = category_from_json(_fixture("graph_base.json"))
PAMB = PresheafAmbient(GRAPH)
BOUNDARY = arrow_diagram_from_json(_fixture("graph_boundary.json"), PAMB)
EDGE_TO_LOOP = ArrowObj(PAMB, PAMB.mor_from_json(
    _fixture("graph_edge_to_loop.json")))
MODES = ("all", "first", "count")


# -- the oracle: the search before it read the comma category ------------------

def oracle_lifts(aw, f, mode):
    u, inner, cap = aw.generators, aw.ambient, aw.cap
    problems = [(i, a) for i in u.index.objects
                for a in lifting_problems(u, i, f, cap=cap)]
    fillers: dict = {}
    for i, _a in problems:
        if i not in fillers:
            gen = u.arrow(i)
            index: dict = {}
            for s in inner.hom(gen.cod, f.dom, cap=cap):
                index.setdefault((inner.compose(s, gen.mor),
                                  inner.compose(f.mor, s)), []).append(s)
            fillers[i] = index
    candidates = [fillers[i].get((a.top, a.bottom), []) for i, a in problems]
    position = {(i, a.top, a.bottom): k for k, (i, a) in enumerate(problems)}
    incoming = {i: [(m.dom, u.square(m.name))
                    for m in u.index.non_identity_morphisms() if m.cod == i]
                for i in u.index.objects}
    n = len(problems)
    links: list = [None] * n
    assignment: list = [None] * n
    found: list = []
    count = 0

    def propagate(k, value, touched):
        if links[k] is None:
            i, a = problems[k]
            links[k] = [(position[(d, inner.compose(a.top, sq.top),
                                   inner.compose(a.bottom, sq.bottom))],
                         sq.bottom)
                        for d, sq in incoming[i]]
        for other, bottom in links[k]:
            want = inner.compose(value, bottom)
            if assignment[other] is None:
                assignment[other] = want
                touched.append(other)
            elif assignment[other] != want:
                return False
        return True

    def open_from(pos):
        while pos < n and assignment[pos] is not None:
            assert assignment[pos] in candidates[pos]
            pos += 1
        return pos

    stack: list = []
    pos = open_from(0)
    while True:
        if pos == n:
            if mode == "count":
                count += 1
            else:
                found.append(SimpleNamespace(
                    f=f, fillers=dict(zip(problems, assignment))))
                if mode == "first":
                    break
        else:
            stack.append((pos, iter(candidates[pos]), []))
        while stack:
            k, untried, touched = stack[-1]
            for other in touched:
                assignment[other] = None
            touched.clear()
            value = next(untried, None)
            if value is None:
                stack.pop()
                continue
            assignment[k] = value
            touched.append(k)
            if propagate(k, value, touched):
                pos = open_from(k + 1)
                break
        else:
            break
    return count if mode == "count" else found


def outcome(search, aw, f, mode):
    """The search's answer, with each structure as its ordered fillers."""
    try:
        out = search(aw, f, mode)
    except EnumerationCap:
        return ("cap", None)
    if mode == "count":
        return ("ok", out)
    return ("ok", [(s.f, list(s.fillers.items())) for s in out])


def check_against_oracle(u, f, cap):
    aw = GeneratedAWFS(u, cap=cap)
    got = {mode: outcome(find_lifting_structures, aw, f, mode)
           for mode in MODES}
    for mode in MODES:
        want = outcome(oracle_lifts, aw, f, mode)
        if got[mode][0] == "cap":
            assert want[0] == "cap", mode
        else:
            if want[0] == "cap":
                want = outcome(oracle_lifts, GeneratedAWFS(u), f, mode)
            assert got[mode] == want, mode
    kind, structures = got["all"]
    if kind == "ok":
        assert got["count"] == ("ok", len(structures))
        assert got["first"] == ("ok", structures[:1])


# -- shapes ----------------------------------------------------------------------

@st.composite
def finset_maps(draw, most=6):
    """Maps of up to most elements a side; endomaps and empty domains
    included."""
    dom = FinSet.fresh(draw(st.integers(0, most)), "x")
    endo = draw(st.booleans())
    cod = dom if endo and dom.size else FinSet.fresh(
        draw(st.integers(1, most)), "y")
    table = draw(st.lists(st.integers(0, cod.size - 1),
                          min_size=dom.size, max_size=dom.size))
    return arrow(FinFunction(dom, cod, tuple(table)))


CAPS = st.one_of(st.none(), st.integers(0, 60))


@settings(max_examples=120, deadline=None)
@given(finset_maps(), CAPS)
def test_finset_lifts_match_the_oracle(f, cap):
    for u in (WC, POINT):
        check_against_oracle(u, f, cap)


@settings(max_examples=40, deadline=None)
@given(graph_maps(), CAPS)
def test_graph_lifts_match_the_oracle(f, cap):
    check_against_oracle(BOUNDARY, f, cap)


@pytest.mark.parametrize("f", [
    arrow(func(finite(2), finite(2), 1, 0)),
    arrow(func(finite(0), finite(1, "y"))),
    arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1)),
], ids=["swap", "empty-domain", "two-fibres"])
def test_small_lifts_match_the_oracle(f):
    for u in (WC, POINT):
        check_against_oracle(u, f, None)


@st.composite
def cospan_targets(draw, most=7):
    """Maps that the walking cospan's links join into larger components:
    surjections with some fibres of size two or more."""
    cod = draw(st.integers(1, 4))
    table = draw(st.lists(st.integers(0, cod - 1), min_size=cod,
                          max_size=most)) + list(range(cod))
    return arrow(FinFunction(FinSet.fresh(len(table), "x"),
                             FinSet.fresh(cod, "y"), tuple(table)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(cospan_targets(), finset_maps()))
def test_component_count_equals_the_full_search(f):
    for u in (WC, POINT):
        aw = GeneratedAWFS(u)
        assert find_lifting_structures(aw, f, "count") \
            == oracle_lifts(aw, f, "count")


@settings(max_examples=20, deadline=None)
@given(graph_maps())
def test_graph_component_count_equals_the_full_search(f):
    aw = GeneratedAWFS(BOUNDARY)
    assert find_lifting_structures(aw, f, "count") \
        == oracle_lifts(aw, f, "count")


# -- the 4-to-1 surjection 40 -> 10 against 0 -> 4 ----------------------------

def _four_to_one():
    gen = arrow(FinFunction(FinSet(()), FinSet.fresh(4, "g"), ()))
    f = arrow(FinFunction(FinSet.fresh(40, "x"), FinSet.fresh(10, "y"),
                          tuple(x // 4 for x in range(40))))
    return gen, f


def test_four_to_one_surjection_lifts_under_the_default_cap():
    gen, f = _four_to_one()
    u = density.ArrowDiagram(AMB, discrete_category(("j",)), {"j": gen})
    aw = GeneratedAWFS(u)
    t0 = time.perf_counter()
    assert awfs_module.has_rlp(f, u)
    (psi,) = find_lifting_structures(aw, f, "first")
    assert find_lifting_structures(aw, f, "count") == 256 ** 10_000
    assert time.perf_counter() - t0 < 5
    assert len(psi.by_key) == 10_000
    f_t = f.mor.table
    for (j, (top,), (bottom,)), s in psi.by_key.items():
        assert j == "j" and top == ()
        assert tuple(map(f_t.__getitem__, s.table)) == bottom


def test_four_to_one_surjection_from_the_command_line(tmp_path):
    gen, f = _four_to_one()
    u = density.ArrowDiagram(AMB, discrete_category(("j",)), {"j": gen})
    diagram, mapping = tmp_path / "u.json", tmp_path / "f.json"
    diagram.write_text(json.dumps(density.arrow_diagram_to_json(u)))
    mapping.write_text(json.dumps(AMB.mor_to_json(f.mor)))
    job = ["lift", "--generators", str(diagram), "--map", str(mapping)]
    out = tmp_path / "r.json"
    limit = sys.get_int_max_str_digits()
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert cli.main([*job, "--mode", "first"]) == 0
        assert cli.main([*job, "--mode", "count", "--output", str(out)]) == 0
    # the command line restores the limit on int -> str conversion
    assert sys.get_int_max_str_digits() == limit
    lines = text.getvalue().splitlines()
    assert lines[0] == "found a lifting structure with 10000 filler(s)"
    sys.set_int_max_str_digits(0)
    try:
        want = str(256 ** 10_000)
        assert lines[1] == f"{want} coherent lifting structure(s)"
        assert json.loads(out.read_text())["count"] == 256 ** 10_000
    finally:
        sys.set_int_max_str_digits(limit)


def test_four_to_one_surjection_has_a_filler_under_the_default_cap():
    gen, f = _four_to_one()
    top = FinFunction(FinSet(()), f.dom, ())
    bottom = FinFunction(gen.cod, f.cod, (0, 1, 2, 3))
    # the old filter enumerated all 40**4 maps 4 -> 40
    with pytest.raises(EnumerationCap):
        oracle_filler(AMB, gen.mor, f.mor, top, bottom)
    s = awfs_module.find_filler(AMB, gen.mor, f.mor, top, bottom)
    # the first of the square's 256 diagonals in hom order
    assert s.table == (0, 4, 8, 12)


# -- find_filler: one square's diagonals -----------------------------------------

def oracle_filler(inner, left, right, top, bottom, cap=None):
    """find_filler before it read diagonals: the first map of the whole
    hom-set cod left -> dom right that solves the square."""
    for s in inner.hom(inner.cod(left), inner.dom(right), cap=cap):
        if inner.compose(s, left) == top and inner.compose(right, s) == bottom:
            return s
    return None


def _any_map(draw, dom, cod):
    if not dom.size:
        return FinFunction(dom, cod, ())
    return FinFunction(dom, cod, tuple(draw(st.lists(
        st.integers(0, cod.size - 1), min_size=dom.size,
        max_size=dom.size))))


@settings(max_examples=150, deadline=None)
@given(finset_maps(most=4), finset_maps(most=4), st.data())
def test_find_filler_matches_the_hom_filter(left, right, data):
    left, right = left.mor, right.mor
    draw = data.draw
    if left.dom.size and not right.dom.size:
        return  # no top side exists
    kind = draw(st.sampled_from(("solvable", "any", "mistyped")))
    if kind == "solvable" and (right.dom.size or not left.cod.size):
        d = _any_map(draw, left.cod, right.dom)
        top = AMB.compose(d, left)
        bottom = AMB.compose(right, d)
    else:
        cod = right.dom
        if kind == "mistyped":
            cod = FinSet(tuple(f"{x}'" for x in cod.labels))
        top = _any_map(draw, left.dom, cod)
        bottom = _any_map(draw, left.cod, right.cod)
    assert awfs_module.find_filler(AMB, left, right, top, bottom) \
        == oracle_filler(AMB, left, right, top, bottom)


@settings(max_examples=15, deadline=None)
@given(graph_maps())
def test_graph_find_filler_matches_the_hom_filter(f):
    left, right = BOUNDARY.arrow("j").mor, f.mor
    for top in PAMB.hom(left.source, right.source):
        for bottom in PAMB.hom(left.target, right.target):
            assert awfs_module.find_filler(PAMB, left, right, top, bottom) \
                == oracle_filler(PAMB, left, right, top, bottom)


# -- count guards ----------------------------------------------------------------

@pytest.mark.parametrize("u, f", [
    (WC, arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1))),
    (POINT, arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1))),
    (BOUNDARY, ArrowObj(PAMB, presheaf_identity(EDGE_TO_LOOP.cod))),
], ids=["cospan", "point", "graph"])
def test_structure_json_builds_no_square(monkeypatch, u, f):
    aw = GeneratedAWFS(u)
    psi = find_lifting_structures(aw, f, "first")[0]
    # the JSON the fillers' squares gave before it was written from keys
    want = {"f": u.ambient.mor_to_json(f.mor),
            "fillers": [{"index": i,
                         "problem": awfs_module._square_to_json(u.ambient, a),
                         "filler": u.ambient.mor_to_json(s)}
                        for (i, a), s in psi.fillers.items()]}
    assert want["fillers"]
    squares = []
    check = Square.__post_init__

    def counted_check(self):
        squares.append(self)
        check(self)
    monkeypatch.setattr(Square, "__post_init__", counted_check)
    fresh = find_lifting_structures(aw, f, "all")
    assert [awfs_module.structure_to_json(s) for s in fresh][0] == want
    assert squares == []


def test_one_search_reads_one_comma_category(monkeypatch):
    calls = []

    def counted(u, f, cap=None):
        calls.append(f)
        return density.comma_category(u, f, cap=cap)

    def no_density(*args, **kwargs):
        raise AssertionError("the lifting search built a density")
    monkeypatch.setattr(awfs_module, "comma_category", counted)
    monkeypatch.setattr(awfs_module, "density_comonad", no_density)
    monkeypatch.setattr(density, "density_comonad", no_density)
    f = arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1))
    for u, m in ((WC, f), (POINT, f), (BOUNDARY, EDGE_TO_LOOP)):
        aw = GeneratedAWFS(u)
        for mode in MODES:
            calls.clear()
            find_lifting_structures(aw, m, mode)
            assert calls == [m]


@pytest.mark.parametrize("u, f", [
    (WC, arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1))),
    (WC, arrow(func(finite(2), finite(2), 1, 0))),
    (BOUNDARY, EDGE_TO_LOOP),
], ids=["cospan", "cospan-endomap", "graph"])
def test_retarget_composes_nothing(monkeypatch, u, f):
    core = density_comonad(u, f)
    copy = relabeled(f, "p")
    composed, squares = [], []
    amb_class = type(u.ambient)
    compose = amb_class.compose
    check = Square.__post_init__

    def counted_compose(self, g, h):
        composed.append((g, h))
        return compose(self, g, h)

    def counted_check(self):
        squares.append(self)
        check(self)

    def no_composite(*args):
        raise AssertionError("retargeting composed two squares")
    monkeypatch.setattr(amb_class, "compose", counted_compose)
    monkeypatch.setattr(Square, "__post_init__", counted_check)
    monkeypatch.setattr(density, "compose_squares", no_composite)
    out = retarget_density(core, copy)
    # problems are table keys, so only the counit is rebuilt; it checks
    # that it commutes on tables, so nothing is composed as a map
    assert squares == [out.counit]
    assert len(composed) == 0
    assert out.f == copy and out.den is core.den and out.comma is core.comma
