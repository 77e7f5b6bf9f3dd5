"""Lifting problems held as table keys agree with the square-based code they
replaced.

The library keeps a lifting problem as its key ``(index object, top tables,
bottom tables)`` and builds a checked ``Square`` only where one leaves it.
The oracles below are the square-based versions of the comma category, the
density comonad, ``compose_structures`` and ``structure_to_algebra``: each
problem is a square from ``ArrowAmbient.hom``, the cells are summed with the
arrow ambient's coproduct and its injection squares and divided by the
colimit oracle's quotients, every leg is a square,
``mediate`` takes a cocone of squares, and fillers are looked up by
``(index object, problem square)``.  On random finite-set and graph maps the
keyed versions must give the same density, counit, ``mediate`` output, trace
cells and fillers; a trace cell's rows, plain tuples of tables, are the
oracle's squares kept as their source, target and sides' tables.  Count
guards pin how many squares a law suite, trace JSON, a replay and a cell
record build.
"""

import json
import os
from dataclasses import dataclass
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from conftest import arrow, cell_row, row_square, walking_cospan
from garnet.arrows import (ArrowObj, EndoData, FinSetAmbient, PresheafAmbient,
                           Square, compose_tables)
from garnet.awfs import (GeneratedAWFS, TraceCell, _cell_record,
                         _square_to_json, compose_structures,
                         find_lifting_structures, replay,
                         structure_to_algebra, trace_to_json)
from garnet.density import (arrow_diagram_from_json, density_comonad,
                            lifting_problems, problem_at,
                            subobject_classifier_diagram)
from garnet.errors import DomainMismatch
from garnet.fincat import category_from_json
from garnet.finset import FinFunction, FinSet, class_values
from garnet.presheaf import Presheaf, PresheafMap, enumerate_maps
from test_colimit_oracle import oracle_presheaf_quotient, oracle_quotient
from test_density_memo import finset_maps, graph_maps, graphs

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
CLASSIFIER = subobject_classifier_diagram(PAMB)


# -- the oracles: problems as squares ------------------------------------------

def first_members(proj):
    """The minimal member of each class, for a quotient's table whose
    classes are numbered in the order of their minimal members."""
    reps = []
    for i, q in enumerate(proj):
        if q == len(reps):
            reps.append(i)
    return tuple(reps)


def quotient(inner, x, pairs):
    """x divided by pairs of element indices, given per level."""
    if isinstance(inner, PresheafAmbient):
        return oracle_presheaf_quotient(x, dict(zip(inner.base.objects,
                                                    pairs)))
    (level,) = pairs
    return oracle_quotient(x, level)


def oracle_comma(u, f):
    """Objects, relations, problems (name -> (j, square)) and over."""
    tables = u.ambient.tables
    problems, by_boundary = {}, {}
    for j in u.index.objects:
        for k, alpha in enumerate(lifting_problems(u, j, f)):
            name = f"{j}#{k}"
            problems[name] = (j, alpha)
            by_boundary[(j, tables(alpha.top), tables(alpha.bottom))] = name
    relations, over = [], {}
    for t in u.index.non_identity_morphisms():
        ut = u.square(t.name)
        ut_top, ut_bottom = tables(ut.top), tables(ut.bottom)
        for (j2, top2, bottom2), name2 in by_boundary.items():
            if j2 != t.cod:
                continue
            name1 = problem_at(by_boundary, t.dom,
                               compose_tables(top2, ut_top),
                               compose_tables(bottom2, ut_bottom))
            relations.append((f"{t.name}@{name2}", name1, name2))
            over[f"{t.name}@{name2}"] = t.name
    return tuple(problems), relations, problems, over


@dataclass
class OracleDensity:
    f: ArrowObj
    problems: dict
    relations: list
    over: dict
    den: ArrowObj
    counit: Square
    legs: dict
    cells: tuple
    classes: tuple

    def mediate(self, cocone, cod):
        if len(cocone) != len(self.cells):
            raise DomainMismatch("a cocone needs one leg per lifting problem")
        for leg, cell in zip(cocone, self.cells):
            if leg.source != cell or leg.target != cod:
                raise DomainMismatch("cocone leg does not go from its cell "
                                     "to the cocone's arrow")
        inner = cod.ambient
        sides = []
        for side, levels in zip(("top", "bottom"), self.classes):
            legs = [inner.tables(getattr(leg, side)) for leg in cocone]
            sides.append([
                class_values(proj, reps, list(chain.from_iterable(
                    t[k] for t in legs)))
                for k, (proj, reps) in enumerate(levels)])
        return Square(self.den, cod,
                      inner.from_tables(self.den.dom, cod.dom, sides[0]),
                      inner.from_tables(self.den.cod, cod.cod, sides[1]))


def oracle_density(u, f) -> OracleDensity:
    inner = u.ambient
    tables = inner.tables
    names, relations, problems, over = oracle_comma(u, f)
    cells = tuple(u.arrow(problems[n][0]) for n in names)
    cp = u.arr.coproduct(cells, tags=names)
    at = {n: (tables(inj.top), tables(inj.bottom))
          for n, inj in zip(names, cp.injections)}
    squares = {t.name: (tables(u.square(t.name).top),
                        tables(u.square(t.name).bottom))
               for t in u.index.non_identity_morphisms()}
    levels = len(tables(cp.obj.mor))
    pairs = ([[] for _ in range(levels)], [[] for _ in range(levels)])
    for name, n1, n2 in relations:
        for side in (0, 1):
            for k, ut in enumerate(squares[over[name]][side]):
                into = at[n2][side][k]
                pairs[side][k].extend(zip(at[n1][side][k],
                                          map(into.__getitem__, ut)))
    dom_q = quotient(inner, cp.obj.dom, pairs[0])
    cod_q = quotient(inner, cp.obj.cod, pairs[1])
    projs = (tables(dom_q.proj), tables(cod_q.proj))
    classes = tuple(tuple((proj, first_members(proj)) for proj in side)
                    for side in projs)
    den = ArrowObj(inner, inner.from_tables(dom_q.obj, cod_q.obj, [
        tuple(cod_proj[mor[r]] for r in reps)
        for (_, reps), cod_proj, mor in zip(classes[0], projs[1],
                                            tables(cp.obj.mor))]))
    legs = {}
    for n, cell in zip(names, cells):
        top, bottom = (compose_tables(projs[side], at[n][side])
                       for side in (0, 1))
        legs[n] = Square(cell, den, inner.from_tables(cell.dom, den.dom, top),
                         inner.from_tables(cell.cod, den.cod, bottom))
    out = OracleDensity(f, problems, relations, over, den, None, legs, cells,
                        classes)
    out.counit = out.mediate([problems[n][1] for n in names], f)
    return out


def oracle_cell(want: OracleDensity) -> TraceCell:
    return TraceCell(want.den, want.counit,
                     tuple(cell_row(*leg) for leg in want.legs.items()),
                     tuple(cell_row(n, *p) for n, p in want.problems.items()))


def oracle_compose_structures(outer, inner_structure) -> dict:
    """The fillers of the composite structure, keyed by problem squares."""
    aw = outer.awfs
    amb, u = aw.ambient, aw.generators
    comp = ArrowObj(amb, amb.compose(outer.f.mor, inner_structure.f.mor))
    fillers = {}
    for i in u.index.objects:
        gen = u.arrow(i)
        for a in lifting_problems(u, i, comp, cap=aw.cap):
            outer_problem = Square(gen, outer.f,
                                   amb.compose(inner_structure.f.mor, a.top),
                                   a.bottom)
            through = outer.fillers[(i, outer_problem)]
            inner_problem = Square(gen, inner_structure.f, a.top, through)
            fillers[(i, a)] = inner_structure.fillers[(i, inner_problem)]
    return fillers


def oracle_structure_to_algebra(aw, psi) -> Square:
    inner, u, f = aw.ambient, aw.generators, psi.f
    data = aw.one_step(f)
    den = oracle_density(u, f)
    target = ArrowObj(inner, inner.identity(f.dom))
    legs = [Square(u.arrow(j), target, a.top, psi.fillers[(j, a)])
            for j, a in den.problems.values()]
    glued = den.mediate(legs, target)
    d_top = data.po.mediate(inner.identity(f.dom), glued.bottom)
    return Square(data.obj, f, d_top, inner.identity(f.cod))


# -- the checks ----------------------------------------------------------------

def assert_density_matches(u, f):
    got, want = density_comonad(u, f), oracle_density(u, f)
    assert got.den == want.den
    assert got.counit == want.counit
    assert got.comma.objects == tuple(want.problems)
    assert got.comma.relations == want.relations
    assert got.comma.over == want.over
    # the rows share the density's tables, and their squares are the oracle's
    cell = _cell_record(got)
    assert [row_square(row) for row in cell.legs] == list(want.legs.values())
    assert [(row[1], row_square(row)) for row in cell.problems] \
        == list(want.problems.values())
    assert cell == oracle_cell(want)
    return got, want


def as_tables(square):
    tables = square.source.ambient.tables
    return tables(square.top), tables(square.bottom)


def assert_mediate_matches(got, want, cod, cocone):
    try:
        expected = want.mediate(cocone, cod)
    except DomainMismatch:
        with pytest.raises(DomainMismatch):
            got.mediate([as_tables(leg) for leg in cocone], cod)
        return
    assert got.mediate([as_tables(leg) for leg in cocone], cod) == expected


def assert_structures_match(aw, f, most=3):
    for psi in find_lifting_structures(aw, f)[:most]:
        assert structure_to_algebra(aw, psi) \
            == oracle_structure_to_algebra(aw, psi)


def assert_composites_match(aw, g, f, most=2):
    """compose_structures on structures over g: X -> Y and f: Y -> Z."""
    for outer in find_lifting_structures(aw, f)[:most]:
        for inner_structure in find_lifting_structures(aw, g)[:most]:
            whole = compose_structures(outer, inner_structure)
            # the same fillers, in the same order
            assert list(whole.fillers.items()) == list(
                oracle_compose_structures(outer, inner_structure).items())


@settings(max_examples=40, deadline=None)
@given(finset_maps(), st.sampled_from([WC, POINT]))
def test_finset_density_matches_the_square_oracle(f, u):
    assert_density_matches(u, f)


@settings(max_examples=20, deadline=None)
@given(graph_maps(), st.sampled_from([BOUNDARY, CLASSIFIER]))
def test_graph_density_matches_the_square_oracle(f, u):
    assert_density_matches(u, f)


def _cocone(draw, u, want, cod):
    legs = []
    for cell in want.cells:
        squares = u.arr.hom(cell, cod)
        if not squares:
            return None
        legs.append(squares[draw(st.integers(0, len(squares) - 1))])
    return legs


@settings(max_examples=30, deadline=None)
@given(st.data(), st.sampled_from([WC, POINT]))
def test_finset_cocones_mediate_as_the_square_oracle_does(data, u):
    f, cod = data.draw(finset_maps()), data.draw(finset_maps())
    got, want = assert_density_matches(u, f)
    cocone = _cocone(data.draw, u, want, cod)
    if cocone is not None:
        assert_mediate_matches(got, want, cod, cocone)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_graph_cocones_mediate_as_the_square_oracle_does(data):
    f, cod = data.draw(graph_maps()), data.draw(graph_maps())
    got, want = assert_density_matches(BOUNDARY, f)
    cocone = _cocone(data.draw, BOUNDARY, want, cod)
    if cocone is not None:
        assert_mediate_matches(got, want, cod, cocone)


@settings(max_examples=25, deadline=None)
@given(finset_maps(), st.sampled_from([WC, POINT]))
def test_finset_trace_cells_match_the_square_oracle(f, u):
    # the cells a factorization records come from the session's densities,
    # retargeted to relabeled copies where a skeleton repeats
    aw = GeneratedAWFS(u)
    for stage in aw.factorize(f).trace.stages:
        assert stage.cell == oracle_cell(oracle_density(u, stage.arrow))


@settings(max_examples=10, deadline=None)
@given(graph_maps())
def test_graph_trace_cells_match_the_square_oracle(f):
    aw = GeneratedAWFS(BOUNDARY)
    for stage in aw.factorize(f).trace.stages:
        assert stage.cell == oracle_cell(oracle_density(BOUNDARY, stage.arrow))


@st.composite
def surjections(draw, cod):
    """A surjection onto cod, each point hit one to three times."""
    table = [y for y in range(cod.size)
             for _ in range(draw(st.integers(1, 3)))]
    dom = FinSet.fresh(len(table), "s")
    return arrow(FinFunction(dom, cod, tuple(draw(st.permutations(table)))))


@st.composite
def composable_surjections(draw):
    z = FinSet.fresh(draw(st.integers(0, 2)), "z")
    f = draw(surjections(z))
    return draw(surjections(f.dom)), f


@settings(max_examples=25, deadline=None)
@given(composable_surjections(), st.sampled_from([WC, POINT]))
def test_finset_structures_match_the_square_oracle(pair, u):
    g, f = pair
    aw = GeneratedAWFS(u)
    assert_structures_match(aw, f)
    assert_composites_match(aw, g, f)


@st.composite
def composable_graph_maps(draw):
    x, y, z = draw(graphs()), draw(graphs()), draw(graphs())
    g_maps, f_maps = enumerate_maps(x, y), enumerate_maps(y, z)
    if not g_maps or not f_maps:
        return None
    pick = draw(st.integers(0, len(g_maps) - 1)), \
        draw(st.integers(0, len(f_maps) - 1))
    return (ArrowObj(PAMB, g_maps[pick[0]]), ArrowObj(PAMB, f_maps[pick[1]]))


@settings(max_examples=25, deadline=None)
@given(composable_graph_maps())
def test_graph_structures_match_the_square_oracle(pair):
    if pair is None:
        return
    g, f = pair
    aw = GeneratedAWFS(BOUNDARY)
    assert_structures_match(aw, f)
    assert_composites_match(aw, g, f)


def _one_vertex(loops, prefix):
    v, e = FinSet.fresh(1, prefix + "v"), FinSet.fresh(loops, prefix + "e")
    return Presheaf(GRAPH, {"v": v, "e": e},
                    {"src": FinFunction(e, v, (0,) * loops),
                     "tgt": FinFunction(e, v, (0,) * loops)})


def test_two_loops_onto_one_match_the_square_oracle():
    # either loop solves the one problem, so the search finds two
    # structures, and swapping the loops permutes them
    two, one = _one_vertex(2, "x"), _one_vertex(1, "y")
    f = ArrowObj(PAMB, PresheafMap(two, one, {
        "v": FinFunction(two.at("v"), one.at("v"), (0,)),
        "e": FinFunction(two.at("e"), one.at("e"), (0, 0))}))
    swap = ArrowObj(PAMB, PresheafMap(two, two, {
        "v": FinFunction(two.at("v"), two.at("v"), (0,)),
        "e": FinFunction(two.at("e"), two.at("e"), (1, 0))}))
    aw = GeneratedAWFS(BOUNDARY)
    assert find_lifting_structures(aw, f, mode="count") == 2
    assert_structures_match(aw, f)
    assert_composites_match(aw, swap, f)
    assert_density_matches(BOUNDARY, f)


# -- count guards --------------------------------------------------------------

def _squares_built(monkeypatch) -> list:
    """A one-item list counting the squares checked from now on."""
    count = [0]
    check = Square.__post_init__

    def counted(self):
        count[0] += 1
        check(self)
    monkeypatch.setattr(Square, "__post_init__", counted)
    return count


def _surjection(n):
    """The 2-to-1 surjection n -> n/2."""
    m = n // 2
    return arrow(FinFunction(FinSet.fresh(n, "a"), FinSet.fresh(m, "b"),
                             tuple(i * m // n for i in range(n))))


# When problems were squares, the law suite built 10,112 squares at 8 -> 4
# and 37,200 at 16 -> 8, one per problem per use.  When problems became
# keys, the eagerly built trace cell records were nearly all that was left
# (3,136 of 3,596 at 8 -> 4, 11,840 of 12,300 at 16 -> 8).  The cell records
# now keep their rows as the density's tables and build no square: 465
# squares at each size, 5 of them for building the generators.
@pytest.mark.parametrize("n, most", [(8, 600), (16, 600), (24, 600)])
def test_law_suite_square_count(monkeypatch, n, most):
    f = _surjection(n)
    count = _squares_built(monkeypatch)
    assert GeneratedAWFS(walking_cospan()).law_suite(f)["pass"]
    assert count[0] <= most


def test_trace_json_is_written_from_tables(monkeypatch):
    trace = GeneratedAWFS(walking_cospan()).factorize(_surjection(16)).trace
    count = _squares_built(monkeypatch)
    data = trace_to_json(trace)
    assert count[0] == 0
    # and it is the JSON of the rows' squares
    stage = trace.stages[-1]
    assert data["stages"][-1]["cell"]["problems"] == [
        [*row[:2], _square_to_json(AMB, row_square(row))]
        for row in stage.cell.problems]


def test_replay_reads_the_rows_without_their_squares(monkeypatch):
    aw = GeneratedAWFS(walking_cospan())
    trace = aw.factorize(_surjection(8)).trace
    identity = EndoData(AMB, lambda x: x, lambda m: m)
    witnesses = {j: aw.generators.arrow(j) for j in aw.generators.index.objects}
    count = _squares_built(monkeypatch)
    _, report = replay(trace, identity, witnesses)
    assert count[0] == 0
    assert [[(c["cell"], c["generator"]) for c in st["cells"]]
            for st in report["structure"]] \
        == [[row[:2] for row in st.cell.problems] for st in trace.stages]


def test_a_cell_record_shares_the_density_tables(monkeypatch):
    den = GeneratedAWFS(walking_cospan()).density(_surjection(16))
    count = _squares_built(monkeypatch)
    cell = _cell_record(den)
    assert count[0] == 0 and len(cell.problems) == len(den.comma.objects) > 0
    # every entry of a row is the density's own object, not a copy
    for (name, *leg), (_n, _j, *problem) in zip(cell.legs, cell.problems):
        shared = (den.cells[name], den.den, *den.legs[name],
                  den.cells[name], den.f, *den.comma.problems[name][1:])
        assert all(a is b for a, b in zip(leg + problem, shared))
