"""The density colimit, built as one colimit of the cells per side, agrees
with the construction it replaced.

The oracle below is that construction: problems looked up by their squares,
a second coproduct with one summand per comma morphism, mediated twice into
the coproduct of the cells, and the coequalizer of the two mediators.  It
shares no table code with ``density_comonad``.
"""

import json
import os
from dataclasses import dataclass
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_row
from garnet import density, finset, presheaf
from garnet.arrows import (ArrowObj, FinSetAmbient, PresheafAmbient, Square,
                           compose_squares, identity_square)
from garnet.awfs import _cell_record
from garnet.density import (ArrowDiagram, arrow_diagram_from_json,
                            density_action, density_comonad, problem_at,
                            subobject_classifier_diagram)
from garnet.errors import DomainMismatch
from garnet.fincat import category_from_json, discrete_category
from garnet.finset import FinFunction, FinSet
from test_density_memo import finset_maps, graph_maps

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
# the classifier's generators over graphs have morphisms, so their comma
# categories relate presheaf cells
CLASSIFIER = subobject_classifier_diagram(PAMB)


# -- the oracle ----------------------------------------------------------------

@dataclass
class Oracle:
    problems: dict
    relations: list
    den: ArrowObj
    legs: dict
    counit: Square
    coproduct: object
    coequalizer: object

    def name_of(self, j, alpha):
        return next(n for n, (i, a) in self.problems.items()
                    if i == j and a == alpha)

    def mediate(self, cocone, cod):
        return self.coequalizer.mediate(
            self.coproduct.mediate(cocone, cod=cod))


def oracle_density(u: ArrowDiagram, f: ArrowObj) -> Oracle:
    arr = u.arr
    problems = {f"{j}#{k}": (j, alpha) for j in u.index.objects
                for k, alpha in enumerate(arr.hom(u.arrow(j), f))}
    names = list(problems)
    relations = []
    for t in u.index.non_identity_morphisms():
        for name2, (j2, alpha2) in problems.items():
            if j2 != t.cod:
                continue
            back = compose_squares(alpha2, u.square(t.name))
            name1 = next(n for n, (i, a) in problems.items()
                         if i == t.dom and a == back)
            relations.append((f"{t.name}@{name2}", name1, name2, t.name))
    cp = arr.coproduct([u.arrow(problems[n][0]) for n in names], tags=names)
    at = {n: cp.injections[k] for k, n in enumerate(names)}
    rel_cp = arr.coproduct([u.arrow(problems[n1][0])
                            for _, n1, _, _ in relations],
                           tags=[r[0] for r in relations])
    left = rel_cp.mediate([at[n1] for _, n1, _, _ in relations], cod=cp.obj)
    right = rel_cp.mediate([compose_squares(at[n2], u.square(t))
                            for _, _, n2, t in relations], cod=cp.obj)
    ce = arr.coequalizer(left, right)
    legs = {n: compose_squares(ce.proj, at[n]) for n in names}
    counit = ce.mediate(cp.mediate([problems[n][1] for n in names], cod=f))
    return Oracle(problems, relations, ce.obj, legs, counit, cp, ce)


def oracle_action(sigma, of: Oracle, og: Oracle) -> Square:
    cocone = [og.legs[og.name_of(j, compose_squares(sigma, alpha))]
              for j, alpha in of.problems.values()]
    return of.mediate(cocone, og.den)


# -- the checks ----------------------------------------------------------------

def assert_matches_oracle(u, f):
    got, want = density_comonad(u, f), oracle_density(u, f)
    tables = u.ambient.tables
    assert got.den == want.den
    cell = _cell_record(got)
    assert cell.legs == tuple(cell_row(*leg) for leg in want.legs.items())
    assert got.counit == want.counit
    assert cell.problems \
        == tuple(cell_row(n, *p) for n, p in want.problems.items())
    assert got.comma.relations == [r[:3] for r in want.relations]
    assert got.comma.over == {r[0]: r[3] for r in want.relations}
    assert len(got.comma.by_boundary) == len(want.problems)
    for name, (j, alpha) in want.problems.items():
        key = (j, tables(alpha.top), tables(alpha.bottom))
        assert got.comma.by_boundary[key] == name
        assert got.comma.problems[name] == key
    return got, want


def assert_action_matches_oracle(u, sigma):
    den_f, of = assert_matches_oracle(u, sigma.source)
    den_g, og = assert_matches_oracle(u, sigma.target)
    assert density_action(u, sigma, den_f, den_g) \
        == oracle_action(sigma, of, og)


def assert_mediate_matches_oracle(u, f, cod, cocone):
    """``DensityResult.mediate`` reads the cocone's legs as tables."""
    den, want = density_comonad(u, f), oracle_density(u, f)
    tables = u.ambient.tables
    legs = [(tables(leg.top), tables(leg.bottom)) for leg in cocone]
    try:
        expected = want.mediate(cocone, cod)
    except DomainMismatch:
        with pytest.raises(DomainMismatch):
            den.mediate(legs, cod)
        return False
    assert den.mediate(legs, cod) == expected
    return True


def _squares(draw, u, f, g):
    squares = u.arr.hom(f, g)
    return squares[draw(st.integers(0, len(squares) - 1))] \
        if squares else None


@st.composite
def finset_squares(draw):
    return _squares(draw, WC, draw(finset_maps()), draw(finset_maps()))


@st.composite
def graph_squares(draw):
    return _squares(draw, BOUNDARY, draw(graph_maps()), draw(graph_maps()))


@settings(max_examples=40, deadline=None)
@given(finset_maps(), st.sampled_from([WC, POINT]))
def test_finset_density_matches_oracle(f, u):
    assert_matches_oracle(u, f)


@settings(max_examples=25, deadline=None)
@given(graph_maps(), st.sampled_from([BOUNDARY, CLASSIFIER]))
def test_graph_density_matches_oracle(f, u):
    assert_matches_oracle(u, f)


@settings(max_examples=30, deadline=None)
@given(finset_squares(), st.sampled_from([WC, POINT]))
def test_finset_action_matches_oracle(sigma, u):
    if sigma is not None:
        assert_action_matches_oracle(u, sigma)


@settings(max_examples=15, deadline=None)
@given(graph_squares(), st.sampled_from([BOUNDARY, CLASSIFIER]))
def test_graph_action_matches_oracle(sigma, u):
    if sigma is not None:
        assert_action_matches_oracle(u, sigma)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_cocones_mediate_as_the_oracle_does(data):
    f, cod = data.draw(finset_maps()), data.draw(finset_maps())
    cocone = []
    for n in density_comonad(WC, f).comma.objects:
        cell = WC.arrow(n.split("#")[0])
        legs = WC.arr.hom(cell, cod)
        if not legs:
            return
        cocone.append(legs[data.draw(st.integers(0, len(legs) - 1))])
    assert_mediate_matches_oracle(WC, f, cod, cocone)


def test_every_cocone_of_a_small_case_mediates_as_the_oracle_does():
    # the paper's second stage: two a-problems, each related to the b- and
    # bp-problems, into the identity on two points
    f = ArrowObj(AMB, FinFunction(FinSet.fresh(2, "m"), FinSet(("pt",)),
                                  (0, 0)))
    two = FinSet.fresh(2, "t")
    cod = ArrowObj(AMB, finset.identity(two))
    den = density_comonad(WC, f)
    homs = [WC.arr.hom(WC.arrow(den.comma.problems[n][0]), cod)
            for n in den.comma.objects]
    outcomes = [assert_mediate_matches_oracle(WC, f, cod, list(cocone))
                for cocone in product(*homs)]
    assert len(outcomes) == 64 and True in outcomes and False in outcomes


def test_a_cocone_with_the_wrong_number_of_legs_is_refused():
    f = ArrowObj(AMB, FinFunction(FinSet.fresh(2, "m"), FinSet(("pt",)),
                                  (0, 0)))
    den = density_comonad(WC, f)
    with pytest.raises(DomainMismatch):
        den.mediate(list(den.legs.values())[:-1], den.den)


def test_a_cocone_with_a_leg_off_its_cell_is_refused():
    # a discrete diagram relates no cells, so every table is constant on
    # the classes; swapping the legs of the empty-domain cell and the
    # one-point cell keeps every total length, only the cells' differ
    pt = FinSet(("pt",))
    u = ArrowDiagram(AMB, discrete_category(("e", "p")), {
        "e": ArrowObj(AMB, FinFunction(FinSet(()), pt, ())),
        "p": ArrowObj(AMB, finset.identity(pt))})
    den = density_comonad(u, ArrowObj(AMB, finset.identity(pt)))
    assert den.comma.objects == ("e#0", "p#0") and not den.comma.relations
    legs = list(den.legs.values())
    with pytest.raises(DomainMismatch, match="out of each foot"):
        den.mediate(legs[::-1], den.den)
    assert den.mediate(legs, den.den) == identity_square(den.den)


def test_a_table_key_miss_raises():
    f = ArrowObj(AMB, FinFunction(FinSet.fresh(2, "m"), FinSet(("pt",)),
                                  (0, 0)))
    index = density_comonad(WC, f).comma.by_boundary
    (j, top, bottom), _name = next(iter(index.items()))
    with pytest.raises(AssertionError, match="no lifting problem"):
        problem_at(index, j, top, ((9,),))


# -- the colimit is one colimit per side ---------------------------------------

@pytest.mark.parametrize("u, f", [
    (WC, ArrowObj(AMB, FinFunction(FinSet.fresh(2, "m"), FinSet(("pt",)),
                                   (0, 0)))),
    (CLASSIFIER, ArrowObj(PAMB, presheaf.presheaf_identity(
        presheaf.terminal_presheaf(GRAPH)))),
], ids=["finset", "presheaf"])
def test_density_takes_one_colimit_per_side(monkeypatch, u, f):
    calls = {}
    ambient = type(u.ambient)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("coproduct", "coequalizer", "colimit", "pushout"):
        counting(ambient, name)
    for name in ("coproduct", "quotient", "coequalizer"):
        counting(finset, name)
    for name in ("presheaf_coproduct", "presheaf_coequalizer"):
        counting(presheaf, name)
    den = density_comonad(u, f)
    assert den.comma.relations, "the case must relate some cells"
    # the cells' domains and codomains, each glued in one colimit
    assert calls == {"colimit": 2}


def bouquet(n):
    """One vertex with n loops."""
    v, e = FinSet.fresh(1, "v"), FinSet.fresh(n, "e")
    loops = FinFunction(e, v, (0,) * n)
    return presheaf.Presheaf(GRAPH, {"v": v, "e": e},
                             {"src": loops, "tgt": loops})


@pytest.mark.parametrize("u", [BOUNDARY, CLASSIFIER],
                         ids=["boundary", "classifier"])
def test_a_graph_density_builds_no_map_per_cell(monkeypatch, u):
    # a cell's leg is kept as its stretch of each level's classes, so the
    # maps a density builds past its comma category (the restrictions, its
    # arrow and its counit's sides) do not grow with the problems
    built = {}
    for n in (1, 3):
        f = ArrowObj(PAMB, presheaf.presheaf_identity(bouquet(n)))
        comma = density.comma_category(u, f)
        count = []
        check = FinFunction.__post_init__
        monkeypatch.setattr(density, "comma_category", lambda *a, **k: comma)
        monkeypatch.setattr(FinFunction, "__post_init__",
                            lambda self: count.append(check(self)))
        density.density_comonad(u, f)
        monkeypatch.undo()
        built[len(comma.objects)] = len(count)
    assert len(built) == 2 and len(set(built.values())) == 1, built
