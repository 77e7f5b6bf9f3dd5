"""Density comonads: comma categories, colimits, counits, closed form."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (AMB, PAIR, POINT, arrow, empty_diagram, finite, func,
                      point_inclusion, row_square, walking_cospan)
from garnet.arrows import (ArrowObj, PresheafAmbient, Square, compose_squares,
                           identity_square)
from garnet.awfs import GeneratedAWFS, _cell_record
from garnet.density import (ArrowDiagram, arrow_diagram_from_json,
                            arrow_diagram_to_json, check_mono_compatibility,
                            comma_category, density_action, density_comonad,
                            density_closed_form_subobject,
                            is_cartesian, lifting_problems,
                            subobject_classifier_diagram, validate_diagram)
from garnet import density as density_module
from garnet.errors import EnumerationCap, MalformedInput, NoIsoFound
from garnet.fincat import FinCategory, category_from_json
from garnet.finset import EMPTY, FinFunction, FinSet, identity
from garnet.presheaf import (Presheaf, PresheafMap, enumerate_maps,
                             presheaf_identity, pullback_classify,
                             subobject_classifier, terminal_presheaf, yoneda)

WC = walking_cospan()
PT_INC = point_inclusion()


def test_diagram_rejects_wrong_square_endpoints():
    index = FinCategory(("b", "a"), (("s", "b", "a"),), {})
    u_b = arrow(func(EMPTY, POINT))
    u_a = arrow(func(POINT, PAIR, 0))
    wrong = identity_square(u_b)
    with pytest.raises(MalformedInput):
        ArrowDiagram(AMB, index, {"b": u_b, "a": u_a}, {"s": wrong})


def test_diagram_functoriality_report():
    # chain x -> y -> z with a composite forced in the index
    index = FinCategory(("x", "y", "z"),
                        (("f", "x", "y"), ("g", "y", "z"), ("gf", "x", "z")),
                        {("g", "f"): "gf"})
    obj = arrow(identity(POINT))
    flip = Square(obj, obj, identity(POINT), identity(POINT))
    # gf's square is the identity but g and f compose to the identity too,
    # so this diagram is fine
    u = ArrowDiagram(AMB, index, {"x": obj, "y": obj, "z": obj},
                     {"f": flip, "g": flip, "gf": flip})
    assert validate_diagram(u) == []
    swap_pair = Square(arrow(identity(PAIR)), arrow(identity(PAIR)),
                       func(PAIR, PAIR, 1, 0), func(PAIR, PAIR, 1, 0))
    obj2 = arrow(identity(PAIR))
    with pytest.raises(MalformedInput) as bad:
        ArrowDiagram(AMB, index, {"x": obj2, "y": obj2, "z": obj2},
                     {"f": swap_pair, "g": swap_pair, "gf": swap_pair})
    assert str(bad.value) == ("square at composite 'gf' differs from the "
                              "composite of squares at ('g', 'f')")


def test_walking_cospan_validates():
    assert validate_diagram(WC) == []


def test_lifting_problem_counts_paper_stage_one():
    f = arrow(func(EMPTY, POINT))
    assert lifting_problems(WC, "a", f) == []
    assert len(lifting_problems(WC, "b", f)) == 1
    assert len(lifting_problems(WC, "bp", f)) == 1


def test_lifting_problems_identity_generator():
    # a generator that is an identity has problems = maps cod -> dom f
    u = ArrowDiagram(AMB, FinCategory(("j",), (), {}),
                     {"j": arrow(identity(POINT))})
    two = finite(2)
    f = arrow(func(two, POINT, 0, 0))
    probs = lifting_problems(u, "j", f)
    assert len(probs) == 2  # one per point of dom f


def test_comma_category_empty_index():
    comma = comma_category(empty_diagram(), arrow(func(EMPTY, POINT)))
    assert comma.objects == ()


def test_comma_category_stage_one():
    comma = comma_category(WC, arrow(func(EMPTY, POINT)))
    assert comma.objects == ("b#0", "bp#0")
    assert comma.relations == []


def test_comma_category_stage_two():
    mid = finite(2, "m")
    f1 = arrow(func(mid, POINT, 0, 0))
    comma = comma_category(WC, f1)
    assert len(comma.objects) == 4
    assert len(comma.relations) == 4
    # each a-problem receives exactly one morphism from b and one from bp
    for name in ("a#0", "a#1"):
        incoming = [r for r in comma.relations if r[2] == name]
        assert sorted(comma.over[r[0]] for r in incoming) == ["s", "t"]
        assert sorted(r[1] for r in incoming) == ["b#0", "bp#0"]


def assert_counit_restores_problems(den):
    """The counit after each leg is that cell's problem, and the problems
    are the squares ``lifting_problems`` enumerates, in comma order."""
    want = [(j, alpha) for j in WC.index.objects
            for alpha in lifting_problems(WC, j, den.f)]
    cell = _cell_record(den)
    assert [(row[1], row_square(row)) for row in cell.problems] == want
    for row, (_j, alpha) in zip(cell.legs, want):
        assert compose_squares(den.counit, row_square(row)) == alpha


def test_density_empty_diagram():
    f = arrow(func(finite(2), POINT, 0, 0))
    den = density_comonad(empty_diagram(), f)
    assert den.den.dom.size == 0 and den.den.cod.size == 0
    assert den.counit.target == f


def test_density_paper_stage_one():
    f = arrow(func(EMPTY, POINT))
    den = density_comonad(WC, f)
    assert den.den.dom.size == 0
    assert den.den.cod.size == 2
    assert den.den.cod.labels == ("b#0.pt", "bp#0.pt")
    # counit restores each problem
    assert_counit_restores_problems(den)


def test_density_paper_stage_two_quotient():
    mid = finite(2, "m")
    f1 = arrow(func(mid, POINT, 0, 0))
    den = density_comonad(WC, f1)
    # two a-problems upstairs; downstairs the coherence squares glue both
    # point cells onto the second halves of the a-cells, leaving three
    assert den.den.dom.size == 2
    assert den.den.cod.size == 3
    assert den.den.cod.labels == ("b#0.pt", "a#0.l", "a#1.l")
    assert den.den.mor.table == (1, 2)
    assert_counit_restores_problems(den)


def test_density_discrete_is_coproduct_of_problems():
    a, b = finite(2, "a"), finite(3, "b")
    f = arrow(func(a, b, 0, 2))
    den = density_comonad(PT_INC, f)
    names = list(den.comma.objects)
    parts = [PT_INC.arrow(den.comma.problems[n][0]) for n in names]
    oracle = PT_INC.arr.coproduct(parts, tags=names)
    assert den.den == oracle.obj
    assert den.den.dom.size == 0 and den.den.cod.size == 3


def test_density_memoized_per_session():
    aw = GeneratedAWFS(WC)
    f = arrow(func(EMPTY, POINT))
    first = aw.density(f)
    assert aw.density(f) is first
    # kept in the session's memo under ("density", skeleton of f)
    assert aw.session.memo(("density", AMB.skeleton(f.mor)),
                           lambda: None) is first
    assert GeneratedAWFS(WC).density(f) is not first
    assert density_comonad(WC, f) is not first


@st.composite
def _mono_probe(draw):
    a = finite(draw(st.integers(1, 3)), "a")
    b = finite(draw(st.integers(1, 3)), "b")
    f = func(a, b, *(draw(st.integers(0, b.size - 1)) for _ in range(a.size)))
    # extend f by fresh points on each side to get a mono square into g
    a2 = FinSet(a.labels + ("extra_a",))
    b2 = FinSet(b.labels + ("extra_b",))
    g = FinFunction(a2, b2, tuple(f.table) + (b2.size - 1,))
    top = FinFunction(a, a2, tuple(range(a.size)))
    bottom = FinFunction(b, b2, tuple(range(b.size)))
    return Square(arrow(f), arrow(g), top, bottom)


@settings(max_examples=25, deadline=None)
@given(_mono_probe())
def test_counit_natural_and_action_functorial(sigma):
    den_f = density_comonad(WC, sigma.source)
    den_g = density_comonad(WC, sigma.target)
    act = density_action(WC, sigma, den_f, den_g)
    assert compose_squares(den_g.counit, act) == \
        compose_squares(sigma, den_f.counit)


def test_action_on_identity_is_identity():
    f = arrow(func(finite(2), POINT, 0, 0))
    den = density_comonad(WC, f)
    act = density_action(WC, identity_square(f), den, den)
    assert act == identity_square(den.den)


@settings(max_examples=20, deadline=None)
@given(_mono_probe())
def test_classifier_generators_fully_mono_compatible(sigma):
    u = subobject_classifier_diagram(AMB)
    report = check_mono_compatibility(u, [sigma])
    assert report["pass"]


def test_is_cartesian_on_presheaf_squares():
    base = FinCategory(("x", "y"), (("m", "x", "y"),), {})
    amb = PresheafAmbient(base)
    omega, truth = subobject_classifier(base)
    one = truth.source
    yy = yoneda(base, "y")
    a = PresheafMap(yy, omega, {
        c: FinFunction(yy.at(c), omega.at(c), (1,)) for c in ("x", "y")})
    # the mono a classifies, with its square onto the truth point: a
    # pullback at both objects of the base
    sub = pullback_classify(truth, a)
    s = sub.source
    assert (s.at("x").size, s.at("y").size) == (1, 0)
    to_one = enumerate_maps(s, one)[0]
    assert is_cartesian(Square(ArrowObj(amb, sub), ArrowObj(amb, truth),
                               to_one, a))
    # s -> 1 over the identity of 1 is a pullback at x, where s has the one
    # point, but not at y, where s is empty
    ident = ArrowObj(amb, presheaf_identity(one))
    assert not is_cartesian(Square(ArrowObj(amb, to_one), ident, to_one,
                                   presheaf_identity(one)))


def test_walking_cospan_density_mono_on_paper_map():
    report = check_mono_compatibility(
        WC, [identity_square(arrow(func(EMPTY, POINT)))])
    assert report["probes"][0]["density_of_source_mono"]


def test_empty_diagram_trivially_compatible():
    report = check_mono_compatibility(
        empty_diagram(), [identity_square(arrow(func(EMPTY, POINT)))])
    assert report["pass"]


def test_classifier_diagram_finset_shape():
    u = subobject_classifier_diagram(AMB)
    assert u.index.objects == ("empty", "total")
    assert u.arrow("empty").dom.size == 0
    assert u.arrow("empty").cod.size == 1
    assert u.arrow("total").mor.is_identity


def test_classifier_diagram_presheaf_walking_arrow():
    base = FinCategory(("x", "y"), (("m", "x", "y"),), {})
    ambient = PresheafAmbient(base)
    u = subobject_classifier_diagram(ambient)
    # five classifier elements, three coherence squares
    assert len(u.index.objects) == 5
    assert len(u.index.non_identity_morphisms()) == 3
    assert validate_diagram(u) == []
    for j in u.index.objects:
        assert ambient.is_mono(u.arrow(j).mor)


def generator_shapes(u):
    """Each generator's level sizes, domain then codomain, in index order."""
    base = u.ambient.base
    return [tuple((u.arrow(j).dom.at(x).size, u.arrow(j).cod.at(x).size)
                  for x in base.objects) for j in u.index.objects]


@pytest.mark.parametrize("name", ["m", "a@b"])
def test_classifier_diagram_reads_base_morphisms_not_names(name):
    # an element morphism is named m@label; a base morphism whose own name
    # holds an @ must not be cut at it
    base = FinCategory(("x", "y"), ((name, "x", "y"),), {})
    u = subobject_classifier_diagram(PresheafAmbient(base))
    plain = subobject_classifier_diagram(PresheafAmbient(
        FinCategory(("x", "y"), (("m", "x", "y"),), {})))
    assert len(u.index.objects) == 5
    assert generator_shapes(u) == generator_shapes(plain)
    assert validate_diagram(u) == []


def test_representable_problem_is_distinguished():
    base = FinCategory(("x",), (), {})
    ambient = PresheafAmbient(base)
    u = subobject_classifier_diagram(ambient)
    for j in u.index.objects:
        gen = u.arrow(j)
        den = density_comonad(u, gen)
        ident = identity_square(gen)
        name = den.comma.by_boundary[(j, ambient.tables(ident.top),
                                      ambient.tables(ident.bottom))]
        leg = next(row_square(row) for row in _cell_record(den).legs
                   if row[0] == name)
        assert compose_squares(den.counit, leg) == identity_square(gen)


def _psh_map(base, src_at, tgt_at, comps, src_restrict=None, tgt_restrict=None):
    src = Presheaf(base, src_at, src_restrict or {})
    tgt = Presheaf(base, tgt_at, tgt_restrict or {})
    return PresheafMap(src, tgt, comps)


def test_closed_form_terminal_base_matches_inclusion():
    base = FinCategory(("x",), (), {})
    ambient = PresheafAmbient(base)
    omega, truth = subobject_classifier(base)
    a, b = finite(2, "a"), finite(3, "b")
    f = ArrowObj(ambient, _psh_map(base, {"x": a}, {"x": b},
                                   {"x": func(a, b, 0, 2)}))
    res = density_closed_form_subobject(truth, f)
    assert res.closed.dom.at("x").size == 2
    assert res.closed.cod.at("x").size == 5
    assert ambient.is_mono(res.closed.mor)
    assert ambient.is_iso(res.iso.top) and ambient.is_iso(res.iso.bottom)
    assert res.iso.source == res.closed and res.iso.target == res.generic.den


def test_closed_form_identity_map():
    base = FinCategory(("x",), (), {})
    ambient = PresheafAmbient(base)
    omega, truth = subobject_classifier(base)
    one = terminal_presheaf(base)
    f = ArrowObj(ambient, PresheafMap(one, one, {
        "x": identity(one.at("x"))}))
    res = density_closed_form_subobject(truth, f)
    assert res.iso is not None


def test_closed_form_walking_arrow_base():
    base = FinCategory(("x", "y"), (("m", "x", "y"),), {})
    ambient = PresheafAmbient(base)
    omega, truth = subobject_classifier(base)
    yx = yoneda(base, "x")
    maps = enumerate_maps(yx, yx)
    f = ArrowObj(ambient, maps[0])
    res = density_closed_form_subobject(truth, f)
    assert ambient.is_iso(res.iso.top) and ambient.is_iso(res.iso.bottom)


FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
with open(os.path.join(FIX, "graph_base.json")) as _fh:
    GRAPH = category_from_json(json.load(_fh))
# a chain x -> y -> z with its composite
CHAIN = FinCategory(("x", "y", "z"),
                    (("a", "x", "y"), ("b", "y", "z"), ("ba", "x", "z")),
                    {("b", "a"): "ba"})


def _table(draw, n, m):
    return tuple(draw(st.integers(0, m - 1)) for _ in range(n))


@st.composite
def _graph(draw):
    v = finite(draw(st.integers(0, 2)), "v")
    e = finite(draw(st.integers(0, 2)) if v.size else 0, "e")
    return Presheaf(GRAPH, {"v": v, "e": e}, {
        end: FinFunction(e, v, _table(draw, e.size, v.size))
        for end in ("src", "tgt")})


@st.composite
def _chain(draw):
    x = finite(draw(st.integers(0, 2)), "x")
    y = finite(draw(st.integers(0, 2)) if x.size else 0, "y")
    z = finite(draw(st.integers(0, 2)) if y.size else 0, "z")
    ra = FinFunction(y, x, _table(draw, y.size, x.size))
    rb = FinFunction(z, y, _table(draw, z.size, y.size))
    rba = FinFunction(z, x, tuple(ra(i) for i in rb.table))
    return Presheaf(CHAIN, {"x": x, "y": y, "z": z},
                    {"a": ra, "b": rb, "ba": rba})


@st.composite
def _presheaf_map(draw, presheaves):
    maps = enumerate_maps(draw(presheaves), draw(presheaves))
    assume(maps)
    return draw(st.sampled_from(maps))


@settings(max_examples=25, deadline=None)
@given(st.one_of(_presheaf_map(_graph()), _presheaf_map(_chain())))
def test_closed_form_iso_is_built_over_graphs_and_chains(m):
    # parallel arrows and a composite, beyond the terminal base and the
    # walking arrow of the acceptance criterion
    ambient = PresheafAmbient(m.source.base)
    _, truth = subobject_classifier(m.source.base)
    f = ArrowObj(ambient, m)
    res = density_closed_form_subobject(truth, f)
    assert res.iso.source == res.closed
    assert res.iso.target == res.generic.den
    assert ambient.is_iso(res.iso.top) and ambient.is_iso(res.iso.bottom)


def _point_map(n, m, *table):
    base = FinCategory(("x",), (), {})
    a, b = finite(n, "a"), finite(m, "b")
    return ArrowObj(PresheafAmbient(base),
                    _psh_map(base, {"x": a}, {"x": b},
                             {"x": func(a, b, *table)}))


# the closed form reads f's problems off the density's comma category; put
# them beside the colimit of another map's density: against a map with
# fewer problems a cell is missing; with more, the built map is not onto
@pytest.mark.parametrize("other", [(2, 2, 0, 1), (2, 4, 0, 1)],
                         ids=["fewer-cells", "more-cells"])
def test_closed_form_against_another_density_raises(monkeypatch, other):
    f, g = _point_map(2, 3, 0, 2), _point_map(*other)
    _, truth = subobject_classifier(f.mor.source.base)
    real = density_module.density_comonad
    monkeypatch.setattr(
        density_module, "density_comonad", lambda u, f, cap=None: replace(
            real(u, g, cap=cap), comma=real(u, f, cap=cap).comma))
    with pytest.raises(NoIsoFound):
        density_closed_form_subobject(truth, f)


CLOSED_FORM_MISMATCH = """
from dataclasses import replace

from garnet import density
from garnet.arrows import ArrowObj, PresheafAmbient
from garnet.errors import NoIsoFound
from garnet.fincat import FinCategory
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import Presheaf, PresheafMap, subobject_classifier

base = FinCategory(("x",), (), {})
_, truth = subobject_classifier(base)


def point_map(n, m, *table):
    a, b = FinSet.fresh(n, "a"), FinSet.fresh(m, "b")
    return ArrowObj(PresheafAmbient(base), PresheafMap(
        Presheaf(base, {"x": a}, {}), Presheaf(base, {"x": b}, {}),
        {"x": FinFunction(a, b, table)}))


f = point_map(2, 3, 0, 2)
real = density.density_comonad
for other in (point_map(2, 2, 0, 1), point_map(2, 4, 0, 1)):
    density.density_comonad = lambda u, f, cap=None: replace(
        real(u, other, cap=cap), comma=real(u, f, cap=cap).comma)
    try:
        density.density_closed_form_subobject(truth, f)
    except NoIsoFound:
        continue
    raise SystemExit("a mismatched closed form did not raise NoIsoFound")
"""


LEG_MISMATCH = """
from garnet.arrows import ArrowObj, FinSetAmbient
from garnet.density import ArrowDiagram, density_comonad
from garnet.errors import DomainMismatch
from garnet.fincat import FinCategory
from garnet.finset import FinSet, identity

amb = FinSetAmbient()
u = ArrowDiagram(amb, FinCategory(("j",), (), {}),
                 {"j": ArrowObj(amb, identity(FinSet.fresh(2, "g")))})
f = ArrowObj(amb, identity(FinSet.fresh(1, "p")))
real, calls = FinSetAmbient.colimit, []


def forged(self, feet, pairs, tags=None):
    # the first call divides the cells' domains: glue all of them together,
    # which the counit still respects (f has one point) but the leg does not
    if not calls:
        pairs = ([(0, 0, i, k) for i, x in enumerate(feet)
                  for k in range(x.size)],)
    calls.append(feet)
    return real(self, feet, pairs, tags)


FinSetAmbient.colimit = forged
try:
    density_comonad(u, f)
except DomainMismatch:
    raise SystemExit(0)
raise SystemExit("a density whose leg does not commute was built")
"""


def _run_under(flags, script):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_closed_form_mismatch_raises_also_under_python_O(flags):
    # python -O strips assert statements; the check must not be one
    _run_under(flags, CLOSED_FORM_MISMATCH)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_a_leg_that_does_not_commute_raises_also_under_python_O(flags):
    # the trace records legs as tables, so density_comonad is where a leg's
    # commutation is checked, and python -O must not strip that check
    _run_under(flags, LEG_MISMATCH)


def test_lan_coproduct_decomposition():
    # a diagram split into two discrete pieces: density of the union is the
    # coproduct of the densities, up to relabeling
    two = finite(2, "c")
    u1 = point_inclusion()
    u2 = ArrowDiagram(AMB, FinCategory(("k",), (), {}),
                      {"k": arrow(identity(POINT))})
    union = ArrowDiagram(AMB, FinCategory(("j", "k"), (), {}), {
        "j": u1.arrow("j"), "k": u2.arrow("k")})
    f = arrow(func(two, POINT, 0, 0))
    den = density_comonad(union, f)
    den1 = density_comonad(u1, f)
    den2 = density_comonad(u2, f)
    cp = union.arr.coproduct([den1.den, den2.den])
    assert AMB.skeleton(den.den.mor) == AMB.skeleton(cp.obj.mor)


def test_enumeration_cap_propagates():
    big = finite(9, "g")
    f = arrow(func(big, big, *range(9)))
    with pytest.raises(EnumerationCap):
        lifting_problems(WC, "a", f, cap=10)


def test_diagram_json_round_trip():
    data = arrow_diagram_to_json(WC)
    back = arrow_diagram_from_json(data, AMB)
    assert back.index == WC.index
    for j in WC.index.objects:
        assert back.arrow(j) == WC.arrow(j)
    for m in WC.index.non_identity_morphisms():
        assert back.square(m.name) == WC.square(m.name)


def test_diagram_shorthand_expands():
    u = arrow_diagram_from_json("subobject_classifier", AMB)
    assert u.index.objects == ("empty", "total")
    base = FinCategory(("x",), (), {})
    up = arrow_diagram_from_json({"generators": "subobject_classifier"},
                                 PresheafAmbient(base))
    assert len(up.index.objects) == 2


def test_diagram_json_rejects_garbage():
    with pytest.raises(MalformedInput):
        arrow_diagram_from_json({"arrows": {}}, AMB)
