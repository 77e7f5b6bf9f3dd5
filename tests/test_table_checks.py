"""Constructor checks on integer tables against the compose-based checks.

``FinFunction`` checks its range with ``min``/``max``, ``Square`` compares
its two paths with ``compose_tables``, and ``PresheafMap`` and the
``enumerate_maps`` filter compare restriction and component tables.  The
oracles below are the checks they replaced, which built both composite
maps and compared them: on random finite-set maps (endomaps and empty
domains included), squares between them, squares of squares, and random
graph maps over ``graph_base.json``, both must accept and reject exactly
the same values.  Count guards pin that a valid square or presheaf map is
built without composing or creating a single map, and a subprocess test
pins that the value-layer checks raise also under ``python -O``.
"""

import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from garnet import finset, presheaf
from garnet.arrows import ArrowAmbient, ArrowObj, FinSetAmbient, \
    PresheafAmbient, Square
from garnet.errors import BoundaryMismatch, CodomainMismatch, \
    DomainMismatch, NaturalityViolation
from garnet.fincat import FinCategory, category_from_json
from garnet.finset import FinFunction, FinSet, compose
from garnet.presheaf import Presheaf, PresheafMap, _unnatural_along, \
    enumerate_maps

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

with open(os.path.join(FIX, "graph_base.json")) as _fh:
    GRAPH = category_from_json(json.load(_fh))
AMB = FinSetAmbient()
PAMB = PresheafAmbient(GRAPH)
ARR = ArrowAmbient(AMB)


# -- the oracles: the compose-based checks -------------------------------------

def oracle_table_ok(dom, cod, table):
    return len(table) == dom.size \
        and all(0 <= v < cod.size for v in table)


def oracle_commutes(amb, source, target, top, bottom):
    return amb.compose(target.mor, top) == amb.compose(bottom, source.mor)


def oracle_unnatural_along(source, target, components):
    base = source.base
    for m in base.morphisms:
        if base.is_identity(m.name):
            continue
        lhs = compose(components[m.dom], source.restrict(m.name))
        rhs = compose(target.restrict(m.name), components[m.cod])
        if lhs != rhs:
            return m.name
    return None


def oracle_natural(source, target, components):
    return oracle_unnatural_along(source, target, components) is None


def built(make):
    """The value make() builds, or the class of the error it raises."""
    try:
        return make()
    except (DomainMismatch, CodomainMismatch, BoundaryMismatch,
            NaturalityViolation) as exc:
        return type(exc)


# -- strategies ----------------------------------------------------------------

def finsets(prefix, lo=0, hi=3):
    return st.integers(lo, hi).map(lambda n: FinSet.fresh(n, prefix))


@st.composite
def tables(draw, dom, cod, valid=True):
    if valid:
        entry = st.integers(0, max(cod.size - 1, 0))
        return tuple(draw(st.lists(entry, min_size=dom.size,
                                   max_size=dom.size)))
    entry = st.one_of(st.integers(-3, cod.size + 2), st.booleans())
    size = draw(st.one_of(st.just(dom.size), st.integers(0, dom.size + 1)))
    return tuple(draw(st.lists(entry, min_size=size, max_size=size)))


@st.composite
def functions(draw, dom=None, cod=None):
    """A valid map dom -> cod, with dom and cod drawn when not given (an
    endomap or a map out of the empty set among them); None when the
    codomain is empty and the domain is not."""
    dom = draw(finsets("x")) if dom is None else dom
    if cod is None:
        cod = dom if draw(st.booleans()) else draw(finsets("y"))
    if dom.size and not cod.size:
        return None
    return FinFunction(dom, cod, draw(tables(dom, cod)))


@st.composite
def finset_arrows(draw):
    f = draw(functions())
    if f is None:
        f = FinFunction(finset.EMPTY, draw(finsets("y")), ())
    return ArrowObj(AMB, f)


@st.composite
def nonempty_arrows(draw):
    dom, cod = draw(finsets("x", 1, 2)), draw(finsets("y", 1, 2))
    return ArrowObj(AMB, draw(functions(dom, cod)))


@st.composite
def graphs(draw, prefix=""):
    nv = draw(st.integers(0, 2))
    ne = draw(st.integers(0, 2 if nv else 0))
    v, e = FinSet.fresh(nv, prefix + "v"), FinSet.fresh(ne, prefix + "e")
    return Presheaf(GRAPH, {"v": v, "e": e},
                    {"src": FinFunction(e, v, draw(tables(e, v))),
                     "tgt": FinFunction(e, v, draw(tables(e, v)))})


@st.composite
def component_families(draw, source, target):
    """Levelwise maps source -> target, natural or not; None when some level
    has no map."""
    comps = {}
    for c in GRAPH.objects:
        f = draw(functions(source.at(c), target.at(c)))
        if f is None:
            return None
        comps[c] = f
    return comps


@st.composite
def graph_maps(draw):
    g = draw(graphs())
    h = g if draw(st.booleans()) else draw(graphs("w"))
    maps = enumerate_maps(g, h)
    if not maps:
        maps = enumerate_maps(g, g)
    return ArrowObj(PAMB, draw(st.sampled_from(maps)))


# -- finite-set maps -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_function_table_check_matches_oracle(data):
    dom = data.draw(finsets("x"))
    cod = dom if data.draw(st.booleans()) else data.draw(finsets("y"))
    table = data.draw(tables(dom, cod, valid=False))
    got = built(lambda: FinFunction(dom, cod, table))
    assert isinstance(got, FinFunction) == oracle_table_ok(dom, cod, table)
    if len(table) != dom.size:
        assert got is DomainMismatch
    elif not isinstance(got, FinFunction):
        assert got is CodomainMismatch


@pytest.mark.parametrize("table", [(-1,), (2,), (0, 5), (True, 2), (-1, 9)])
def test_function_rejects_entries_outside_the_codomain(table):
    x, y = FinSet.fresh(len(table)), FinSet.fresh(2, "y")
    assert not oracle_table_ok(x, y, table)
    with pytest.raises(CodomainMismatch):
        FinFunction(x, y, table)


def test_bool_entries_in_range_are_indices_as_before():
    x, y = FinSet.fresh(2), FinSet.fresh(2, "y")
    assert oracle_table_ok(x, y, (True, False))
    assert FinFunction(x, y, (True, False)).table == (True, False)


def check_square(amb, source, target, top, bottom):
    got = built(lambda: Square(source, target, top, bottom))
    want = oracle_commutes(amb, source, target, top, bottom)
    assert isinstance(got, Square) == want
    if not want:
        assert got is BoundaryMismatch


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_finset_square_check_matches_oracle(data):
    a = data.draw(finset_arrows())
    b = data.draw(finset_arrows())
    top = data.draw(functions(a.dom, b.dom))
    bottom = data.draw(functions(a.cod, b.cod))
    if top is None or bottom is None:
        return
    check_square(AMB, a, b, top, bottom)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_square_of_squares_check_matches_oracle(data):
    # the arrow ambient's tables are its top's, then its bottom's
    a, b, c, d = (data.draw(nonempty_arrows()) for _ in range(4))
    s, t = ARR.hom(a, b), ARR.hom(c, d)
    tops, bottoms = ARR.hom(a, c), ARR.hom(b, d)
    if not (s and t and tops and bottoms):
        return
    source = ArrowObj(ARR, data.draw(st.sampled_from(s)))
    target = ArrowObj(ARR, data.draw(st.sampled_from(t)))
    check_square(ARR, source, target, data.draw(st.sampled_from(tops)),
                 data.draw(st.sampled_from(bottoms)))


def test_square_of_squares_that_does_not_commute_is_rejected():
    x, y = FinSet.fresh(1), FinSet.fresh(2, "y")
    one = ArrowObj(AMB, finset.identity(x))
    two = ArrowObj(AMB, finset.identity(y))
    low, high = FinFunction(x, y, (0,)), FinFunction(x, y, (1,))
    s_low = ArrowObj(ARR, Square(one, two, low, low))
    s_high = ArrowObj(ARR, Square(one, two, high, high))
    ident = ARR.identity(one)
    square_two = ARR.identity(two)
    assert not oracle_commutes(ARR, s_low, s_high, ident, square_two)
    with pytest.raises(BoundaryMismatch):
        Square(s_low, s_high, ident, square_two)
    assert oracle_commutes(ARR, s_low, s_low, ident, square_two)
    Square(s_low, s_low, ident, square_two)


# -- graph maps ----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_presheaf_map_naturality_matches_oracle(data):
    g = data.draw(graphs())
    h = g if data.draw(st.booleans()) else data.draw(graphs("w"))
    comps = data.draw(component_families(g, h))
    if comps is None:
        return
    failing = oracle_unnatural_along(g, h, comps)
    assert _unnatural_along(g, h, comps) == failing
    if failing is None:
        assert PresheafMap(g, h, comps).components == comps
    else:
        with pytest.raises(NaturalityViolation, match=repr(failing)):
            PresheafMap(g, h, comps)


@settings(max_examples=60, deadline=None)
@given(graphs(), graphs("w"))
def test_enumerate_maps_filter_matches_oracle(g, h):
    levels = [finset.enumerate_functions(g.at(c), h.at(c))
              for c in GRAPH.objects]
    want = [dict(zip(GRAPH.objects, combo))
            for combo in itertools.product(*levels)
            if oracle_natural(g, h, dict(zip(GRAPH.objects, combo)))]
    assert [m.components for m in enumerate_maps(g, h)] == want


# the graph base with its objects listed edges first, so that naturality
# narrows the later level through its restrictions' codomain, and the base
# of one idempotent, whose naturality is along an endomorphism
FLIPPED = FinCategory(("e", "v"), GRAPH.non_identity_morphisms(), {})
IDEMPOTENT = FinCategory(("*",), [("p", "*", "*")], {("p", "p"): "p"})


def on_base(p, base):
    return Presheaf(base, {c: p.at(c) for c in base.objects},
                    {m.name: p.restrict(m.name)
                     for m in base.non_identity_morphisms()})


@st.composite
def idempotent_sets(draw, prefix=""):
    """A set with an idempotent p: a set of fixed points and a map onto
    it, the only endomaps that are presheaves on IDEMPOTENT."""
    x = draw(finsets(prefix + "x", 0, 3))
    fixed = sorted(draw(st.sets(st.integers(0, x.size - 1), min_size=1))) \
        if x.size else []
    table = tuple(v if v in fixed else draw(st.sampled_from(fixed))
                  for v in range(x.size))
    return Presheaf(IDEMPOTENT, {"*": x}, {"p": FinFunction(x, x, table)})


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    st.tuples(graphs(), graphs("w")).map(
        lambda gh: tuple(on_base(p, FLIPPED) for p in gh)),
    st.tuples(idempotent_sets(), idempotent_sets("w"))))
def test_enumerate_maps_on_other_bases_matches_oracle(pair):
    g, h = pair
    objects = g.base.objects
    levels = [finset.enumerate_functions(g.at(c), h.at(c)) for c in objects]
    want = [dict(zip(objects, combo))
            for combo in itertools.product(*levels)
            if oracle_natural(g, h, dict(zip(objects, combo)))]
    assert [m.components for m in enumerate_maps(g, h)] == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_presheaf_square_check_matches_oracle(data):
    a, b = data.draw(graph_maps()), data.draw(graph_maps())
    tops = enumerate_maps(a.dom, b.dom)
    bottoms = enumerate_maps(a.cod, b.cod)
    if not (tops and bottoms):
        return
    check_square(PAMB, a, b, data.draw(st.sampled_from(tops)),
                 data.draw(st.sampled_from(bottoms)))


# -- count guards: checks compose no map ---------------------------------------

def forbid_maps(monkeypatch):
    """Fail on any FinFunction built or any map composed from here on."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a check built or composed a map")
    monkeypatch.setattr(FinFunction, "__post_init__", forbidden)
    for owner in (finset, presheaf):
        monkeypatch.setattr(owner, "compose", forbidden)
    monkeypatch.setattr(presheaf, "presheaf_compose", forbidden)
    for cls in (FinSetAmbient, PresheafAmbient, ArrowAmbient):
        monkeypatch.setattr(cls, "compose", forbidden)


def test_valid_squares_and_presheaf_maps_build_no_map(monkeypatch):
    x, y = FinSet.fresh(2), FinSet.fresh(1, "y")
    f = ArrowObj(AMB, FinFunction(x, y, (0, 0)))
    g = ArrowObj(AMB, finset.identity(y))
    bottom = FinFunction(y, y, (0,))
    v, e = FinSet.fresh(1, "v"), FinSet.fresh(1, "e")
    loop = Presheaf(GRAPH, {"v": v, "e": e},
                    {"src": FinFunction(e, v, (0,)),
                     "tgt": FinFunction(e, v, (0,))})
    comps = {c: finset.identity(loop.at(c)) for c in GRAPH.objects}
    ident = PresheafMap(loop, loop, comps)
    p = ArrowObj(PAMB, ident)
    s = ArrowObj(ARR, Square(f, g, f.mor, bottom))
    top_s, bottom_s = ARR.identity(f), ARR.identity(g)
    forbid_maps(monkeypatch)
    Square(f, g, f.mor, bottom)
    PresheafMap(loop, loop, comps)
    Square(p, p, ident, ident)
    Square(s, s, top_s, bottom_s)


# -- the checks raise, also under python -O -------------------------------------

VALUE_CHECKS = """
from garnet.arrows import ArrowAmbient, ArrowObj, FinSetAmbient, Square
from garnet.errors import CodomainMismatch, DomainMismatch, MalformedInput
from garnet.fincat import FinCategory
from garnet.finset import FinFunction, FinSet, identity
from garnet.presheaf import Presheaf, PresheafMap, presheaf_inverse

x, y = FinSet.fresh(2), FinSet.fresh(1, "y")
collapse = FinFunction(x, y, (0, 0))
point = FinCategory(("c",), (), {})
px, py = Presheaf(point, {"c": x}, {}), Presheaf(point, {"c": y}, {})
fs = FinSetAmbient()
arrow = ArrowObj(fs, collapse)
cases = [
    (MalformedInput, lambda: FinSet(("a", "a"))),
    (DomainMismatch, lambda: FinFunction(x, y, (0,))),
    (DomainMismatch, lambda: FinFunction(x, y, (0, 0, 0))),
    (CodomainMismatch, lambda: FinFunction(x, y, (0, 1))),
    (CodomainMismatch, lambda: FinFunction(x, y, (-1, 0))),
    (MalformedInput, lambda: collapse.inverse()),
    (MalformedInput, lambda: presheaf_inverse(
        PresheafMap(px, py, {"c": collapse}))),
    (MalformedInput, lambda: ArrowAmbient(fs).inverse(
        Square(ArrowObj(fs, identity(x)), arrow, identity(x), collapse))),
]
for k, (error, build) in enumerate(cases):
    try:
        build()
    except error:
        continue
    raise SystemExit(f"case {k} did not raise {error.__name__}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_value_checks_raise_also_under_python_O(flags):
    # python -O strips assert statements, so a check written as one would
    # let a malformed value through
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", VALUE_CHECKS],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
