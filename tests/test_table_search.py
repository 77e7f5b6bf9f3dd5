"""The hom-set searches on tables against the maps they used to build.

``hom(a, b, cap, tables=True)`` enumerates a hom-set as tables and builds
no map.  The oracle is the same hom-set built as maps and read back with
the ambient's ``tables``: on finite sets, on squares of them and squares
of squares, and on presheaves over the graph base (objects in either
order), a chain with its composite and one idempotent, both must give
equal lists in the same order, or raise EnumerationCap with the same
message under the same cap.
A ``PresheafMap`` keeps its tables once; they must be its components'
tables however the map was built.
"""

from hypothesis import given, settings, strategies as st

from garnet.arrows import ArrowAmbient, ArrowObj, FinSetAmbient, \
    PresheafAmbient
from garnet.errors import EnumerationCap
from garnet.fincat import FinCategory
from garnet.finset import FinFunction
from garnet.presheaf import Presheaf, PresheafMap, _natural_map, \
    enumerate_maps, presheaf_compose, presheaf_coproduct, \
    presheaf_identity, presheaf_inverse, presheaf_pushout, \
    validate_presheaf
from test_table_checks import FLIPPED, finset_arrows, finsets, graphs, \
    idempotent_sets, nonempty_arrows, on_base, tables

# a chain x -> y -> z with its composite
CHAIN = FinCategory(("x", "y", "z"),
                    (("a", "x", "y"), ("b", "y", "z"), ("ba", "x", "z")),
                    {("b", "a"): "ba"})
AMB = FinSetAmbient()
CAPS = st.one_of(st.none(), st.integers(0, 60))


@st.composite
def chains(draw, prefix=""):
    x = draw(finsets(prefix + "x", 0, 2))
    y = draw(finsets(prefix + "y", 0, 2 if x.size else 0))
    z = draw(finsets(prefix + "z", 0, 2 if y.size else 0))
    ra = FinFunction(y, x, draw(tables(y, x)))
    rb = FinFunction(z, y, draw(tables(z, y)))
    rba = FinFunction(z, x, tuple(map(ra.table.__getitem__, rb.table)))
    return Presheaf(CHAIN, {"x": x, "y": y, "z": z},
                    {"a": ra, "b": rb, "ba": rba})


PAIRS = st.one_of(
    st.tuples(graphs(), graphs("w")),
    st.tuples(graphs(), graphs("w")).map(
        lambda gh: tuple(on_base(p, FLIPPED) for p in gh)),
    st.tuples(chains(), chains("w")),
    st.tuples(idempotent_sets(), idempotent_sets("w")))


def outcome(fn):
    try:
        return ("ok", fn())
    except EnumerationCap as exc:
        return ("cap", str(exc))


def check_search(amb, a, b, cap):
    got = outcome(lambda: amb.hom(a, b, cap, tables=True))
    want = outcome(lambda: [amb.tables(m) for m in amb.hom(a, b, cap)])
    assert got == want


@settings(max_examples=200, deadline=None)
@given(finsets("x"), finsets("y"), CAPS)
def test_finset_table_search_matches_the_maps(a, b, cap):
    check_search(AMB, a, b, cap)


@settings(max_examples=100, deadline=None)
@given(finset_arrows(), finset_arrows(), CAPS)
def test_square_table_search_matches_the_squares(a, b, cap):
    check_search(ArrowAmbient(AMB), a, b, cap)


@settings(max_examples=50, deadline=None)
@given(st.data(), CAPS)
def test_squares_of_squares_table_search_matches_the_squares(data, cap):
    # the arrow ambient over an arrow ambient enumerates its inner hom-sets
    # as tables too
    arr = ArrowAmbient(AMB)
    a, b, c, d = (data.draw(nonempty_arrows()) for _ in range(4))
    s, t = arr.hom(a, b), arr.hom(c, d)
    if not (s and t):
        return
    source = ArrowObj(arr, data.draw(st.sampled_from(s)))
    target = ArrowObj(arr, data.draw(st.sampled_from(t)))
    check_search(ArrowAmbient(arr), source, target, cap)


@settings(max_examples=150, deadline=None)
@given(PAIRS, CAPS)
def test_presheaf_table_search_matches_the_maps(pair, cap):
    g, h = pair
    amb = PresheafAmbient(g.base)
    check_search(amb, g, h, cap)
    check_search(amb, h, g, cap)
    check_search(amb, g, g, cap)


def test_a_presheaf_on_no_object_has_one_map_of_no_tables():
    empty = FinCategory((), (), {})
    p = Presheaf(empty, {}, {})
    assert enumerate_maps(p, p, tables=True) == [()]
    assert [m.tables for m in enumerate_maps(p, p)] == [()]


# -- a presheaf map's stored tables --------------------------------------------

def assert_tables_kept(m):
    assert m.tables == tuple(m.at(c).table for c in m.source.base.objects)


@settings(max_examples=80, deadline=None)
@given(PAIRS)
def test_stored_tables_are_the_components_tables(pair):
    g, h = pair
    amb = PresheafAmbient(g.base)
    objects = g.base.objects
    # enumerate_maps builds through _natural_map; identity, compose and
    # inverse through __init__
    maps = enumerate_maps(g, h)
    ident = presheaf_identity(g)
    for m in [*maps, ident, presheaf_inverse(ident),
              *(presheaf_compose(m, ident) for m in maps)]:
        assert_tables_kept(m)
        copy = PresheafMap(m.source, m.target, m.components)
        assert_tables_kept(copy)
        assert copy == m and hash(copy) == hash(m)
        natural = _natural_map(m.source, m.target, dict(m.components))
        assert_tables_kept(natural)
        assert natural == m
        assert_tables_kept(amb.from_tables(m.source, m.target, m.tables))
    for m in enumerate_maps(g, g):
        if m.is_iso:
            assert_tables_kept(presheaf_inverse(m))
    # colimit legs are built by colimit_leg, mediators by from_tables; the
    # idempotent strategy also draws endomaps that are no idempotent
    if validate_presheaf(g) or validate_presheaf(h):
        return
    col = presheaf_coproduct([g, h], base=g.base)
    for leg in col.legs:
        assert_tables_kept(leg)
    assert_tables_kept(col.mediate(list(col.legs)))
    if maps:
        po = presheaf_pushout(ident, maps[0])
        for leg in po.legs:
            assert_tables_kept(leg)
        med = po.mediate(po.left, po.right)
        assert_tables_kept(med)
        assert med.tables == tuple(tuple(range(po.obj.at(c).size))
                                   for c in objects)
