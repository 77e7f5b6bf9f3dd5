"""Maps and squares built from tables against the checked ones.

Composites, identities and inverses of presheaf maps, and the mediators of
presheaf and arrow colimits, are built from tables without a naturality
check (``_natural_map``); composites, identities and inverses of squares,
and the legs and mediators of arrow colimits, without a commutation check.
The oracle is the checked value built from the same components, as these
constructions built it before (``PresheafMap(...)``, ``Square(...)``,
``from_tables``): on the graph base (objects in either order), a chain with
its composite, one idempotent, and finite sets, both must be equal, hash
alike, and agree on their tables, components, ``is_mono``, ``is_iso`` and
``is_identity``, the last three read off the components.  The squares the
factorization builds the same way (each one-step unit, and the conjugation
between the free algebra's carrier and the right factor, both ways) must
equal the checked squares with their sides, over the walking cospan and
over graphs.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from garnet import awfs, finset
from garnet.arrows import ArrowAmbient, ArrowObj, FinSetAmbient, \
    PresheafAmbient, Square, compose_squares, identity_square
from garnet.awfs import GeneratedAWFS
from garnet.errors import EnumerationCap
from garnet.presheaf import PresheafMap, enumerate_maps, presheaf_compose, \
    presheaf_coproduct, presheaf_identity, presheaf_inverse, \
    presheaf_pushout
from test_density_memo import BOUNDARY, WC, finset_maps, graph_maps
from test_table_checks import finset_arrows, nonempty_arrows
from test_table_search import PAIRS

AMB = FinSetAmbient()
CAP = 4096


def assert_same_map(trusted: PresheafMap, checked: PresheafMap):
    comps = checked.components
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.tables == checked.tables
    assert trusted.components == comps
    assert trusted.is_mono == all(c.is_injective for c in comps.values())
    assert trusted.is_iso == all(c.is_bijective for c in comps.values())
    assert trusted.is_identity == all(c.is_identity for c in comps.values())


def maps(a, b):
    try:
        return enumerate_maps(a, b, cap=CAP)
    except EnumerationCap:
        return []


# -- presheaf maps ---------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(PAIRS, st.data())
def test_presheaf_composites_identities_and_inverses_match(pair, data):
    g, h = pair
    for p in (g, h):
        assert_same_map(presheaf_identity(p), PresheafMap(p, p, {
            x: finset.identity(p.at(x)) for x in p.base.objects}))
    ends = {(a, b): maps(a, b) for a in (g, h) for b in (g, h)}
    for (a, b), hom in ends.items():
        if not hom:
            continue
        f = data.draw(st.sampled_from(hom))
        for c in (g, h):
            if ends[(b, c)]:
                k = data.draw(st.sampled_from(ends[(b, c)]))
                assert_same_map(presheaf_compose(k, f), PresheafMap(a, c, {
                    x: finset.compose(k.at(x), f.at(x))
                    for x in a.base.objects}))
        for iso in [m for m in hom if m.is_iso][:4]:
            assert_same_map(presheaf_inverse(iso), PresheafMap(b, a, {
                x: iso.at(x).inverse() for x in a.base.objects}))


def check_mediators(col, target):
    """Each map u out of the colimit is the mediator of the cocone u . legs,
    and equals the checked map the mediator's tables give."""
    amb = col.ambient
    for u in maps(col.obj, target)[:6]:
        cocone = [presheaf_compose(u, leg) for leg in col.legs]
        med = col.mediate(cocone)
        assert_same_map(med, amb.from_tables(col.obj, target, med.tables))
        assert_same_map(med, u)


@settings(max_examples=80, deadline=None)
@given(PAIRS, st.data())
def test_presheaf_colimit_mediators_match(pair, data):
    g, h = pair
    check_mediators(presheaf_coproduct([g, h], base=g.base), h)
    spans = maps(g, h)
    if spans:
        f1 = data.draw(st.sampled_from(spans))
        f2 = data.draw(st.sampled_from(spans))
        check_mediators(presheaf_pushout(f1, f2), h)
        check_mediators(presheaf_pushout(f1, presheaf_identity(g)), g)


# -- squares ---------------------------------------------------------------------

def assert_same_square(trusted: Square, top, bottom):
    """trusted equals the checked square with sides top and bottom."""
    arr = ArrowAmbient(trusted.source.ambient)
    checked = Square(trusted.source, trusted.target, top, bottom)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert arr.tables(trusted) == arr.tables(checked)
    assert arr.is_mono(trusted) == arr.is_mono(checked)
    assert arr.is_iso(trusted) == arr.is_iso(checked)


def check_squares(data, a, b, c):
    """Identities, composites and inverses of squares among a, b and c."""
    arr = ArrowAmbient(a.ambient)
    inner = arr.inner
    for x in (a, b, c):
        assert_same_square(identity_square(x), inner.identity(x.dom),
                           inner.identity(x.cod))
    first, second = arr.hom(a, b), arr.hom(b, c)
    if first and second:
        s1 = data.draw(st.sampled_from(first))
        s2 = data.draw(st.sampled_from(second))
        assert_same_square(compose_squares(s2, s1),
                           inner.compose(s2.top, s1.top),
                           inner.compose(s2.bottom, s1.bottom))
    for s in [s for s in first if arr.is_iso(s)][:4]:
        assert_same_square(arr.inverse(s), inner.inverse(s.top),
                           inner.inverse(s.bottom))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_finset_squares_match(data):
    a, b, c = (data.draw(finset_arrows()) for _ in range(3))
    check_squares(data, a, b, c)
    check_squares(data, a, a, a)


def presheaf_arrows(data, pair):
    """Up to three arrows between the presheaves of pair."""
    g, h = pair
    found = [ArrowObj(PresheafAmbient(g.base), m)
             for a, b in ((g, h), (g, g), (h, h)) for m in maps(a, b)[:3]]
    return [data.draw(st.sampled_from(found)) for _ in range(3)]


@settings(max_examples=80, deadline=None)
@given(PAIRS, st.data())
def test_presheaf_squares_match(pair, data):
    a, b, c = presheaf_arrows(data, pair)
    check_squares(data, a, b, c)
    check_squares(data, a, a, a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_arrow_colimit_legs_and_mediators_match(data):
    arr = ArrowAmbient(AMB)
    a, b = data.draw(nonempty_arrows()), data.draw(nonempty_arrows())
    col = arr.coproduct([a, b])
    for leg, (top, bottom) in zip(col.legs, [
            (t[:1], t[1:]) for t in col.leg_tables]):
        assert_same_square(leg, AMB.from_tables(leg.source.dom, col.obj.dom,
                                                top),
                           AMB.from_tables(leg.source.cod, col.obj.cod,
                                           bottom))
    for u in arr.hom(col.obj, b, cap=CAP)[:6]:
        med = col.mediate([compose_squares(u, leg) for leg in col.legs])
        assert_same_square(med, u.top, u.bottom)
    first = arr.hom(a, b, cap=CAP)
    if first:
        s = data.draw(st.sampled_from(first))
        po = arr.pushout(s, identity_square(a))
        for u in arr.hom(po.obj, b, cap=CAP)[:6]:
            med = po.mediate(compose_squares(u, po.left),
                             compose_squares(u, po.right))
            assert_same_square(med, u.top, u.bottom)


# -- squares the factorization builds unchecked ----------------------------------

def check_factorization_squares(u, f):
    """Every square awfs builds with ``_lawful_square`` on the way to f's law
    suite, and the conjugation ``_factorize`` reads off one by inverting it,
    equal the checked squares with the same sides."""
    lawful, built = awfs._lawful_square, []

    def recording(*sides):
        built.append(lawful(*sides))
        return built[-1]
    with mock.patch.object(awfs, "_lawful_square", recording):
        aw = GeneratedAWFS(u)
        aw.law_suite(f)
    fact = aw.factorize(f)
    conj_inv = aw._conj_inv(fact.right, fact.free)
    assert aw.one_step(f).unit in built and conj_inv in built
    for s in [*built, aw.arr.inverse(conj_inv)]:
        assert_same_square(s, s.top, s.bottom)


@settings(max_examples=40, deadline=None)
@given(finset_maps())
def test_walking_cospan_factorization_squares_match(f):
    check_factorization_squares(WC, f)


@settings(max_examples=20, deadline=None)
@given(graph_maps())
def test_graph_factorization_squares_match(f):
    check_factorization_squares(BOUNDARY, f)
