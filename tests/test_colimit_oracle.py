"""Every colimit against the constructions it replaced.

The oracle below keeps the three finite-set result classes (coproduct,
quotient, pushout), each with its own ``mediate``, and the presheaf and
arrow colimit bodies that built each kind of colimit on its own.  The one
``finset.colimit`` and the two levelwise builders must agree with it on the
object, on every named leg, and on ``mediate``: its value, or the type of
the exception it raises.  Cocones are drawn both as true ones (a map out of
the colimit composed with its legs) and as random legs, which mostly are
none.
"""

import itertools
import json
import os
from dataclasses import dataclass
from typing import Sequence

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from garnet.arrows import ArrowAmbient, ArrowObj, FinSetAmbient, \
    PresheafAmbient, Square, compose_squares
from garnet.errors import CodomainMismatch, DomainMismatch, GarnetError, \
    ShapeMismatch
from garnet.fincat import category_from_json
from garnet.finset import FinFunction, FinSet, class_values, compose, \
    equivalence_classes
from garnet import finset
from garnet.presheaf import Presheaf, PresheafMap, enumerate_maps, \
    presheaf_coequalizer, presheaf_colimit, presheaf_compose, \
    presheaf_coproduct, presheaf_pushout, validate_presheaf

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
with open(os.path.join(FIX, "graph_base.json")) as _fh:
    GRAPH = category_from_json(json.load(_fh))

ORACLE = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.filter_too_much,
                                         HealthCheck.too_slow])


# -- oracle: the finite-set result classes -----------------------------------

@dataclass(frozen=True)
class CoproductResult:
    obj: FinSet
    injections: tuple[FinFunction, ...]

    def mediate(self, legs: Sequence[FinFunction],
                cod: FinSet | None = None) -> FinFunction:
        if len(legs) != len(self.injections):
            raise DomainMismatch("a cocone needs one leg per summand")
        if legs:
            if len({leg.cod for leg in legs}) != 1:
                raise CodomainMismatch("coproduct legs must share a codomain")
            cod = legs[0].cod
        elif cod is None:
            raise CodomainMismatch("empty coproduct mediator needs a codomain")
        table = []
        for inj, leg in zip(self.injections, legs):
            if inj.dom != leg.dom:
                raise DomainMismatch("leg domain differs from summand")
            table.extend(leg.table)
        return FinFunction(self.obj, cod, tuple(table))


def oracle_coproduct(parts, tags=None) -> CoproductResult:
    if tags is None:
        tags = [f"i{k}" for k in range(len(parts))]
    if len(tags) != len(parts):
        raise DomainMismatch("a coproduct needs one tag per summand")
    labels: list[str] = []
    injections = []
    offset = 0
    for part, tag in zip(parts, tags):
        labels.extend(f"{tag}.{lbl}" for lbl in part.labels)
    obj = FinSet(tuple(labels))
    for part in parts:
        injections.append(FinFunction(
            part, obj, tuple(range(offset, offset + part.size))))
        offset += part.size
    return CoproductResult(obj, tuple(injections))


@dataclass(frozen=True)
class QuotientResult:
    obj: FinSet
    proj: FinFunction
    reps: tuple[int, ...]

    def mediate(self, h: FinFunction) -> FinFunction:
        if h.dom != self.proj.dom:
            raise DomainMismatch("cocone leg must start at the quotiented "
                                 "set")
        return FinFunction(self.obj, h.cod,
                           class_values(self.proj.table, self.reps, h.table))


def oracle_quotient(x, pairs) -> QuotientResult:
    table, reps = equivalence_classes(x.size, pairs)
    obj = FinSet(tuple(x.labels[r] for r in reps))
    return QuotientResult(obj, FinFunction(x, obj, tuple(table)), tuple(reps))


def oracle_coequalizer(f, g) -> QuotientResult:
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("coequalizer needs a parallel pair")
    return oracle_quotient(f.cod, zip(f.table, g.table))


@dataclass(frozen=True)
class PushoutResult:
    obj: FinSet
    left: FinFunction
    right: FinFunction
    _classes: QuotientResult

    def mediate(self, q: FinFunction, r: FinFunction) -> FinFunction:
        if q.dom != self.left.dom or r.dom != self.right.dom:
            raise DomainMismatch("cocone legs must start at the span feet")
        if q.cod != r.cod:
            raise CodomainMismatch("cocone legs must share a codomain")
        quo = self._classes
        return FinFunction(self.obj, q.cod, class_values(
            quo.proj.table, quo.reps, q.table + r.table))


def oracle_pushout(f, g, tags=("i0", "i1")) -> PushoutResult:
    if f.dom != g.dom:
        raise DomainMismatch("pushout needs a span with a shared apex")
    cp = oracle_coproduct([f.cod, g.cod], tags=tags)
    in_b, in_c = cp.injections
    quo = oracle_quotient(cp.obj, ((in_b(f(a)), in_c(g(a)))
                                   for a in range(f.dom.size)))
    return PushoutResult(quo.obj, compose(quo.proj, in_b),
                         compose(quo.proj, in_c), quo)


# -- oracle: the presheaf colimit bodies --------------------------------------

class LevelwiseResult:
    def __init__(self, obj, level, **legs):
        self.obj = obj
        self._level = level
        self.__dict__.update(legs)

    @staticmethod
    def _part(x, c):
        return x.at(c)

    @staticmethod
    def _assemble(source, target, parts):
        return PresheafMap(source, target, parts)

    def mediate(self, *legs, cod=None):
        maps = [m for leg in legs
                for m in (leg if isinstance(leg, (list, tuple)) else (leg,))]
        target = maps[0].target if maps else cod
        if target is None:
            raise CodomainMismatch("empty coproduct mediator needs a codomain")
        parts = {}
        for c, res in self._level.items():
            args = [[self._part(m, c) for m in leg]
                    if isinstance(leg, (list, tuple)) else self._part(leg, c)
                    for leg in legs]
            extra = {} if cod is None else {"cod": self._part(cod, c)}
            parts[c] = res.mediate(*args, **extra)
        return self._assemble(self.obj, target, parts)


def oracle_presheaf_pushout(f, g, tags=("i0", "i1")) -> LevelwiseResult:
    if f.source != g.source:
        raise ShapeMismatch("pushout needs a span with a shared apex")
    base = f.source.base
    level = {c: oracle_pushout(f.at(c), g.at(c), tags=tags)
             for c in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        src, dst = level[m.cod], level[m.dom]
        restrict[m.name] = src.mediate(
            compose(dst.left, f.target.restrict(m.name)),
            compose(dst.right, g.target.restrict(m.name)))
    obj = Presheaf(base, {c: level[c].obj for c in base.objects}, restrict)
    assert validate_presheaf(obj) == []
    left = PresheafMap(f.target, obj, {c: level[c].left for c in base.objects})
    right = PresheafMap(g.target, obj,
                        {c: level[c].right for c in base.objects})
    return LevelwiseResult(obj, level, left=left, right=right)


def oracle_presheaf_coproduct(parts, tags=None,
                              base=None) -> LevelwiseResult:
    if base is None:
        if not parts:
            raise ShapeMismatch("empty coproduct needs an explicit base")
        base = parts[0].base
    if tags is None:
        tags = [f"i{k}" for k in range(len(parts))]
    level = {c: oracle_coproduct([p.at(c) for p in parts], tags=tags)
             for c in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        src, dst = level[m.cod], level[m.dom]
        restrict[m.name] = src.mediate(
            [compose(dst.injections[k], parts[k].restrict(m.name))
             for k in range(len(parts))],
            cod=dst.obj)
    obj = Presheaf(base, {c: level[c].obj for c in base.objects}, restrict)
    assert validate_presheaf(obj) == []
    injections = tuple(
        PresheafMap(parts[k], obj,
                    {c: level[c].injections[k] for c in base.objects})
        for k in range(len(parts)))
    return LevelwiseResult(obj, level, injections=injections)


def oracle_presheaf_quotient(x, pairs) -> LevelwiseResult:
    base = x.base
    level = {c: oracle_quotient(x.at(c), pairs[c]) for c in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        src, dst = level[m.cod], level[m.dom]
        restrict[m.name] = src.mediate(
            compose(dst.proj, x.restrict(m.name)))
    obj = Presheaf(base, {c: level[c].obj for c in base.objects}, restrict)
    assert validate_presheaf(obj) == []
    proj = PresheafMap(x, obj, {c: level[c].proj for c in base.objects})
    return LevelwiseResult(obj, level, proj=proj)


def oracle_presheaf_coequalizer(f, g) -> LevelwiseResult:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("coequalizer needs a parallel pair")
    return oracle_presheaf_quotient(f.target, {
        c: zip(f.at(c).table, g.at(c).table) for c in f.source.base.objects})


# -- oracle: the arrow colimit bodies -----------------------------------------

class FinSetOracle:
    """The oracle's colimits of finite sets."""
    pushout = staticmethod(oracle_pushout)
    coproduct = staticmethod(oracle_coproduct)
    coequalizer = staticmethod(oracle_coequalizer)

    @staticmethod
    def quotient(x, levels):
        (pairs,) = levels
        return oracle_quotient(x, pairs)


class PresheafOracle:
    """The oracle's colimits of presheaves on one base."""

    def __init__(self, base):
        self.base = base

    pushout = staticmethod(oracle_presheaf_pushout)
    coequalizer = staticmethod(oracle_presheaf_coequalizer)

    def coproduct(self, parts, tags=None):
        return oracle_presheaf_coproduct(parts, tags=tags, base=self.base)

    def quotient(self, x, levels):
        return oracle_presheaf_quotient(x, dict(zip(self.base.objects,
                                                    levels)))


class ArrLevelwise(LevelwiseResult):
    @staticmethod
    def _part(x, level):
        if isinstance(x, ArrowObj):
            return getattr(x, level)
        return x.top if level == "dom" else x.bottom

    @staticmethod
    def _assemble(source, target, parts):
        return Square(source, target, parts["dom"], parts["cod"])


def oracle_arrow_pushout(inner, cols, s, t, tags=("i0", "i1")):
    if s.source != t.source:
        raise DomainMismatch("pushout needs a span with a shared apex")
    dom_po = cols.pushout(s.top, t.top, tags=tags)
    cod_po = cols.pushout(s.bottom, t.bottom, tags=tags)
    b, c = s.target, t.target
    arrow = ArrowObj(inner, dom_po.mediate(
        inner.compose(cod_po.left, b.mor),
        inner.compose(cod_po.right, c.mor)))
    left = Square(b, arrow, dom_po.left, cod_po.left)
    right = Square(c, arrow, dom_po.right, cod_po.right)
    return ArrLevelwise(arrow, {"dom": dom_po, "cod": cod_po},
                        left=left, right=right)


def oracle_arrow_coproduct(inner, cols, parts, tags=None):
    dom_cp = cols.coproduct([p.dom for p in parts], tags=tags)
    cod_cp = cols.coproduct([p.cod for p in parts], tags=tags)
    arrow = ArrowObj(inner, dom_cp.mediate(
        [inner.compose(cod_cp.injections[k], parts[k].mor)
         for k in range(len(parts))],
        cod=cod_cp.obj))
    injections = tuple(
        Square(parts[k], arrow, dom_cp.injections[k], cod_cp.injections[k])
        for k in range(len(parts)))
    return ArrLevelwise(arrow, {"dom": dom_cp, "cod": cod_cp},
                        injections=injections)


def oracle_arrow_quotient(inner, cols, x, dom_pairs, cod_pairs):
    """The arrow x divided by pairs of elements of its domain and of its
    codomain, each given per level."""
    dom_q = cols.quotient(x.dom, dom_pairs)
    cod_q = cols.quotient(x.cod, cod_pairs)
    arrow = ArrowObj(inner, dom_q.mediate(inner.compose(cod_q.proj, x.mor)))
    proj = Square(x, arrow, dom_q.proj, cod_q.proj)
    return ArrLevelwise(arrow, {"dom": dom_q, "cod": cod_q}, proj=proj)


def oracle_arrow_coequalizer(inner, cols, s, t):
    if s.source != t.source or s.target != t.target:
        raise DomainMismatch("coequalizer needs a parallel pair")
    dom_ce = cols.coequalizer(s.top, t.top)
    cod_ce = cols.coequalizer(s.bottom, t.bottom)
    arrow = ArrowObj(inner, dom_ce.mediate(
        inner.compose(cod_ce.proj, s.target.mor)))
    proj = Square(s.target, arrow, dom_ce.proj, cod_ce.proj)
    return ArrLevelwise(arrow, {"dom": dom_ce, "cod": cod_ce}, proj=proj)


# -- comparison ---------------------------------------------------------------

def outcome(call):
    """What call() gives: its value, or the type of the error it raises."""
    try:
        return call()
    except GarnetError as exc:
        return type(exc)


def agree(new, old, names, mediate):
    """new and old have the same object and named legs, and mediate(result)
    gives the same value or raises the same type of error on both."""
    assert new.obj == old.obj
    for name in names:
        assert getattr(new, name) == getattr(old, name), name
    assert outcome(lambda: mediate(new)) == outcome(lambda: mediate(old))


# -- finite sets --------------------------------------------------------------

# the codomains of drawn legs: two of them, so that legs may disagree
TARGETS = (FinSet.fresh(2, "w"), FinSet.fresh(3, "v"))


def tables(draw, n, m):
    return tuple(draw(st.integers(0, m - 1)) for _ in range(n))


@st.composite
def finsets(draw, prefix, low=0):
    return FinSet.fresh(draw(st.integers(low, 3)), prefix)


@st.composite
def fin_legs(draw, feet, legs):
    """Legs out of the feet: a true cocone through the colimit's legs, or
    random maps into either target, now and then out of a wrong domain."""
    if legs and draw(st.booleans()):
        w = draw(st.sampled_from(TARGETS))
        u = FinFunction(legs[0].cod, w, tables(draw, legs[0].cod.size, w.size))
        return [compose(u, leg) for leg in legs]
    out = []
    for foot in feet:
        w = draw(st.sampled_from(TARGETS))
        dom = foot if draw(st.integers(0, 7)) \
            else FinSet.fresh(foot.size + 1, "z")
        out.append(FinFunction(dom, w, tables(draw, dom.size, w.size)))
    return out


@st.composite
def fin_maps(draw, dom, cod_prefix):
    cod = draw(finsets(cod_prefix, low=1 if dom.size else 0))
    return FinFunction(dom, cod, tables(draw, dom.size, cod.size))


@given(st.data())
@ORACLE
def test_finset_coproduct_matches_oracle(data):
    parts = data.draw(st.lists(finsets("x"), max_size=3))
    tags = data.draw(st.sampled_from(
        [None, [f"t{k}" for k in range(len(parts))]]))
    new, old = finset.coproduct(parts, tags), oracle_coproduct(parts, tags)
    legs = data.draw(fin_legs(parts, old.injections))
    cod = data.draw(st.sampled_from((None,) + TARGETS))

    def mediate(res):
        return res.mediate(legs, cod=cod)
    # domains are checked before codomains now, as the pushout always did:
    # a cocone with both a wrong domain and two codomains raises the
    # domain's error, where the oracle's coproduct raised the codomain's
    if outcome(lambda: mediate(old)) is CodomainMismatch \
            and any(leg.dom != part for leg, part in zip(legs, parts)):
        assert outcome(lambda: mediate(new)) is DomainMismatch
        return
    agree(new, old, ("injections",), mediate)


def test_empty_finset_coproduct_mediates_into_the_given_codomain():
    new, old = finset.coproduct([]), oracle_coproduct([])
    w = TARGETS[0]
    for cod in (None, w):
        agree(new, old, ("injections",), lambda res: res.mediate([], cod=cod))
    assert new.mediate([], cod=w) == FinFunction(finset.EMPTY, w, ())


@given(st.data())
@ORACLE
def test_finset_quotient_matches_oracle(data):
    x = data.draw(finsets("x"))
    index = st.integers(0, max(x.size - 1, 0))
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=5)) \
        if x.size else []
    new, old = finset.quotient(x, pairs), oracle_quotient(x, pairs)
    (h,) = data.draw(fin_legs((x,), (old.proj,)))
    agree(new, old, ("proj", "reps"), lambda res: res.mediate(h))


@given(st.data())
@ORACLE
def test_finset_coequalizer_matches_oracle(data):
    f = data.draw(fin_maps(data.draw(finsets("a")), "b"))
    g = FinFunction(f.dom, f.cod, tables(data.draw, f.dom.size, f.cod.size))
    new, old = finset.coequalizer(f, g), oracle_coequalizer(f, g)
    (h,) = data.draw(fin_legs((f.cod,), (old.proj,)))
    agree(new, old, ("proj", "reps"), lambda res: res.mediate(h))


@given(st.data())
@ORACLE
def test_finset_pushout_matches_oracle(data):
    a = data.draw(finsets("a"))
    f, g = data.draw(fin_maps(a, "b")), data.draw(fin_maps(a, "c"))
    tags = data.draw(st.sampled_from([("i0", "i1"), ("mid", "cell")]))
    new, old = finset.pushout(f, g, tags), oracle_pushout(f, g, tags)
    q, r = data.draw(fin_legs((f.cod, g.cod), (old.left, old.right)))
    agree(new, old, ("left", "right"), lambda res: res.mediate(q, r))


@st.composite
def foot_pairs(draw, feet, max_size=5):
    """Pairs (i, x, j, y) of elements of the feet, mostly of two feet."""
    elements = [(i, x) for i, foot in enumerate(feet)
                for x in range(foot.size)]
    if not elements:
        return []
    element = st.sampled_from(elements)
    return [a + b for a, b in draw(st.lists(st.tuples(element, element),
                                            max_size=max_size))]


@given(st.data())
@ORACLE
def test_finset_colimit_glues_across_feet_like_the_oracle(data):
    feet = data.draw(st.lists(finsets("x"), max_size=3))
    tags = [f"t{k}" for k in range(len(feet))]
    pairs = data.draw(foot_pairs(feet))
    new = finset.colimit(feet, pairs, tags)
    cp = oracle_coproduct(feet, tags)
    quo = oracle_quotient(cp.obj, [(cp.injections[i](x), cp.injections[j](y))
                                   for i, x, j, y in pairs])
    assert new.obj == quo.obj and new.reps == quo.reps
    assert new.legs == tuple(compose(quo.proj, inj) for inj in cp.injections)
    legs = data.draw(fin_legs(feet, new.legs))
    # as for the coproduct, domains are checked before codomains
    if any(leg.dom != foot for leg, foot in zip(legs, feet)):
        assert outcome(lambda: new.mediate(legs)) is DomainMismatch
        return
    assert outcome(lambda: new.mediate(legs)) \
        == outcome(lambda: quo.mediate(cp.mediate(legs)))


def test_finset_colimit_refuses_a_pair_outside_its_foot():
    # element 2 of a two-element foot once ran on into the next foot
    # (gluing x0 to y0), and element -1 counted back from the foot's end
    # (gluing y0 to x1)
    feet = [FinSet.fresh(2, "x"), FinSet.fresh(2, "y")]
    for pair in [(0, 2, 0, 0), (1, -1, 1, 0), (2, 0, 0, 0), (0, 0, -1, 0)]:
        assert outcome(lambda: finset.colimit(feet, [pair], ["a", "b"])) \
            is DomainMismatch
    assert finset.colimit(feet, [(0, 0, 1, 0)], ["a", "b"]).obj.labels \
        == ("a.x0", "a.x1", "b.y1")


def oracle_colimit(feet, pairs=(), tags=None):
    """The finite-set colimit as it was built before it skipped the
    union-find without pairs and checked the pairs' indices inline."""
    feet = tuple(feet)
    if tags is not None and len(tags) != len(feet):
        raise DomainMismatch("a colimit needs one tag per foot")
    starts = tuple(itertools.accumulate((len(x.labels) for x in feet),
                                        initial=0))

    def place(i, x):
        if not (0 <= i < len(feet) and 0 <= x < starts[i + 1] - starts[i]):
            raise DomainMismatch(f"a colimit pair names element {x!r} of "
                                 f"foot {i!r}, which has no such element")
        return starts[i] + x
    classes, reps = equivalence_classes(
        starts[-1], ((place(i, x), place(j, y)) for i, x, j, y in pairs))
    labels, k = [], 0
    for r in reps:
        while r >= starts[k + 1]:
            k += 1
        label = feet[k].labels[r - starts[k]]
        labels.append(label if tags is None else f"{tags[k]}.{label}")
    return FinSet(tuple(labels)), tuple(classes), tuple(reps), starts


def built(call):
    """What call() gives: its value, or the type and message of its error."""
    try:
        return call()
    except GarnetError as exc:
        return type(exc), str(exc)


@given(st.data())
@ORACLE
def test_finset_colimit_matches_the_union_find_oracle(data):
    feet = [data.draw(finsets(prefix))
            for prefix in "abcd"[:data.draw(st.integers(0, 4))]]
    tags = data.draw(st.sampled_from(
        [None, [f"t{k}" for k in range(len(feet))]]))
    pairs = data.draw(st.sampled_from([[], data.draw(foot_pairs(feet))]))
    new = finset.colimit(feet, pairs, tags)
    assert (new.obj, new.classes, new.reps, new.starts) \
        == oracle_colimit(feet, pairs, tags)
    assert new.sizes == [foot.size for foot in feet]


@given(st.data())
@ORACLE
def test_finset_colimit_refuses_stray_pairs_like_the_oracle(data):
    feet = [data.draw(finsets(prefix))
            for prefix in "abc"[:data.draw(st.integers(1, 3))]]
    element = st.tuples(st.integers(-1, len(feet)), st.integers(-1, 3))
    pairs = [a + b for a, b in data.draw(
        st.lists(st.tuples(element, element), min_size=1, max_size=4))]

    def new():
        res = finset.colimit(feet, pairs)
        return res.obj, res.classes, res.reps, res.starts
    assert built(new) == built(lambda: oracle_colimit(feet, pairs))


def test_a_stray_pair_keeps_its_message():
    feet = [FinSet.fresh(2, "x"), FinSet.fresh(1, "y")]
    for pair, (x, i) in [((0, 0, 1, 1), (1, 1)), ((0, 2, 1, 0), (2, 0)),
                         ((3, 0, 0, 0), (0, 3)), ((0, 0, -1, 0), (0, -1)),
                         ((1, -1, 0, 0), (-1, 1))]:
        assert built(lambda: finset.colimit(feet, [(0, 0, 1, 0), pair])) \
            == (DomainMismatch, f"a colimit pair names element {x} of foot "
                                f"{i}, which has no such element")


def test_mediate_tables_checks_each_foot_not_the_total():
    # feet of sizes 1 and 2, legs of lengths 2 and 1: three entries in all
    feet = [FinSet.fresh(1, "x"), FinSet.fresh(2, "y")]
    col = finset.colimit(feet)
    assert col.mediate_tables([((0,),), ((0, 1),)]) == ((0, 0, 1),)
    for legs in ([((0, 1),), ((0,),)], [((0,),)], [((0,),), ((0, 1),), ()],
                 [((0,),), ((0, 1), ())]):
        assert outcome(lambda: col.mediate_tables(legs)) is DomainMismatch
    # an arrow colimit: the domains' level, then the codomains'
    amb = ArrowAmbient(FinSetAmbient())
    point = FinSet.fresh(1, "p")
    arrows = [ArrowObj(FinSetAmbient(), FinFunction(foot, point,
                                                    (0,) * foot.size))
              for foot in feet]
    col = amb.colimit(arrows, [[], []], tags=["a", "b"])
    assert col.mediate_tables([((0,), (0,)), ((1, 2), (1,))]) \
        == ((0, 1, 2), (0, 1))
    assert outcome(lambda: col.mediate_tables(
        [((0, 1), (0,)), ((2,), (1,))])) is DomainMismatch


# -- graph presheaves ---------------------------------------------------------

def graph(nv, src, tgt, prefix):
    v, e = FinSet.fresh(nv, prefix + "v"), FinSet.fresh(len(src), prefix + "e")
    return Presheaf(GRAPH, {"v": v, "e": e},
                    {"src": FinFunction(e, v, tuple(src)),
                     "tgt": FinFunction(e, v, tuple(tgt))})


# every graph maps to both: the point with a loop, and the two points with
# an edge between each ordered pair
LOOP = graph(1, [0], [0], "l")
BOTH = graph(2, [0, 0, 1, 1], [0, 1, 0, 1], "k")
GRAPH_TARGETS = (LOOP, BOTH)


@st.composite
def graphs(draw, prefix):
    nv = draw(st.integers(0, 2))
    ne = draw(st.integers(0, 2)) if nv else 0
    return graph(nv, tables(draw, ne, nv), tables(draw, ne, nv), prefix)


@st.composite
def graph_map(draw, source, target):
    homs = enumerate_maps(source, target)
    assume(homs)
    return draw(st.sampled_from(homs))


@st.composite
def graph_legs(draw, feet, legs):
    """Maps out of the feet: a true cocone through the legs, or maps drawn
    into either target graph."""
    if draw(st.booleans()):
        u = draw(graph_map(legs[0].target, draw(st.sampled_from(
            GRAPH_TARGETS))))
        return [presheaf_compose(u, leg) for leg in legs]
    return [draw(graph_map(foot, draw(st.sampled_from(GRAPH_TARGETS))))
            for foot in feet]


def natural_as_checked(legs):
    """Each leg equals the checked map with the same components."""
    for leg in legs:
        assert PresheafMap(leg.source, leg.target, leg.components) == leg


@given(st.data())
@ORACLE
def test_presheaf_pushout_matches_oracle(data):
    a, b, c = (data.draw(graphs(p)) for p in "abc")
    f, g = data.draw(graph_map(a, b)), data.draw(graph_map(a, c))
    new, old = presheaf_pushout(f, g), oracle_presheaf_pushout(f, g)
    q, r = data.draw(graph_legs((b, c), (old.left, old.right)))
    agree(new, old, ("left", "right"), lambda res: res.mediate(q, r))
    natural_as_checked(new.legs)


@given(st.data())
@ORACLE
def test_presheaf_coproduct_matches_oracle(data):
    parts = data.draw(st.lists(graphs("x"), max_size=3))
    new = presheaf_coproduct(parts, base=GRAPH)
    old = oracle_presheaf_coproduct(parts, base=GRAPH)
    cod = data.draw(st.sampled_from(GRAPH_TARGETS))
    legs = data.draw(graph_legs(parts, old.injections)) if parts else []
    agree(new, old, ("injections",), lambda res: res.mediate(legs, cod=cod))
    natural_as_checked(new.legs)


@given(st.data())
@ORACLE
def test_presheaf_coequalizer_matches_oracle(data):
    a, b = data.draw(graphs("a")), data.draw(graphs("b"))
    f, g = data.draw(graph_map(a, b)), data.draw(graph_map(a, b))
    new, old = presheaf_coequalizer(f, g), oracle_presheaf_coequalizer(f, g)
    (h,) = data.draw(graph_legs((b,), (old.proj,)))
    agree(new, old, ("proj",), lambda res: res.mediate(h))
    natural_as_checked(new.legs)


@given(st.data())
@ORACLE
def test_presheaf_colimit_glues_across_feet_like_the_oracle(data):
    feet = data.draw(st.lists(graphs("x"), max_size=3))
    # gluing vertices is always closed under the restrictions; gluing edges
    # is only where their ends are glued too, else both raise DomainMismatch
    pairs = {c: data.draw(foot_pairs([p.at(c) for p in feet],
                                     max_size=4 if c == "v" else 1))
             for c in GRAPH.objects}
    tags = [f"t{k}" for k in range(len(feet))]
    cp = oracle_presheaf_coproduct(feet, tags=tags, base=GRAPH)

    def glued(c):
        inj = [leg.at(c) for leg in cp.injections]
        return [(inj[i](x), inj[j](y)) for i, x, j, y in pairs[c]]
    new = outcome(lambda: presheaf_colimit(
        GRAPH, feet, [pairs[c] for c in GRAPH.objects], tags))
    quo = outcome(lambda: oracle_presheaf_quotient(
        cp.obj, {c: glued(c) for c in GRAPH.objects}))
    if not isinstance(quo, LevelwiseResult):
        assert new is quo
        return
    assert new.obj == quo.obj
    assert new.legs == tuple(presheaf_compose(quo.proj, inj)
                             for inj in cp.injections)
    natural_as_checked(new.legs)
    legs = data.draw(graph_legs(feet, new.legs)) if feet else []
    assert outcome(lambda: new.mediate(legs, cod=LOOP)) == outcome(
        lambda: quo.mediate(cp.mediate(legs, cod=LOOP)))


# -- arrow ambients -----------------------------------------------------------

AMBIENTS = {
    "finset": (FinSetAmbient(), FinSetOracle()),
    "presheaf": (PresheafAmbient(GRAPH), PresheafOracle(GRAPH)),
}


def levels(inner):
    """The levels of an inner ambient's objects, in ``tables`` order: a
    finite set's one, and a graph's vertices and edges."""
    return (None,) if isinstance(inner, FinSetAmbient) else GRAPH.objects


def at(x, level):
    """The set of an inner object at one of its levels."""
    return x if level is None else x.at(level)


@st.composite
def inner_objects(draw, inner, prefix):
    if isinstance(inner, FinSetAmbient):
        return draw(finsets(prefix, low=1))
    return draw(graphs(prefix))


@st.composite
def inner_map(draw, inner, source, target):
    homs = inner.hom(source, target)
    assume(homs)
    return draw(st.sampled_from(homs))


@st.composite
def arrows(draw, inner, prefix):
    a = draw(inner_objects(inner, prefix))
    b = draw(inner_objects(inner, prefix + "'"))
    return ArrowObj(inner, draw(inner_map(inner, a, b)))


def arrow_targets(inner):
    """Two arrows every arrow has squares into: an identity, and a map onto
    the terminal object."""
    if isinstance(inner, FinSetAmbient):
        big, point = FinSet.fresh(2, "w"), FinSet.fresh(1, "p")
    else:
        big, point = BOTH, LOOP
    return (ArrowObj(inner, inner.identity(big)),
            ArrowObj(inner, inner.hom(big, point)[0]))


@st.composite
def square(draw, arr, source, target):
    homs = arr.hom(source, target)
    assume(homs)
    return draw(st.sampled_from(homs))


@st.composite
def squares_out(draw, arr, feet, legs):
    """Squares out of the feet: a true cocone through the legs, or squares
    drawn into either target arrow."""
    targets = arrow_targets(arr.inner)
    if legs and draw(st.booleans()):
        u = draw(square(arr, legs[0].target, draw(st.sampled_from(targets))))
        return [compose_squares(u, leg) for leg in legs]
    return [draw(square(arr, foot, draw(st.sampled_from(targets))))
            for foot in feet]


@given(st.sampled_from(sorted(AMBIENTS)), st.data())
@ORACLE
def test_arrow_pushout_matches_oracle(kind, data):
    inner, cols = AMBIENTS[kind]
    arr = ArrowAmbient(inner)
    x, y, z = (data.draw(arrows(inner, p)) for p in "xyz")
    s, t = data.draw(square(arr, x, y)), data.draw(square(arr, x, z))
    new, old = arr.pushout(s, t), oracle_arrow_pushout(inner, cols, s, t)
    q, r = data.draw(squares_out(arr, (y, z), (old.left, old.right)))
    # one mediate checks the feet, then the one codomain, then the classes:
    # legs into two arrows that also disagree on a class of the domains
    # raise the codomain's error, where the oracle, level by level, raised
    # the domain level's
    if q.target != r.target \
            and outcome(lambda: old.mediate(q, r)) is DomainMismatch:
        agree(new, old, ("left", "right"), lambda res: None)
        assert outcome(lambda: new.mediate(q, r)) is CodomainMismatch
        return
    agree(new, old, ("left", "right"), lambda res: res.mediate(q, r))


@given(st.sampled_from(sorted(AMBIENTS)), st.data())
@ORACLE
def test_arrow_coproduct_matches_oracle(kind, data):
    inner, cols = AMBIENTS[kind]
    arr = ArrowAmbient(inner)
    parts = data.draw(st.lists(arrows(inner, "x"), max_size=2))
    new = arr.coproduct(parts)
    old = oracle_arrow_coproduct(inner, cols, parts)
    cod = data.draw(st.sampled_from(arrow_targets(inner)))
    legs = data.draw(squares_out(arr, parts, old.injections))
    agree(new, old, ("injections",), lambda res: res.mediate(legs, cod=cod))
    # the same feet glued by ``colimit`` along pairs given per level, as
    # the coproduct divided by them; pairs glue the arrows' images of the
    # domain's pairs, or else are not closed and both raise DomainMismatch
    tables = inner.tables

    def drawn(side):
        return [data.draw(foot_pairs([at(getattr(p, side), c) for p in parts],
                                     max_size=2)) for c in levels(inner)]
    dom_pairs, cod_pairs = drawn("dom"), drawn("cod")
    if data.draw(st.booleans()):
        for k, level in enumerate(dom_pairs):
            mor = [tables(p.mor)[k] for p in parts]
            cod_pairs[k] += [(i, mor[i][x], j, mor[j][y])
                             for i, x, j, y in level]
    glued = outcome(lambda: arr.colimit(
        parts, dom_pairs + cod_pairs, [f"i{k}" for k in range(len(parts))]))

    def placed(pairs, side):
        inj = [tables(getattr(leg, side)) for leg in old.injections]
        return [[(inj[i][k][x], inj[j][k][y]) for i, x, j, y in level]
                for k, level in enumerate(pairs)]
    quo = outcome(lambda: oracle_arrow_quotient(
        inner, cols, old.obj, placed(dom_pairs, "top"),
        placed(cod_pairs, "bottom")))
    if not isinstance(quo, ArrLevelwise):
        assert glued is quo
        return
    assert glued.obj == quo.obj
    assert glued.legs == tuple(compose_squares(quo.proj, inj)
                               for inj in old.injections)
    legs = data.draw(squares_out(arr, parts, glued.legs))
    assert outcome(lambda: glued.mediate(legs, cod=cod)) == outcome(
        lambda: quo.mediate(old.mediate(legs, cod=cod)))


@given(st.sampled_from(sorted(AMBIENTS)), st.data())
@ORACLE
def test_arrow_coequalizer_matches_oracle(kind, data):
    inner, cols = AMBIENTS[kind]
    arr = ArrowAmbient(inner)
    x, y = data.draw(arrows(inner, "x")), data.draw(arrows(inner, "y"))
    s, t = data.draw(square(arr, x, y)), data.draw(square(arr, x, y))
    new, old = arr.coequalizer(s, t), oracle_arrow_coequalizer(inner, cols,
                                                               s, t)
    (h,) = data.draw(squares_out(arr, (y,), (old.proj,)))
    agree(new, old, ("proj",), lambda res: res.mediate(h))
