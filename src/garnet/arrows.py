"""Arrow categories over a pluggable ambient, and the ambient protocol.

An ambient is an object with the methods below; they are what the generic
constructions (density, free monad, AWFS, lifting, traces, the CLI) call:

- ``dom``, ``cod``, ``identity``, ``compose``, ``inverse``;
- ``is_mono``, ``is_iso``;
- ``hom(a, b, cap=None, tables=False)`` (all maps a -> b, in a fixed
  order; with ``tables``, each as its tables (below), in the same order and
  under the same cap, with no map built);
- ``pushout``, ``coproduct``, ``coequalizer`` and ``colimit(feet, pairs,
  tags)`` (the feet glued along pairs ``(i, x, j, y)`` given per level,
  as for ``finset.colimit``), each returning a ``finset.ColimitResult``:
  ``obj``, its ``legs`` (also read as a pushout's ``left`` and ``right``, a
  coproduct's ``injections``, a coequalizer's ``proj``) and
  ``mediate(*legs, cod=None)``: a list argument contributes its members,
  and ``cod`` is the codomain of an empty cocone; legs into different
  objects raise CodomainMismatch;
- ``sequential_colimit``, whose result's ``mediate(*legs)`` takes its legs
  the same way (see ``chain_colimit``).

Every ambient also has ``tables``, a per-level view of a map for code that
works on integer tables: the map's tables, one per level in a fixed level
order (the one set of a finite set, the base objects of a presheaf, and for
a square its top's levels, then its bottom's).  Between two fixed objects a
map is its tables: ``from_tables``, the door for tables from outside, builds
the checked map with them, and ``compose_tables`` composes them level by
level (``precompose_tables`` and ``postcompose_tables`` a column of maps at
once), so checks such as a square's commutation run on tables.  A colimit's
``levels`` are its finite-set colimits in this order; its legs, mediators
and induced arrows are read off their classes and built by ``colimit_leg``,
which checks only what the colimit's construction does not already make
true (such a presheaf map is natural, such a square commutes).

The two base ambients, which the factorizations and reports are over, also
have ``is_identity``, ``obj_size``, ``obj_to_json``, ``mor_to_json`` and
``mor_from_json``, and these:

- ``tables_to_json`` (the JSON of the map between two objects with the
  given tables, written without building the map);
- an optional ``memo`` on the JSON readers and writers: a dict kept for one
  document, in which a reader finds the value read for an occurrence of
  the same exact JSON (see ``finset.read_once``), and a writer the JSON
  written for an equal value or map (see ``finset.memoized``);
- for working up to relabeling: ``skeleton``, a map's sizes and tables as a
  key, and ``relabeled(col, foot, tags)``, col with its first foot relabeled;
- ``diagonals`` (for maps a and b, a function from the side tables
  ``(top, bottom)`` of a square a -> b to the tables of its diagonals, in
  hom order, as a sized iterable; the cap bounds what is generated).

The arrow ambient also has ``boundaries(a, b, cap)``: every square a -> b
as the tables ``(top tables, bottom tables)`` of its sides, read off the
inner hom-sets enumerated as tables; ``hom`` builds each square from them.

Three ambients are provided: finite sets, finite presheaves, and the arrow
category over any ambient (so the arrow category over an ambient is itself
an ambient, which is what the free-monad layer iterates on).  Each is a
frozen value; two are equal, and hash alike, when class and parameters are.
Chain colimits are written once, over the protocol, in ``chain_colimit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import finset, presheaf as psh
from .errors import BoundaryMismatch, DomainMismatch
from .fincat import FinCategory
from .finset import cached_hash, compose_tables, postcompose_tables, \
    precompose_tables


@dataclass(frozen=True)
class FinSetAmbient:
    def dom(self, m):
        return m.dom

    def cod(self, m):
        return m.cod

    def identity(self, x):
        return finset.identity(x)

    def compose(self, g, f):
        return finset.compose(g, f)

    def inverse(self, m):
        return m.inverse()

    def is_mono(self, m):
        return m.is_injective

    def is_iso(self, m):
        return m.is_bijective

    def is_identity(self, m):
        return m.is_identity

    def hom(self, a, b, cap=None, tables=False):
        return finset.enumerate_functions(a, b, cap=cap, tables=tables)

    def diagonals(self, a, b, cap=None):
        # generated fibre by fibre, each square's diagonals on their own
        return finset.diagonals(a, b, cap=cap)

    def pushout(self, f, g, tags=("i0", "i1")):
        return finset.pushout(f, g, tags=tags)

    def coproduct(self, parts, tags=None):
        return finset.coproduct(parts, tags=tags)

    def coequalizer(self, f, g):
        return finset.coequalizer(f, g)

    def sequential_colimit(self, maps):
        return finset.sequential_colimit(maps)

    def colimit(self, feet, pairs, tags=None):
        (level,) = pairs
        return finset.colimit(feet, level, tags)

    def tables(self, m):
        return (m.table,)

    def from_tables(self, a, b, tables):
        (table,) = tables
        return finset.FinFunction(a, b, table)

    colimit_leg = from_tables
    relabeled = staticmethod(finset.Colimit.relabeled)

    def obj_size(self, x):
        return x.size

    def skeleton(self, m):
        return (m.dom.size, m.cod.size, m.table)

    def obj_to_json(self, x, memo=None):
        return finset.finset_to_json(x, memo)

    def mor_to_json(self, m, memo=None):
        return self.tables_to_json(m.dom, m.cod, self.tables(m), memo)

    def tables_to_json(self, a, b, tables, memo=None):
        return finset.memoized(memo, (a, b, tables), lambda: {
            "dom": finset.finset_to_json(a, memo),
            "cod": finset.finset_to_json(b, memo), "table": list(tables[0])})

    def mor_from_json(self, data, memo=None):
        return finset.read_once(
            memo, "map", data, lambda: finset.function_from_json(data, memo))


@dataclass(frozen=True)
class PresheafAmbient:
    base: FinCategory

    def dom(self, m):
        return m.source

    def cod(self, m):
        return m.target

    def identity(self, x):
        return psh.presheaf_identity(x)

    def compose(self, g, f):
        return psh.presheaf_compose(g, f)

    def inverse(self, m):
        return psh.presheaf_inverse(m)

    def is_mono(self, m):
        return m.is_mono

    def is_iso(self, m):
        return m.is_iso

    def is_identity(self, m):
        return m.is_identity

    def hom(self, a, b, cap=None, tables=False):
        return psh.enumerate_maps(a, b, cap=cap, tables=tables)

    def diagonals(self, a, b, cap=None):
        # one index of the whole hom-set, by the tables of the two composites
        hom = self.hom(a.target, b.source, cap=cap, tables=True)
        index: dict = {}
        for d_t, sides in zip(hom, zip(precompose_tables(hom, a.tables),
                                       postcompose_tables(b.tables, hom))):
            index.setdefault(sides, []).append(d_t)
        return lambda top, bottom: index.get((top, bottom), ())

    def pushout(self, f, g, tags=("i0", "i1")):
        return psh.presheaf_pushout(f, g, tags=tags)

    def coproduct(self, parts, tags=None):
        return psh.presheaf_coproduct(parts, tags=tags, base=self.base)

    def coequalizer(self, f, g):
        return psh.presheaf_coequalizer(f, g)

    def sequential_colimit(self, maps):
        return psh.presheaf_sequential_colimit(maps)

    def colimit(self, feet, pairs, tags=None):
        return psh.presheaf_colimit(self.base, feet, pairs, tags)

    relabeled = staticmethod(psh.relabeled_colimit)

    def tables(self, m):
        return m.tables

    def from_tables(self, a, b, tables):
        return psh.PresheafMap(a, b, psh._components(a, b, tables))

    def colimit_leg(self, a, b, tables):
        return psh._natural_map(a, b, tables)

    def obj_size(self, x):
        return sum(x.at(c).size for c in self.base.objects)

    def skeleton(self, m):
        objects = self.base.objects
        return (tuple((m.source.at(c).size, m.target.at(c).size, t)
                      for c, t in zip(objects, m.tables)),
                tuple(zip(m.source.tables, m.target.tables)))

    def obj_to_json(self, x, memo=None):
        return psh.presheaf_to_json(x, memo)

    def mor_to_json(self, m, memo=None):
        return self.tables_to_json(m.source, m.target, self.tables(m), memo)

    def tables_to_json(self, a, b, tables, memo=None):
        return finset.memoized(memo, (a, b, tables), lambda: {
            "source": psh.presheaf_to_json(a, memo),
            "target": psh.presheaf_to_json(b, memo),
            "components": dict(zip(self.base.objects, map(list, tables)))})

    def mor_from_json(self, data, memo=None):
        return finset.read_once(
            memo, ("presheaf map", self.base), data,
            lambda: psh.presheaf_map_from_json(data, self.base, memo))


@dataclass(frozen=True)
class ArrowObj:
    """An object of the arrow category: a morphism of the inner ambient."""
    ambient: object
    mor: object

    __hash__ = cached_hash

    @property
    def dom(self):
        return self.ambient.dom(self.mor)

    @property
    def cod(self):
        return self.ambient.cod(self.mor)


@dataclass(frozen=True)
class Square:
    """A commuting square, i.e. a morphism source -> target of arrows.

    Once its sides are typed, both paths run from ``source.dom`` to
    ``target.cod``, so the square commutes exactly when their tables agree;
    they are composed with ``compose_tables``, not as maps."""
    source: ArrowObj
    target: ArrowObj
    top: object
    bottom: object

    __hash__ = cached_hash

    def __post_init__(self):
        amb = self.source.ambient
        if self.target.ambient != amb:
            raise BoundaryMismatch("squares must live in one ambient")
        if amb.dom(self.top) != self.source.dom \
                or amb.cod(self.top) != self.target.dom \
                or amb.dom(self.bottom) != self.source.cod \
                or amb.cod(self.bottom) != self.target.cod:
            raise BoundaryMismatch("square sides are mistyped")
        tables = amb.tables
        if compose_tables(tables(self.target.mor), tables(self.top)) \
                != compose_tables(tables(self.bottom), tables(self.source.mor)):
            raise BoundaryMismatch("square does not commute")


def square_from_tables(source: ArrowObj, target: ArrowObj, top: tuple,
                       bottom: tuple) -> Square:
    """The checked square source -> target whose sides have these tables."""
    amb = source.ambient
    return Square(source, target, amb.from_tables(source.dom, target.dom, top),
                  amb.from_tables(source.cod, target.cod, bottom))


def _lawful_square(source, target, top, bottom) -> Square:
    """The square with these sides, known to be typed and to commute."""
    out = object.__new__(Square)
    out.__dict__.update(source=source, target=target, top=top, bottom=bottom)
    return out


def identity_square(f: ArrowObj) -> Square:
    amb = f.ambient
    return _lawful_square(f, f, amb.identity(f.dom), amb.identity(f.cod))


def compose_squares(s2: Square, s1: Square) -> Square:
    """Composition in the arrow category: s2 after s1."""
    if s1.target != s2.source:
        raise BoundaryMismatch("squares do not share the middle arrow")
    amb = s1.source.ambient
    return _lawful_square(s1.source, s2.target, amb.compose(s2.top, s1.top),
                          amb.compose(s2.bottom, s1.bottom))


@dataclass(frozen=True)
class ChainColimitResult:
    """The colimit of a finite chain, identified with its first stable stage."""
    obj: object
    legs: tuple
    stable_from: int
    ambient: object = field(repr=False)

    def mediate(self, *legs):
        """The map out of ``obj`` through which a cocone factors, legs as
        for ``finset.ColimitResult.mediate``: the cocone's leg at the stable
        stage, checked against every other leg."""
        cocone = finset.cocone(legs)
        if len(cocone) != len(self.legs):
            raise DomainMismatch("a cocone needs one leg per chain object")
        h = cocone[self.stable_from]
        for i, leg in enumerate(self.legs):
            if cocone[i] != self.ambient.compose(h, leg):
                raise DomainMismatch(f"cocone leg {i} does not factor through "
                                     f"the stable stage")
        return h


def chain_colimit(amb, maps: Sequence) -> ChainColimitResult:
    """Colimit of a finite chain X0 -> X1 -> ... -> Xn in the ambient amb.

    The result is identified with the first stage after which every map is
    an isomorphism, so labels are stable under extending a converged chain.
    """
    if not maps:
        raise DomainMismatch("a chain colimit needs at least one map")
    objects = [amb.dom(maps[0])] + [amb.cod(m) for m in maps]
    for i in range(len(maps) - 1):
        if amb.cod(maps[i]) != amb.dom(maps[i + 1]):
            raise DomainMismatch(f"chain breaks between step {i} and {i + 1}")
    k = len(maps)
    while k > 0 and amb.is_iso(maps[k - 1]):
        k -= 1
    legs = []
    # forward composites into stage k, then inverses of the stable tail
    for i in range(len(objects)):
        leg = amb.identity(objects[min(i, k)])
        for m in maps[i:k] if i <= k else maps[k:i]:
            leg = amb.compose(m, leg)
        legs.append(leg if i <= k else amb.inverse(leg))
    return ChainColimitResult(objects[k], tuple(legs), k, amb)


@dataclass(frozen=True)
class ArrowAmbient:
    """The arrow category over an inner ambient, itself an ambient."""
    inner: object

    def dom(self, s: Square) -> ArrowObj:
        return s.source

    def cod(self, s: Square) -> ArrowObj:
        return s.target

    def identity(self, f: ArrowObj) -> Square:
        return identity_square(f)

    def compose(self, s2: Square, s1: Square) -> Square:
        return compose_squares(s2, s1)

    def inverse(self, s: Square) -> Square:
        # the inverse sides of a commuting iso square commute
        return _lawful_square(s.target, s.source, self.inner.inverse(s.top),
                              self.inner.inverse(s.bottom))

    def is_mono(self, s: Square) -> bool:
        return self.inner.is_mono(s.top) and self.inner.is_mono(s.bottom)

    def is_iso(self, s: Square) -> bool:
        return self.inner.is_iso(s.top) and self.inner.is_iso(s.bottom)

    def tables(self, s: Square) -> tuple:
        return self.inner.tables(s.top) + self.inner.tables(s.bottom)

    def boundaries(self, a: ArrowObj, b: ArrowObj, cap=None) -> list:
        """Every square a -> b, as the tables ``(top tables, bottom
        tables)`` of its sides, by top, then by bottom, each in the inner
        hom's order; no map is built.

        Each inner hom-set is enumerated once, as tables: the bottoms are
        indexed by the tables of ``bottom . a``, and each top picks out the
        bottoms filed under the tables of ``b . top``, which is the
        commutation check; each side is composed as one column.  ``cap``
        bounds each inner hom; without a top the bottoms are never
        enumerated, so only the tops' hom-set can exceed it."""
        inner = self.inner
        tops = inner.hom(a.dom, b.dom, cap=cap, tables=True)
        if not tops:
            return []
        bottoms = inner.hom(a.cod, b.cod, cap=cap, tables=True)
        by_side: dict = {}
        for bottom_t, side in zip(bottoms, precompose_tables(
                bottoms, inner.tables(a.mor))):
            by_side.setdefault(side, []).append(bottom_t)
        sides = postcompose_tables(inner.tables(b.mor), tops)
        return [(top_t, bottom_t) for top_t, side in zip(tops, sides)
                for bottom_t in by_side.get(side, ())]

    def hom(self, a: ArrowObj, b: ArrowObj, cap=None, tables=False) -> list:
        """All squares a -> b, in the order of ``boundaries``, each built
        checked from its sides' tables; with ``tables``, their tables."""
        sides = self.boundaries(a, b, cap=cap)
        if tables:
            return [top + bottom for top, bottom in sides]
        return [square_from_tables(a, b, top, bottom)
                for top, bottom in sides]

    def from_tables(self, a: ArrowObj, b: ArrowObj, tables) -> Square:
        half = len(tables) // 2
        return square_from_tables(a, b, tables[:half], tables[half:])

    def colimit_leg(self, a: ArrowObj, b: ArrowObj, tables) -> Square:
        leg, half = self.inner.colimit_leg, len(tables) // 2
        return _lawful_square(a, b, leg(a.dom, b.dom, tables[:half]),
                              leg(a.cod, b.cod, tables[half:]))

    def colimit(self, feet: Sequence[ArrowObj], pairs, tags=None):
        """The arrows feet glued along pairs given per level in ``tables``
        order: the domains' levels, then the codomains'."""
        inner, half = self.inner, len(pairs) // 2
        return self._colimit(
            feet, inner.colimit([f.dom for f in feet], pairs[:half], tags),
            inner.colimit([f.cod for f in feet], pairs[half:], tags))

    def _colimit(self, feet: Sequence[ArrowObj], dom_col, cod_col):
        """The colimit of the arrows feet, given the inner colimits of their
        domains and of their codomains: its levels are theirs, and its arrow
        is induced level by level from the feet's arrows."""
        inner = self.inner
        arrows = [inner.tables(foot.mor) for foot in feet]
        arrow = ArrowObj(inner, inner.colimit_leg(
            dom_col.obj, cod_col.obj,
            tuple(src.induce(dst, [t[k] for t in arrows]) for k, (src, dst)
                  in enumerate(zip(dom_col.levels, cod_col.levels)))))
        return finset.ColimitResult(self, arrow, feet,
                                    dom_col.levels + cod_col.levels)

    def pushout(self, s: Square, t: Square, tags=("i0", "i1")):
        if s.source != t.source:
            raise DomainMismatch("pushout needs a span with a shared apex")
        return self._colimit((s.target, t.target),
                             self.inner.pushout(s.top, t.top, tags=tags),
                             self.inner.pushout(s.bottom, t.bottom, tags=tags))

    def coproduct(self, parts: Sequence[ArrowObj], tags=None):
        return self._colimit(
            parts, self.inner.coproduct([p.dom for p in parts], tags=tags),
            self.inner.coproduct([p.cod for p in parts], tags=tags))

    def coequalizer(self, s: Square, t: Square):
        if s.source != t.source or s.target != t.target:
            raise DomainMismatch("coequalizer needs a parallel pair")
        return self._colimit((s.target,),
                             self.inner.coequalizer(s.top, t.top),
                             self.inner.coequalizer(s.bottom, t.bottom))

    def sequential_colimit(self, maps: Sequence[Square]):
        return chain_colimit(self, maps)


# -- endofunctors as values ----------------------------------------------------

@dataclass
class EndoData:
    """An endofunctor on an ambient, given by callables."""
    ambient: object
    on_obj: object
    on_mor: object


class PointedEndofunctor:
    """An endofunctor with a unit from the identity."""

    def __init__(self, ambient, on_obj, on_mor, unit):
        self.ambient = ambient
        self.on_obj = on_obj
        self.on_mor = on_mor
        self.unit = unit  # obj -> morphism obj -> on_obj(obj)


# -- memoization ---------------------------------------------------------------

class Session:
    """Per-run memo table; values are keyed by the hashable inputs."""

    def __init__(self):
        self._cache: dict = {}

    def memo(self, key, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]
