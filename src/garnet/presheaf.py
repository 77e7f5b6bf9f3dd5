"""Finite-set-valued presheaves on a finite base category.

Everything is levelwise over the substrate in finset: colimits are computed
object by object and reassembled.  Their restrictions are induced through
the level colimits, which makes the legs natural, so the legs are not
checked again.  The constructors check the rest: a presheaf that is not
functorial and a map that is not natural are refused where they are built,
on the restriction and component tables, without building composite maps.
A map is its tables: composites, identities, inverses and colimit mediators
are natural by construction, so ``_natural_map`` builds them unchecked.
The subobject classifier is the full sieve classifier; on these finite,
fully decidable bases it coincides with the levelwise complemented one.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Sequence

from . import finset
from .errors import (
    EnumerationCap,
    MalformedInput,
    NaturalityViolation,
    ShapeMismatch,
    UnknownObject,
)
from .fincat import (FinCategory, category_from_json, category_to_json,
                     identity_name)
# compose is unused here; the benchmark's tests read this binding
from .finset import FinFunction, FinSet, cached_hash, compose, identity


class Presheaf:
    """Contravariant finite-set diagram: restrict(m: x->y) maps at(y) to at(x)."""

    def __init__(self, base: FinCategory, at, restrict):
        self.base = base
        self._at: dict[str, FinSet] = dict(at)
        for x in base.objects:
            if x not in self._at:
                raise ShapeMismatch(f"no value at object {x!r}")
        for x in self._at:
            if x not in base.objects:
                raise UnknownObject(f"value at unknown object {x!r}")
        self._restrict: dict[str, FinFunction] = {}
        given = dict(restrict)
        for m in base.morphisms:
            if base.is_identity(m.name):
                expected = identity(self._at[m.dom])
                if m.name in given and given[m.name] != expected:
                    raise ShapeMismatch(f"restriction along {m.name!r} must be "
                                        f"the identity")
                self._restrict[m.name] = expected
                continue
            if m.name not in given:
                raise ShapeMismatch(f"no restriction along {m.name!r}")
            r = given[m.name]
            if r.dom != self._at[m.cod] or r.cod != self._at[m.dom]:
                raise ShapeMismatch(f"restriction along {m.name!r} has wrong "
                                    f"shape")
            self._restrict[m.name] = r
        for name in given:
            if not base.has_morphism(name):
                raise UnknownObject(f"restriction along unknown {name!r}")
        self._key = (base, tuple((x, self._at[x]) for x in base.objects),
                     tuple(sorted(self._restrict.items())))
        problems = validate_presheaf(self)
        if problems:
            raise MalformedInput("; ".join(problems))

    def at(self, x: str) -> FinSet:
        if x not in self._at:
            raise UnknownObject(f"unknown object {x!r}")
        return self._at[x]

    def restrict(self, name: str) -> FinFunction:
        if name not in self._restrict:
            raise UnknownObject(f"unknown morphism {name!r}")
        return self._restrict[name]

    def __eq__(self, other):
        return isinstance(other, Presheaf) and self._key == other._key

    __hash__ = cached_hash

    def __repr__(self):
        sizes = ", ".join(f"{x}:{self._at[x].size}" for x in self.base.objects)
        return f"Presheaf({sizes})"


def validate_presheaf(p: Presheaf) -> list[str]:
    """Functoriality report, on restriction tables; empty means valid.  A
    pair with an identity holds, as identities restrict by identities."""
    report = []
    cat = p.base
    for g in cat.non_identity_morphisms():
        for f in cat.non_identity_morphisms():
            if f.cod != g.dom:
                continue
            r_gf = p.restrict(cat.compose(g.name, f.name))
            r_f, r_g = p.restrict(f.name), p.restrict(g.name)
            if r_gf.dom != r_g.dom or r_gf.cod != r_f.cod \
                    or r_gf.table != tuple(map(r_f.table.__getitem__,
                                               r_g.table)):
                report.append(f"restriction fails functoriality at "
                              f"({g.name!r}, {f.name!r})")
    return report


def _unnatural_along(source: Presheaf, target: Presheaf, components):
    """The first non-identity base morphism m along which the components,
    already typed level by level, fail naturality, or None: the tables of
    ``component(dom m) . source(m)`` and ``target(m) . component(cod m)``
    are compared, not the composite maps."""
    for m in source.base.non_identity_morphisms():
        if tuple(map(components[m.dom].table.__getitem__,
                     source.restrict(m.name).table)) \
                != tuple(map(target.restrict(m.name).table.__getitem__,
                             components[m.cod].table)):
            return m.name
    return None


class PresheafMap:
    def __init__(self, source: Presheaf, target: Presheaf, components):
        if source.base != target.base:
            raise ShapeMismatch("source and target live on different bases")
        self.source = source
        self.target = target
        self.components: dict[str, FinFunction] = dict(components)
        base = source.base
        for x in self.components:
            if x not in base.objects:
                raise UnknownObject(f"component at unknown object {x!r}")
        for x in base.objects:
            if x not in self.components:
                raise ShapeMismatch(f"no component at object {x!r}")
            c = self.components[x]
            if c.dom != source.at(x) or c.cod != target.at(x):
                raise ShapeMismatch(f"component at {x!r} has wrong shape")
        failing = _unnatural_along(source, target, self.components)
        if failing is not None:
            raise NaturalityViolation(f"naturality fails along {failing!r}")
        self.tables = tuple(self.components[x].table for x in base.objects)
        self._key = (source, target, self.tables)

    @cached_property
    def components(self) -> dict[str, FinFunction]:
        return _components(self.source, self.target, self.tables)

    def at(self, x: str) -> FinFunction:
        return self.components[x]

    @property
    def is_mono(self) -> bool:
        return all(len(set(t)) == len(t) for t in self.tables)

    @property
    def is_iso(self) -> bool:
        return self.is_mono and list(map(len, self.tables)) == [
            self.target.at(x).size for x in self.source.base.objects]

    @property
    def is_identity(self) -> bool:
        return all(t == tuple(range(len(t))) for t in self.tables) \
            and self.source == self.target

    def __eq__(self, other):
        return isinstance(other, PresheafMap) and self._key == other._key

    __hash__ = cached_hash

    def __repr__(self):
        return f"PresheafMap({self.source!r} -> {self.target!r})"


def _components(source: Presheaf, target: Presheaf, tables) -> dict:
    """The components with these tables, one per base object in order."""
    return {c: FinFunction(source.at(c), target.at(c), t)
            for c, t in zip(source.base.objects, tables)}


def _natural_map(source: Presheaf, target: Presheaf, tables) -> PresheafMap:
    """The map with these tables, which the caller knows to be natural,
    without checking them again; its components are built when read."""
    out = object.__new__(PresheafMap)
    out.source, out.target, out.tables = source, target, tables
    out._key = (source, target, tables)
    return out


def presheaf_identity(p: Presheaf) -> PresheafMap:
    return _natural_map(p, p, tuple(tuple(range(p.at(x).size))
                                    for x in p.base.objects))


def presheaf_compose(g: PresheafMap, f: PresheafMap) -> PresheafMap:
    if f.target != g.source:
        raise ShapeMismatch("presheaf maps do not compose")
    return _natural_map(f.source, g.target,
                        finset.compose_tables(g.tables, f.tables))


def presheaf_inverse(f: PresheafMap) -> PresheafMap:
    if not f.is_iso:
        raise MalformedInput("only levelwise bijections invert")
    # the inverse of a bijection's table lists its indices by their values
    return _natural_map(f.target, f.source, tuple(
        tuple(sorted(range(len(t)), key=t.__getitem__)) for t in f.tables))


def constant_presheaf(base: FinCategory, value: FinSet) -> Presheaf:
    return Presheaf(base, {x: value for x in base.objects},
                    {m.name: identity(value)
                     for m in base.non_identity_morphisms()})


def terminal_presheaf(base: FinCategory) -> Presheaf:
    return constant_presheaf(base, FinSet(("*",)))


def initial_presheaf(base: FinCategory) -> Presheaf:
    return constant_presheaf(base, finset.EMPTY)


def yoneda(base: FinCategory, c: str) -> Presheaf:
    """Representable presheaf x |-> Hom(x, c), restriction by precomposition."""
    if c not in base.objects:
        raise UnknownObject(f"unknown object {c!r}")
    at = {x: FinSet(tuple(base.hom(x, c))) for x in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        dom_set, cod_set = at[m.cod], at[m.dom]
        table = tuple(cod_set.index_of(base.compose(h, m.name))
                      for h in dom_set.labels)
        restrict[m.name] = FinFunction(dom_set, cod_set, table)
    return Presheaf(base, at, restrict)


def yoneda_map(base: FinCategory, m: str) -> PresheafMap:
    """The representable map y(dom m) -> y(cod m), postcomposition by m."""
    arrow = base.morphism(m)
    src, tgt = yoneda(base, arrow.dom), yoneda(base, arrow.cod)
    comps = {}
    for x in base.objects:
        table = tuple(tgt.at(x).index_of(base.compose(m, h))
                      for h in src.at(x).labels)
        comps[x] = FinFunction(src.at(x), tgt.at(x), table)
    return PresheafMap(src, tgt, comps)


def element_map(p: Presheaf, c: str, i: int) -> PresheafMap:
    """The map y(c) -> p picking out element i of p at c (Yoneda lemma)."""
    src = yoneda(p.base, c)
    comps = {}
    for x in p.base.objects:
        table = tuple(p.restrict(h)(i) for h in src.at(x).labels)
        comps[x] = FinFunction(src.at(x), p.at(x), table)
    return PresheafMap(src, p, comps)


# -- subobject classifier ----------------------------------------------------

def sieve_label(names: Sequence[str]) -> str:
    return "{" + ",".join(names) + "}"


def sieves_on(base: FinCategory, c: str) -> list[tuple[str, ...]]:
    """All sieves on c in deterministic order, as tuples of morphism names."""
    arrows = [m.name for m in base.morphisms if m.cod == c]
    out = []
    for mask in range(1 << len(arrows)):
        chosen = [a for i, a in enumerate(arrows) if mask >> i & 1]
        member = set(chosen)
        closed = True
        for h in chosen:
            for g in base.morphisms:
                if g.cod != base.morphism(h).dom:
                    continue
                if base.compose(h, g.name) not in member:
                    closed = False
                    break
            if not closed:
                break
        if closed:
            out.append(tuple(chosen))
    return out


def subobject_classifier(base: FinCategory) -> tuple[Presheaf, PresheafMap]:
    """Sieve classifier with its truth point from the terminal presheaf."""
    sieves = {c: sieves_on(base, c) for c in base.objects}
    index = {c: {frozenset(s): i for i, s in enumerate(sieves[c])}
             for c in base.objects}
    at = {c: FinSet(tuple(sieve_label(s) for s in sieves[c]))
          for c in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        table = []
        for s in sieves[m.cod]:
            member = set(s)
            pulled = frozenset(h.name for h in base.morphisms
                               if h.cod == m.dom
                               and base.compose(m.name, h.name) in member)
            table.append(index[m.dom][pulled])
        restrict[m.name] = FinFunction(at[m.cod], at[m.dom], tuple(table))
    omega = Presheaf(base, at, restrict)
    one = terminal_presheaf(base)
    maximal = {c: index[c][frozenset(m.name for m in base.morphisms
                                     if m.cod == c)]
               for c in base.objects}
    truth = PresheafMap(one, omega,
                        {c: FinFunction(one.at(c), omega.at(c), (maximal[c],))
                         for c in base.objects})
    return omega, truth


def pullback_classify(t: PresheafMap, a: PresheafMap) -> PresheafMap:
    """Base change of the truth point t along a: the mono classified by a."""
    if a.target != t.target:
        raise ShapeMismatch("classifying map must land in the classifier")
    base = a.source.base
    x = a.source
    truth_at = {c: t.at(c)(0) for c in base.objects}
    kept = {c: [i for i in range(x.at(c).size) if a.at(c)(i) == truth_at[c]]
            for c in base.objects}
    at = {c: FinSet(tuple(x.at(c).labels[i] for i in kept[c]))
          for c in base.objects}
    restrict = {}
    for m in base.non_identity_morphisms():
        r = x.restrict(m.name)
        pos = {i: p for p, i in enumerate(kept[m.dom])}
        restrict[m.name] = FinFunction(
            at[m.cod], at[m.dom], tuple(pos[r(i)] for i in kept[m.cod]))
    dom = Presheaf(base, at, restrict)
    return PresheafMap(dom, x,
                       {c: FinFunction(at[c], x.at(c), tuple(kept[c]))
                        for c in base.objects})


def classify_mono(t: PresheafMap, m: PresheafMap) -> PresheafMap:
    """Classifying map of a levelwise mono into the sieve classifier; backs
    its universal property (the truth point pulls back to the mono).  t
    must be ``subobject_classifier``'s truth point: another raises
    ShapeMismatch."""
    if not m.is_mono:
        raise ShapeMismatch("only levelwise monomorphisms are classifiable")
    base = m.source.base
    omega, truth = subobject_classifier(base)
    if t != truth:
        raise ShapeMismatch("truth point is not the sieve classifier's")
    index = {c: {frozenset(s): i for i, s in enumerate(sieves_on(base, c))}
             for c in base.objects}
    comps = {}
    for c in base.objects:
        image = {c2: set(m.at(c2).table) for c2 in base.objects}
        table = []
        for xi in range(m.target.at(c).size):
            sieve = frozenset(
                h.name for h in base.morphisms
                if h.cod == c and m.target.restrict(h.name)(xi) in image[h.dom])
            table.append(index[c][sieve])
        comps[c] = FinFunction(m.target.at(c), omega.at(c), tuple(table))
    return PresheafMap(m.target, omega, comps)


# -- category of elements ----------------------------------------------------

def element_object_name(c: str, label: str) -> str:
    return f"({c},{label})"


def element_category(p: Presheaf) -> tuple[FinCategory, dict]:
    """Category of elements; objects are (base object, element) pairs."""
    base = p.base
    objects = []
    labels = {}
    for c in base.objects:
        for lbl in p.at(c).labels:
            name = element_object_name(c, lbl)
            objects.append(name)
            labels[name] = (c, lbl)
    morphisms = []
    for m in base.non_identity_morphisms():
        r = p.restrict(m.name)
        for x2 in range(p.at(m.cod).size):
            x1 = r(x2)
            morphisms.append((
                f"{m.name}@{p.at(m.cod).labels[x2]}",
                element_object_name(m.dom, p.at(m.dom).labels[x1]),
                element_object_name(m.cod, p.at(m.cod).labels[x2])))
    compose_table = {}
    for m2 in base.non_identity_morphisms():
        for m1 in base.non_identity_morphisms():
            if m1.cod != m2.dom:
                continue
            mm = base.compose(m2.name, m1.name)
            r2 = p.restrict(m2.name)
            for x3 in range(p.at(m2.cod).size):
                lbl3 = p.at(m2.cod).labels[x3]
                x2 = r2(x3)
                lbl2 = p.at(m2.dom).labels[x2]
                if base.is_identity(mm):
                    value = identity_name(element_object_name(m2.cod, lbl3))
                else:
                    value = f"{mm}@{lbl3}"
                compose_table[(f"{m2.name}@{lbl3}", f"{m1.name}@{lbl2}")] = value
    return FinCategory(objects, morphisms, compose_table), labels


# -- natural transformation enumeration --------------------------------------

def _narrow(current, allowed, members):
    """The values in current that allowed has (all of allowed, in its order,
    when current is None); members is allowed as a set."""
    return allowed if current is None \
        else tuple(v for v in current if v in members)


def enumerate_maps(source: Presheaf, target: Presheaf, cap: int | None = None,
                   tables: bool = False) -> list:
    """All natural transformations, in levelwise lexicographic order; with
    ``tables``, each as its component tables in base object order, no map
    or function built.

    The levels (the base objects) are assigned one at a time, each a table
    in lexicographic order.  Naturality along a base morphism between two
    levels is checked as soon as both are assigned: an element's value at
    the later level is drawn only from the values that agree with the
    earlier one, and an endomorphism is checked on its level's table.  So
    every family reached is natural; the search runs on tables, and the
    maps, when asked for, are built from them without checking them again.
    cap bounds the product of the levels' hom-set sizes.
    """
    if source.base != target.base:
        raise ShapeMismatch("presheaves live on different bases")
    base = source.base
    cap = finset.DEFAULT_CAP if cap is None else cap
    total = 1
    for c in base.objects:
        total *= target.at(c).size ** source.at(c).size
        if total > cap:
            raise EnumerationCap(f"{total}+ candidate families exceed cap {cap}")
    objects = base.objects
    depth = {c: k for k, c in enumerate(objects)}
    # naturality along m: x -> y, with s and t the restriction tables of
    # source and target along m, is comp[x][s[e]] == t[comp[y][e]] for
    # every element e of source at y; it is filed under the later of the
    # two levels, as an edge from the earlier one
    later_cod = [[] for _ in objects]     # y later: (x, s, fibres, fibre sets)
    later_dom = [[] for _ in objects]     # x later: (y, s, t)
    endo = [[] for _ in objects]          # x == y: (s, t)
    for m in base.non_identity_morphisms():
        s, t = source.restrict(m.name).table, target.restrict(m.name).table
        x, y = depth[m.dom], depth[m.cod]
        if x < y:
            over = [[] for _ in target.at(m.dom).labels]
            for v, w in enumerate(t):
                over[w].append(v)
            later_cod[y].append((x, s, over, list(map(set, over))))
        elif y < x:
            later_dom[x].append((y, s, t))
        else:
            endo[x].append((s, t))
    comps: list = [None] * len(objects)

    def tables_at(k):
        choices = [None] * source.at(objects[k]).size
        for x, s, over, members in later_cod[k]:
            at_x = comps[x]
            for e, d in enumerate(s):
                w = at_x[d]
                choices[e] = _narrow(choices[e], over[w], members[w])
        for y, s, t in later_dom[k]:
            at_y = comps[y]
            for e, d in enumerate(s):
                value = (t[at_y[e]],)
                choices[d] = _narrow(choices[d], value, value)
        values = range(target.at(objects[k]).size)
        found = itertools.product(*(values if ch is None else ch
                                    for ch in choices))
        if endo[k]:
            found = (tab for tab in found
                     if all(tab[d] == t[tab[e]] for s, t in endo[k]
                            for e, d in enumerate(s)))
        return found

    out = [] if objects else [()]
    # one iterator of tables per assigned level, on an explicit stack
    stack = [tables_at(0)] if objects else []
    while stack:
        table = next(stack[-1], None)
        if table is None:
            stack.pop()
            continue
        k = len(stack) - 1
        comps[k] = table
        if k + 1 < len(objects):
            stack.append(tables_at(k + 1))
        else:
            out.append(tuple(comps))
    if tables:
        return out
    return [_natural_map(source, target, found) for found in out]


# -- colimits -------------------------------------------------------------------

def presheaf_colimit(base: FinCategory, feet: Sequence[Presheaf], pairs,
                     tags: Sequence[str] | None = None
                     ) -> finset.ColimitResult:
    """The coproduct of the feet divided, at each base object, by the
    equivalence closure of its pairs ``(i, x, j, y)``, given per object in
    ``base.objects`` order, as for ``finset.colimit``: a colimit whose
    levels are these colimits of the feet's sets.  Each restriction is
    induced through them from the feet's, which makes every leg natural,
    so the legs are not checked again.  The pairs must be closed under the
    restrictions: otherwise inducing them raises DomainMismatch."""
    from .arrows import PresheafAmbient
    feet = tuple(feet)
    level = {c: finset.colimit([p.at(c) for p in feet], glued, tags)
             for c, glued in zip(base.objects, pairs, strict=True)}
    restrict = {}
    for m in base.non_identity_morphisms():
        src, dst = level[m.cod], level[m.dom]
        restrict[m.name] = FinFunction(src.obj, dst.obj, src.induce(
            dst, [p.restrict(m.name).table for p in feet]))
    obj = Presheaf(base, {c: col.obj for c, col in level.items()}, restrict)
    return finset.ColimitResult(PresheafAmbient(base), obj, feet,
                                level.values())


def relabeled_colimit(col, foot: Presheaf, tags=None) -> finset.ColimitResult:
    """col with its first foot replaced by foot, of its sizes and tables:
    each level relabeled, and each restriction col's table between them."""
    base = foot.base
    levels = [level.relabeled(foot.at(c), tags)
              for c, level in zip(base.objects, col.levels)]
    at = {c: level.obj for c, level in zip(base.objects, levels)}
    obj = Presheaf(base, at, {m.name: FinFunction(
        at[m.cod], at[m.dom], col.obj.restrict(m.name).table)
        for m in base.non_identity_morphisms()})
    return finset.ColimitResult(col.ambient, obj, (foot, *col.feet[1:]),
                                levels)


def presheaf_pushout(f: PresheafMap, g: PresheafMap,
                     tags: tuple[str, str] = ("i0", "i1")
                     ) -> finset.ColimitResult:
    if f.source != g.source:
        raise ShapeMismatch("pushout needs a span with a shared apex")
    return presheaf_colimit(f.source.base, (f.target, g.target), [
        [(0, b, 1, y) for b, y in zip(ft, gt)]
        for ft, gt in zip(f.tables, g.tables)], tags)


def presheaf_coproduct(parts: Sequence[Presheaf],
                       tags: Sequence[str] | None = None,
                       base: FinCategory | None = None
                       ) -> finset.ColimitResult:
    if base is None:
        if not parts:
            raise ShapeMismatch("empty coproduct needs an explicit base")
        base = parts[0].base
    if tags is None:
        tags = [f"i{k}" for k in range(len(parts))]
    return presheaf_colimit(base, parts, [()] * len(base.objects), tags)


def presheaf_coequalizer(f: PresheafMap, g: PresheafMap
                         ) -> finset.ColimitResult:
    if f.source != g.source or f.target != g.target:
        raise ShapeMismatch("coequalizer needs a parallel pair")
    return presheaf_colimit(f.source.base, (f.target,), [
        [(0, a, 0, b) for a, b in zip(ft, gt)]
        for ft, gt in zip(f.tables, g.tables)])


def presheaf_sequential_colimit(maps: Sequence[PresheafMap]):
    from .arrows import PresheafAmbient, chain_colimit
    base = maps[0].source.base if maps else None
    return chain_colimit(PresheafAmbient(base), maps)


# -- serialization ------------------------------------------------------------

def presheaf_to_json(p: Presheaf, memo: dict | None = None) -> dict:
    return finset.memoized(memo, p, lambda: {
        "base": category_to_json(p.base),
        "at": {c: finset.finset_to_json(p.at(c)) for c in p.base.objects},
        "restrict": {m.name: list(p.restrict(m.name).table)
                     for m in p.base.non_identity_morphisms()},
    })


def presheaf_from_json(data, base: FinCategory | None = None,
                       memo: dict | None = None) -> Presheaf:
    if not isinstance(data, dict) or "at" not in data:
        raise MalformedInput("presheaf needs an 'at' table")
    raw = data.get("base")
    if base is None:
        if not isinstance(raw, dict):
            raise MalformedInput("presheaf base must be inline or preresolved")
        base = category_from_json(raw)
    elif "base" in data and raw != finset.memoized(
            memo, ("category json", base), lambda: category_to_json(base)) \
            and category_from_json(raw) != base:
        # an inline base is read only where it is not the one written
        raise MalformedInput("presheaf base differs from the given base")
    at = {c: finset.finset_from_json(v, memo)
          for c, v in finset.json_object(data["at"], "presheaf 'at'").items()}
    restrict = {}
    for name, table in finset.json_object(data.get("restrict", {}),
                                          "presheaf 'restrict'").items():
        if not base.has_morphism(name):
            raise UnknownObject(f"restriction along unknown {name!r}")
        m = base.morphism(name)
        if m.cod not in at or m.dom not in at:
            raise MalformedInput(f"restriction {name!r} lacks endpoints")
        restrict[name] = FinFunction(at[m.cod], at[m.dom], finset.json_table(
            table, at[m.cod], at[m.dom], f"restriction {name!r}"))
    return Presheaf(base, at, restrict)


def presheaf_map_from_json(data, base: FinCategory | None = None,
                           memo: dict | None = None) -> PresheafMap:
    data = finset.json_fields(data, "presheaf map", "source", "target",
                              "components")
    source, target = (finset.read_once(
        memo, ("presheaf", base), data[k],
        lambda k=k: presheaf_from_json(data[k], base=base, memo=memo))
        for k in ("source", "target"))
    components = {}
    for c, table in finset.json_object(data["components"],
                                       "presheaf map 'components'").items():
        if c not in source.base.objects:
            raise UnknownObject(f"component at unknown object {c!r}")
        ends = source.at(c), target.at(c)
        components[c] = FinFunction(*ends, finset.json_table(
            table, *ends, f"component at {c!r}"))
    return PresheafMap(source, target, components)
