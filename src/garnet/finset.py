"""Finite sets, functions, and deterministic colimits.

This is the computational substrate for every ambient category in the
package.  A function's checks (totality and range) run on its integer table
with ``len``, ``min`` and ``max``, and raise, so ``python -O`` keeps them.
Every colimit here is one ``colimit``: the coproduct of its feet divided
by pairs of elements, each named by foot and index, built by union-find
(when there are pairs) with minimal-index representatives and labelled
by provenance strings, so the same construction twice yields
byte-identical results.  A colimit in any ambient is a ``ColimitResult``
read off such colimits, one per level.
"""

from __future__ import annotations

import bisect
import itertools
import marshal
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    CodomainMismatch,
    DomainMismatch,
    EnumerationCap,
    MalformedInput,
)

DEFAULT_CAP = 1_000_000


def cached_hash(self) -> int:
    """``__hash__`` for immutable values: the identifying key (a ``_key``
    built at construction, else a frozen dataclass's fields) is hashed once
    and the result kept on the instance, so a value used in many dict keys
    (problems and fillers are looked up by their boundary) hashes once."""
    try:
        return self._hash
    except AttributeError:
        key = self.__dict__.get("_key")
        if key is None:
            key = tuple(getattr(self, name)
                        for name in self.__dataclass_fields__)
        h = hash(key)
        object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class FinSet:
    labels: tuple[str, ...]

    __hash__ = cached_hash

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise MalformedInput("labels must be distinct")

    @staticmethod
    def fresh(n: int, prefix: str = "x") -> "FinSet":
        return FinSet(tuple(f"{prefix}{i}" for i in range(n)))

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        return self.labels.index(label)


EMPTY = FinSet(())


@dataclass(frozen=True)
class FinFunction:
    dom: FinSet
    cod: FinSet
    table: tuple[int, ...]

    __hash__ = cached_hash

    def __post_init__(self):
        table = self.table
        if len(table) != len(self.dom.labels):
            raise DomainMismatch("table must be total")
        if table and (min(table) < 0 or max(table) >= len(self.cod.labels)):
            raise CodomainMismatch("table out of range")

    def __call__(self, i: int) -> int:
        return self.table[i]

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and all(v == i for i, v in enumerate(self.table))

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    @property
    def is_surjective(self) -> bool:
        return len(set(self.table)) == self.cod.size

    @property
    def is_bijective(self) -> bool:
        return self.is_injective and self.is_surjective

    def inverse(self) -> "FinFunction":
        if not self.is_bijective:
            raise MalformedInput("only bijections invert")
        # a bijection's inverse lists its indices by their values
        return FinFunction(self.cod, self.dom, tuple(
            sorted(range(self.dom.size), key=self.table.__getitem__)))


def identity(x: FinSet) -> FinFunction:
    return FinFunction(x, x, tuple(range(x.size)))


def compose(g: FinFunction, f: FinFunction) -> FinFunction:
    """g after f."""
    if f.cod != g.dom:
        raise DomainMismatch(f"cannot compose: middle objects differ "
                             f"({f.cod.labels} vs {g.dom.labels})")
    return FinFunction(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def compose_tables(g, f) -> tuple:
    """The tables of g . f, level by level, from those of g and of f."""
    return tuple([tuple(map(gt.__getitem__, ft)) for gt, ft in zip(g, f)])


def precompose_tables(column: Sequence, f) -> list:
    """The tables of g . f for every g in column, in order, from f's: per
    level, one ``itemgetter`` of f's entries maps over the column's tables."""
    levels = []
    for k, ft in enumerate(f):
        picked = map(itemgetter(*ft), map(itemgetter(k), column)) if ft \
            else itertools.repeat((), len(column))
        # of one position, itemgetter gives a value, which zip makes a tuple
        levels.append(zip(picked) if len(ft) == 1 else picked)
    return list(zip(*levels)) if levels else [()] * len(column)


def postcompose_tables(g, column: Sequence) -> list:
    """The tables of g . f for every f in column, in order, from g's: per
    level, g's table is read at the column's entries in one pass, then
    regrouped at the width of each run of tables of one size."""
    levels = []
    for k, gt in enumerate(g):
        level, get = [], gt.__getitem__
        for width, run in itertools.groupby(map(itemgetter(k), column), len):
            run_values = map(get, itertools.chain.from_iterable(run))
            level.extend(zip(*[run_values] * width) if width else run)
        levels.append(level)
    return list(zip(*levels)) if levels else [()] * len(column)


def enumerate_functions(a: FinSet, b: FinSet, cap: int | None = None,
                        tables: bool = False) -> list:
    """All functions a -> b in lexicographic table order; with ``tables``,
    each as its one-level table tuple ``(table,)``, no function built."""
    cap = DEFAULT_CAP if cap is None else cap
    total = b.size ** a.size
    if total > cap:
        raise EnumerationCap(f"{total} functions exceed cap {cap}")
    found = itertools.product(range(b.size), repeat=a.size)
    if tables:
        return list(zip(found))
    return [FinFunction(a, b, t) for t in found]


class Choices:
    """The tuples of a lexicographic product, one tuple of choices per
    position, each as a one-level table tuple ``(table,)``; its length is
    read off the choices, without enumerating them."""
    __slots__ = ("choices", "size")

    def __init__(self, choices: Sequence[Sequence[int]]):
        self.choices = choices
        self.size = math.prod(map(len, choices))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return zip(itertools.product(*self.choices))


def diagonals(a: FinFunction, b: FinFunction, cap: int | None = None):
    """The diagonals of the squares from a to b, by the squares' sides.

    The function returned takes the tables ``(top, bottom)`` of a square's
    sides and gives the tables of every d: a.cod -> b.dom with d . a = top
    and b . d = bottom, lazily and in the lexicographic order of
    ``enumerate_functions``: d is forced on the image of a and ranges over
    b's fibre over the bottom elsewhere, so only solutions are generated.
    cap bounds each square's diagonals, not the hom-set they live in, and
    so does ``sys.maxsize``, since ``len`` gives their number.
    """
    cap = min(DEFAULT_CAP if cap is None else cap, sys.maxsize)
    fibres: list = [[] for _ in b.cod.labels]
    for x, y in enumerate(b.table):
        fibres[y].append(x)

    def solve(top_t: tuple, bottom_t: tuple) -> Choices:
        (top,), (bottom,) = top_t, bottom_t
        choices = [fibres[y] for y in bottom]
        for x, t in zip(a.table, top):
            choices[x] = (t,) if t in choices[x] else ()
        out = Choices(choices)
        if out.size > cap:
            raise EnumerationCap(f"{out.size} diagonals exceed cap {cap}")
        return out
    return solve


def equivalence_classes(n: int, pairs: Iterable[tuple[int, int]]
                        ) -> tuple[list[int], list[int]]:
    """The class of each element and each class's minimal member, for the
    equivalence closure of pairs, classes ordered by minimal member.  The
    union-find runs inline: finds halve paths, and a union makes the smaller
    root the parent, so parents precede children and roots are minimal."""
    parent = list(range(n))
    for i, j in pairs:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            i, j = j, i
        parent[i] = j
    table, reps = [], []
    for i, p in enumerate(parent):
        table.append(table[p] if p < i else len(reps))
        if p == i:
            reps.append(i)
    return table, reps


def class_values(proj: Sequence[int], reps: Sequence[int],
                 values: Sequence[int]) -> tuple[int, ...]:
    """The value on each class of a table that is constant on the classes.

    ``proj`` gives the class of each element and ``reps`` one member of each
    class.  A table that differs on two members of one class is no cocone
    out of the quotient: it raises DomainMismatch.
    """
    if len(values) != len(proj):
        raise DomainMismatch("a table on classes needs a value per element")
    out = tuple(map(values.__getitem__, reps))
    if list(map(out.__getitem__, proj)) != list(values):
        raise DomainMismatch("cocone leg is not constant on a class")
    return out


def cocone(legs: Sequence) -> list:
    """The maps of a cocone given as ``mediate``'s arguments, in order: a
    list or tuple argument contributes its members, any other argument
    itself."""
    return [m for leg in legs
            for m in (leg if isinstance(leg, (list, tuple)) else (leg,))]


class ColimitResult:
    """A colimit in an ambient, read off its finite-set level colimits.

    ``levels`` holds one ``Colimit`` per level, in the order of the
    ambient's ``tables``: the colimit there of the feet's sets.  A map out
    of ``obj`` is one table per level, constant on that level's classes,
    so a foot's leg is its stretch of each level's classes, built when
    first read, and a cocone's mediator is read off its legs' tables by
    ``mediate_tables``.  The legs are also read as a pushout's ``left`` and
    ``right``, a coproduct's ``injections`` and a quotient's or
    coequalizer's ``proj``.
    """

    def __init__(self, ambient, obj, feet: Sequence, levels: Sequence):
        self.ambient = ambient
        self.obj = obj
        self.feet = tuple(feet)
        self.levels = tuple(levels)

    left = property(lambda self: self.legs[0])
    right = property(lambda self: self.legs[1])
    proj = left
    injections = property(lambda self: self.legs)

    @property
    def leg_tables(self) -> tuple:
        """Each foot's leg as its tables, one per level."""
        return tuple(zip(*[[level.classes[a:b] for a, b in itertools.pairwise(
            level.starts)] for level in self.levels]))

    @property
    def legs(self) -> tuple:
        legs = self.__dict__.get("_legs")
        if legs is None:
            leg = self.ambient.colimit_leg
            legs = self.__dict__["_legs"] = tuple(
                leg(foot, self.obj, tables)
                for foot, tables in zip(self.feet, self.leg_tables))
        return legs

    def mediate_tables(self, legs: Iterable[Sequence]) -> tuple:
        """The tables of the map out of ``obj`` through which a cocone
        factors, given one leg's tables per foot: per level, the legs'
        tables placed one after another and read once per class.  Legs
        whose tables do not fit their feet, or that disagree on a class,
        are no cocone: they raise DomainMismatch."""
        legs, levels = list(legs), self.levels
        columns = [] if {*map(len, legs)} - {len(levels)} \
            else [[leg[i] for leg in legs] for i in range(len(levels))]
        if len(columns) != len(levels) or any(
                [*map(len, column)] != level.sizes
                for column, level in zip(columns, levels)):
            raise DomainMismatch("a cocone needs one leg out of each foot")
        return tuple([class_values(level.classes, level.reps,
                                   [*itertools.chain(*column)])
                      for column, level in zip(columns, levels)])

    def mediate(self, *legs, cod=None):
        """The map out of ``obj``, built by ``colimit_leg``, through which a
        cocone factors: one leg out of each foot (see ``cocone``), all into
        one codomain, which ``cod`` gives when there is no leg.  Legs out of
        other objects, or that disagree on a class, raise DomainMismatch;
        legs into different objects raise CodomainMismatch."""
        amb = self.ambient
        maps = cocone(legs)
        if len(maps) != len(self.feet) \
                or any(amb.dom(m) != foot for m, foot in zip(maps, self.feet)):
            raise DomainMismatch("a cocone needs one leg out of each foot")
        if maps:
            cod = amb.cod(maps[0])
            if any(amb.cod(m) != cod for m in maps):
                raise CodomainMismatch("cocone legs must share a codomain")
        elif cod is None:
            raise CodomainMismatch("an empty cocone needs a codomain")
        return amb.colimit_leg(self.obj, cod,
                               self.mediate_tables(map(amb.tables, maps)))


@dataclass(frozen=True)
class Colimit(ColimitResult):
    """The feet placed one after another and divided into classes: a
    colimit of finite sets, and its own one level.

    ``classes`` gives the class of each element of the feet, foot k from
    ``starts[k]`` on, and ``reps[k]`` the minimal member of class k, whose
    label the class carries.
    """
    obj: FinSet
    feet: tuple[FinSet, ...]
    classes: tuple[int, ...]
    reps: tuple[int, ...]
    starts: tuple[int, ...]

    levels = property(lambda self: (self,))

    # the size of each foot, read off starts
    sizes = cached_property(lambda self: [
        b - a for a, b in itertools.pairwise(self.starts)])

    @property
    def ambient(self):
        from .arrows import FinSetAmbient
        return FinSetAmbient()

    def relabeled(self, foot: FinSet, tags=None) -> "Colimit":
        """This colimit with foot, a relabeled copy, as its first foot."""
        k = bisect.bisect_left(self.reps, self.starts[1])
        labels = class_labels((foot,), self.reps[:k], self.starts, tags)
        return replace(self, obj=FinSet(labels + self.obj.labels[k:]),
                       feet=(foot, *self.feet[1:]))

    def induce(self, into: "Colimit", tables: Sequence[Sequence[int]]
               ) -> tuple[int, ...]:
        """The table of the map from this colimit into ``into`` induced by
        one table per foot, each from the foot here to the same foot there:
        their values, sent to ``into``'s classes, read once per class here.
        Tables that disagree on a class induce no map: they raise
        DomainMismatch."""
        classes = into.classes
        return class_values(self.classes, self.reps, [
            classes[start + v]
            for start, table in zip(into.starts, tables) for v in table])


def colimit(feet: Sequence[FinSet], pairs: Iterable[tuple] = (),
            tags: Sequence[str] | None = None) -> Colimit:
    """The feet placed one after another and divided by the equivalence
    closure of pairs ``(i, x, j, y)``: element x of foot i ~ y of foot j.

    A class is labelled by its minimal member: ``tag.label`` with the tag
    of the member's foot, or the bare label without tags.  A pair naming no
    element of a foot raises DomainMismatch.
    """
    feet = tuple(feet)
    if tags is not None and len(tags) != len(feet):
        raise DomainMismatch("a colimit needs one tag per foot")
    sizes = dict(enumerate(len(x.labels) for x in feet))
    starts = tuple(itertools.accumulate(sizes.values(), initial=0))
    pairs = list(pairs)
    try:
        placed = [(starts[i] + x, starts[j] + y) for i, x, j, y in pairs
                  if 0 <= x < sizes[i] and 0 <= y < sizes[j]]
    except KeyError:
        placed = ()
    if len(placed) != len(pairs):
        i, x = next((i, x) for pair in pairs
                    for i, x in (pair[:2], pair[2:])
                    if not (i in sizes and 0 <= x < sizes[i]))
        raise DomainMismatch(f"a colimit pair names element {x!r} of "
                             f"foot {i!r}, which has no such element")
    classes, reps = equivalence_classes(starts[-1], placed) if placed \
        else (range(starts[-1]),) * 2
    return Colimit(FinSet(class_labels(feet, reps, starts, tags)), feet,
                   tuple(classes), tuple(reps), starts)


def class_labels(feet, reps, starts, tags) -> tuple:
    """The label of each class with these minimal members (see colimit)."""
    labels, k = [], 0
    for r in reps:
        while r >= starts[k + 1]:
            k += 1
        label = feet[k].labels[r - starts[k]]
        labels.append(label if tags is None else f"{tags[k]}.{label}")
    return tuple(labels)


def coproduct(parts: Sequence[FinSet],
              tags: Sequence[str] | None = None) -> Colimit:
    """Disjoint union with provenance-tagged labels tag.label."""
    if tags is None:
        tags = [f"i{k}" for k in range(len(parts))]
    return colimit(parts, tags=tags)


def quotient(x: FinSet, pairs: Iterable[tuple[int, int]]) -> Colimit:
    """x divided by the equivalence closure of pairs of element indices."""
    return colimit((x,), ((0, a, 0, b) for a, b in pairs))


def coequalizer(f: FinFunction, g: FinFunction) -> Colimit:
    """The quotient of the shared codomain by f(i) ~ g(i); a map out of it
    is a map constant on the classes, which is to say one that
    coequalizes f and g."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("coequalizer needs a parallel pair")
    return quotient(f.cod, zip(f.table, g.table))


def pushout(f: FinFunction, g: FinFunction,
            tags: tuple[str, str] = ("i0", "i1")) -> Colimit:
    """Pushout of the span f: A -> B, g: A -> C: B + C divided by
    f(a) ~ g(a).  The coproduct is the special case A empty."""
    if f.dom != g.dom:
        raise DomainMismatch("pushout needs a span with a shared apex")
    return colimit((f.cod, g.cod),
                   ((0, b, 1, c) for b, c in zip(f.table, g.table)), tags)


def sequential_colimit(maps: Sequence[FinFunction]):
    from .arrows import FinSetAmbient, chain_colimit
    return chain_colimit(FinSetAmbient(), maps)


# -- serialization ----------------------------------------------------------
#
# The readers and writers below take an optional memo, a dict kept for one
# document (a trace), in which each distinct value is built once.  A reader
# keys an occurrence of a map or object by its exact JSON (``read_once``):
# a repeat of one already accepted is its value, not checked again, since
# every check passed on the same bytes; a finite set is also keyed by its
# checked labels.  A writer keys by the value written, a map by its ends
# and tables.


def memoized(memo: dict | None, key, build):
    """memo[key], built by build() when first looked up; build() if no memo."""
    if memo is None:
        return build()
    out = memo.get(key)
    if out is None:
        out = memo[key] = build()
    return out


def read_once(memo: dict | None, tag, data, read):
    """read(), the value of JSON data, kept in memo under tag and data's
    exact bytes: marshal version 2 writes equal data as equal bytes, tells
    1, true and 1.0 and lists and tuples apart, and refuses subclasses of
    str or list, which are read anew, as they are without a memo."""
    if memo is None:
        return read()
    try:
        key = (tag, marshal.dumps(data, 2))
    except ValueError:
        return read()
    return memoized(memo, key, read)


def finset_to_json(x: FinSet, memo: dict | None = None) -> dict:
    return memoized(memo, x,
                    lambda: {"size": x.size, "labels": list(x.labels)})


def finset_from_json(data, memo: dict | None = None) -> FinSet:
    if not isinstance(data, dict) or "labels" not in data:
        raise MalformedInput("finite set needs a labels list")
    labels = data["labels"]
    if not isinstance(labels, list) or not set(map(type, labels)) <= {str}:
        raise MalformedInput("labels must be strings")
    if len(set(labels)) != len(labels):
        raise MalformedInput("labels must be distinct")
    if "size" in data and (type(data["size"]) is not int
                           or data["size"] != len(labels)):
        raise MalformedInput("size field disagrees with labels")
    key = tuple(labels)
    return memoized(memo, ("set", key), lambda: FinSet(key))


def function_from_json(data, memo: dict | None = None) -> FinFunction:
    data = json_fields(data, "map", "dom", "cod", "table")
    dom, cod = (read_once(memo, "finite set", data[k],
                          lambda k=k: finset_from_json(data[k], memo))
                for k in ("dom", "cod"))
    return FinFunction(dom, cod, json_table(data["table"], dom, cod))


def json_object(value, what: str) -> dict:
    """value, if it is a JSON object; what names it in the error."""
    if not isinstance(value, dict):
        raise MalformedInput(f"{what} must be an object")
    return value


def json_fields(value, what: str, *keys: str) -> dict:
    """value, if it is a JSON object with the given fields; what names it in
    the error."""
    data = json_object(value, what)
    for key in keys:
        if key not in data:
            raise MalformedInput(f"{what} is missing field {key!r}")
    return data


def json_table(table, dom: FinSet, cod: FinSet, what: str = "table") -> tuple:
    """The entries of a JSON table of a function dom -> cod, checked: one per
    domain element, each an exact int (not a bool) indexing the codomain."""
    if not isinstance(table, list) or len(table) != len(dom.labels):
        raise MalformedInput(f"{what} must list one entry per domain element")
    if not set(map(type, table)) <= {int} \
            or table and (min(table) < 0 or max(table) >= len(cod.labels)):
        raise MalformedInput(f"{what} entries must index the codomain")
    return tuple(table)
