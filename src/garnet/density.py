"""Density comonads of finite generating diagrams of arrows.

A generating diagram indexes a family of arrows; its density comonad at f
is the colimit, over the comma category of all lifting problems into f, of
the generating arrows themselves.  The counit reassembles every problem.
The comma category is kept as its objects and generating morphisms,
because the morphisms between lifting problems (the coherences) are what
the rest of the build quotients by; their composites are never needed.

A lifting problem against the generator at j is a square into f whose
source and target are fixed, so it is determined by j and the tables of its
top and bottom.  Problems are keyed by that boundary: the problem a
generator morphism or a square of maps carries a problem to is found by
composing the two sides' tables, each distinct table once, and looking
them up, without building a map or a square.  The colimit is built on
tables too, as one arrow colimit of the cells glued along the relations,
whose legs are kept as tables.

For the subobject-classifier generators the density also has a pointwise
closed form.  Its isomorphism onto the generic colimit is fixed by the
construction, so it is built cell by cell and then checked, not searched
for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache

from . import presheaf as psh
from .arrows import (
    ArrowAmbient,
    ArrowObj,
    FinSetAmbient,
    PresheafAmbient,
    Square,
    compose_squares,
    compose_tables,
    identity_square,
    square_from_tables,
)
from .errors import EnumerationCap, GarnetError, MalformedInput, NoIsoFound
from .fincat import FinCategory, category_from_json, category_to_json, \
    discrete_category, identity_name
from .finset import EMPTY, ColimitResult, FinFunction, FinSet, json_fields, \
    json_object


class ArrowDiagram:
    """A functor from a finite index category into the arrow category;
    one that is not functorial is refused where it is built."""

    def __init__(self, ambient, index: FinCategory, on_objects,
                 on_morphisms=None):
        self.ambient = ambient
        self.arr = ArrowAmbient(ambient)
        self.index = index
        self._obj: dict[str, ArrowObj] = dict(on_objects)
        for j in index.objects:
            if j not in self._obj:
                raise MalformedInput(f"no arrow at index object {j!r}")
        for j in self._obj:
            if j not in index.objects:
                raise MalformedInput(f"arrow at unknown index object {j!r}")
        given = dict(on_morphisms or {})
        for name in given:
            if not index.has_morphism(name):
                raise MalformedInput(f"square at unknown morphism {name!r}")
        self._mor: dict[str, Square] = {}
        for m in index.morphisms:
            if index.is_identity(m.name):
                expected = identity_square(self._obj[m.dom])
                if m.name in given and given[m.name] != expected:
                    raise MalformedInput(f"square at {m.name!r} must be the "
                                         f"identity square")
                self._mor[m.name] = expected
                continue
            if m.name not in given:
                raise MalformedInput(f"no square at morphism {m.name!r}")
            s = given[m.name]
            if s.source != self._obj[m.dom] or s.target != self._obj[m.cod]:
                raise MalformedInput(f"square at {m.name!r} has wrong "
                                     f"endpoints")
            self._mor[m.name] = s
        problems = validate_diagram(self)
        if problems:
            raise MalformedInput("; ".join(problems))

    def arrow(self, j: str) -> ArrowObj:
        return self._obj[j]

    def square(self, t: str) -> Square:
        return self._mor[t]


def validate_diagram(u: ArrowDiagram) -> list[str]:
    """Exhaustive functoriality report; empty means the diagram is valid."""
    report = []
    for m2 in u.index.non_identity_morphisms():
        for m1 in u.index.non_identity_morphisms():
            if m1.cod != m2.dom:
                continue
            mm = u.index.compose(m2.name, m1.name)
            if u.square(mm) != compose_squares(u.square(m2.name),
                                               u.square(m1.name)):
                report.append(f"square at composite {mm!r} differs from the "
                              f"composite of squares at ({m2.name!r}, "
                              f"{m1.name!r})")
    return report


def problem_boundaries(u: ArrowDiagram, i: str, f: ArrowObj,
                       cap: int | None = None) -> list:
    """The lifting problems against the generator at i into f, as the arrow
    ambient's ``boundaries``: the keys ``(top tables, bottom tables)``."""
    gen = u.arrow(i)
    try:
        return u.arr.boundaries(gen, f, cap=cap)
    except EnumerationCap as exc:
        raise EnumerationCap(
            f"{exc}, enumerating the lifting problems at generator {i!r}: "
            f"tops {hom_shape(u.ambient, gen.dom, f.dom)}, bottoms "
            f"{hom_shape(u.ambient, gen.cod, f.cod)}") from exc


def lifting_problems(u: ArrowDiagram, i: str, f: ArrowObj,
                     cap: int | None = None) -> list[Square]:
    """All squares from the generator at i into f, in deterministic order,
    each built checked from its key."""
    gen = u.arrow(i)
    return [square_from_tables(gen, f, top, bottom)
            for top, bottom in problem_boundaries(u, i, f, cap)]


def hom_shape(inner, a, b) -> str:
    """The shape |a|->|b| of a hom-set, level by level, for messages."""
    if isinstance(inner, PresheafAmbient):
        return "(" + ", ".join(f"{c}: {a.at(c).size}->{b.at(c).size}"
                               for c in inner.base.objects) + ")"
    return f"{a.size}->{b.size}"


def problem_at(index: dict, j: str, top, bottom):
    """The entry of a problem index under the key (j, top, bottom).  Callers
    look up composites of problems, which are problems, so a miss is a bug."""
    try:
        return index[(j, top, bottom)]
    except KeyError:
        raise AssertionError(f"no lifting problem at {j!r} with this "
                             f"boundary") from None


@dataclass
class CommaResult:
    """The comma category of lifting problems, presented by its objects and
    its generating morphisms; the density colimit never composes them.  A
    problem is its key ``(index object, top tables, bottom tables)``; a
    square is built from a key only where a problem leaves the library."""
    # comma object names, in object order
    objects: tuple[str, ...]
    # one (name, dom, cod) per generator morphism into each problem
    relations: list[tuple[str, str, str]]
    # comma object name -> problem key, in object order
    problems: dict[str, tuple[str, tuple, tuple]]
    # problem key -> comma object name, in object order
    by_boundary: dict[tuple[str, tuple, tuple], str]
    # comma morphism name -> index morphism name
    over: dict[str, str]


def comma_category(u: ArrowDiagram, f: ArrowObj,
                   cap: int | None = None) -> CommaResult:
    """The comma category of lifting problems into f: the one place where
    problems are enumerated, keyed and linked.  The density colimit and the
    lifting search both read it."""
    tables = u.ambient.tables
    problems: dict[str, tuple[str, tuple, tuple]] = {}
    for j in u.index.objects:
        for k, (top, bottom) in enumerate(problem_boundaries(u, j, f, cap)):
            problems[f"{j}#{k}"] = (j, top, bottom)
    by_boundary = {key: name for name, key in problems.items()}
    relations = []
    over = {}
    for t in u.index.non_identity_morphisms():
        ut = u.square(t.name)
        ut_top, ut_bottom = tables(ut.top), tables(ut.bottom)
        # each distinct table is composed once
        top_of = cache(lambda top: compose_tables(top, ut_top))
        bottom_of = cache(lambda bottom: compose_tables(bottom, ut_bottom))
        for (j2, top2, bottom2), name2 in by_boundary.items():
            if j2 != t.cod:
                continue
            name1 = problem_at(by_boundary, t.dom, top_of(top2),
                               bottom_of(bottom2))
            mor_name = f"{t.name}@{name2}"
            relations.append((mor_name, name1, name2))
            over[mor_name] = t.name
    return CommaResult(tuple(problems), relations, problems, by_boundary,
                       over)


@dataclass
class DensityResult:
    """The density value at f: the colimit arrow, its counit, and legs.

    The colimit glues one cell per lifting problem (a copy of its
    generating arrow) along the relations.  ``cells`` and ``legs`` map each
    comma object, in order, to its generating arrow and to its leg into
    ``den`` as ``(top tables, bottom tables)``; a trace's cell record
    builds the legs' and problems' squares from them.  ``colimit`` is the
    arrow colimit itself, whose levels ``mediate`` reads a cocone off.

    Only ``f`` and ``counit`` have f in their boundary.  The rest depend on
    f's sizes and tables only, so ``retarget_density`` shares them between
    relabeled copies of f.
    """
    f: ArrowObj
    comma: CommaResult
    den: ArrowObj
    counit: Square
    legs: dict[str, tuple] = field(repr=False)
    cells: dict[str, ArrowObj] = field(repr=False)
    colimit: ColimitResult = field(repr=False)

    def mediate(self, cocone, cod: ArrowObj) -> Square:
        """The square den -> cod induced by a cocone: per cell, in comma
        object order, the ``(top tables, bottom tables)`` of a square into
        cod, read once per class by the colimit's ``mediate_tables``; a
        cocone that does not respect a relation raises DomainMismatch.  The
        cocone is tables, not checked squares, so the square is checked: it
        commutes exactly when every leg does, as the classes cover cells."""
        col = self.colimit
        return col.ambient.from_tables(self.den, cod, col.mediate_tables(
            top + bottom for top, bottom in cocone))


def density_comonad(u: ArrowDiagram, f: ArrowObj,
                    cap: int | None = None) -> DensityResult:
    """The density comonad at f, built from scratch: the colimit over the
    comma category of lifting problems into f of the generating arrows.

    One arrow colimit of the cells, tagged by the comma objects, glues them
    level by level along the relations: a relation ``t@n2: n1 -> n2`` glues
    each element x of the cell of n1 to ``u(t)(x)`` in the cell of n2, on
    both sides.  Its arrow is induced from the cells', which checks that
    every leg commutes with it.  Its label-free fields are listed on
    ``DensityResult``."""
    arr = u.arr
    comma = comma_category(u, f, cap=cap)
    names = comma.objects
    cells = {n: u.arrow(comma.problems[n][0]) for n in names}
    foot = {n: k for k, n in enumerate(names)}
    squares = {t.name: [[*enumerate(ut)]
                        for ut in arr.tables(u.square(t.name))]
               for t in u.index.non_identity_morphisms()}
    glue = [(foot[n1], foot[n2], squares[comma.over[name]])
            for name, n1, n2 in comma.relations]
    # one list of pairs per level of a square: f's levels, on either side
    pairs = [[(i, x, j, y) for i, j, square in glue for x, y in square[k]]
             for k in range(2 * len(u.ambient.tables(f.mor)))]
    col = arr.colimit(list(cells.values()), pairs, tags=names)
    half = len(pairs) // 2
    legs = {n: (leg[:half], leg[half:]) for n, leg in zip(names,
                                                          col.leg_tables)}
    out = DensityResult(f, comma, col.obj, None, legs, cells, col)
    out.counit = out.mediate([key[1:] for key in comma.by_boundary], f)
    return out


def retarget_density(core: DensityResult, f: ArrowObj) -> DensityResult:
    """The density at f, given the density at a map with f's skeleton (the
    same sizes and tables, other labels).

    f's skeleton fixes the order of every hom-set and every table, so the
    comma and the colimit agree with a fresh build at f and are shared.
    Only the counit is rebuilt at f, from its own tables.
    """
    tables = f.ambient.tables
    return replace(core, f=f, counit=square_from_tables(
        core.den, f, tables(core.counit.top), tables(core.counit.bottom)))


def density_action(u: ArrowDiagram, sigma: Square, den_f: DensityResult,
                   den_g: DensityResult) -> Square:
    """The induced square between density values along sigma: f -> g.  Each
    problem at f, composed with sigma on tables, is looked up at g."""
    if sigma.source != den_f.f or sigma.target != den_g.f:
        raise MalformedInput("square endpoints do not match the densities")
    tables = u.ambient.tables
    top, bottom = tables(sigma.top), tables(sigma.bottom)
    # each distinct table is composed once
    top_of = cache(lambda t: compose_tables(top, t))
    bottom_of = cache(lambda b: compose_tables(bottom, b))
    index = den_g.comma.by_boundary
    cocone = [den_g.legs[problem_at(index, j, top_of(t), bottom_of(b))]
              for j, t, b in den_f.comma.by_boundary]
    return den_f.mediate(cocone, den_g.den)


def is_cartesian(s: Square) -> bool:
    """Whether the commuting square is cartesian in the inner ambient; backs
    the cartesian half of the mono-backdrop hypothesis.  At every level (for
    presheaves, every object of the base) x |-> (top x, source x) must be
    injective and hit as many pairs as the target and the bottom send to
    one point; it lands in those pairs because the square commutes."""
    tables = s.source.ambient.tables
    for top, src, tgt, bottom in zip(*map(tables, (
            s.top, s.source.mor, s.target.mor, s.bottom))):
        over = Counter(tgt)
        if len(set(zip(top, src))) != len(src) \
                or sum(over[d] for d in bottom) != len(src):
            return False
    return True


def check_mono_compatibility(u: ArrowDiagram, probes: list[Square],
                             cap: int | None = None) -> dict:
    """Probe report: density values mono, mono squares preserved, and sent
    to cartesian squares (the mono-backdrop hypothesis gluing relies on)."""
    entries = []
    for k, sigma in enumerate(probes):
        den_f = density_comonad(u, sigma.source, cap=cap)
        den_g = density_comonad(u, sigma.target, cap=cap)
        act = density_action(u, sigma, den_f, den_g)
        entry = {
            "probe": k,
            "probe_is_mono": u.arr.is_mono(sigma),
            "density_of_source_mono": u.ambient.is_mono(den_f.den.mor),
            "density_of_target_mono": u.ambient.is_mono(den_g.den.mor),
            "action_mono": u.arr.is_mono(act),
            "action_cartesian": is_cartesian(act),
        }
        entry["pass"] = all(entry[key] for key in
                            ("density_of_source_mono",
                             "density_of_target_mono",
                             "action_mono", "action_cartesian"))
        entries.append(entry)
    return {"probes": entries, "pass": all(e["pass"] for e in entries)}


# -- subobject-classifier generators -------------------------------------------

def subobject_classifier_diagram(ambient) -> ArrowDiagram:
    """The generating diagram indexed by the elements of the classifier;
    each element contributes the subobject it classifies, included into its
    representable."""
    if isinstance(ambient, FinSetAmbient):
        point = FinSet(("pt",))
        index = discrete_category(("empty", "total"))
        return ArrowDiagram(ambient, index, {
            "empty": ArrowObj(ambient, FinFunction(EMPTY, point, ())),
            "total": ArrowObj(ambient, FinFunction(point, point, (0,))),
        })
    if not isinstance(ambient, PresheafAmbient):
        raise MalformedInput("classifier generators need a finset or "
                             "presheaf ambient")
    base = ambient.base
    omega, truth = psh.subobject_classifier(base)
    elcat, labels = psh.element_category(omega)
    on_objects = {}
    for name in elcat.objects:
        c, lbl = labels[name]
        mono = psh.pullback_classify(
            truth, psh.element_map(omega, c, omega.at(c).index_of(lbl)))
        on_objects[name] = ArrowObj(ambient, mono)
    on_morphisms = {}
    for m in elcat.non_identity_morphisms():
        base_name = m.name.split("@", 1)[0]
        src, tgt = on_objects[m.dom], on_objects[m.cod]
        bottom = psh.yoneda_map(base, base_name)
        comps = {}
        for x in base.objects:
            sub_src, sub_tgt = src.dom.at(x), tgt.dom.at(x)
            table = tuple(
                sub_tgt.index_of(base.compose(base_name, h))
                for h in sub_src.labels)
            comps[x] = FinFunction(sub_src, sub_tgt, table)
        top = psh.PresheafMap(src.dom, tgt.dom, comps)
        on_morphisms[m.name] = Square(src, tgt, top, bottom)
    return ArrowDiagram(ambient, elcat, on_objects, on_morphisms)


@dataclass
class ClosedFormResult:
    closed: ArrowObj
    generic: DensityResult
    iso: Square  # closed -> generic.den


def density_closed_form_subobject(t: psh.PresheafMap, f: ArrowObj,
                                  cap: int | None = None) -> ClosedFormResult:
    """Pointwise computation of the classifier density, certified by an
    isomorphism onto the generic comma-category colimit.

    At c, the closed form's element a#k is the k-th lifting problem against
    the generator at (c, a).  Pulling a problem at (c', a') back along
    h: c -> c' gives a problem at (c, h*a'), and the comma relations identify
    the two, so every element of the generic colimit at c is the class of
    id_c in exactly one cell, and a#k goes to the class of id_c in the cell
    of that problem.  The domain side keeps the problems against the
    maximal sieve, the only generators whose domain contains id_c.  The
    isomorphism is built from these classes and then checked: natural, a
    commuting square, and bijective on both sides."""
    omega = t.target
    base = omega.base
    ambient = PresheafAmbient(base)
    if f.ambient != ambient:
        raise MalformedInput("map does not live over the classifier's base")
    u = subobject_classifier_diagram(ambient)
    generic = density_comonad(u, f, cap=cap)
    # pointwise values: all problems from the classified subobject into f,
    # as the comma category enumerated them, generator by generator
    values = {name: [] for name in u.index.objects}
    for name, top, bottom in generic.comma.problems.values():
        values[name].append((top, bottom))
    # reassemble over the classifier: at c, the disjoint union over Omega(c);
    # the structure map to the classifier remembers which element each
    # block came from, cells[c] names the comma object of each element, and
    # position finds an element from its generator and problem key
    at, cells, proj_comps, position = {}, {}, {}, {}
    for c in base.objects:
        lbls, names, table = [], [], []
        for a, a_lbl in enumerate(omega.at(c).labels):
            name = psh.element_object_name(c, a_lbl)
            for k, key in enumerate(values[name]):
                position[(name, key)] = len(lbls)
                lbls.append(f"{a_lbl}#{k}")
                names.append(f"{name}#{k}")
                table.append(a)
        at[c] = FinSet(tuple(lbls))
        cells[c] = names
        proj_comps[c] = FinFunction(at[c], omega.at(c), tuple(table))
    # restricting along h pulls each problem back along h@a, on tables
    restrict = {}
    for m in base.non_identity_morphisms():
        r_omega, arrow = omega.restrict(m.name), base.morphism(m.name)
        table = []
        for a2, a2_lbl in enumerate(omega.at(arrow.cod).labels):
            name1 = psh.element_object_name(
                arrow.dom, omega.at(arrow.dom).labels[r_omega(a2)])
            step = u.square(f"{m.name}@{a2_lbl}")
            step_t = ambient.tables(step.top), ambient.tables(step.bottom)
            table.extend(position[(name1, (compose_tables(top, step_t[0]),
                                           compose_tables(bottom, step_t[1])))]
                         for top, bottom in values[psh.element_object_name(
                             arrow.cod, a2_lbl)])
        restrict[m.name] = FinFunction(at[arrow.cod], at[arrow.dom],
                                       tuple(table))
    reassembled = psh.Presheaf(base, at, restrict)
    proj = psh.PresheafMap(reassembled, omega, proj_comps)
    closed = ArrowObj(ambient, psh.pullback_classify(t, proj))
    mismatch = "closed form does not match the generic density; this is a bug"
    try:
        top, bottom = [], []
        for k, c in enumerate(base.objects):
            ident = identity_name(c)
            bottom.append(tuple(
                generic.legs[n][1][k][
                    generic.cells[n].cod.at(c).index_of(ident)]
                for n in cells[c]))
            top.append(tuple(
                generic.legs[n][0][k][
                    generic.cells[n].dom.at(c).index_of(ident)]
                for n in map(cells[c].__getitem__, closed.mor.at(c).table)))
        iso = square_from_tables(closed, generic.den, top, bottom)
    except (GarnetError, LookupError, ValueError) as exc:
        raise NoIsoFound(mismatch) from exc
    if not (ambient.is_iso(iso.top) and ambient.is_iso(iso.bottom)):
        raise NoIsoFound(mismatch)
    return ClosedFormResult(closed, generic, iso)


# -- JSON ------------------------------------------------------------------------

def arrow_diagram_to_json(u: ArrowDiagram, memo: dict | None = None) -> dict:
    arr = {j: u.ambient.mor_to_json(u.arrow(j).mor, memo)
           for j in u.index.objects}
    squares = {}
    for m in u.index.non_identity_morphisms():
        s = u.square(m.name)
        squares[m.name] = {"top": u.ambient.mor_to_json(s.top, memo),
                           "bottom": u.ambient.mor_to_json(s.bottom, memo)}
    return {"index": category_to_json(u.index), "arrows": arr,
            "squares": squares}


def arrow_diagram_from_json(data, ambient,
                            memo: dict | None = None) -> ArrowDiagram:
    if data == "subobject_classifier" or (
            isinstance(data, dict)
            and data.get("generators") == "subobject_classifier"):
        return subobject_classifier_diagram(ambient)
    if not isinstance(data, dict) or "index" not in data:
        raise MalformedInput("diagram file needs an 'index' category")
    index = category_from_json(data["index"])
    arrows = json_object(data.get("arrows", {}), "diagram 'arrows'")
    on_objects = {j: ArrowObj(ambient, ambient.mor_from_json(spec, memo))
                  for j, spec in arrows.items()}
    on_morphisms = {}
    for name, spec in json_object(data.get("squares", {}),
                                  "diagram 'squares'").items():
        if not index.has_morphism(name):
            raise MalformedInput(f"square at unknown morphism {name!r}")
        spec = json_fields(spec, f"square at {name!r}", "top", "bottom")
        m = index.morphism(name)
        for j in (m.dom, m.cod):
            if j not in on_objects:
                raise MalformedInput(f"no arrow at index object {j!r}")
        on_morphisms[name] = Square(
            on_objects[m.dom], on_objects[m.cod],
            ambient.mor_from_json(spec["top"], memo),
            ambient.mor_from_json(spec["bottom"], memo))
    return ArrowDiagram(ambient, index, on_objects, on_morphisms)
