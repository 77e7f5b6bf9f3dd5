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
composing the two sides' tables and looking them up, without building a
map or a square.  The colimit is built on tables too, as one quotient of
the coproduct of the cells.

For the subobject-classifier generators the density also has a pointwise
closed form.  Its isomorphism onto the generic colimit is fixed by the
construction, so it is built cell by cell and then checked, not searched
for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain

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
)
from .errors import DomainMismatch, EnumerationCap, GarnetError, \
    MalformedInput, NoIsoFound
from .fincat import FinCategory, category_from_json, category_to_json, \
    discrete_category, identity_name
from .finset import EMPTY, FinFunction, FinSet, class_values, \
    first_members, json_object


class ArrowDiagram:
    """A functor from a finite index category into the arrow category."""

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


def lifting_problems(u: ArrowDiagram, i: str, f: ArrowObj,
                     cap: int | None = None) -> list[Square]:
    """All squares from the generator at i into f, in deterministic order."""
    gen = u.arrow(i)
    try:
        return u.arr.hom(gen, f, cap=cap)
    except EnumerationCap as exc:
        raise EnumerationCap(
            f"{exc}, enumerating the lifting problems at generator {i!r}: "
            f"tops {hom_shape(u.ambient, gen.dom, f.dom)}, bottoms "
            f"{hom_shape(u.ambient, gen.cod, f.cod)}") from exc


def hom_shape(inner, a, b) -> str:
    """The shape |a|->|b| of a hom-set, level by level, for messages."""
    if isinstance(inner, PresheafAmbient):
        return "(" + ", ".join(f"{c}: {a.at(c).size}->{b.at(c).size}"
                               for c in inner.base.objects) + ")"
    return f"{a.size}->{b.size}"


def problem_at(index: dict, j: str, top, bottom):
    """The entry of a boundary-keyed problem index for the problem against
    the generator at j with these sides.  Callers only look up composites
    of known problems, which are problems again, so a miss is a bug."""
    try:
        return index[(j, top, bottom)]
    except KeyError:
        raise AssertionError(f"no lifting problem at {j!r} with this "
                             f"boundary") from None


@dataclass
class CommaResult:
    """The comma category of lifting problems, presented by its objects and
    its generating morphisms; the density colimit never composes them."""
    # comma object names, in object order
    objects: tuple[str, ...]
    # one (name, dom, cod) per generator morphism into each problem
    relations: list[tuple[str, str, str]]
    # comma object name -> (index object, problem square), in object order
    problems: dict[str, tuple[str, Square]]
    # (index object, top tables, bottom tables) -> comma object name, in
    # object order; the tables are the inner ambient's ``tables``
    by_boundary: dict[tuple[str, tuple, tuple], str]
    # comma morphism name -> index morphism name
    over: dict[str, str]


def comma_category(u: ArrowDiagram, f: ArrowObj,
                   cap: int | None = None) -> CommaResult:
    """The comma category of lifting problems into f: the one place where
    problems are enumerated, keyed and linked.  The density colimit and the
    lifting search both read it."""
    tables = u.ambient.tables
    problems: dict[str, tuple[str, Square]] = {}
    by_boundary: dict[tuple[str, tuple, tuple], str] = {}
    for j in u.index.objects:
        for k, alpha in enumerate(lifting_problems(u, j, f, cap=cap)):
            name = f"{j}#{k}"
            problems[name] = (j, alpha)
            by_boundary[(j, tables(alpha.top), tables(alpha.bottom))] = name
    relations = []
    over = {}
    for t in u.index.non_identity_morphisms():
        ut = u.square(t.name)
        ut_top, ut_bottom = tables(ut.top), tables(ut.bottom)
        for (j2, top2, bottom2), name2 in by_boundary.items():
            if j2 != t.cod:
                continue
            name1 = problem_at(by_boundary, t.dom,
                               compose_tables(top2, ut_top),
                               compose_tables(bottom2, ut_bottom))
            mor_name = f"{t.name}@{name2}"
            relations.append((mor_name, name1, name2))
            over[mor_name] = t.name
    return CommaResult(tuple(problems), relations, problems, by_boundary,
                       over)


@dataclass
class DensityResult:
    """The density value at f: the colimit arrow, its counit, and legs.

    The colimit is the coproduct of one cell per lifting problem (a copy of
    its generating arrow), divided by the relations.  ``cells`` lists the
    generating arrows in comma object order, and ``classes`` holds, for the
    domain and then the codomain side, one ``(proj, reps)`` per level of
    the inner ambient: the class of each element of the coproduct, and the
    minimal member of each class.  ``mediate`` reads a cocone off these.

    Only ``f``, ``counit`` and the comma's ``problems`` have f in their
    boundary.  The rest -- ``den``, ``legs``, ``cells``, ``classes`` and the
    comma's ``objects``, ``relations``, ``over`` and ``by_boundary``, whose
    keys are tables without labels -- depend on f's sizes and tables only,
    so ``retarget_density`` shares them between relabeled copies of f.
    """
    f: ArrowObj
    comma: CommaResult
    den: ArrowObj
    counit: Square
    legs: dict[str, Square] = field(repr=False)
    cells: tuple = field(repr=False)
    classes: tuple = field(repr=False)

    def mediate(self, cocone, cod: ArrowObj) -> Square:
        """The square den -> cod induced by a cocone: one square from each
        cell into cod, in comma object order.  Each side's tables are
        concatenated over the cells and read once per class; a cocone that
        is not constant on a class, which is to say one that does not
        respect a relation, raises DomainMismatch."""
        if len(cocone) != len(self.cells):
            raise DomainMismatch("a cocone needs one leg per lifting problem")
        for leg, cell in zip(cocone, self.cells):
            if leg.source != cell or leg.target != cod:
                raise DomainMismatch("cocone leg does not go from its cell "
                                     "to the cocone's arrow")
        inner = cod.ambient
        sides = []
        for side, levels in zip(("top", "bottom"), self.classes):
            legs = [inner.tables(getattr(leg, side)) for leg in cocone]
            sides.append([
                class_values(proj, reps, list(chain.from_iterable(
                    t[k] for t in legs)))
                for k, (proj, reps) in enumerate(levels)])
        return Square(self.den, cod,
                      inner.from_tables(self.den.dom, cod.dom, sides[0]),
                      inner.from_tables(self.den.cod, cod.cod, sides[1]))


def density_comonad(u: ArrowDiagram, f: ArrowObj,
                    cap: int | None = None) -> DensityResult:
    """The density comonad at f, built from scratch: the colimit over the
    comma category of lifting problems into f of the generating arrows.

    The coproduct of the cells fixes the labels.  Its domain and codomain
    are then divided, level by level, by the relations: a relation
    ``t@n2: n1 -> n2`` identifies each element x of the cell of n1 with
    ``u(t)(x)`` in the cell of n2.  Its label-free fields are listed on
    ``DensityResult``."""
    inner = u.ambient
    tables = inner.tables
    comma = comma_category(u, f, cap=cap)
    names = comma.objects
    cells = tuple(u.arrow(comma.problems[n][0]) for n in names)
    cp = u.arr.coproduct(cells, tags=names)
    # where each cell sits in the coproduct, per side and level
    at = {n: (tables(inj.top), tables(inj.bottom))
          for n, inj in zip(names, cp.injections)}
    squares = {t.name: (tables(u.square(t.name).top),
                        tables(u.square(t.name).bottom))
               for t in u.index.non_identity_morphisms()}
    levels = len(tables(cp.obj.mor))
    pairs = ([[] for _ in range(levels)], [[] for _ in range(levels)])
    for name, n1, n2 in comma.relations:
        for side in (0, 1):
            for k, ut in enumerate(squares[comma.over[name]][side]):
                into = at[n2][side][k]
                pairs[side][k].extend(zip(at[n1][side][k],
                                          map(into.__getitem__, ut)))
    dom_q = inner.quotient(cp.obj.dom, pairs[0])
    cod_q = inner.quotient(cp.obj.cod, pairs[1])
    projs = (tables(dom_q.proj), tables(cod_q.proj))
    classes = tuple(tuple((proj, first_members(proj)) for proj in side)
                    for side in projs)
    # the arrow between the quotients, read at one member of each class
    den = ArrowObj(inner, inner.from_tables(dom_q.obj, cod_q.obj, [
        tuple(cod_proj[mor[r]] for r in reps)
        for (_, reps), cod_proj, mor in zip(classes[0], projs[1],
                                            tables(cp.obj.mor))]))
    legs = {}
    for n, cell in zip(names, cells):
        top, bottom = (compose_tables(projs[side], at[n][side])
                       for side in (0, 1))
        legs[n] = Square(cell, den, inner.from_tables(cell.dom, den.dom, top),
                         inner.from_tables(cell.cod, den.cod, bottom))
    out = DensityResult(f, comma, den, None, legs, cells, classes)
    out.counit = out.mediate([comma.problems[n][1] for n in names], f)
    return out


def retarget_density(core: DensityResult, f: ArrowObj) -> DensityResult:
    """The density at f, given the density at a map with f's skeleton (the
    same sizes and tables, other labels).

    f's skeleton fixes the order of every hom-set and every table, so the
    comma names, relations, boundary index and colimit agree with a fresh
    build at f and are shared.  Each problem square is rebuilt at f from
    its cell and its ``by_boundary`` key, and the counit from its own
    tables, so no map is composed to move them.
    """
    amb = f.ambient

    def onto_f(source, top, bottom):
        return Square(source, f, amb.from_tables(source.dom, f.dom, top),
                      amb.from_tables(source.cod, f.cod, bottom))
    problems = {name: (j, onto_f(cell, top, bottom))
                for ((j, top, bottom), name), cell
                in zip(core.comma.by_boundary.items(), core.cells)}
    comma = replace(core.comma, problems=problems)
    counit = onto_f(core.den, amb.tables(core.counit.top),
                    amb.tables(core.counit.bottom))
    return replace(core, f=f, comma=comma, counit=counit)


def density_action(u: ArrowDiagram, sigma: Square, den_f: DensityResult,
                   den_g: DensityResult) -> Square:
    """The induced square between density values along sigma: f -> g.  Each
    problem at f, composed with sigma on tables, is looked up at g."""
    if sigma.source != den_f.f or sigma.target != den_g.f:
        raise MalformedInput("square endpoints do not match the densities")
    tables = u.ambient.tables
    top, bottom = tables(sigma.top), tables(sigma.bottom)
    index = den_g.comma.by_boundary
    cocone = [den_g.legs[problem_at(index, j, compose_tables(top, t),
                                    compose_tables(bottom, b))]
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
    elcat, _ = psh.element_category(omega)
    # pointwise values: all squares from the classified subobject into f
    values = {name: lifting_problems(u, name, f, cap=cap)
              for name in elcat.objects}
    # reassemble over the classifier: at c, the disjoint union over Omega(c);
    # the structure map to the classifier remembers which element each
    # block came from, and cells[c] names the comma object of each element
    at, cells, proj_comps = {}, {}, {}
    for c in base.objects:
        lbls, names, table = [], [], []
        for a, a_lbl in enumerate(omega.at(c).labels):
            name = psh.element_object_name(c, a_lbl)
            for k in range(len(values[name])):
                lbls.append(f"{a_lbl}#{k}")
                names.append(f"{name}#{k}")
                table.append(a)
        at[c] = FinSet(tuple(lbls))
        cells[c] = names
        proj_comps[c] = FinFunction(at[c], omega.at(c), tuple(table))
    restrict = {}
    for m in base.non_identity_morphisms():
        r_omega = omega.restrict(m.name)
        arrow = base.morphism(m.name)
        offsets_dom = {}
        pos = 0
        for a_lbl in omega.at(arrow.dom).labels:
            offsets_dom[a_lbl] = pos
            pos += len(values[psh.element_object_name(arrow.dom, a_lbl)])
        table = []
        for a2 in range(omega.at(arrow.cod).size):
            a2_lbl = omega.at(arrow.cod).labels[a2]
            name2 = psh.element_object_name(arrow.cod, a2_lbl)
            a1_lbl = omega.at(arrow.dom).labels[r_omega(a2)]
            name1 = psh.element_object_name(arrow.dom, a1_lbl)
            step = u.square(f"{m.name}@{a2_lbl}")
            for beta in values[name2]:
                restricted = compose_squares(beta, step)
                table.append(offsets_dom[a1_lbl]
                             + values[name1].index(restricted))
        restrict[m.name] = FinFunction(at[arrow.cod], at[arrow.dom],
                                       tuple(table))
    reassembled = psh.Presheaf(base, at, restrict)
    proj = psh.PresheafMap(reassembled, omega, proj_comps)
    closed = ArrowObj(ambient, psh.pullback_classify(t, proj))
    generic = density_comonad(u, f, cap=cap)
    mismatch = "closed form does not match the generic density; this is a bug"
    try:
        top, bottom = [], []
        for c in base.objects:
            legs = [generic.legs[n] for n in cells[c]]
            ident = identity_name(c)
            bottom.append(tuple(
                leg.bottom.at(c)(leg.source.cod.at(c).index_of(ident))
                for leg in legs))
            top.append(tuple(
                legs[i].top.at(c)(legs[i].source.dom.at(c).index_of(ident))
                for i in closed.mor.at(c).table))
        iso = Square(closed, generic.den,
                     ambient.from_tables(closed.dom, generic.den.dom, top),
                     ambient.from_tables(closed.cod, generic.den.cod, bottom))
    except (GarnetError, LookupError, ValueError) as exc:
        raise NoIsoFound(mismatch) from exc
    if not (ambient.is_iso(iso.top) and ambient.is_iso(iso.bottom)):
        raise NoIsoFound(mismatch)
    return ClosedFormResult(closed, generic, iso)


# -- JSON ------------------------------------------------------------------------

def arrow_diagram_to_json(u: ArrowDiagram) -> dict:
    arr = {j: u.ambient.mor_to_json(u.arrow(j).mor) for j in u.index.objects}
    squares = {}
    for m in u.index.non_identity_morphisms():
        s = u.square(m.name)
        squares[m.name] = {"top": u.ambient.mor_to_json(s.top),
                           "bottom": u.ambient.mor_to_json(s.bottom)}
    return {"index": category_to_json(u.index), "arrows": arr,
            "squares": squares}


def arrow_diagram_from_json(data, ambient) -> ArrowDiagram:
    if data == "subobject_classifier" or (
            isinstance(data, dict)
            and data.get("generators") == "subobject_classifier"):
        return subobject_classifier_diagram(ambient)
    if not isinstance(data, dict) or "index" not in data:
        raise MalformedInput("diagram file needs an 'index' category")
    index = category_from_json(data["index"])
    arrows = json_object(data.get("arrows", {}), "diagram 'arrows'")
    on_objects = {j: ArrowObj(ambient, ambient.mor_from_json(spec))
                  for j, spec in arrows.items()}
    on_morphisms = {}
    for name, spec in json_object(data.get("squares", {}),
                                  "diagram 'squares'").items():
        if not index.has_morphism(name):
            raise MalformedInput(f"square at unknown morphism {name!r}")
        spec = json_object(spec, f"square at {name!r}")
        m = index.morphism(name)
        on_morphisms[name] = Square(
            on_objects[m.dom], on_objects[m.cod],
            ambient.mor_from_json(spec["top"]),
            ambient.mor_from_json(spec["bottom"]))
    u = ArrowDiagram(ambient, index, on_objects, on_morphisms)
    problems = validate_diagram(u)
    if problems:
        raise MalformedInput("; ".join(problems))
    return u
