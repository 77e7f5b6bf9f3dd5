"""The algebraic small object argument over a finite ambient.

Given a finite diagram of generating arrows, this module builds the
one-step gluing endofunctor on the arrow category, runs the free-monad
iteration on it, and extracts the two factors of every map together
with their comonad and monad structure, coherent lifting operators,
and a replayable, independently checkable construction trace, whose
cells keep their rows as the tables they are compared and written as.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .arrows import (ArrowObj, EndoData, PointedEndofunctor, Session, Square,
                     _lawful_square, compose_squares, compose_tables,
                     identity_square, square_from_tables)
from .density import (ArrowDiagram, arrow_diagram_from_json,
                      arrow_diagram_to_json, comma_category, density_action,
                      density_comonad, hom_shape, lifting_problems,
                      problem_boundaries, retarget_density)
from .errors import (BackdropViolation, BoundaryMismatch, ColimitNotPreserved,
                     DomainMismatch, EnumerationCap, IterationLimit,
                     MalformedInput, MissingGeneratorWitness, NotAnAlgebra,
                     NotARetract, NotDiscrete)
from .finset import equivalence_classes, json_fields, json_object, memoized, \
    postcompose_tables
from .freemonad import (DEFAULT_MAX_STEPS, Backdrop, FreeMonadConfig,
                        algebra_extend, backdrop_from_json, backdrop_to_json,
                        free_algebra)

GLUING = ("mid", "cell")  # the feet of a gluing pushout: f's domain, cells


def require_count(value, what: str) -> int:
    """value, if it is a non-negative int (not a bool)."""
    if type(value) is not int or value < 0:
        raise MalformedInput(f"{what} must be a non-negative integer")
    return value


@dataclass(frozen=True)
class StepData:
    """The one-step gluing at f: its cell, the gluing pushout, the glued
    arrow, and the unit into it."""
    den: object = field(repr=False)
    po: object = field(repr=False)
    obj: ArrowObj
    unit: Square


class GeneratedAWFS:
    """A factorization session driven by a diagram of generating arrows.

    All heavy values are memoized per session, cells and gluing pushouts up
    to relabeling, so one instance must not be shared across threads.
    """

    def __init__(self, generators: ArrowDiagram,
                 backdrop: Backdrop = Backdrop("all"),
                 cap: int | None = None,
                 max_steps: int = DEFAULT_MAX_STEPS):
        if backdrop.kind not in ("all", "mono"):
            raise MalformedInput("the backdrop over the base ambient must "
                                 "be 'all' or 'mono'")
        self.generators = generators
        self.ambient = generators.ambient
        self.arr = generators.arr
        self.backdrop = backdrop
        self.cap = None if cap is None else require_count(cap, "cap")
        self.max_steps = require_count(max_steps, "max_steps")
        self.session = Session()
        self.t = _step_endofunctor(self)
        self.cfg = FreeMonadConfig(self.arr, Backdrop("domain", backdrop),
                                   self.t)

    def density(self, f: ArrowObj):
        """The density comonad at f, memoized up to relabeling: built once
        per skeleton of f, its sizes and tables, and retargeted to f's
        labels, which only the counit carries."""
        core = self.session.memo(
            ("density", self.ambient.skeleton(f.mor)),
            lambda: density_comonad(self.generators, f, cap=self.cap))
        return core if core.f == f else retarget_density(core, f)

    def one_step(self, f: ArrowObj) -> StepData:
        return self.session.memo(("step", f), lambda: self._one_step(f))

    def _one_step(self, f: ArrowObj) -> StepData:
        """The gluing at f, once per skeleton of f like the density: a copy of
        the first map glued with other labels gets its pushout ``relabeled``
        and its mediator's tables, built by ``colimit_leg``."""
        inner = self.ambient
        den = self.density(f)
        if not self.backdrop.contains(inner, den.den.mor):
            raise BackdropViolation(
                "the cell arrow at this map left the configured class; "
                "the generators are not compatible with the backdrop")
        first = self.session.memo(("gluing", inner.skeleton(f.mor)), lambda: f)
        if first == f:
            po = inner.pushout(den.counit.top, den.den.mor, tags=GLUING)
            mor = po.mediate(f.mor, den.counit.bottom)
        else:
            core = self.one_step(first)
            po = inner.relabeled(core.po, f.dom, GLUING)
            mor = inner.colimit_leg(po.obj, f.cod, inner.tables(core.obj.mor))
        if not self.backdrop.contains(inner, po.left):
            raise BackdropViolation(
                "gluing the cells pushed the unit outside the configured "
                "class")
        obj = ArrowObj(inner, mor)
        # commutes: obj.mor mediates, with po.left leg f.mor, at a copy too
        unit = _lawful_square(f, obj, po.left, inner.identity(f.cod))
        return StepData(den, po, obj, unit)

    def factorize(self, f: ArrowObj) -> "Factorization":
        return self.session.memo(("factorize", f),
                                 lambda: self._factorize(f))

    def _factorize(self, f: ArrowObj) -> "Factorization":
        inner = self.ambient
        try:
            fa = free_algebra(self.cfg, f, self.max_steps)
        except IterationLimit as exc:
            err = IterationLimit(f"{exc}; stage arrows " + ", ".join(
                hom_shape(inner, rec.x.a.dom, rec.x.a.cod)
                for rec in exc.trace.stages))
            err.trace = exc.trace
            raise err from exc
        # inverse raises unless beta is an iso, and the unit square unless
        # right . left == f, also under python -O
        beta = fa.unit.bottom
        left = ArrowObj(inner, fa.unit.top)
        right = ArrowObj(inner, inner.compose(inner.inverse(beta),
                                              fa.carrier.mor))
        unit = Square(f, right, fa.unit.top, inner.identity(f.cod))
        conj_inv = self._conj_inv(right, fa)
        algebra = compose_squares(self.arr.inverse(conj_inv), compose_squares(
            fa.structure, self.t.on_mor(conj_inv)))
        # the free algebra's unit law moved along beta: an invariant, no input
        assert compose_squares(algebra, self.t.unit(right)) \
            == identity_square(right)
        return Factorization(f, left, right, left.cod, unit, algebra, fa,
                             self._build_trace(f, fa))

    def _conj_inv(self, right: ArrowObj, free) -> Square:
        # commutes, as right = beta^-1 . carrier for beta the unit's bottom
        return _lawful_square(right, free.carrier,
                              self.ambient.identity(right.dom),
                              free.unit.bottom)

    def extend(self, fact: "Factorization", target, h: Square) -> Square:
        """The unique structure map out of fact's right factor extending h;
        target is a pair (arrow, algebra square)."""
        raw = algebra_extend(fact.free, target, h)
        return compose_squares(raw, self._conj_inv(fact.right, fact.free))

    def _build_trace(self, f: ArrowObj, fa) -> "Trace":
        inner, t = self.ambient, self.t
        recs = fa.trace.stages
        n_star = fa.trace.converged_stage
        stages = []
        composite = identity_square(f)
        for alpha in range(n_star + 1):
            arrow = recs[alpha].x.a
            cell = _cell_record(self.one_step(arrow).den)
            if alpha == 0:
                built = None
            elif alpha == 1:
                base = self.one_step(f)
                built = QuotientRecord(
                    span=(base.den.counit.top, base.den.den.mor),
                    tags=GLUING,
                    left=base.po.left, right=base.po.right, into="left")
            else:
                # gap and fold, on domains: the step's colimit is their pushout
                x, step = recs[alpha - 2].x, recs[alpha - 2].step
                mid = inner.pushout(t.unit(x.a).top, step.g.top)
                built = QuotientRecord(
                    span=(mid.mediate(t.on_mor(step.g).top, t.unit(x.b).top),
                          mid.mediate(x.f.top, inner.identity(x.b.dom))),
                    tags=("i0", "i1"), into="right",
                    left=step.out.left.top, right=step.out.right.top)
            transition = recs[alpha].step.g
            provenance = "hypothesis" if alpha == 0 else "cobase-change"
            certs = (
                {"morphism": "transition", "provenance": provenance,
                 "in_backdrop": bool(self.backdrop.contains(
                     inner, transition.top))},
                {"morphism": "composite", "provenance": "colimit-closure",
                 "in_backdrop": bool(self.backdrop.contains(
                     inner, composite.top))})
            stages.append(TraceStage(alpha, arrow, cell, built, composite,
                                     transition, certs))
            composite = compose_squares(transition, composite)
        return Trace(f, self.generators, self.backdrop, tuple(stages),
                     n_star)

    # -- induced maps between factorizations ---------------------------------

    def counit(self, f: ArrowObj) -> Square:
        """The square collapsing the left factor back onto f."""
        fact = self.factorize(f)
        return Square(fact.left, f, self.ambient.identity(f.dom),
                      fact.right.mor)

    def right_map(self, sigma: Square) -> Square:
        """The action of the right-factor functor on a square."""
        fs = self.factorize(sigma.source)
        ft = self.factorize(sigma.target)
        h = compose_squares(ft.unit, sigma)
        ext = self.extend(fs, (ft.right, ft.algebra), h)
        # ext restricts to h along a unit with identity bottom: an invariant
        assert ext.bottom == sigma.bottom
        return ext

    def left_map(self, sigma: Square) -> Square:
        """The action of the left-factor functor on a square."""
        fs = self.factorize(sigma.source)
        ft = self.factorize(sigma.target)
        return Square(fs.left, ft.left, sigma.top, self.right_map(sigma).top)

    def midpoint_map(self, sigma: Square):
        return self.right_map(sigma).top

    def canonical_structure(self, f: ArrowObj) -> "LiftingStructure":
        """The coherent lifting structure carried by the right factor."""
        def build():
            fact = self.factorize(f)
            return algebra_to_structure(self, fact.right, fact.algebra)
        return self.session.memo(("canonical", f), build)

    def multiplication(self, f: ArrowObj):
        """The flattening of a twice-applied right factor, and its square."""
        fact = self.factorize(f)
        right = fact.right
        pi = self.extend(self.factorize(right), (right, fact.algebra),
                         identity_square(right))
        # pi extends an identity along such a unit: an invariant, no input
        assert self.ambient.is_identity(pi.bottom)
        return pi.top, pi

    def comultiplication(self, f: ArrowObj):
        """The duplication of the left factor, and its square.

        The midpoint map is forced by freeness against the composed
        lifting structure of the two right factors stacked over f.
        """
        inner = self.ambient
        fact = self.factorize(f)
        fact_l = self.factorize(fact.left)
        composed = compose_structures(self.canonical_structure(f),
                                      self.canonical_structure(fact.left))
        d = structure_to_algebra(self, composed)
        seed = Square(f, composed.f, fact_l.left.mor,
                      inner.identity(f.cod))
        ext = self.extend(fact, (composed.f, d), seed)
        # ext extends seed, whose bottom is an identity: an invariant
        assert inner.is_identity(ext.bottom)
        delta = ext.top
        sigma = Square(fact.left, fact_l.left, inner.identity(f.dom), delta)
        return delta, sigma

    def left_factor_coalgebra(self, f: ArrowObj) -> "Coalgebra":
        """The coalgebra structure the comultiplication puts on the left
        factor; backs "every left factor is a coalgebra" (Bourke-Garner
        2016, AWFS I)."""
        delta, _ = self.comultiplication(f)
        fact = self.factorize(f)
        out = Coalgebra(fact.left, delta)
        # delta is built from f by the comonad laws: an invariant, no input
        assert self.coalgebra_holds(out)
        return out

    def coalgebra_holds(self, c: "Coalgebra") -> bool:
        """The two coalgebra axioms on a section, checked on the nose; the
        test behind the coalgebra claims (Bourke-Garner 2016, AWFS I)."""
        inner = self.ambient
        fact = self.factorize(c.f)
        return (inner.compose(fact.right.mor, c.section)
                == inner.identity(c.f.cod)
                and inner.compose(c.section, c.f.mor) == fact.left.mor)

    def retract_lift(self, c: "Coalgebra", alpha: Square,
                     beta: Square) -> "Coalgebra":
        """Transport a section along a retract with identity domain legs;
        backs the closure of coalgebras under retracts (Bourke-Garner 2016,
        AWFS I)."""
        inner = self.ambient
        if alpha.target != c.f or beta.source != c.f \
                or alpha.source != beta.target:
            raise NotARetract("the retract must pass through the "
                              "structured map")
        if not (inner.is_identity(alpha.top) and inner.is_identity(beta.top)):
            raise NotARetract("both domain components must be identities")
        if compose_squares(beta, alpha) != identity_square(alpha.source):
            raise NotARetract("the two squares do not compose to the "
                              "identity")
        e_beta = self.right_map(beta).top
        section = inner.compose(e_beta,
                                inner.compose(c.section, alpha.bottom))
        out = Coalgebra(alpha.source, section)
        if not self.coalgebra_holds(out):
            raise MalformedInput("the transported section is not a "
                                 "coalgebra; the given section must be one")
        return out

    def law_suite(self, f: ArrowObj) -> dict:
        """All factorization, comonad, and monad laws at f, componentwise."""
        inner = self.ambient
        fact = self.factorize(f)
        checks = {}
        checks["factorization"] = \
            inner.compose(fact.right.mor, fact.left.mor) == f.mor \
            and fact.left.dom == f.dom and fact.right.cod == f.cod
        checks["unit_codomain_identity"] = inner.is_identity(fact.unit.bottom)
        delta, sigma = self.comultiplication(f)
        checks["comonad_counit_left"] = \
            compose_squares(self.counit(fact.left), sigma) \
            == identity_square(fact.left)
        checks["comonad_counit_right"] = \
            compose_squares(self.left_map(self.counit(f)), sigma) \
            == identity_square(fact.left)
        sigma_l = self.comultiplication(fact.left)[1]
        checks["comonad_coassociativity"] = \
            compose_squares(self.left_map(sigma), sigma) \
            == compose_squares(sigma_l, sigma)
        mu, pi = self.multiplication(f)
        fact2 = self.factorize(fact.right)
        checks["monad_unit_left"] = \
            compose_squares(pi, fact2.unit) == identity_square(fact.right)
        checks["monad_unit_right"] = \
            compose_squares(pi, self.right_map(fact.unit)) \
            == identity_square(fact.right)
        pi_r = self.multiplication(fact.right)[1]
        checks["monad_associativity"] = \
            compose_squares(pi, self.right_map(pi)) \
            == compose_squares(pi, pi_r)
        return {"checks": checks, "pass": all(checks.values())}


def _step_endofunctor(awfs: GeneratedAWFS) -> PointedEndofunctor:
    inner = awfs.ambient

    def on_obj(f: ArrowObj) -> ArrowObj:
        return awfs.one_step(f).obj

    def on_mor(s: Square) -> Square:
        """The glued square at s, memoized up to relabeling like the
        density: one entry per skeleton of s's endpoints and tables of its
        sides, holding the glued square at each square seen with them."""
        glued = awfs.session.memo(
            ("on_mor", inner.skeleton(s.source.mor),
             inner.skeleton(s.target.mor), awfs.arr.tables(s)), dict)
        out = glued.get(s)
        if out is None:
            out = glued[s] = _on_mor(s, glued)
        return out

    def _on_mor(s: Square, glued: dict) -> Square:
        src = awfs.one_step(s.source)
        tgt = awfs.one_step(s.target)
        if glued:
            # a relabeled copy: the first square's top tables, over the
            # copy's one-step objects
            top = inner.from_tables(src.obj.dom, tgt.obj.dom, inner.tables(
                next(iter(glued.values())).top))
        else:
            act = density_action(awfs.generators, s, src.den, tgt.den)
            top = src.po.mediate(
                inner.compose(tgt.po.left, s.top),
                inner.compose(tgt.po.right, act.bottom))
        out = Square(src.obj, tgt.obj, top, s.bottom)
        if awfs.backdrop.contains(inner, s.top) \
                and awfs.backdrop.contains(inner, s.bottom) \
                and not awfs.backdrop.contains(inner, out.top):
            raise BackdropViolation(
                "gluing mapped a square from the configured class outside "
                "of it; the generators are not compatible with the backdrop")
        return out

    def unit(f: ArrowObj) -> Square:
        return awfs.one_step(f).unit

    return PointedEndofunctor(awfs.arr, on_obj, on_mor, unit)


@dataclass(frozen=True)
class Factorization:
    f: ArrowObj
    left: ArrowObj
    right: ArrowObj
    midpoint: object
    unit: Square
    algebra: Square = field(repr=False)
    free: object = field(repr=False)
    trace: "Trace" = field(repr=False)

    @property
    def converged_stage(self) -> int:
        return self.trace.converged_stage


# -- construction traces -------------------------------------------------------

@dataclass(frozen=True)
class TraceCell:
    """The cell glued at one stage: the colimit arrow, its counit onto the
    stage arrow, and per comma object, in order, the leg row ``(name,
    source, target, top tables, bottom tables)`` into ``den`` and the
    problem row ``(name, generator, source, target, top tables, bottom
    tables)`` into the stage arrow, each a square kept as its tables."""
    den: ArrowObj
    counit: Square
    legs: tuple
    problems: tuple


@dataclass(frozen=True)
class QuotientRecord:
    """The base-level pushout that produced a stage's domain; `into` names
    the leg that equals the incoming transition's domain component."""
    span: tuple
    tags: tuple
    left: object
    right: object
    into: str


@dataclass(frozen=True)
class TraceStage:
    index: int
    arrow: ArrowObj
    cell: TraceCell = field(repr=False)
    built_from: QuotientRecord | None
    composite: Square
    transition: Square
    certificates: tuple


@dataclass(frozen=True)
class Trace:
    f: ArrowObj
    generators: ArrowDiagram = field(repr=False, compare=False)
    backdrop: Backdrop
    stages: tuple
    converged_stage: int


def _cell_record(den) -> TraceCell:
    """The cell of a density, its rows sharing the density's tables."""
    cells = den.cells
    return TraceCell(
        den.den, den.counit,
        tuple((n, cells[n], den.den, *leg) for n, leg in den.legs.items()),
        tuple((n, j, cells[n], den.f, top, bottom)
              for n, (j, top, bottom) in den.comma.problems.items()))


def verify_trace(trace: Trace, fact, cap: int | None = None) -> dict:
    """Recheck a trace against a factorization from scratch.

    Every cell is recomputed, every recorded pushout re-executed, every
    certificate re-evaluated, and the transitions recomposed; the report
    localizes the first discrepancy of each kind by stage and check name.
    """
    u = trace.generators
    inner = u.ambient
    items: list = []

    def item(stage, check, ok, detail):
        items.append({"stage": stage, "check": check, "pass": bool(ok),
                      "detail": detail})

    ok = bool(trace.stages) and trace.f == fact.f \
        and trace.stages[0].arrow == fact.f \
        and trace.stages[0].composite == identity_square(fact.f)
    item(None, "seed", ok, "trace starts at the factorized map")

    for st in trace.stages:
        try:
            ok = _cell_record(density_comonad(u, st.arrow, cap=cap)) == st.cell
        except EnumerationCap:
            # a cap too small to recompute the cell says nothing about the
            # trace, so it is reported as the cap, not as a failing check
            raise
        except Exception:
            ok = False
        item(st.index, "cell", ok,
             "recomputed cell matches the recorded one")

        if st.index == 0:
            item(0, "quotient", st.built_from is None,
                 "the seed stage glues nothing")
        elif st.built_from is None:
            item(st.index, "quotient", False, "missing gluing record")
        else:
            rec = st.built_from
            prev = trace.stages[st.index - 1]
            try:
                po = inner.pushout(rec.span[0], rec.span[1],
                                   tags=tuple(rec.tags))
                incoming = rec.left if rec.into == "left" else rec.right
                ok = (po.obj == st.arrow.dom
                      and po.left == rec.left and po.right == rec.right
                      and rec.into in ("left", "right")
                      and incoming == prev.transition.top
                      and prev.transition.target == st.arrow)
            except Exception:
                ok = False
            item(st.index, "quotient", ok,
                 "re-executed pushout reproduces the stage domain and "
                 "its transition")

        kinds = set()
        ok = True
        for cert in st.certificates:
            which = cert.get("morphism")
            kinds.add(which)
            if which == "transition":
                mor = st.transition.top
            elif which == "composite":
                mor = st.composite.top
            else:
                ok = False
                continue
            if cert.get("in_backdrop") is not True \
                    or not trace.backdrop.contains(inner, mor):
                ok = False
        ok = ok and {"transition", "composite"} <= kinds
        item(st.index, "certificate", ok,
             "all recorded class certificates re-verify")

    running = identity_square(trace.f)
    ok = True
    for st in trace.stages:
        if st.composite != running or st.transition.source != st.arrow:
            ok = False
            break
        running = compose_squares(st.transition, running)
    last = trace.stages[-1] if trace.stages else None
    ok = ok and last is not None \
        and last.composite.top == fact.left.mor \
        and inner.is_iso(last.composite.bottom)
    item(None, "recomposition", ok,
         "the composed transitions equal the left factor on the nose")

    try:
        col = inner.sequential_colimit(
            [st.transition.top for st in trace.stages])
        ok = col.obj == fact.midpoint \
            and col.stable_from == trace.converged_stage
    except Exception:
        ok = False
    item(None, "chain", ok,
         "the transition chain stabilizes exactly at the recorded stage "
         "on the midpoint")

    ok = trace.converged_stage == len(trace.stages) - 1 \
        and inner.compose(fact.right.mor, fact.left.mor) == fact.f.mor \
        and fact.left.cod == fact.midpoint
    item(None, "factorization", ok,
         "the two factors compose to the map through the midpoint")

    return {"pass": all(it["pass"] for it in items), "items": items}


# -- coherent lifting structures ------------------------------------------------

@dataclass(frozen=True)
class LiftingStructure:
    """A coherent choice of fillers: one per problem, compatible with every
    generator morphism, kept as ``tables``: problem comma key -> filler
    tables, which equality and hash read.  A filler map is built when read,
    once per key and tables in ``maps``, which one search's structures
    share; ``by_key`` files them under the keys, ``fillers`` under
    ``(index, square)``."""
    f: ArrowObj
    tables: dict
    awfs: GeneratedAWFS = field(repr=False, compare=False)
    maps: dict = field(default_factory=dict, repr=False, compare=False)

    def __hash__(self):
        return hash((self.f, tuple(self.tables.items())))

    by_key = cached_property(lambda self: {
        key: self.filler(key) for key in self.tables})

    @cached_property
    def fillers(self) -> dict:
        gen = self.awfs.generators.arrow
        return {(j, square_from_tables(gen(j), self.f, top, bottom)): s
                for (j, top, bottom), s in self.by_key.items()}

    def filler_tables(self, key) -> tuple:
        if key not in self.tables:
            raise BoundaryMismatch("not a lifting problem of this structure")
        return self.tables[key]

    def filler(self, key):
        value, f, gen = self.filler_tables(key), self.f, self.awfs.generators
        return memoized(self.maps, (key, value), lambda: f.ambient.from_tables(
            gen.arrow(key[0]).cod, f.dom, value))


def _fillers(u: ArrowDiagram, f: ArrowObj, keys, cap):
    """The fillers of each problem key ``(j, top, bottom)`` in keys, lazily:
    the tables of the diagonals the base ambient's ``diagonals`` gives for
    the problem, in hom order, as a sized iterable.  A cap hit names the
    generator and the diagonals' hom-set."""
    inner = u.ambient
    solvers: dict = {}
    for j, top, bottom in keys:
        try:
            if j not in solvers:
                solvers[j] = inner.diagonals(u.arrow(j).mor, f.mor, cap=cap)
            fillers = solvers[j](top, bottom)
        except EnumerationCap as exc:
            raise EnumerationCap(
                f"{exc}, enumerating the fillers at generator {j!r}: "
                f"diagonals {hom_shape(inner, u.arrow(j).cod, f.dom)}"
            ) from exc
        yield fillers


def find_lifting_structures(awfs: GeneratedAWFS, f: ArrowObj,
                            mode: str = "all"):
    """Backtracking search over coherent filler assignments, on tables.

    The problems, their order and their links are read off the comma
    category of lifting problems into f, and no density is built: problems
    are visited in comma object order, and assigning a filler s to the
    problem n2 forces ``s . u(t).bottom`` on n1 for every relation
    ``t@n2: n1 -> n2``.  A problem's candidates are the tables of its own
    fillers (``_fillers``), and forcing composes tables; the structures
    returned keep tables and share one map per problem and filler, built
    when read.  The branch is kept on an explicit stack, not the
    interpreter's.

    mode is "first", "count", or "all".  Propagation only joins problems
    that relations link, so "count" multiplies the counts of the linked
    components, searched one at a time; a lone problem with no links counts
    its fillers without a search.  The session's cap bounds every hom-set
    enumerated and each problem's fillers.
    """
    if mode not in ("first", "count", "all"):
        raise MalformedInput("mode must be first, count, or all")
    u = awfs.generators
    tables = awfs.ambient.tables
    comma = comma_category(u, f, cap=awfs.cap)
    problems = list(comma.problems.values())
    candidates = list(_fillers(u, f, problems, awfs.cap))
    position = {name: k for k, name in enumerate(comma.objects)}
    # links[k]: (position of n1, u(t).bottom tables) per relation t@k: n1 -> k
    links: list = [[] for _ in problems]
    for name, n1, n2 in comma.relations:
        links[position[n2]].append(
            (position[n1], tables(u.square(comma.over[name]).bottom)))
    gen_t = {j: tables(u.arrow(j).mor) for j in u.index.objects}
    f_t = tables(f.mor)
    assignment: list = [None] * len(problems)

    def solves(k, value):
        j, top, bottom = problems[k]
        return compose_tables(value, gen_t[j]) == top \
            and compose_tables(f_t, value) == bottom

    def propagate(k, value, touched):
        for other, bottom in links[k]:
            want = compose_tables(value, bottom)
            if assignment[other] is None:
                assignment[other] = want
                touched.append(other)
            elif assignment[other] != want:
                return False
        return True

    def leaves(order):
        """Stop at every coherent assignment of the problems at the
        positions in order, which relations link to no other position."""
        m = len(order)

        def open_from(i):
            """The first problem at or after order[i] that propagation left
            open."""
            while i < m and assignment[order[i]] is not None:
                # a filler moved along a comma morphism solves that problem
                assert solves(order[i], assignment[order[i]])
                i += 1
            return i

        # one frame per open problem on the current branch: its index in
        # order, its untried candidates, and the positions the current
        # choice assigned
        stack: list = []
        i = open_from(0)
        while True:
            if i == m:
                yield
            else:
                stack.append((i, iter(candidates[order[i]]), []))
            # undo the deepest choice and try its next candidate, popping
            # the frames that have none left
            while stack:
                i, untried, touched = stack[-1]
                for other in touched:
                    assignment[other] = None
                touched.clear()
                value = next(untried, None)
                if value is None:
                    stack.pop()
                    continue
                k = order[i]
                assignment[k] = value
                touched.append(k)
                if propagate(k, value, touched):
                    i = open_from(i + 1)
                    break
            else:
                return  # every branch is exhausted

    if mode == "count":
        classes, reps = equivalence_classes(len(problems), (
            (position[n1], position[n2]) for _name, n1, n2 in comma.relations))
        components: list = [[] for _ in reps]
        for k, c in enumerate(classes):
            components[c].append(k)
        count = 1
        for order in components:
            if len(order) == 1 and not links[order[0]]:
                count *= len(candidates[order[0]])
            else:
                count *= sum(1 for _ in leaves(order))
            if not count:
                break
        return count

    maps: dict = {}
    found = []
    for _ in leaves(range(len(problems))):
        found.append(LiftingStructure(f, dict(zip(problems, assignment)),
                                      awfs, maps))
        if mode == "first":
            break
    return found


def solve_lifting(structure: LiftingStructure, i: str, alpha: Square):
    """The filler the structure assigns to one problem."""
    tables = structure.f.ambient.tables
    s = structure.filler((i, tables(alpha.top), tables(alpha.bottom)))
    if alpha.source != structure.awfs.generators.arrow(i) \
            or alpha.target != structure.f:
        raise BoundaryMismatch("not a lifting problem of this structure")
    return s


def compose_structures(outer: LiftingStructure,
                       inner_structure: LiftingStructure) -> LiftingStructure:
    """The structure on the composite arrow, solving against the outer map
    first and feeding its filler to the inner one, all on tables: at each
    generator, the problems' tops are composed with the inner map as one
    column, and each filler is looked up by its problem's key."""
    awfs = outer.awfs
    if awfs is not inner_structure.awfs:
        raise BoundaryMismatch("structures come from different sessions")
    if inner_structure.f.cod != outer.f.dom:
        raise BoundaryMismatch("the two structured arrows do not compose")
    amb, u = awfs.ambient, awfs.generators
    comp = ArrowObj(amb, amb.compose(outer.f.mor, inner_structure.f.mor))
    first, out = amb.tables(inner_structure.f.mor), {}
    for i in u.index.objects:
        keys = problem_boundaries(u, i, comp, cap=awfs.cap)
        for (top, bottom), top1 in zip(keys, postcompose_tables(
                first, [top for top, _ in keys])):
            out[(i, top, bottom)] = inner_structure.filler_tables(
                (i, top, outer.filler_tables((i, top1, bottom))))
    return LiftingStructure(comp, out, awfs)


def structure_to_algebra(awfs: GeneratedAWFS,
                         psi: LiftingStructure) -> Square:
    """Glue a structure's fillers into a retraction of the one-step unit."""
    inner, f = awfs.ambient, psi.f
    data = awfs.one_step(f)
    target = ArrowObj(inner, inner.identity(f.dom))
    glued = data.den.mediate([(key[1], psi.filler_tables(key))
                              for key in data.den.comma.by_boundary], target)
    d_top = data.po.mediate(inner.identity(f.dom), glued.bottom)
    return Square(data.obj, f, d_top, inner.identity(f.cod))


def algebra_to_structure(awfs: GeneratedAWFS, f: ArrowObj,
                         d: Square) -> LiftingStructure:
    """Read the fillers of a one-step retraction back off its cells."""
    inner = awfs.ambient
    data = awfs.one_step(f)
    if d.source != data.obj or d.target != f:
        raise MalformedInput("the structure square must go from the glued "
                             "arrow back onto the map")
    if compose_squares(d, data.unit) != identity_square(f):
        raise NotAnAlgebra("the structure square does not retract the unit")
    den = data.den
    # den.cod -> f.dom, which the legs' bottoms are composed with
    back = inner.tables(inner.compose(d.top, data.po.right))
    fillers = postcompose_tables(back, [leg[1] for leg in den.legs.values()])
    return LiftingStructure(f, dict(zip(den.comma.by_boundary, fillers)), awfs)


def has_rlp(f: ArrowObj, u: ArrowDiagram, cap: int | None = None) -> bool:
    """True iff every problem against every generator has some filler,
    with no coherence requirement; a generator's diagonals are looked at
    only if it has a problem, and only until one has no filler."""
    for i in u.index.objects:
        keys = ((i, *key) for key in problem_boundaries(u, i, f, cap))
        if not all(_fillers(u, f, keys, cap)):
            return False
    return True


def find_filler(inner, left_mor, right_mor, top, bottom,
                cap: int | None = None):
    """A diagonal for one square from left_mor to right_mor, or None: the
    first in hom order, read off the base ambient's ``diagonals``, so only
    the square's own diagonals are generated and the cap bounds them.
    Sides of the wrong type have none."""
    dom, cod = inner.dom, inner.cod
    if (dom(top), cod(top), dom(bottom), cod(bottom)) != (
            dom(left_mor), dom(right_mor), cod(left_mor), cod(right_mor)):
        return None
    tables = inner.tables
    for d in inner.diagonals(left_mor, right_mor, cap)(tables(top),
                                                        tables(bottom)):
        return inner.from_tables(cod(left_mor), dom(right_mor), d)
    return None


# -- coalgebras on left-class maps ----------------------------------------------

@dataclass(frozen=True)
class Coalgebra:
    """A map together with a section of its right factor that restricts the
    left factor correctly: a coalgebra for the left-factor comonad, as in
    the coalgebra and retract-closure claims of Bourke-Garner 2016 (AWFS
    I)."""
    f: ArrowObj
    section: object


@dataclass(frozen=True)
class QuillenResult:
    """A factorization by plain cell attachment: no quotient stages, left
    factor recorded as the chain of stage inclusions."""
    f: ArrowObj
    left: ArrowObj
    right: ArrowObj
    stage_tops: tuple
    steps: int


def quillen_factorize(awfs: GeneratedAWFS, f: ArrowObj) -> QuillenResult:
    """Factor by repeatedly gluing one cell per problem, with no
    quotienting, until the right map has plain fillers everywhere; at most
    the session's max_steps stages are glued."""
    u = awfs.generators
    if u.index.non_identity_morphisms():
        raise NotDiscrete("cell attachment without quotienting needs a "
                          "discrete generator shape")
    inner = awfs.ambient
    current = f
    stage_tops: list = []
    while True:
        probs = [(i, a) for i in u.index.objects
                 for a in lifting_problems(u, i, current, cap=awfs.cap)]
        # a first stage is always glued; afterwards stop as soon as
        # every problem has some filler
        if not probs or (stage_tops
                         and has_rlp(current, u, cap=awfs.cap)):
            left_mor = inner.identity(f.dom)
            for top in stage_tops:
                left_mor = inner.compose(top, left_mor)
            left = ArrowObj(inner, left_mor)
            # each pushout's mediator factors the last map: an invariant
            assert inner.compose(current.mor, left_mor) == f.mor
            return QuillenResult(f, left, current, tuple(stage_tops),
                                 len(stage_tops))
        if len(stage_tops) == awfs.max_steps:
            break
        names = [f"{i}#{k}" for k, (i, _) in enumerate(probs)]
        cp = u.arr.coproduct([u.arrow(i) for i, _ in probs], tags=names)
        # one square from the coproduct of the cells onto the current map
        cells = cp.mediate([a for _, a in probs], cod=current)
        po = inner.pushout(cells.top, cp.obj.mor, tags=("old", "new"))
        current = ArrowObj(inner, po.mediate(current.mor, cells.bottom))
        stage_tops.append(po.left)
    err = IterationLimit(
        f"no pointwise fillers within {awfs.max_steps} stages")
    err.stage_tops = tuple(stage_tops)
    raise err


# -- replaying a trace under a functor ------------------------------------------

def replay(trace: Trace, functor: EndoData, witnesses: dict):
    """Re-run a recorded construction under a functor of the base ambient.

    Every recorded pushout and the final chain are re-executed on the
    functor's images and compared against the image of the recorded
    vertex through the mediator; the output is the image of the left
    factor, recomposed stage by stage, together with a stage-indexed
    structure assembled from the supplied per-generator witnesses.
    """
    inner = trace.f.ambient
    n_star = _stage_index(trace.converged_stage, trace.stages,
                          "converged_stage")
    used = sorted({row[1] for st in trace.stages
                   for row in st.cell.problems})
    missing = [j for j in used if j not in witnesses]
    if missing:
        raise MissingGeneratorWitness(
            "no witness supplied for generators: " + ", ".join(missing))
    fobj, fmor = functor.on_obj, functor.on_mor
    checks = []

    for st in trace.stages:
        if st.built_from is None:
            continue
        rec = st.built_from
        po = inner.pushout(fmor(rec.span[0]), fmor(rec.span[1]),
                           tags=tuple(rec.tags))
        try:
            med = po.mediate(fmor(rec.left), fmor(rec.right))
        except DomainMismatch as exc:
            err = ColimitNotPreserved(
                f"stage {st.index} gluing: image cocone does not commute")
            err.cocone = {"stage": st.index, "check": "quotient",
                          "legs": (fmor(rec.left), fmor(rec.right))}
            raise err from exc
        if not inner.is_iso(med):
            err = ColimitNotPreserved(
                f"stage {st.index} gluing is not preserved")
            err.cocone = {"stage": st.index, "check": "quotient",
                          "legs": (fmor(rec.left), fmor(rec.right))}
            raise err
        checks.append({"stage": st.index, "check": "quotient",
                       "preserved": True})

    rec_legs = [None] * (n_star + 1)
    rec_legs[n_star] = inner.identity(trace.stages[n_star].arrow.dom)
    for alpha in range(n_star - 1, -1, -1):
        rec_legs[alpha] = inner.compose(
            rec_legs[alpha + 1], trace.stages[alpha].transition.top)
    maps = [fmor(st.transition.top) for st in trace.stages]
    col = inner.sequential_colimit(maps)
    cocone = [fmor(leg) for leg in rec_legs]
    cocone.append(inner.compose(cocone[n_star],
                                inner.inverse(maps[n_star]))
                  if inner.is_iso(maps[n_star]) else None)
    try:
        if cocone[-1] is None:
            raise DomainMismatch("stabilization step is not invertible")
        med = col.mediate(cocone)
    except DomainMismatch as exc:
        err = ColimitNotPreserved("the transition chain is not preserved")
        err.cocone = {"stage": None, "check": "chain", "legs": cocone}
        raise err from exc
    if not inner.is_iso(med):
        err = ColimitNotPreserved("the transition chain is not preserved")
        err.cocone = {"stage": None, "check": "chain", "legs": cocone}
        raise err
    checks.append({"stage": None, "check": "chain", "preserved": True})

    comp = inner.identity(fobj(trace.f.dom))
    for st in trace.stages[:-1]:
        comp = inner.compose(fmor(st.transition.top), comp)
    if comp != fmor(trace.stages[-1].composite.top):
        raise MalformedInput("the supplied functor does not preserve "
                             "composition along the trace")
    checks.append({"stage": None, "check": "recomposition",
                   "preserved": True})

    structure = tuple(
        {"stage": st.index,
         "cells": tuple({"cell": name, "generator": j}
                        for name, j, *_sides in st.cell.problems)}
        for st in trace.stages)
    report = {"checks": checks,
              "witnesses": {j: witnesses[j] for j in used},
              "structure": structure}
    return ArrowObj(inner, comp), report


# -- serialization ---------------------------------------------------------------

def _boundary_to_json(inner, source, target, top, bottom, memo) -> dict:
    """The JSON of the square source -> target with these side tables."""
    return {"source": inner.mor_to_json(source.mor, memo),
            "target": inner.mor_to_json(target.mor, memo),
            "top": inner.tables_to_json(source.dom, target.dom, top, memo),
            "bottom": inner.tables_to_json(source.cod, target.cod, bottom,
                                           memo)}


def _sides(inner, s: Square) -> tuple:
    """A square as its source, target and sides' tables."""
    return s.source, s.target, inner.tables(s.top), inner.tables(s.bottom)


def _square_to_json(inner, s: Square, memo=None) -> dict:
    return _boundary_to_json(inner, *_sides(inner, s), memo)


def square_from_json(inner, data, memo=None) -> Square:
    data = json_fields(data, "square", "source", "target", "top", "bottom")
    source, target, top, bottom = (inner.mor_from_json(data[k], memo) for k
                                   in ("source", "target", "top", "bottom"))
    return memoized(memo, ("square", source, target, top, bottom),
                    lambda: Square(ArrowObj(inner, source),
                                   ArrowObj(inner, target), top, bottom))


def trace_to_json(trace: Trace, memo: dict | None = None) -> dict:
    """The trace's JSON, written with the memo of the document it is in;
    a trace written on its own gets a memo of its own."""
    inner = trace.generators.ambient
    if memo is None:
        memo = {}

    def mor(m):
        return inner.mor_to_json(m, memo)

    def square(s):
        return _square_to_json(inner, s, memo)

    def rows(cell_rows):
        return [[*row[:-4], _boundary_to_json(inner, *row[-4:], memo)]
                for row in cell_rows]
    stages = []
    for st in trace.stages:
        cell = {"den": mor(st.cell.den.mor), "counit": square(st.cell.counit),
                "legs": rows(st.cell.legs), "problems": rows(st.cell.problems)}
        built = None
        if st.built_from is not None:
            rec = st.built_from
            built = {"span": [mor(rec.span[0]), mor(rec.span[1])],
                     "tags": list(rec.tags),
                     "left": mor(rec.left),
                     "right": mor(rec.right),
                     "into": rec.into}
        stages.append({"index": st.index,
                       "arrow": mor(st.arrow.mor),
                       "cell": cell,
                       "built_from": built,
                       "composite": square(st.composite),
                       "transition": square(st.transition),
                       "certificates": [dict(c) for c in st.certificates]})
    return {"f": mor(trace.f.mor),
            "generators": arrow_diagram_to_json(trace.generators, memo),
            "backdrop": backdrop_to_json(trace.backdrop),
            "converged_stage": trace.converged_stage,
            "stages": stages}


def _json_list(value, what: str, length: int | None = None) -> list:
    """value, if it is a JSON list (of the given length)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        raise MalformedInput(f"{what} must be a list"
                             + ("" if length is None else f" of {length}"))
    return value


def _rows(value, width: int, what: str) -> list:
    """value, if it lists [name, ..., square] rows of width entries."""
    rows = _json_list(value, what)
    if not all(isinstance(r, list) and len(r) == width
               and all(isinstance(v, str) for v in r[:-1]) for r in rows):
        raise MalformedInput(f"{what} must list [name, ..., square] rows")
    return rows


def _stage_index(value, stages, what: str) -> int:
    """value, if it is the position of one of the stages."""
    if type(value) is not int or not 0 <= value < len(stages):
        raise MalformedInput(f"{what} must index a recorded stage")
    return value


def _certificate(value) -> dict:
    """value, if it is a certificate object that names its morphism."""
    cert = json_object(value, "certificate")
    if not isinstance(cert.get("morphism"), str):
        raise MalformedInput("a certificate's 'morphism' must be a string")
    return cert


def trace_from_json(data, inner) -> Trace:
    """The trace a factorize report records; a part of the wrong JSON type
    raises MalformedInput, and verify_trace checks the values.  Each map,
    and each finite set or presheaf of one, is parsed and checked once per
    distinct JSON: a repeat is the value read (see ``finset.read_once``)."""
    memo: dict = {}

    def mor(d):
        return inner.mor_from_json(d, memo)

    def square(d):
        return square_from_json(inner, d, memo)
    data = json_fields(data, "trace", "f", "generators", "backdrop",
                       "stages", "converged_stage")
    u = arrow_diagram_from_json(data["generators"], inner, memo)
    backdrop = backdrop_from_json(data["backdrop"])
    raw = _json_list(data["stages"], "trace 'stages'")
    stages = []
    for sd in raw:
        sd = json_fields(sd, "trace stage", "index", "arrow", "cell",
                         "built_from", "composite", "transition",
                         "certificates")
        cd = json_fields(sd["cell"], "stage 'cell'", "den", "counit", "legs",
                         "problems")
        cell = TraceCell(
            ArrowObj(inner, mor(cd["den"])),
            square(cd["counit"]),
            tuple((n, *_sides(inner, square(sq)))
                  for n, sq in _rows(cd["legs"], 2, "cell 'legs'")),
            tuple((n, j, *_sides(inner, square(sq)))
                  for n, j, sq in _rows(cd["problems"], 3,
                                        "cell 'problems'")))
        built = None
        if sd["built_from"] is not None:
            bd = json_fields(sd["built_from"], "stage 'built_from'", "span",
                             "tags", "left", "right", "into")
            span = _json_list(bd["span"], "gluing 'span'", 2)
            tags = _json_list(bd["tags"], "gluing 'tags'", 2)
            if not all(isinstance(t, str) for t in tags):
                raise MalformedInput("gluing 'tags' must be two strings")
            if bd["into"] not in ("left", "right"):
                raise MalformedInput("gluing 'into' must be 'left' or "
                                     "'right'")
            built = QuotientRecord(
                (mor(span[0]), mor(span[1])), tuple(tags),
                mor(bd["left"]), mor(bd["right"]), bd["into"])
        certs = tuple(_certificate(c) for c in
                      _json_list(sd["certificates"], "stage 'certificates'"))
        stages.append(TraceStage(
            _stage_index(sd["index"], raw, "stage 'index'"),
            ArrowObj(inner, mor(sd["arrow"])), cell, built,
            square(sd["composite"]), square(sd["transition"]), certs))
    return Trace(ArrowObj(inner, mor(data["f"])), u, backdrop,
                 tuple(stages), data["converged_stage"])


def factorization_to_json(fact: Factorization) -> dict:
    inner = fact.f.ambient
    memo: dict = {}
    return {"f": inner.mor_to_json(fact.f.mor, memo),
            "left": inner.mor_to_json(fact.left.mor, memo),
            "right": inner.mor_to_json(fact.right.mor, memo),
            "midpoint": inner.obj_to_json(fact.midpoint, memo),
            "midpoint_size": inner.obj_size(fact.midpoint),
            "converged_stage": fact.converged_stage,
            "unit": _square_to_json(inner, fact.unit, memo),
            "algebra": _square_to_json(inner, fact.algebra, memo),
            "trace": trace_to_json(fact.trace, memo)}


def structure_to_json(psi: LiftingStructure) -> dict:
    """The structure's JSON, each problem written from its key's tables and
    each filler from its own, with no map built."""
    inner = psi.f.ambient
    gen = psi.awfs.generators.arrow
    memo: dict = {}
    return {"f": inner.mor_to_json(psi.f.mor, memo),
            "fillers": [{"index": j,
                         "problem": _boundary_to_json(inner, gen(j), psi.f,
                                                      top, bottom, memo),
                         "filler": inner.tables_to_json(
                             gen(j).cod, psi.f.dom, value, memo)}
                        for (j, top, bottom), value in psi.tables.items()]}
