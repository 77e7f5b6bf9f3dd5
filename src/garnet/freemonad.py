"""Free algebras and free monads on pointed endofunctors.

The construction iterates a one-step quotient on triples (A, B, f: TA -> B)
until the step's unit becomes invertible, and stops there, keeping a full
trace: every stage's colimit, its unit components, and the convergence
bookkeeping.  The trace is what makes extensions cheap: the universal property
of the colimit is replayed stage by stage instead of being re-solved globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrows import PointedEndofunctor, compose_tables
from .errors import (BackdropViolation, DomainMismatch, IterationLimit,
                     MalformedInput, NotAnAlgebra)

DEFAULT_MAX_STEPS = 64


@dataclass(frozen=True)
class Backdrop:
    """A class of maps the construction's unit components must stay inside.

    kind "all" admits everything, "mono" admits the ambient's monos, and
    "domain" tests the top component of a square against an inner backdrop
    (only meaningful over an arrow ambient).
    """
    kind: str
    inner: "Backdrop | None" = None

    def __post_init__(self):
        if self.kind not in ("all", "mono", "domain"):
            raise MalformedInput(f"unknown backdrop kind {self.kind!r}")
        if (self.kind == "domain") != (self.inner is not None):
            raise MalformedInput(
                "domain backdrop takes exactly one inner backdrop")

    def contains(self, ambient, m) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "mono":
            return ambient.is_mono(m)
        return self.inner.contains(ambient.inner, m.top)


def backdrop_to_json(b: Backdrop) -> str:
    """A trace's backdrop: the base ambient's, "all" or "mono"."""
    return b.kind


def backdrop_from_json(data) -> Backdrop:
    if data not in ("all", "mono"):
        raise MalformedInput("a trace's backdrop must be 'all' or 'mono'")
    return Backdrop(data)


@dataclass(frozen=True)
class FreeMonadConfig:
    ambient: object
    backdrop: Backdrop
    t: PointedEndofunctor

    def __post_init__(self):
        if self.t.ambient != self.ambient:
            raise MalformedInput(
                "the pointed endofunctor lives over a different ambient")


@dataclass(frozen=True)
class QoppaObject:
    """A partial algebra stage: objects a, b and a map f: T(a) -> b."""
    a: object
    b: object
    f: object


@dataclass(frozen=True)
class StepResult:
    new: QoppaObject
    g: object  # unit domain component a -> b, equals f after the point
    h: object  # unit codomain component b -> new.b
    out: object = field(repr=False)    # T(b) and b glued: legs new.f and h


@dataclass(frozen=True)
class StageRecord:
    x: QoppaObject
    step: StepResult = field(repr=False)


@dataclass(frozen=True)
class FreeMonadTrace:
    stages: tuple
    converged_stage: int | None


@dataclass(frozen=True)
class FreeAlgebraResult:
    cfg: FreeMonadConfig = field(repr=False)
    start: object
    carrier: object
    structure: object
    unit: object
    trace: FreeMonadTrace = field(repr=False)


def qoppa_step(cfg: FreeMonadConfig, x: QoppaObject) -> StepResult:
    """One quotient step: glue a fresh free layer onto b and collapse the
    part already reachable from a: one colimit of T(b) and b, which glues
    T(g)(y) to f(y) for y in T(a) and unit(z) to z for z in b."""
    amb, t = cfg.ambient, cfg.t
    if amb.dom(x.f) != t.on_obj(x.a) or amb.cod(x.f) != x.b:
        raise MalformedInput("stage map must go from T(a) to b")
    g = amb.compose(x.f, t.unit(x.a))
    if not cfg.backdrop.contains(amb, g):
        raise BackdropViolation(
            "stage unit domain component fell outside the backdrop")
    tg, unit_b, tables = t.on_mor(g), t.unit(x.b), amb.tables
    # (T(g), unit_b) is a cocone on T(a) +_a b: the unit is natural at g
    if compose_tables(tables(tg), tables(t.unit(x.a))) \
            != compose_tables(tables(unit_b), tables(g)):
        raise DomainMismatch("cocone leg is not constant on a class")
    out = amb.colimit((amb.cod(unit_b), x.b), tuple(
        [(0, v, 1, w) for v, w in zip(tg_t, f_t)]
        + [(0, v, 1, z) for z, v in enumerate(u_t)]
        for tg_t, f_t, u_t in zip(tables(tg), tables(x.f), tables(unit_b))),
        ("i0", "i1"))
    k, h = out.left, out.right
    # invariant: k . T(g) = h . f, and k . unit_b = h by the second pairs
    assert amb.compose(k, unit_b) == h
    if not cfg.backdrop.contains(amb, h):
        raise BackdropViolation(
            "stage unit codomain component fell outside the backdrop; "
            "cobase change left the configured class")
    return StepResult(QoppaObject(x.b, amb.cod(h), k), g, h, out)


def free_algebra(cfg: FreeMonadConfig, start,
                 max_steps: int = DEFAULT_MAX_STEPS) -> FreeAlgebraResult:
    """Iterate the quotient step from (start, T start, id) until the unit
    inverts, then extract the algebra."""
    if max_steps < 1:
        raise MalformedInput("max_steps must be at least 1")
    amb, t = cfg.ambient, cfg.t
    if not cfg.backdrop.contains(amb, t.unit(start)):
        raise BackdropViolation("the unit at the seed is outside the backdrop")
    tx = t.on_obj(start)
    x = QoppaObject(start, tx, amb.identity(tx))
    stages: list[StageRecord] = []
    for converged in range(max_steps):
        step = qoppa_step(cfg, x)
        stages.append(StageRecord(x, step))
        if amb.is_iso(step.g) and amb.is_iso(step.h):
            break
        x = step.new
    else:
        err = IterationLimit(f"no convergence within {max_steps} steps")
        err.trace = FreeMonadTrace(tuple(stages), None)
        raise err
    # invariant: one step on, g' and h' are isos.  g' = k . unit_b is h; as
    # T(g') is an iso, each class of that step's colimit meets b', so h' is
    # onto; and f' . T(g')^-1 retracts unit_b' by naturality, so each class
    # holds one element of b' and h' is injective
    h, new, tables = step.h, step.new, amb.tables
    assert amb.is_iso(th := t.on_mor(h)) and compose_tables(
        tables(th), tables(t.unit(new.a))) == compose_tables(
        tables(t.unit(new.b)), tables(h)), "converged stage failed to stabilize"
    carrier = x.a
    structure = amb.compose(amb.inverse(step.g), x.f)
    # invariant: g = f . unit, so g^-1 . f retracts the unit
    assert amb.compose(structure, t.unit(carrier)) == amb.identity(carrier)
    unit = amb.identity(start)
    for rec in stages[:converged]:
        unit = amb.compose(rec.step.g, unit)
    if not cfg.backdrop.contains(amb, unit):
        raise BackdropViolation("the composite unit is outside the backdrop")
    trace = FreeMonadTrace(tuple(stages), converged)
    return FreeAlgebraResult(cfg, start, carrier, structure, unit, trace)


def algebra_extend(free: FreeAlgebraResult, target, h):
    """The unique algebra map out of the free algebra extending h, rebuilt
    by walking the trace.

    target is a pair (object, structure map T(object) -> object) satisfying
    the unit law; h goes from the free algebra's seed to the target object.
    """
    cfg = free.cfg
    amb, t = cfg.ambient, cfg.t
    d_obj, d = target
    if amb.dom(d) != t.on_obj(d_obj) or amb.cod(d) != d_obj:
        raise MalformedInput("target structure must go from T(object) to it")
    if amb.compose(d, t.unit(d_obj)) != amb.identity(d_obj):
        raise NotAnAlgebra("target structure does not retract the unit")
    if amb.dom(h) != free.start or amb.cod(h) != d_obj:
        raise DomainMismatch("extension seed must go from the start object "
                             "to the target object")
    u, v = h, amb.compose(d, t.on_mor(h))
    for rec in free.trace.stages[:-1]:
        u, v = v, rec.step.out.mediate(amb.compose(d, t.on_mor(v)), v)
    at = free.trace.stages[-1]
    # invariant: the last mediator's cocone equation along the stage map
    assert amb.compose(v, at.x.f) == amb.compose(d, t.on_mor(u))
    # invariant: each v . g = d . T(u) . unit = u, by d's unit law (checked)
    assert amb.compose(u, free.unit) == h
    # invariant: u . g^-1 = v at the converged stage, then the first check
    assert amb.compose(u, free.structure) == amb.compose(d, t.on_mor(u))
    return u
