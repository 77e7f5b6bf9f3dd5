"""Free algebras and free monads on pointed endofunctors.

The construction iterates a one-step quotient on triples (A, B, f: TA -> B)
until the step's unit becomes invertible, keeping a full trace: every stage's
pushouts, its unit components, and the convergence bookkeeping.  The trace is
what makes extensions cheap: the universal property of the colimit is replayed
stage by stage instead of being re-solved globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arrows import PointedEndofunctor
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
    out: object = field(repr=False)    # pushout of the gap against the fold
    # gap and fold leave the pushout P of the point against g
    gap: object = field(repr=False)    # P -> T(b)
    fold: object = field(repr=False)   # P -> b


@dataclass(frozen=True)
class StageRecord:
    index: int
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
    part already reachable from a."""
    amb, t = cfg.ambient, cfg.t
    if amb.dom(x.f) != t.on_obj(x.a) or amb.cod(x.f) != x.b:
        raise MalformedInput("stage map must go from T(a) to b")
    g = amb.compose(x.f, t.unit(x.a))
    if not cfg.backdrop.contains(amb, g):
        raise BackdropViolation(
            "stage unit domain component fell outside the backdrop")
    mid = amb.pushout(t.unit(x.a), g)
    gap = mid.mediate(t.on_mor(g), t.unit(x.b))
    fold = mid.mediate(x.f, amb.identity(x.b))
    out = amb.pushout(gap, fold)
    k, h = out.left, out.right
    # invariant: k . gap = h . fold, and on b gap is the unit, fold the id
    assert amb.compose(k, t.unit(x.b)) == h
    if not cfg.backdrop.contains(amb, h):
        raise BackdropViolation(
            "stage unit codomain component fell outside the backdrop; "
            "cobase change left the configured class")
    return StepResult(QoppaObject(x.b, amb.cod(h), k), g, h, out, gap, fold)


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
    converged = None
    for n in range(max_steps):
        step = qoppa_step(cfg, x)
        stages.append(StageRecord(n, x, step))
        if amb.is_iso(step.g) and amb.is_iso(step.h):
            converged = n
            break
        x = step.new
    if converged is None:
        err = IterationLimit(f"no convergence within {max_steps} steps")
        err.trace = FreeMonadTrace(tuple(stages), None)
        raise err
    # invariant: one step on, g is the iso h and h a cobase change of an iso
    step = stages[-1].step
    extra = qoppa_step(cfg, step.new)
    stages.append(StageRecord(converged + 1, step.new, extra))
    assert amb.is_iso(extra.g) and amb.is_iso(extra.h), \
        "converged stage failed to stabilize"
    at = stages[converged]
    carrier = at.x.a
    structure = amb.compose(amb.inverse(at.step.g), at.x.f)
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
    u = h
    v = amb.compose(d, t.on_mor(u))
    for n in range(free.trace.converged_stage):
        rec = free.trace.stages[n]
        u, v = v, rec.step.out.mediate(amb.compose(d, t.on_mor(v)), v)
    at = free.trace.stages[free.trace.converged_stage]
    # invariant: the last mediator's cocone equation along the stage map
    assert amb.compose(v, at.x.f) == amb.compose(d, t.on_mor(u))
    # invariant: each v . g = d . T(u) . unit = u, by d's unit law (checked)
    assert amb.compose(u, free.unit) == h
    # invariant: u . g^-1 = v at the converged stage, then the first check
    assert amb.compose(u, free.structure) == amb.compose(d, t.on_mor(u))
    return u
