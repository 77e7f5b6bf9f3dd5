"""Free algebras on pointed endofunctors: steps, convergence, extensions."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import AMB, PAIR, POINT, arrow, finite, func
from garnet.arrows import (ArrowAmbient, PointedEndofunctor, Square,
                           identity_square)
from garnet.errors import (BackdropViolation, DomainMismatch, IterationLimit,
                           MalformedInput, NotAnAlgebra)
from garnet.finset import FinFunction, FinSet, identity
from garnet.freemonad import (Backdrop, FreeMonadConfig, QoppaObject,
                              StageRecord, algebra_extend,
                              backdrop_from_json, backdrop_to_json,
                              free_algebra, qoppa_step)

ALL = Backdrop("all")
MONO = Backdrop("mono")


def identity_endofunctor(amb=AMB):
    return PointedEndofunctor(amb, lambda x: x, lambda m: m,
                              lambda x: amb.identity(x))


def attach_endofunctor(part, amb=AMB):
    """X goes to X + part, pointed by the coprojection."""
    def cp(x):
        return amb.coproduct([x, part], tags=("v", "new"))

    def on_mor(f):
        cx, cy = cp(amb.dom(f)), cp(amb.cod(f))
        return cx.mediate([amb.compose(cy.injections[0], f),
                           cy.injections[1]])

    return PointedEndofunctor(amb, lambda x: cp(x).obj, on_mor,
                              lambda x: cp(x).injections[0])


def squash_endofunctor():
    """Everything collapses to the point; pointed but far from mono."""
    return PointedEndofunctor(
        AMB, lambda x: POINT, lambda m: identity(POINT),
        lambda x: func(x, POINT, *([0] * x.size)))


MAYBE = attach_endofunctor(POINT)


def with_next_stage(cfg, fa):
    """The trace's stages and one more: the step from the converged stage's
    result, which the trace stops short of."""
    stages = fa.trace.stages
    new = stages[-1].step.new
    return stages + (StageRecord(new, qoppa_step(cfg, new)),)


def test_backdrop_kinds_and_membership():
    two_to_one = func(PAIR, POINT, 0, 0)
    assert ALL.contains(AMB, two_to_one)
    assert not MONO.contains(AMB, two_to_one)
    assert MONO.contains(AMB, identity(PAIR))
    with pytest.raises(MalformedInput):
        Backdrop("open")
    with pytest.raises(MalformedInput):
        Backdrop("domain")
    with pytest.raises(MalformedInput):
        Backdrop("mono", inner=MONO)


def test_domain_backdrop_tests_top_component():
    arr = ArrowAmbient(AMB)
    dom_mono = Backdrop("domain", MONO)
    f = arrow(func(PAIR, POINT, 0, 0))
    assert dom_mono.contains(arr, identity_square(f))
    collapse = Square(arrow(identity(PAIR)), arrow(identity(POINT)),
                      func(PAIR, POINT, 0, 0), func(PAIR, POINT, 0, 0))
    assert not dom_mono.contains(arr, collapse)


def test_backdrop_json_round_trip():
    # a report carries the base ambient's backdrop, "all" or "mono"
    for b in (ALL, MONO):
        assert backdrop_from_json(backdrop_to_json(b)) == b
    for data in ({"kind": "domain"}, {"kind": "domain", "inner": "mono"},
                 "domain"):
        with pytest.raises(MalformedInput):
            backdrop_from_json(data)
    with pytest.raises(MalformedInput):
        backdrop_from_json(42)


@st.composite
def _mono_and_map(draw):
    n = draw(st.integers(1, 4))
    extra = draw(st.integers(0, 3))
    dom = finite(n, "a")
    cod = finite(n + extra, "c")
    imgs = draw(st.permutations(range(n + extra)))
    m = FinFunction(dom, cod, tuple(imgs[:n]))
    k = draw(st.integers(1, 4))
    other = finite(k, "z")
    f = FinFunction(dom, other,
                    tuple(draw(st.integers(0, k - 1)) for _ in range(n)))
    return m, f


@settings(max_examples=60, deadline=None)
@given(_mono_and_map())
def test_mono_backdrop_closed_under_cobase_change(data):
    m, f = data
    po = AMB.pushout(m, f)
    assert MONO.contains(AMB, po.right)


def test_mono_backdrop_closed_under_chain_colimits():
    one, two, three = finite(1), finite(2), finite(3)
    chain = [FinFunction(one, two, (0,)), FinFunction(two, three, (0, 1))]
    col = AMB.sequential_colimit(chain)
    for leg in col.legs:
        assert MONO.contains(AMB, leg)


def test_identity_endofunctor_step_is_iso():
    cfg = FreeMonadConfig(AMB, ALL, identity_endofunctor())
    x = QoppaObject(PAIR, PAIR, identity(PAIR))
    step = qoppa_step(cfg, x)
    assert AMB.is_iso(step.g) and AMB.is_iso(step.h)
    assert AMB.obj_size(step.new.b) == 2


def test_identity_endofunctor_free_algebra_trivial():
    cfg = FreeMonadConfig(AMB, ALL, identity_endofunctor())
    fa = free_algebra(cfg, PAIR)
    assert fa.trace.converged_stage == 0
    assert fa.carrier == PAIR
    assert fa.unit == identity(PAIR)
    assert AMB.compose(fa.structure, identity(PAIR)) == fa.structure
    assert len(fa.trace.stages) == 1
    assert len(with_next_stage(cfg, fa)) == 2


def test_qoppa_step_rejects_mistyped_stage():
    cfg = FreeMonadConfig(AMB, ALL, MAYBE)
    with pytest.raises(MalformedInput):
        qoppa_step(cfg, QoppaObject(PAIR, PAIR, identity(PAIR)))


def test_config_rejects_foreign_endofunctor():
    arr = ArrowAmbient(AMB)
    with pytest.raises(MalformedInput):
        FreeMonadConfig(arr, ALL, MAYBE)


def test_attach_point_free_algebra_shape():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    assert fa.trace.converged_stage == 1
    assert fa.carrier.size == 3
    assert AMB.is_mono(fa.unit)
    # structure folds the attached copy onto the earlier one
    assert not AMB.is_mono(fa.structure)
    assert AMB.compose(fa.structure, MAYBE.unit(fa.carrier)) == \
        identity(fa.carrier)
    assert len(fa.trace.stages) == 2
    assert len(with_next_stage(cfg, fa)) == 3


def _step_action(prev, cur):
    """The step applied to the stage unit (g, h) of `prev`: the new domain
    component is h, the new codomain component is the induced map between
    the step pushouts of `prev` and `cur`."""
    b = prev.step.h
    q = AMB.compose(cur.step.new.f, MAYBE.on_mor(b))
    return b, prev.step.out.mediate(q, AMB.compose(cur.step.h, b))


def test_step_coherence_recorded_and_true():
    # applying the step to each recorded unit reproduces the next one, and
    # to the converged one the step past it
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    stages = with_next_stage(cfg, fa)
    assert len(stages) == fa.trace.converged_stage + 2
    for prev, cur in zip(stages, stages[1:]):
        assert _step_action(prev, cur)[1] == cur.step.h


def test_stability_iso_recorded():
    # the trace ends at convergence, and the step one past it has units
    # that compose with the converged ones to isos
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    n = fa.trace.converged_stage
    assert len(fa.trace.stages) == n + 1
    stages = with_next_stage(cfg, fa)
    at, extra = stages[n].step, stages[n + 1].step
    assert AMB.is_iso(AMB.compose(extra.g, at.g))
    assert AMB.is_iso(AMB.compose(extra.h, at.h))


def test_unit_is_composite_of_stage_units():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    built = identity(PAIR)
    for rec in fa.trace.stages[:fa.trace.converged_stage]:
        built = AMB.compose(rec.step.g, built)
    assert built == fa.unit


def _pointed_algebras(t, max_size):
    """All algebras for the attach-a-point endofunctor: a carrier plus a
    choice of where the fresh point lands."""
    out = []
    for size in range(1, max_size + 1):
        d_set = finite(size, "d")
        td = t.on_obj(d_set)
        for p in range(size):
            out.append((d_set,
                        FinFunction(td, d_set, tuple(range(size)) + (p,))))
    return out


def test_attach_point_universal_property_exhaustive():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    for d_obj, d in _pointed_algebras(MAYBE, 3):
        for h in AMB.hom(PAIR, d_obj):
            found = [phi for phi in AMB.hom(fa.carrier, d_obj)
                     if AMB.compose(phi, fa.unit) == h
                     and AMB.compose(phi, fa.structure) ==
                     AMB.compose(d, MAYBE.on_mor(phi))]
            assert len(found) == 1
            assert found[0] == algebra_extend(fa, (d_obj, d), h)


def test_algebra_extend_of_unit_is_identity():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    ext = algebra_extend(fa, (fa.carrier, fa.structure), fa.unit)
    assert AMB.is_identity(ext)


def test_algebra_extend_separates_seeds():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    d_obj, d = _pointed_algebras(MAYBE, 3)[-1]
    h1 = func(PAIR, d_obj, 0, 1)
    h2 = func(PAIR, d_obj, 1, 0)
    assert algebra_extend(fa, (d_obj, d), h1) != \
        algebra_extend(fa, (d_obj, d), h2)


def test_algebra_extend_rejects_non_algebra():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    fa = free_algebra(cfg, PAIR)
    td = MAYBE.on_obj(PAIR)
    # moves the original points, so the unit law fails
    bad = FinFunction(td, PAIR, (1, 0, 0))
    with pytest.raises(NotAnAlgebra):
        algebra_extend(fa, (PAIR, bad), identity(PAIR))
    with pytest.raises(DomainMismatch):
        algebra_extend(fa, (PAIR, FinFunction(td, PAIR, (0, 1, 0))),
                       func(POINT, PAIR, 0))


def test_iteration_limit_carries_partial_trace():
    cfg = FreeMonadConfig(AMB, MONO, MAYBE)
    with pytest.raises(IterationLimit) as exc:
        free_algebra(cfg, PAIR, max_steps=1)
    trace = exc.value.trace
    assert trace.converged_stage is None
    assert len(trace.stages) == 1
    with pytest.raises(MalformedInput):
        free_algebra(cfg, PAIR, max_steps=0)


def test_squash_violates_mono_backdrop():
    cfg = FreeMonadConfig(AMB, MONO, squash_endofunctor())
    with pytest.raises(BackdropViolation):
        free_algebra(cfg, PAIR)


def test_squash_converges_under_all_backdrop():
    cfg = FreeMonadConfig(AMB, ALL, squash_endofunctor())
    fa = free_algebra(cfg, PAIR)
    assert fa.carrier.size == 1
    assert fa.trace.converged_stage == 1
    assert fa.unit == func(PAIR, fa.carrier, 0, 0)


def test_step_action_composes_with_units():
    # the step action applied to a stage unit reproduces the next unit's
    # codomain component, including at the stability tail
    cfg = FreeMonadConfig(AMB, ALL, MAYBE)
    fa = free_algebra(cfg, finite(3, "w"))
    stages = with_next_stage(cfg, fa)
    for prev, cur in zip(stages, stages[1:]):
        b, c = _step_action(prev, cur)
        assert b == prev.step.h
        assert c == cur.step.h


def _times(k):
    def on_obj(x):
        return FinSet(tuple(f"{lbl}*{i}" for lbl in x.labels
                            for i in range(k)))

    def on_mor(f):
        table = tuple(f(j) * k + i for j in range(f.dom.size)
                      for i in range(k))
        return FinFunction(on_obj(f.dom), on_obj(f.cod), table)

    return on_obj, on_mor


def test_functoriality_under_product_with_k():
    # crossing with a 2-element set preserves all colimits and monos, and
    # carries the attach-a-point construction to the attach-k-points one;
    # the free algebras must match through the canonical comparison map
    k = 2
    f_obj, f_mor = _times(k)
    k_set = FinSet(tuple(f"pt*{i}" for i in range(k)))
    t_src = MAYBE
    t_tgt = attach_endofunctor(k_set)
    x = PAIR
    src = free_algebra(FreeMonadConfig(AMB, MONO, t_src), x)
    tgt = free_algebra(FreeMonadConfig(AMB, MONO, t_tgt), f_obj(x))
    assert src.trace.converged_stage == tgt.trace.converged_stage
    for rs, rt in zip(src.trace.stages, tgt.trace.stages):
        assert rs.x.a.size * k == rt.x.a.size
        assert rs.x.b.size * k == rt.x.b.size
    # the strong square F(T X) -> T'(F X) is a relabeling at every object
    def strong(y):
        return FinFunction(f_obj(t_src.on_obj(y)), t_tgt.on_obj(f_obj(y)),
                           tuple(range(f_obj(t_src.on_obj(y)).size)))
    assert AMB.is_iso(strong(x))
    transported = AMB.compose(f_mor(src.structure),
                              AMB.inverse(strong(src.carrier)))
    comparison = algebra_extend(tgt, (f_obj(src.carrier), transported),
                                f_mor(src.unit))
    assert AMB.is_iso(comparison)
    assert AMB.compose(comparison, tgt.unit) == f_mor(src.unit)
