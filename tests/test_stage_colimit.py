"""Each free-algebra stage is one colimit, and the trace ends at convergence.

``qoppa_step`` glues T(b) and b in one colimit.  The oracle is the
construction it replaced: the pushout P of the point against g, the two
mediators gap: P -> T(b) and fold: P -> b, and their pushout.  Both must
give the same object, the same classes, representatives and labels on every
level, and the same legs, at every recorded stage: of the attach-a-point
and squash toys on finite sets, and of factorizations over the walking
cospan (the empty map into the point included) and over graphs.  A
factorization's trace records (gap, fold) on domains from stage 2 on, and
those must be the oracle's.

``free_algebra`` stops at the converged stage and checks only the premises
of its stability; here the step past it is run on factorizations over the
walking cospan and over graphs, and both its unit components must be isos.
"""

from hypothesis import example, given, settings, strategies as st

from conftest import AMB, POINT, arrow, finite, func
from garnet.awfs import GeneratedAWFS
from garnet.finset import EMPTY
from garnet.freemonad import Backdrop, FreeMonadConfig, free_algebra, \
    qoppa_step
from test_density_memo import BOUNDARY, WC, finset_maps, graph_maps
from test_freemonad import MAYBE, squash_endofunctor

ALL, MONO = Backdrop("all"), Backdrop("mono")


def old_step_colimit(cfg, x, g):
    """The step's colimit as two pushouts: (gap, fold) out of the pushout
    of the point against g, and their pushout."""
    amb, t = cfg.ambient, cfg.t
    mid = amb.pushout(t.unit(x.a), g)
    gap = mid.mediate(t.on_mor(g), t.unit(x.b))
    fold = mid.mediate(x.f, amb.identity(x.b))
    return gap, fold, amb.pushout(gap, fold)


def check_stages(cfg, stages):
    """Each recorded stage's colimit against the oracle's; the oracle's
    spans, in stage order."""
    spans = []
    for rec in stages:
        gap, fold, old = old_step_colimit(cfg, rec.x, rec.step.g)
        out = rec.step.out
        assert out.obj == old.obj and out.feet == old.feet
        assert len(out.levels) == len(old.levels)
        for new_level, old_level in zip(out.levels, old.levels):
            assert new_level.classes == old_level.classes
            assert new_level.reps == old_level.reps
            assert new_level.obj.labels == old_level.obj.labels
        assert out.left == old.left and out.right == old.right
        assert rec.step.new.f == old.left and rec.step.h == old.right
        spans.append((gap, fold))
    return spans


def check_factorization(u, f):
    aw = GeneratedAWFS(u)
    fact = aw.factorize(f)
    spans = check_stages(aw.cfg, fact.free.trace.stages)
    for st in fact.trace.stages[2:]:
        gap, fold = spans[st.index - 2]
        assert st.built_from.span == (gap.top, fold.top)
    return aw, fact


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.sampled_from([ALL, MONO]))
def test_attach_point_stages_match_two_pushouts(n, backdrop):
    cfg = FreeMonadConfig(AMB, backdrop, MAYBE)
    check_stages(cfg, free_algebra(cfg, finite(n, "w")).trace.stages)


def test_squash_stages_match_two_pushouts():
    cfg = FreeMonadConfig(AMB, ALL, squash_endofunctor())
    for n in range(4):
        check_stages(cfg, free_algebra(cfg, finite(n, "w")).trace.stages)


@settings(max_examples=40, deadline=None)
@given(finset_maps())
@example(arrow(func(EMPTY, POINT)))
def test_walking_cospan_stages_match_two_pushouts(f):
    check_factorization(WC, f)


def test_the_empty_map_into_the_point_records_two_gluings():
    _aw, fact = check_factorization(WC, arrow(func(EMPTY, POINT)))
    assert fact.converged_stage == 2
    assert fact.trace.stages[2].built_from.into == "right"


@settings(max_examples=25, deadline=None)
@given(graph_maps())
def test_graph_stages_match_two_pushouts(f):
    check_factorization(BOUNDARY, f)


# -- the step past convergence ---------------------------------------------------

def check_stable(u, f):
    """One more step from the converged stage has iso unit components."""
    aw = GeneratedAWFS(u)
    fa = aw.factorize(f).free
    extra = qoppa_step(aw.cfg, fa.trace.stages[-1].step.new)
    assert aw.arr.is_iso(extra.g) and aw.arr.is_iso(extra.h)
    assert extra.g == fa.trace.stages[-1].step.h


@settings(max_examples=40, deadline=None)
@given(finset_maps())
@example(arrow(func(EMPTY, POINT)))
def test_walking_cospan_step_past_convergence_is_iso(f):
    check_stable(WC, f)


@settings(max_examples=25, deadline=None)
@given(graph_maps())
def test_graph_step_past_convergence_is_iso(f):
    check_stable(BOUNDARY, f)
