"""Factorization engine: factors, (co)monad structure, lifting operators,
traces, replay, and the cell-by-cell construction variant."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (AMB, PAIR, POINT, arrow, empty_diagram, f_empty_to_point,
                      finite, func, point_inclusion, walking_cospan)
from garnet.arrows import ArrowObj, EndoData, Square, compose_squares, \
    identity_square
from garnet.awfs import (Coalgebra, GeneratedAWFS, LiftingStructure,
                         algebra_to_structure, compose_structures,
                         factorization_to_json,
                         find_filler, find_lifting_structures, has_rlp,
                         quillen_factorize, replay, solve_lifting,
                         structure_to_algebra, structure_to_json,
                         trace_from_json, trace_to_json, verify_trace)
from garnet.errors import (BackdropViolation, BoundaryMismatch,
                           ColimitNotPreserved, IterationLimit,
                           MalformedInput, MissingGeneratorWitness,
                           NotARetract, NotDiscrete)
from garnet.finset import EMPTY, FinFunction, FinSet
from garnet.freemonad import Backdrop


def cospan_awfs():
    return GeneratedAWFS(walking_cospan())


def point_awfs():
    return GeneratedAWFS(point_inclusion())


def f_two_to_one():
    return arrow(func(finite(2), POINT, 0, 0))


# every surjection n -> k up to iso, one per fiber-size partition
def surjection(partition):
    dom = finite(sum(partition))
    cod = finite(len(partition), prefix="y")
    table = []
    for j, p in enumerate(partition):
        table.extend([j] * p)
    return arrow(FinFunction(dom, cod, tuple(table)))


def all_small_maps(nmax):
    out = []
    for a in range(nmax + 1):
        for b in range(nmax + 1):
            if a > 0 and b == 0:
                continue
            dom, cod = finite(a), finite(b, prefix="y")
            if a == 0:
                out.append(arrow(FinFunction(dom, cod, ())))
                continue
            for table in _tables(a, b):
                out.append(arrow(FinFunction(dom, cod, table)))
    return out


def _tables(a, b):
    # canonical representatives: one table per unordered fiber profile
    seen = set()
    for flat in range(b ** a):
        table = tuple((flat // (b ** i)) % b for i in range(a))
        profile = tuple(sorted(table.count(j) for j in range(b)))
        hit = tuple(sorted(set(table)))
        key = (profile, len(hit))
        if key in seen:
            continue
        seen.add(key)
        yield table


# -- the one-step gluing ----------------------------------------------------------


def test_one_step_point_generator_glues_codomain():
    aw = point_awfs()
    f = f_two_to_one()
    step = aw.one_step(f)
    # one cell per point of the codomain, glued along nothing
    assert AMB.obj_size(step.obj.dom) == 3
    assert AMB.obj_size(step.obj.cod) == 1
    assert step.unit.source == f
    assert step.unit.target == step.obj
    assert AMB.is_identity(step.unit.bottom)
    assert step.unit.top.is_injective


def test_one_step_cospan_on_empty_inclusion():
    aw = cospan_awfs()
    step = aw.one_step(f_empty_to_point())
    assert AMB.obj_size(step.obj.dom) == 2
    assert AMB.obj_size(step.obj.cod) == 1


def test_one_step_cospan_second_iteration_shape():
    aw = cospan_awfs()
    step = aw.one_step(f_two_to_one())
    assert AMB.obj_size(step.obj.dom) == 3
    assert AMB.obj_size(step.obj.cod) == 1


# -- factorization ----------------------------------------------------------------


def test_factorize_empty_generators_is_trivial():
    aw = GeneratedAWFS(empty_diagram())
    f = f_two_to_one()
    fact = aw.factorize(f)
    assert fact.left.mor == AMB.identity(f.dom)
    assert fact.right.mor == f.mor
    assert fact.converged_stage == 0


def test_factorize_cospan_empty_inclusion():
    aw = cospan_awfs()
    f = f_empty_to_point()
    fact = aw.factorize(f)
    assert fact.left.dom == f.dom
    assert AMB.obj_size(fact.midpoint) == 1
    assert AMB.is_iso(fact.right.mor)
    assert fact.converged_stage == 2
    sizes = [(AMB.obj_size(st.arrow.dom), AMB.obj_size(st.arrow.cod))
             for st in fact.trace.stages]
    assert sizes == [(0, 1), (2, 1), (1, 1)]


def test_factorize_composes_on_the_nose():
    for aw in (cospan_awfs(), point_awfs()):
        for f in (f_two_to_one(), f_empty_to_point(),
                  arrow(func(finite(3), finite(2, "y"), 0, 0, 1))):
            fact = aw.factorize(f)
            assert AMB.compose(fact.right.mor, fact.left.mor) == f.mor
            assert fact.left.dom == f.dom
            assert fact.right.cod == f.cod
            assert fact.left.cod == fact.midpoint
            assert AMB.is_identity(fact.unit.bottom)


def test_factorize_point_generator_midpoint_is_disjoint_union():
    aw = point_awfs()
    f = f_two_to_one()
    fact = aw.factorize(f)
    assert AMB.obj_size(fact.midpoint) == 3
    assert fact.left.mor.is_injective
    assert fact.converged_stage == 1


def test_factorize_cospan_two_to_one():
    fact = cospan_awfs().factorize(f_two_to_one())
    assert AMB.obj_size(fact.midpoint) == 3
    assert fact.left.mor.is_injective
    assert fact.converged_stage == 1


def test_factorize_memoized_per_session():
    aw = cospan_awfs()
    f = f_two_to_one()
    assert aw.factorize(f) is aw.factorize(f)


def test_algebra_square_satisfies_unit_law():
    aw = cospan_awfs()
    fact = aw.factorize(f_two_to_one())
    step = aw.one_step(fact.right)
    assert compose_squares(fact.algebra, step.unit) \
        == identity_square(fact.right)
    assert AMB.is_identity(fact.algebra.bottom)


# -- functorial structure ---------------------------------------------------------


def test_counit_and_unit_shapes():
    aw = cospan_awfs()
    f = f_two_to_one()
    fact = aw.factorize(f)
    eps = aw.counit(f)
    assert eps.source == fact.left and eps.target == f
    assert AMB.is_identity(eps.top)
    assert eps.bottom == fact.right.mor


def test_maps_of_factorizations_are_functorial():
    aw = cospan_awfs()
    f = f_two_to_one()
    g = arrow(func(finite(3), finite(2, "y"), 0, 1, 1))
    h = arrow(func(finite(2, "z"), POINT, 0, 0))
    s = Square(f, g, func(f.dom, g.dom, 1, 2), func(f.cod, g.cod, 1))
    t = Square(g, h, func(g.dom, h.dom, 0, 1, 1), func(g.cod, h.cod, 0, 0))
    for part in (aw.left_map, aw.right_map):
        assert part(identity_square(f)) == identity_square(part(
            identity_square(f)).source)
        assert part(compose_squares(t, s)) \
            == compose_squares(part(t), part(s))
    e = aw.midpoint_map(s)
    assert AMB.compose(e, aw.factorize(f).left.mor) \
        == AMB.compose(aw.factorize(g).left.mor, s.top)
    assert AMB.compose(aw.factorize(g).right.mor, e) \
        == AMB.compose(s.bottom, aw.factorize(f).right.mor)


def test_comultiplication_shapes_and_counit_law():
    aw = cospan_awfs()
    for f in (f_empty_to_point(), f_two_to_one()):
        fact = aw.factorize(f)
        delta, sigma = aw.comultiplication(f)
        assert delta.dom == fact.midpoint
        assert delta.cod == aw.factorize(fact.left).midpoint
        assert AMB.compose(aw.factorize(fact.left).right.mor, delta) \
            == AMB.identity(fact.midpoint)
        assert sigma.source == fact.left


def test_comultiplication_trivial_generators_is_identity():
    aw = GeneratedAWFS(empty_diagram())
    delta, _ = aw.comultiplication(f_two_to_one())
    assert AMB.is_identity(delta)


def test_multiplication_unit_laws():
    aw = point_awfs()
    f = f_two_to_one()
    fact = aw.factorize(f)
    mu, pi = aw.multiplication(f)
    fact2 = aw.factorize(fact.right)
    assert compose_squares(pi, fact2.unit) == identity_square(fact.right)
    assert AMB.compose(mu, fact2.left.mor) == AMB.identity(fact.midpoint)


def test_law_suite_both_generator_families():
    probes = (f_empty_to_point(), f_two_to_one(),
              arrow(AMB.identity(POINT)),
              arrow(func(finite(3), finite(2, "y"), 0, 0, 1)),
              arrow(func(finite(2), finite(3, "y"), 0, 2)))
    for aw in (cospan_awfs(), point_awfs()):
        for f in probes:
            report = aw.law_suite(f)
            assert report["pass"], (f.mor, report["checks"])


def test_law_suite_lists_every_family():
    report = cospan_awfs().law_suite(f_empty_to_point())
    assert set(report["checks"]) == {
        "factorization", "unit_codomain_identity", "comonad_counit_left",
        "comonad_counit_right", "comonad_coassociativity",
        "monad_unit_left", "monad_unit_right", "monad_associativity"}


@st.composite
def _small_map(draw):
    a = draw(st.integers(0, 3))
    b = draw(st.integers(1, 3))
    table = tuple(draw(st.integers(0, b - 1)) for _ in range(a))
    return arrow(FinFunction(finite(a), finite(b, "y"), table))


@settings(max_examples=20, deadline=None)
@given(_small_map())
def test_law_suite_random_maps_point_generator(f):
    assert point_awfs().law_suite(f)["pass"]


# -- freeness of the right factor -------------------------------------------------


def test_extension_of_unit_is_identity():
    aw = cospan_awfs()
    f = f_two_to_one()
    fact = aw.factorize(f)
    h = Square(f, fact.right, fact.left.mor, AMB.identity(f.cod))
    ext = aw.extend(fact, (fact.right, fact.algebra), h)
    assert ext == identity_square(fact.right)


def test_extension_lands_in_structured_target():
    aw = point_awfs()
    f = arrow(func(EMPTY, PAIR))
    fact = aw.factorize(f)
    g = f_two_to_one()
    fg = aw.factorize(g)
    h = Square(f, fg.right, func(EMPTY, fg.midpoint),
               func(PAIR, POINT, 0, 0))
    ext = aw.extend(fact, (fg.right, fg.algebra), h)
    assert ext.source == fact.right and ext.target == fg.right
    assert compose_squares(ext, fact.unit) == h


# -- lifting structures -----------------------------------------------------------


def test_structure_counts_on_the_cospan():
    aw = cospan_awfs()
    assert find_lifting_structures(aw, f_two_to_one(), mode="count") == 2
    assert find_lifting_structures(aw, f_empty_to_point(), mode="count") == 0
    assert find_lifting_structures(aw, arrow(AMB.identity(POINT)),
                                   mode="count") == 1


def test_structures_force_matching_end_fillers():
    aw = cospan_awfs()
    for psi in find_lifting_structures(aw, f_two_to_one()):
        picks = {}
        for (i, a), s in psi.fillers.items():
            if i in ("b", "bp"):
                picks.setdefault(a.bottom, set()).add((i, s))
        # the two feet of the cospan must agree over each codomain point
        for group in picks.values():
            assert len({s for _i, s in group}) == 1


def test_first_mode_and_filler_laws():
    aw = cospan_awfs()
    f = f_two_to_one()
    found = find_lifting_structures(aw, f, mode="first")
    assert len(found) == 1
    psi = found[0]
    assert isinstance(psi, LiftingStructure)
    u = aw.generators
    for (i, a), s in psi.fillers.items():
        assert AMB.compose(s, u.arrow(i).mor) == a.top
        assert AMB.compose(f.mor, s) == a.bottom


def test_no_structure_first_mode_returns_empty():
    aw = cospan_awfs()
    assert find_lifting_structures(aw, f_empty_to_point(),
                                   mode="first") == []


@st.composite
def _fiber_partition(draw):
    k = draw(st.integers(1, 3))
    return tuple(draw(st.integers(1, 3)) for _ in range(k))


@settings(max_examples=25, deadline=None)
@given(_fiber_partition())
def test_surjection_structure_count_is_fiber_product(partition):
    # coherence pins both feet to one section, freely chosen per fiber
    f = surjection(partition)
    n = find_lifting_structures(cospan_awfs(), f, mode="count")
    expected = 1
    for p in partition:
        expected *= p
    assert n == expected


def test_structures_exist_iff_split_epi():
    aw = cospan_awfs()
    for f in all_small_maps(3):
        n = find_lifting_structures(aw, f, mode="count")
        split = f.mor.is_surjective or AMB.obj_size(f.cod) == 0
        assert (n > 0) == split, f.mor


def test_structure_agreement_with_plain_fillers():
    aw = point_awfs()
    for f in all_small_maps(3):
        n = find_lifting_structures(aw, f, mode="count")
        assert (n > 0) == has_rlp(f, aw.generators), f.mor


def test_solve_lifting_reads_off_a_filler():
    aw = cospan_awfs()
    f = arrow(AMB.identity(POINT))
    psi = find_lifting_structures(aw, f, mode="first")[0]
    a = Square(aw.generators.arrow("b"), f, func(EMPTY, POINT),
               AMB.identity(POINT))
    s = solve_lifting(psi, "b", a)
    assert s == AMB.identity(POINT)
    with pytest.raises(BoundaryMismatch):
        solve_lifting(psi, "b", Square(aw.generators.arrow("b"),
                                       f_two_to_one(),
                                       func(EMPTY, finite(2)),
                                       func(POINT, POINT, 0)))


def test_compose_structures_identity_neutral():
    aw = cospan_awfs()
    f = f_two_to_one()
    ids = find_lifting_structures(aw, arrow(AMB.identity(f.dom)),
                                  mode="first")[0]
    idt = find_lifting_structures(aw, arrow(AMB.identity(f.cod)),
                                  mode="first")[0]
    for psi in find_lifting_structures(aw, f):
        assert compose_structures(psi, ids).fillers == psi.fillers
        assert compose_structures(idt, psi).fillers == psi.fillers


def test_compose_structures_with_iso():
    aw = cospan_awfs()
    f = f_two_to_one()
    swap = arrow(func(finite(2, "w"), f.dom, 1, 0))
    psi_iso = find_lifting_structures(aw, swap, mode="first")[0]
    for psi in find_lifting_structures(aw, f):
        whole = compose_structures(psi, psi_iso)
        assert whole.f.mor == AMB.compose(f.mor, swap.mor)
        candidates = [q.fillers
                      for q in find_lifting_structures(aw, whole.f)]
        assert whole.fillers in candidates


# -- structures versus algebras ---------------------------------------------------


def _algebra_count(aw, f):
    # independent oracle: unit-splitting squares for the one-step gluing
    step = aw.one_step(f)
    count = 0
    bottom = AMB.identity(f.cod)
    for top in AMB.hom(step.obj.dom, f.dom):
        if AMB.compose(f.mor, top) != AMB.compose(bottom, step.obj.mor):
            continue
        if AMB.compose(top, step.unit.top) == AMB.identity(f.dom):
            count += 1
    return count


def test_structure_algebra_bijection_counts():
    for aw in (cospan_awfs(), point_awfs()):
        for f in all_small_maps(3):
            assert find_lifting_structures(aw, f, mode="count") \
                == _algebra_count(aw, f), f.mor


def test_structure_algebra_round_trip():
    aw = cospan_awfs()
    f = f_two_to_one()
    for psi in find_lifting_structures(aw, f):
        d = structure_to_algebra(aw, psi)
        step = aw.one_step(f)
        assert compose_squares(d, step.unit) == identity_square(f)
        back = algebra_to_structure(aw, f, d)
        assert back.fillers == psi.fillers


def test_canonical_structure_is_enumerated():
    aw = cospan_awfs()
    f = f_empty_to_point()
    fact = aw.factorize(f)
    psi = aw.canonical_structure(f)
    assert psi.f == fact.right
    candidates = [q.fillers for q in find_lifting_structures(aw, fact.right)]
    assert psi.fillers in candidates


# -- sections of the left factor --------------------------------------------------


def test_left_factor_carries_a_section():
    aw = cospan_awfs()
    c = aw.left_factor_coalgebra(f_empty_to_point())
    assert AMB.obj_size(c.section.dom) == 1
    assert aw.coalgebra_holds(c)


def test_left_factor_section_point_generator():
    aw = point_awfs()
    c = aw.left_factor_coalgebra(f_two_to_one())
    fact = aw.factorize(f_two_to_one())
    assert c.f == fact.left
    assert AMB.compose(aw.factorize(fact.left).right.mor, c.section) \
        == AMB.identity(fact.midpoint)


def test_retract_lift_identity_retract():
    aw = point_awfs()
    c = aw.left_factor_coalgebra(f_two_to_one())
    out = aw.retract_lift(c, identity_square(c.f), identity_square(c.f))
    assert out.section == c.section


def test_retract_lift_transports_sections():
    aw = point_awfs()
    f = arrow(func(EMPTY, PAIR))
    fact = aw.factorize(f)
    # the right factor is invertible here, so f carries a section
    c = Coalgebra(f, AMB.inverse(fact.right.mor))
    assert aw.coalgebra_holds(c)
    g = f_empty_to_point()
    alpha = Square(g, f, func(EMPTY, EMPTY), func(POINT, PAIR, 0))
    beta = Square(f, g, func(EMPTY, EMPTY), func(PAIR, POINT, 0, 0))
    out = aw.retract_lift(c, alpha, beta)
    assert out.f == g
    assert aw.coalgebra_holds(out)


def test_retract_lift_rejects_bad_data():
    aw = point_awfs()
    f = f_two_to_one()
    c = aw.left_factor_coalgebra(f)
    with pytest.raises(NotARetract):
        aw.retract_lift(c, identity_square(f), identity_square(f))
    mid = c.f.cod
    swap = Square(c.f, c.f, func(c.f.dom, c.f.dom, 1, 0),
                  func(mid, mid, 1, 0, 2))
    with pytest.raises(NotARetract):
        aw.retract_lift(c, swap, identity_square(c.f))
    collapse = func(mid, mid, 0, 1, 0)
    beta = Square(c.f, c.f, AMB.identity(c.f.dom), collapse)
    with pytest.raises(NotARetract):
        aw.retract_lift(c, identity_square(c.f), beta)


def test_retract_lift_rejects_a_section_that_is_not_a_coalgebra():
    # a section the caller made up reaches the coalgebra check, so it
    # raises, also under python -O, instead of asserting
    aw = point_awfs()
    f = arrow(func(EMPTY, PAIR))
    inv = AMB.inverse(aw.factorize(f).right.mor)
    mid = inv.cod
    swapped = Coalgebra(f, AMB.compose(func(mid, mid, 1, 0), inv))
    assert not aw.coalgebra_holds(swapped)
    with pytest.raises(MalformedInput):
        aw.retract_lift(swapped, identity_square(f), identity_square(f))


# -- backdrop restriction ---------------------------------------------------------


def subobject_awfs():
    from garnet.density import subobject_classifier_diagram
    return GeneratedAWFS(subobject_classifier_diagram(AMB),
                         backdrop=Backdrop("mono"))


def test_mono_backdrop_classifier_generators():
    aw = subobject_awfs()
    for f in all_small_maps(3):
        fact = aw.factorize(f)
        assert fact.left.mor.is_injective, f.mor
        assert fact.converged_stage <= 3
        for stage in fact.trace.stages:
            for cert in stage.certificates:
                assert cert["in_backdrop"]


def test_mono_backdrop_rejects_collapsing_generators():
    aw = GeneratedAWFS(walking_cospan(), backdrop=Backdrop("mono"))
    with pytest.raises(BackdropViolation):
        aw.factorize(f_empty_to_point())


def test_backdrop_kind_is_checked():
    with pytest.raises(MalformedInput):
        GeneratedAWFS(walking_cospan(), backdrop=Backdrop("epi"))


# -- traces -----------------------------------------------------------------------


def test_trace_records_each_stage():
    aw = cospan_awfs()
    f = f_empty_to_point()
    fact = aw.factorize(f)
    trace = fact.trace
    assert trace.f == f
    assert trace.converged_stage == 2
    assert len(trace.stages) == 3
    assert trace.stages[0].arrow == f
    assert trace.stages[0].built_from is None
    assert trace.stages[1].built_from is not None
    # one problem at each foot, two at the middle generator
    names = [row[1] for row in trace.stages[1].cell.problems]
    assert sorted(names) == ["a", "a", "b", "bp"]
    provs = {c["provenance"] for st in trace.stages
             for c in st.certificates}
    assert provs == {"hypothesis", "cobase-change", "colimit-closure"}


def test_verify_trace_passes_and_itemizes():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    report = verify_trace(fact.trace, fact)
    assert report["pass"]
    assert all(item["pass"] for item in report["items"])
    checks = {item["check"] for item in report["items"]}
    assert {"seed", "cell", "quotient", "certificate", "recomposition",
            "chain", "factorization"} <= checks


def _tampered(trace, stage, **changes):
    stages = list(trace.stages)
    stages[stage] = dataclasses.replace(stages[stage], **changes)
    return dataclasses.replace(trace, stages=tuple(stages))


def test_verify_trace_rejects_quotient_tampering():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    st2 = fact.trace.stages[2]
    wrong = dataclasses.replace(
        st2.built_from, span=(st2.built_from.span[1],
                              st2.built_from.span[0]))
    bad = _tampered(fact.trace, 2, built_from=wrong)
    report = verify_trace(bad, fact)
    assert not report["pass"]
    failed = [i for i in report["items"] if not i["pass"]]
    assert any(i["stage"] == 2 and i["check"] == "quotient" for i in failed)
    # earlier stages still verify
    assert all(i["pass"] for i in report["items"] if i["stage"] in (0, 1))


def test_verify_trace_rejects_certificate_tampering():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    st1 = fact.trace.stages[1]
    forged = tuple(dict(c, in_backdrop=False) if c["morphism"] == "transition"
                   else c for c in st1.certificates)
    bad = _tampered(fact.trace, 1, certificates=forged)
    report = verify_trace(bad, fact)
    failed = [i for i in report["items"] if not i["pass"]]
    assert any(i["stage"] == 1 and i["check"] == "certificate"
               for i in failed)


def test_verify_trace_rejects_composite_tampering():
    aw = point_awfs()
    f = f_two_to_one()
    fact = aw.factorize(f)
    last = fact.trace.stages[-1]
    wrong = Square(last.composite.source, last.composite.target,
                   func(f.dom, last.composite.target.dom, 0, 0),
                   last.composite.bottom)
    assert wrong != last.composite
    bad = _tampered(fact.trace, len(fact.trace.stages) - 1, composite=wrong)
    report = verify_trace(bad, fact)
    assert not report["pass"]
    failed = [i for i in report["items"] if not i["pass"]]
    assert any(i["check"] == "recomposition" for i in failed)


# -- replay -----------------------------------------------------------------------


def _identity_functor():
    return EndoData(AMB, lambda x: x, lambda m: m)


def _doubling_functor():
    def on_obj(x):
        return FinSet(tuple(f"{lbl}*{i}" for lbl in x.labels
                            for i in range(2)))

    def on_mor(m):
        return FinFunction(on_obj(m.dom), on_obj(m.cod),
                           tuple(m.table[j] * 2 + i
                                 for j in range(m.dom.size)
                                 for i in range(2)))
    return EndoData(AMB, on_obj, on_mor)


def _squaring_functor():
    def on_obj(x):
        return FinSet(tuple(f"{a}&{b}" for a in x.labels for b in x.labels))

    def on_mor(m):
        n = m.cod.size
        return FinFunction(on_obj(m.dom), on_obj(m.cod),
                           tuple(m.table[i] * n + m.table[j]
                                 for i in range(m.dom.size)
                                 for j in range(m.dom.size)))
    return EndoData(AMB, on_obj, on_mor)


def _witnesses(dia, functor):
    return {j: ArrowObj(AMB, functor.on_mor(dia.arrow(j).mor))
            for j in dia.index.objects}


def test_replay_identity_reproduces_left_factor():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    out, report = replay(fact.trace, _identity_functor(),
                         _witnesses(aw.generators, _identity_functor()))
    assert out.mor == fact.left.mor
    assert all(c["preserved"] for c in report["checks"])
    assert {c["check"] for c in report["checks"]} \
        == {"quotient", "chain", "recomposition"}


def test_replay_reports_cell_structure():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    _out, report = replay(fact.trace, _identity_functor(),
                          _witnesses(aw.generators, _identity_functor()))
    by_stage = {entry["stage"]: entry["cells"]
                for entry in report["structure"]}
    assert len(by_stage[1]) == 4
    assert {c["generator"] for c in by_stage[1]} == {"a", "b", "bp"}


def test_replay_under_doubling():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    fun = _doubling_functor()
    out, _report = replay(fact.trace, fun, _witnesses(aw.generators, fun))
    assert AMB.obj_size(out.dom) == 0
    assert AMB.obj_size(out.cod) == 2
    assert out.mor == fun.on_mor(fact.left.mor)


def test_replay_catches_unpreserved_quotient():
    aw = point_awfs()
    fact = aw.factorize(f_two_to_one())
    fun = _squaring_functor()
    with pytest.raises(ColimitNotPreserved) as info:
        replay(fact.trace, fun, _witnesses(aw.generators, fun))
    assert info.value.cocone["check"] == "quotient"
    assert info.value.cocone["stage"] == 1
    assert len(info.value.cocone["legs"]) == 2


def test_replay_requires_witnesses():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    with pytest.raises(MissingGeneratorWitness) as info:
        replay(fact.trace, _identity_functor(), {})
    assert "a" in str(info.value)


# -- cell-by-cell variant ---------------------------------------------------------


def test_quillen_point_generator_example():
    aw = point_awfs()
    f = f_two_to_one()
    out = quillen_factorize(aw, f)
    assert out.steps == 1
    assert out.left.mor.is_injective
    assert AMB.obj_size(out.left.cod) == 3
    assert AMB.compose(out.right.mor, out.left.mor) == f.mor
    assert has_rlp(out.right, aw.generators)


def test_quillen_no_generators_is_trivial():
    aw = GeneratedAWFS(empty_diagram())
    f = f_two_to_one()
    out = quillen_factorize(aw, f)
    assert out.steps == 0
    assert out.left.mor == AMB.identity(f.dom)
    assert out.right.mor == f.mor


def test_quillen_needs_discrete_generators():
    with pytest.raises(NotDiscrete):
        quillen_factorize(cospan_awfs(), f_two_to_one())


def test_quillen_iteration_limit_carries_progress():
    aw = GeneratedAWFS(point_inclusion(), max_steps=0)
    with pytest.raises(IterationLimit) as info:
        quillen_factorize(aw, f_two_to_one())
    assert info.value.stage_tops == ()


@pytest.mark.parametrize("steps", [-1, True, 1.5, "3"])
def test_stage_bound_rejects_what_is_no_count(steps):
    with pytest.raises(MalformedInput):
        GeneratedAWFS(point_inclusion(), max_steps=steps)


@pytest.mark.parametrize("cap", [-1, True, False, 1.5, "3"])
def test_cap_rejects_what_is_no_count(cap):
    with pytest.raises(MalformedInput):
        GeneratedAWFS(point_inclusion(), cap=cap)


def test_cross_lifting_between_constructions():
    # the cell-by-cell left factor lifts against the free right factor
    aw = point_awfs()
    f = f_two_to_one()
    g = arrow(func(finite(3, "g"), finite(2, "gy"), 0, 0, 1))
    ql = quillen_factorize(aw, f).left
    fr = aw.factorize(g).right
    for top in AMB.hom(ql.dom, fr.dom):
        for bottom in AMB.hom(ql.cod, fr.cod):
            if AMB.compose(fr.mor, top) != AMB.compose(bottom, ql.mor):
                continue
            assert find_filler(AMB, ql.mor, fr.mor, top, bottom) is not None


def test_has_rlp_examples():
    u = point_inclusion()
    assert has_rlp(f_two_to_one(), u)
    assert not has_rlp(f_empty_to_point(), u)
    assert not has_rlp(arrow(func(finite(2), finite(3, "y"), 0, 2)), u)
    assert has_rlp(arrow(AMB.identity(POINT)), walking_cospan())
    assert not has_rlp(f_empty_to_point(), walking_cospan())


# -- serialization ----------------------------------------------------------------


def test_trace_round_trip():
    aw = cospan_awfs()
    fact = aw.factorize(f_empty_to_point())
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    back = trace_from_json(data, AMB)
    assert back == fact.trace
    assert verify_trace(back, fact)["pass"]


def test_factorization_report_shape():
    aw = point_awfs()
    fact = aw.factorize(f_two_to_one())
    data = factorization_to_json(fact)
    assert data["midpoint_size"] == 3
    assert data["converged_stage"] == 1
    json.dumps(data, sort_keys=True)
    assert set(data) == {"f", "left", "right", "midpoint", "midpoint_size",
                         "converged_stage", "unit", "algebra", "trace"}


def test_structure_report_shape():
    aw = cospan_awfs()
    psi = find_lifting_structures(aw, f_two_to_one(), mode="first")[0]
    data = structure_to_json(psi)
    assert len(data["fillers"]) == len(psi.fillers)
    json.dumps(data, sort_keys=True)


# -- presheaf ambient -------------------------------------------------------------


def _graph_setup():
    from garnet.arrows import PresheafAmbient
    from garnet.fincat import FinCategory
    from garnet.presheaf import Presheaf, PresheafMap

    base = FinCategory(("v", "e"), (("src", "v", "e"), ("tgt", "v", "e")), {})
    amb = PresheafAmbient(base)

    def graph(vs, es, srcs, tgts):
        v, e = FinSet(tuple(vs)), FinSet(tuple(es))
        return Presheaf(base, {"v": v, "e": e},
                        {"src": FinFunction(e, v, tuple(srcs)),
                         "tgt": FinFunction(e, v, tuple(tgts))})

    def nat(d, c, on_v, on_e):
        return PresheafMap(d, c,
                           {"v": FinFunction(d.at("v"), c.at("v"),
                                             tuple(on_v)),
                            "e": FinFunction(d.at("e"), c.at("e"),
                                             tuple(on_e))})
    return amb, graph, nat


def test_presheaf_ambient_factorization():
    from garnet.density import ArrowDiagram
    from garnet.fincat import discrete_category

    amb, graph, nat = _graph_setup()
    two = graph(("0", "1"), (), (), ())
    edge = graph(("0", "1"), ("a",), (0,), (1,))
    loop = graph(("p",), ("l",), (0,), (0,))
    boundary = ArrowObj(amb, nat(two, edge, (0, 1), ()))
    dia = ArrowDiagram(amb, discrete_category(("j",)), {"j": boundary})
    aw = GeneratedAWFS(dia)
    g = ArrowObj(amb, nat(edge, loop, (0, 0), (0,)))
    fact = aw.factorize(g)
    assert fact.midpoint.at("v").size == 2
    assert fact.converged_stage == 1
    assert aw.law_suite(g)["pass"]
    assert verify_trace(fact.trace, fact)["pass"]
    back = trace_from_json(json.loads(json.dumps(trace_to_json(fact.trace))),
                           amb)
    assert back == fact.trace
    # no structure: the source edge has no companion loop over one vertex
    assert find_lifting_structures(aw, g, mode="count") == 0


def test_lift_search_depth_is_not_bounded_by_recursion():
    # 1200 problems, each with exactly one filler: a recursive search ran
    # one frame per problem and hit the interpreter's recursion limit
    aw = point_awfs()
    f = arrow(AMB.identity(finite(1200)))
    assert find_lifting_structures(aw, f, mode="count") == 1
