"""Acceptance criteria, one test per criterion.

Each test covers one numbered criterion at its stated scale and tolerance
and prints a single summary line when it passes.
"""

import dataclasses
import itertools
import json
import os
import time

from conftest import (AMB, POINT, arrow, f_empty_to_point, finite, func,
                      point_inclusion, row_square, walking_cospan)
from garnet import finset as fs
from garnet import presheaf as psh
from garnet.arrows import (ArrowObj, EndoData, PresheafAmbient, Square,
                           compose_squares, identity_square)
from garnet.awfs import (GeneratedAWFS, find_filler, find_lifting_structures,
                         quillen_factorize, replay, verify_trace)
from garnet.cli import main as cli_main
from garnet.density import (density_closed_form_subobject,
                            subobject_classifier_diagram)
from garnet.fincat import FinCategory
from garnet.finset import FinFunction, FinSet
from garnet.freemonad import Backdrop

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fix(name):
    return os.path.join(FIX, name)


def all_iso_classes(nmax):
    """One representative per isomorphism class of maps with levels
    of at most nmax elements; classes are fiber-size profiles."""
    out = []
    for a in range(nmax + 1):
        for b in range(nmax + 1):
            if a > 0 and b == 0:
                continue
            dom, cod = finite(a), finite(b, prefix="y")
            if a == 0:
                out.append(arrow(FinFunction(dom, cod, ())))
                continue
            seen = set()
            for table in itertools.product(range(b), repeat=a):
                profile = tuple(sorted(table.count(j) for j in range(b)))
                if profile in seen:
                    continue
                seen.add(profile)
                out.append(arrow(FinFunction(dom, cod, table)))
    return out


def algebra_squares(aw, g):
    """Independent enumeration of the unit-splitting squares on g."""
    step = aw.one_step(g)
    out = []
    for top in AMB.hom(step.obj.dom, g.dom):
        if AMB.compose(g.mor, top) != step.obj.mor:
            continue
        if AMB.compose(top, step.unit.top) != AMB.identity(g.dom):
            continue
        out.append(Square(step.obj, g, top, AMB.identity(g.cod)))
    return out


def test_criterion_01_worked_example_byte_exact(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "report.json"
    code = cli_main(["factorize", "--generators", fix("walking_cospan.json"),
                     "--map", fix("f_0_to_1.json"), "--backdrop", "all",
                     "--output", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    with open(fix(os.path.join("golden", "factorize_walking_cospan.json")),
              "rb") as fh:
        golden = fh.read()
    assert out.read_bytes() == golden
    fd = json.loads(golden)["factorization"]
    stages = fd["trace"]["stages"]
    assert [s["arrow"]["dom"]["size"] for s in stages] == [0, 2, 1]
    assert [s["arrow"]["cod"]["size"] for s in stages] == [1, 1, 1]
    assert stages[2]["arrow"]["table"] == [0]
    assert fd["converged_stage"] == 2
    assert fd["midpoint_size"] == 1
    assert fd["left"]["dom"]["size"] == 0
    assert fd["left"]["cod"]["size"] == 1
    assert fd["right"]["dom"]["size"] == 1
    assert fd["right"]["table"] == [0]
    assert elapsed < 1.0
    print(f"criterion 01 PASS: worked example byte-exact "
          f"in {elapsed:.3f}s")


def test_criterion_02_four_problems_force_the_quotient():
    aw = GeneratedAWFS(walking_cospan())
    fact = aw.factorize(f_empty_to_point())
    trace = fact.trace
    probs = trace.stages[1].cell.problems
    assert len(probs) == 4
    by_gen = {}
    for row in probs:
        by_gen.setdefault(row[1], []).append(row_square(row))
    assert sorted((j, len(v)) for j, v in by_gen.items()) \
        == [("a", 2), ("b", 1), ("bp", 1)]
    # the two middle problems pick out the two distinct stage-1 points
    tops = {a.top.table[0] for a in by_gen["a"]}
    assert len(tops) == 2
    # and the recorded stage-2 gluing identifies exactly those points
    rec = trace.stages[2].built_from
    assert rec is not None
    assert rec.into == "right"
    po = AMB.pushout(rec.span[0], rec.span[1], tags=tuple(rec.tags))
    assert po.obj == trace.stages[2].arrow.dom
    assert AMB.obj_size(trace.stages[2].arrow.dom) == 1
    tr = trace.stages[1].transition.top
    assert tr.table[0] == tr.table[1]
    provs = {c["provenance"] for c in trace.stages[2].certificates}
    assert provs == {"cobase-change", "colimit-closure"}
    print("criterion 02 PASS: 4 problems at stage 1; their coherence "
          "collapses the two glued points")


def test_criterion_03_generated_class_is_split_epis():
    start = time.perf_counter()
    aw = GeneratedAWFS(walking_cospan())
    classes = all_iso_classes(3)
    assert len(classes) == 18
    for f in classes:
        n = find_lifting_structures(aw, f, mode="count")
        split = f.mor.is_surjective or AMB.obj_size(f.cod) == 0
        assert (n > 0) == split, f.mor
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 03 PASS: structures iff split epi on 18 classes "
          f"in {elapsed:.2f}s")


def test_criterion_04_full_law_suite_both_families():
    start = time.perf_counter()
    classes = all_iso_classes(3)
    total = 0
    for make in (walking_cospan, point_inclusion):
        aw = GeneratedAWFS(make())
        for f in classes:
            report = aw.law_suite(f)
            assert report["pass"], (f.mor, report["checks"])
            total += len(report["checks"])
    elapsed = time.perf_counter() - start
    print(f"criterion 04 PASS: {total} law checks over both generator "
          f"families in {elapsed:.2f}s")


def test_criterion_05_freeness_exactly_one_extension():
    start = time.perf_counter()
    aw = GeneratedAWFS(point_inclusion())
    classes = all_iso_classes(3)
    structured = [(g, d) for g in classes for d in algebra_squares(aw, g)]
    assert len(structured) == 11
    checked = 0
    for f in classes:
        fact = aw.factorize(f)
        rf = fact.right
        reps = {}
        for e in range(AMB.obj_size(rf.dom)):
            reps.setdefault(rf.mor.table[e], e)
        by_target = {}
        for g, _d in structured:
            if g in by_target:
                continue
            entries = []
            for t in AMB.hom(rf.dom, g.dom):
                b = FinFunction(f.cod, g.cod,
                                tuple(g.mor.table[t.table[reps[j]]]
                                      for j in range(AMB.obj_size(f.cod))))
                if AMB.compose(g.mor, t) != AMB.compose(b, rf.mor):
                    continue
                ext = Square(rf, g, t, b)
                entries.append((ext,
                                compose_squares(ext, fact.algebra),
                                aw.t.on_mor(ext)))
            by_target[g] = entries
        for g, d in structured:
            by_h = {}
            for ext, lhs, s_ext in by_target[g]:
                if lhs != compose_squares(d, s_ext):
                    continue
                key = (AMB.compose(ext.top, fact.left.mor), ext.bottom)
                by_h.setdefault(key, []).append(ext)
            seen = 0
            for top in AMB.hom(f.dom, g.dom):
                for bottom in AMB.hom(f.cod, g.cod):
                    if AMB.compose(g.mor, top) \
                            != AMB.compose(bottom, f.mor):
                        continue
                    h = Square(f, g, top, bottom)
                    exts = by_h.get((top, bottom), [])
                    assert len(exts) == 1, (f.mor, g.mor, top, bottom)
                    assert aw.extend(fact, (g, d), h) == exts[0]
                    seen += 1
                    checked += 1
            assert seen == len(by_h)
    elapsed = time.perf_counter() - start
    print(f"criterion 05 PASS: {checked} extension problems, each with "
          f"exactly one structure map, in {elapsed:.2f}s")


def test_criterion_06_mono_backdrop_classifier_generators():
    start = time.perf_counter()
    aw = GeneratedAWFS(subobject_classifier_diagram(AMB),
                       backdrop=Backdrop("mono"))
    classes = all_iso_classes(4)
    assert len(classes) == 38
    for f in classes:
        fact = aw.factorize(f)
        assert fact.left.mor.is_injective, f.mor
        assert fact.trace.converged_stage <= 3, f.mor
        for stage in fact.trace.stages:
            kinds = {c["morphism"] for c in stage.certificates}
            assert {"transition", "composite"} <= kinds
            assert all(c["in_backdrop"] for c in stage.certificates)
        assert verify_trace(fact.trace, fact)["pass"]
    elapsed = time.perf_counter() - start
    print(f"criterion 06 PASS: injective left factors with passing mono "
          f"certificates on 38 classes in {elapsed:.2f}s")


def _terminal_base_maps(nmax):
    base = FinCategory(("c",), (), {})
    amb = PresheafAmbient(base)
    out = []
    for a in range(nmax + 1):
        for b in range(nmax + 1):
            if a > 0 and b == 0:
                continue
            p = psh.Presheaf(base, {"c": finite(a)}, {})
            q = psh.Presheaf(base, {"c": finite(b, "y")}, {})
            for table in itertools.product(range(b), repeat=a):
                m = psh.PresheafMap(p, q, {"c": FinFunction(
                    p.at("c"), q.at("c"), table)})
                out.append(ArrowObj(amb, m))
    return base, amb, out


def _walking_arrow_presheaves(nmax):
    base = FinCategory(("s0", "s1"), (("w", "s0", "s1"),), {})
    shapes = []
    for n0 in range(nmax + 1):
        for n1 in range(nmax + 1):
            x0, x1 = finite(n0, "p"), finite(n1, "q")
            for table in itertools.product(range(n0), repeat=n1):
                shapes.append(psh.Presheaf(
                    base, {"s0": x0, "s1": x1},
                    {"w": FinFunction(x1, x0, table)}))
    return base, shapes


def test_criterion_07_density_closed_form_is_isomorphic():
    start = time.perf_counter()
    base_t, amb_t, maps_t = _terminal_base_maps(3)
    _omega, t = psh.subobject_classifier(base_t)
    count = 0
    for f in maps_t:
        res = density_closed_form_subobject(t, f)
        assert res.iso.source == res.closed
        assert res.iso.target == res.generic.den
        assert amb_t.is_iso(res.iso.top) and amb_t.is_iso(res.iso.bottom)
        count += 1
    assert count == 60
    base_w, shapes = _walking_arrow_presheaves(2)
    amb_w = PresheafAmbient(base_w)
    _omega_w, t_w = psh.subobject_classifier(base_w)
    for p in shapes:
        for q in shapes:
            for m in psh.enumerate_maps(p, q):
                res = density_closed_form_subobject(
                    t_w, ArrowObj(amb_w, m))
                assert amb_w.is_iso(res.iso.top)
                assert amb_w.is_iso(res.iso.bottom)
                count += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 07 PASS: closed form isomorphic to the generic "
          f"density on {count} maps in {elapsed:.2f}s")


def test_criterion_08_lifting_algebra_bijection():
    start = time.perf_counter()
    classes = all_iso_classes(3)
    total = 0
    for make in (walking_cospan, point_inclusion):
        aw = GeneratedAWFS(make())
        for f in classes:
            n = find_lifting_structures(aw, f, mode="count")
            assert n == len(algebra_squares(aw, f)), f.mor
            total += 1
    elapsed = time.perf_counter() - start
    print(f"criterion 08 PASS: structure and algebra counts agree on "
          f"{total} cases in {elapsed:.2f}s")


def test_criterion_09_quillen_comparison_lifts():
    start = time.perf_counter()
    aw = GeneratedAWFS(point_inclusion())
    for f in all_iso_classes(3):
        gar = aw.factorize(f)
        qui = quillen_factorize(aw, f)
        assert AMB.compose(qui.right.mor, qui.left.mor) == f.mor
        # comparison problems between the two factorizations, both ways
        assert find_filler(AMB, qui.left.mor, gar.right.mor,
                           gar.left.mor, qui.right.mor) is not None
        assert find_filler(AMB, gar.left.mor, qui.right.mor,
                           qui.left.mor, gar.right.mor) is not None
    # for one small map, every problem between the two lifts
    f = arrow(func(finite(2), POINT, 0, 0))
    gar = aw.factorize(f)
    qui = quillen_factorize(aw, f)
    pairs = 0
    for top in AMB.hom(qui.left.dom, gar.right.dom):
        for bottom in AMB.hom(qui.left.cod, gar.right.cod):
            if AMB.compose(gar.right.mor, top) \
                    != AMB.compose(bottom, qui.left.mor):
                continue
            assert find_filler(AMB, qui.left.mor, gar.right.mor,
                               top, bottom) is not None
            pairs += 1
    assert pairs > 0
    elapsed = time.perf_counter() - start
    print(f"criterion 09 PASS: cross lifts in both directions, plus "
          f"{pairs} exhaustive problems, in {elapsed:.2f}s")


def _mutations(trace):
    """All single-field corruptions of a trace, with the stages where a
    failure must be reported (None marks whole-trace checks)."""
    stages = trace.stages
    out = []

    def stage_mut(s, locality=None, **changes):
        copy = list(stages)
        copy[s] = dataclasses.replace(stages[s], **changes)
        out.append((dataclasses.replace(trace, stages=tuple(copy)),
                    {s} if locality is None else locality))

    if len(stages) > 1 and stages[1].arrow != trace.f:
        out.append((dataclasses.replace(trace, f=stages[1].arrow), {None}))
    out.append((dataclasses.replace(
        trace, converged_stage=trace.converged_stage + 1), {None}))
    out.append((dataclasses.replace(
        trace, converged_stage=trace.converged_stage - 1), {None}))
    last = len(stages) - 1
    for s, st in enumerate(stages):
        other = stages[(s + 1) % len(stages)]
        if other.arrow != st.arrow:
            stage_mut(s, arrow=other.arrow)
        if st.cell.den != st.arrow:
            stage_mut(s, cell=dataclasses.replace(st.cell, den=st.arrow))
        if other.cell.counit != st.cell.counit:
            stage_mut(s, cell=dataclasses.replace(
                st.cell, counit=other.cell.counit))
        if st.cell.legs:
            stage_mut(s, cell=dataclasses.replace(
                st.cell, legs=st.cell.legs[:-1]))
        if st.cell.problems:
            stage_mut(s, cell=dataclasses.replace(
                st.cell, problems=st.cell.problems[:-1]))
        if other.composite != st.composite:
            stage_mut(s, locality={None}, composite=other.composite)
        if s < last and identity_square(st.arrow) != st.transition:
            stage_mut(s, locality={s + 1, None},
                      transition=identity_square(st.arrow))
        certs = st.certificates
        stage_mut(s, certificates=())
        stage_mut(s, certificates=(dict(certs[0], in_backdrop=False),)
                  + certs[1:])
        stage_mut(s, certificates=(dict(certs[0], morphism="mystery"),)
                  + certs[1:])
        rec = st.built_from
        if rec is None:
            continue
        if rec.span[0] != rec.span[1]:
            stage_mut(s, built_from=dataclasses.replace(
                rec, span=(rec.span[1], rec.span[0])))
        if rec.tags[0] != rec.tags[1]:
            stage_mut(s, built_from=dataclasses.replace(
                rec, tags=(rec.tags[1], rec.tags[0])))
        if rec.left != rec.right:
            stage_mut(s, built_from=dataclasses.replace(
                rec, into="left" if rec.into == "right" else "right"))
            stage_mut(s, built_from=dataclasses.replace(
                rec, left=rec.right, right=rec.left))
        stage_mut(s, built_from=None)
    return out


def test_criterion_10_trace_mutations_and_replay():
    start = time.perf_counter()
    cases = []
    wc = GeneratedAWFS(walking_cospan())
    pt = GeneratedAWFS(point_inclusion())
    for aw, mk in ((wc, lambda: f_empty_to_point()),
                   (wc, lambda: arrow(func(finite(2), POINT, 0, 0))),
                   (wc, lambda: arrow(func(finite(3), finite(2, "y"),
                                           0, 0, 1))),
                   (pt, lambda: arrow(func(finite(2), POINT, 0, 0))),
                   (pt, lambda: arrow(func(finite(3), finite(2, "y"),
                                           0, 0, 1)))):
        fact = aw.factorize(mk())
        cases.append((fact, _mutations(fact.trace)))
    total = sum(len(muts) for _fact, muts in cases)
    assert total >= 100, total
    for fact, muts in cases:
        for bad, locality in muts:
            report = verify_trace(bad, fact)
            assert not report["pass"]
            failed = [it for it in report["items"] if not it["pass"]]
            assert any(it["stage"] in locality for it in failed), \
                (locality, failed)

    # the doubling replay of the worked example
    paper = wc.factorize(f_empty_to_point())

    def on_obj(x):
        return FinSet(tuple(f"{lbl}*{i}" for lbl in x.labels
                            for i in range(2)))

    def on_mor(m):
        return FinFunction(on_obj(m.dom), on_obj(m.cod),
                           tuple(m.table[j] * 2 + i
                                 for j in range(m.dom.size)
                                 for i in range(2)))
    fun = EndoData(AMB, on_obj, on_mor)
    witnesses = {j: ArrowObj(AMB, on_mor(wc.generators.arrow(j).mor))
                 for j in wc.generators.index.objects}
    out, info = replay(paper.trace, fun, witnesses)
    assert all(c["preserved"] for c in info["checks"])
    assert AMB.obj_size(out.dom) == 0 and AMB.obj_size(out.cod) == 2
    elapsed = time.perf_counter() - start
    print(f"criterion 10 PASS: {total} mutations all rejected with "
          f"localized reports; doubling replay gives 0 -> 2; "
          f"{elapsed:.2f}s")


def _all_functions(a, b):
    return fs.enumerate_functions(a, b)


def test_criterion_11_colimit_universal_properties():
    start = time.perf_counter()
    checked = 0

    targets = [finite(n, "t") for n in range(5)]

    # finset pushouts: exhaustive spans on small feet, all cocones
    for na in range(3):
        apex = finite(na, "a")
        for nb in range(3):
            for nc in range(3):
                foot_b, foot_c = finite(nb, "b"), finite(nc, "c")
                for f in _all_functions(apex, foot_b):
                    for g in _all_functions(apex, foot_c):
                        po = fs.pushout(f, g)
                        for tgt in targets:
                            seen = {}
                            for m in _all_functions(po.obj, tgt):
                                key = (fs.compose(m, po.left),
                                       fs.compose(m, po.right))
                                seen.setdefault(key, []).append(m)
                            for u in _all_functions(foot_b, tgt):
                                for v in _all_functions(foot_c, tgt):
                                    if fs.compose(u, f) != fs.compose(v, g):
                                        continue
                                    med = po.mediate(u, v)
                                    assert fs.compose(med, po.left) == u
                                    assert fs.compose(med, po.right) == v
                                    assert seen[(u, v)] == [med]
                                    checked += 1

    # finset coequalizers: exhaustive parallel pairs up to three elements
    for na in range(4):
        src = finite(na, "a")
        for nb in range(4):
            if na > 0 and nb == 0:
                continue
            dst = finite(nb, "b")
            for f in _all_functions(src, dst):
                for g in _all_functions(src, dst):
                    ce = fs.coequalizer(f, g)
                    for tgt in targets:
                        seen = {}
                        for m in _all_functions(ce.obj, tgt):
                            seen.setdefault(fs.compose(m, ce.proj),
                                            []).append(m)
                        for u in _all_functions(dst, tgt):
                            if fs.compose(u, f) != fs.compose(u, g):
                                continue
                            med = ce.mediate(u)
                            assert fs.compose(med, ce.proj) == u
                            assert seen[u] == [med]
                            checked += 1

    # finset chains: two steps, all cocones determined by the last leg
    for n0 in range(3):
        for n1 in range(3):
            for n2 in range(3):
                x0, x1, x2 = finite(n0, "a"), finite(n1, "b"), \
                    finite(n2, "c")
                for m1 in _all_functions(x0, x1):
                    for m2 in _all_functions(x1, x2):
                        col = fs.sequential_colimit([m1, m2])
                        for tgt in targets:
                            homs = _all_functions(col.obj, tgt)
                            for t2 in _all_functions(x2, tgt):
                                cocone = [fs.compose(
                                    fs.compose(t2, m2), m1),
                                    fs.compose(t2, m2), t2]
                                med = col.mediate(cocone)
                                hits = [m for m in homs
                                        if all(fs.compose(m, col.legs[i])
                                               == cocone[i]
                                               for i in range(3))]
                                assert hits == [med]
                                checked += 1

    # presheaf mirrors on the walking arrow: pointwise colimits
    base, small = _walking_arrow_presheaves(1)
    _base2, bigger = _walking_arrow_presheaves(2)
    for apex in small:
        for foot_b in small:
            for foot_c in small:
                for f in psh.enumerate_maps(apex, foot_b):
                    for g in psh.enumerate_maps(apex, foot_c):
                        po = psh.presheaf_pushout(f, g)
                        for tgt in bigger:
                            seen = {}
                            for m in psh.enumerate_maps(po.obj, tgt):
                                key = (psh.presheaf_compose(m, po.left),
                                       psh.presheaf_compose(m, po.right))
                                seen.setdefault(key, []).append(m)
                            for u in psh.enumerate_maps(foot_b, tgt):
                                for v in psh.enumerate_maps(foot_c, tgt):
                                    if psh.presheaf_compose(u, f) \
                                            != psh.presheaf_compose(v, g):
                                        continue
                                    med = po.mediate(u, v)
                                    assert seen[(u, v)] == [med]
                                    checked += 1
    for src in small:
        for dst in small:
            for f in psh.enumerate_maps(src, dst):
                for g in psh.enumerate_maps(src, dst):
                    ce = psh.presheaf_coequalizer(f, g)
                    for tgt in bigger:
                        seen = {}
                        for m in psh.enumerate_maps(ce.obj, tgt):
                            seen.setdefault(
                                psh.presheaf_compose(m, ce.proj),
                                []).append(m)
                        for u in psh.enumerate_maps(dst, tgt):
                            if psh.presheaf_compose(u, f) \
                                    != psh.presheaf_compose(u, g):
                                continue
                            med = ce.mediate(u)
                            assert seen[u] == [med]
                            checked += 1
    for p0 in small:
        for p1 in small:
            for m1 in psh.enumerate_maps(p0, p1):
                for p2 in small:
                    for m2 in psh.enumerate_maps(p1, p2):
                        col = psh.presheaf_sequential_colimit([m1, m2])
                        for tgt in bigger:
                            homs = psh.enumerate_maps(col.obj, tgt)
                            for t2 in psh.enumerate_maps(p2, tgt):
                                step = psh.presheaf_compose(t2, m2)
                                cocone = [psh.presheaf_compose(step, m1),
                                          step, t2]
                                med = col.mediate(cocone)
                                hits = [m for m in homs if all(
                                    psh.presheaf_compose(m, col.legs[i])
                                    == cocone[i] for i in range(3))]
                                assert hits == [med]
                                checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 11 PASS: {checked} mediator existence/uniqueness "
          f"checks in {elapsed:.2f}s")
