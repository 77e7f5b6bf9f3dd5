"""Presheaf layer tests: Yoneda, sieve classifier, elements, colimits."""

import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from garnet.arrows import PresheafAmbient
from garnet.errors import CodomainMismatch, MalformedInput, \
    NaturalityViolation, ShapeMismatch, UnknownObject
from garnet.fincat import FinCategory, discrete_category, validate_category
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import (
    Presheaf,
    PresheafMap,
    classify_mono,
    constant_presheaf,
    element_category,
    enumerate_maps,
    initial_presheaf,
    presheaf_coequalizer,
    presheaf_compose,
    presheaf_coproduct,
    presheaf_from_json,
    presheaf_identity,
    presheaf_map_from_json,
    presheaf_pushout,
    presheaf_sequential_colimit,
    presheaf_to_json,
    pullback_classify,
    subobject_classifier,
    terminal_presheaf,
    validate_presheaf,
    yoneda,
)


def terminal_base():
    return FinCategory(["*"], [], {})


def arrow_base():
    return FinCategory(["x", "y"], [("m", "x", "y")], {})


def fin(n, prefix="e"):
    return FinSet.fresh(n, prefix)


# -- yoneda -------------------------------------------------------------------

def test_yoneda_on_terminal_base_is_singleton():
    p = yoneda(terminal_base(), "*")
    assert p.at("*").size == 1


def test_yoneda_on_walking_arrow():
    base = arrow_base()
    yy = yoneda(base, "y")
    assert yy.at("x").labels == ("m",)
    assert yy.at("y").labels == ("id_y",)
    assert yy.restrict("m").table == (0,)
    yx = yoneda(base, "x")
    assert yx.at("x").size == 1 and yx.at("y").size == 0


def test_yoneda_unknown_object():
    with pytest.raises(UnknownObject):
        yoneda(arrow_base(), "z")


# -- subobject classifier -----------------------------------------------------

def test_classifier_on_terminal_base():
    omega, truth = subobject_classifier(terminal_base())
    assert omega.at("*").size == 2
    assert omega.at("*").labels == ("{}", "{id_*}")
    assert truth.at("*").table == (1,)


def test_classifier_on_walking_arrow():
    omega, truth = subobject_classifier(arrow_base())
    assert omega.at("x").size == 2
    assert omega.at("y").size == 3
    assert omega.at("y").labels == ("{}", "{m}", "{id_y,m}")
    # restriction along m pulls a sieve on y back to a sieve on x
    assert omega.restrict("m").table == (0, 1, 1)
    assert validate_presheaf(omega) == []


def test_classifier_on_discrete_base():
    omega, _ = subobject_classifier(discrete_category(["u", "v"]))
    assert omega.at("u").size == 2 and omega.at("v").size == 2


def test_pullback_classify_truth_is_identity():
    omega, truth = subobject_classifier(terminal_base())
    sub = pullback_classify(truth, truth)
    assert sub.source.at("*").size == 1
    assert sub.is_iso


def test_pullback_classify_empty_sieve_is_initial():
    base = terminal_base()
    omega, truth = subobject_classifier(base)
    one = terminal_presheaf(base)
    false = PresheafMap(one, omega,
                        {"*": FinFunction(one.at("*"), omega.at("*"), (0,))})
    sub = pullback_classify(truth, false)
    assert sub.source.at("*").size == 0


def test_pullback_classify_on_representable():
    base = arrow_base()
    omega, truth = subobject_classifier(base)
    yy = yoneda(base, "y")
    # the classifying map picking the sieve {m} at the generic element
    a = PresheafMap(yy, omega, {
        "x": FinFunction(yy.at("x"), omega.at("x"), (1,)),
        "y": FinFunction(yy.at("y"), omega.at("y"), (1,)),
    })
    sub = pullback_classify(truth, a)
    assert sub.source.at("x").size == 1
    assert sub.source.at("y").size == 0


def _all_classifying_maps(base, x):
    omega, truth = subobject_classifier(base)
    return omega, truth, enumerate_maps(x, omega)


def test_classifier_round_trip_terminal_base():
    base = terminal_base()
    x = constant_presheaf(base, fin(3))
    omega, truth, maps = _all_classifying_maps(base, x)
    assert len(maps) == 8
    for a in maps:
        sub = pullback_classify(truth, a)
        assert classify_mono(truth, sub) == a


def test_classifier_round_trip_walking_arrow():
    base = arrow_base()
    x = yoneda(base, "y")
    omega, truth, maps = _all_classifying_maps(base, x)
    for a in maps:
        sub = pullback_classify(truth, a)
        assert classify_mono(truth, sub) == a


def test_mono_equals_pullback_of_its_classifier_up_to_iso():
    base = arrow_base()
    omega, truth = subobject_classifier(base)
    x = Presheaf(base,
                 {"x": fin(2, "ex"), "y": fin(2, "ey")},
                 {"m": FinFunction(fin(2, "ey"), fin(2, "ex"), (0, 1))})
    a_dom = Presheaf(base,
                     {"x": fin(1, "sx"), "y": fin(1, "sy")},
                     {"m": FinFunction(fin(1, "sy"), fin(1, "sx"), (0,))})
    mono = PresheafMap(a_dom, x, {
        "x": FinFunction(a_dom.at("x"), x.at("x"), (1,)),
        "y": FinFunction(a_dom.at("y"), x.at("y"), (1,)),
    })
    a = classify_mono(truth, mono)
    sub = pullback_classify(truth, a)
    for c in base.objects:
        assert set(sub.at(c).table) == set(mono.at(c).table)


# -- category of elements -----------------------------------------------------

def test_elements_of_constant_singleton_is_terminal():
    el, labels = element_category(terminal_presheaf(terminal_base()))
    assert len(el.objects) == 1
    assert el.non_identity_morphisms() == ()
    assert labels[el.objects[0]] == ("*", "*")


def test_elements_of_classifier_on_terminal_base_is_discrete_two():
    omega, _ = subobject_classifier(terminal_base())
    el, _ = element_category(omega)
    assert len(el.objects) == 2
    assert el.non_identity_morphisms() == ()


def test_elements_of_classifier_on_walking_arrow():
    omega, _ = subobject_classifier(arrow_base())
    el, labels = element_category(omega)
    assert len(el.objects) == 5
    assert len(el.non_identity_morphisms()) == 3
    assert validate_category(el) == []
    sources = sorted(m.dom for m in el.non_identity_morphisms())
    assert sources == sorted(["(x,{})", "(x,{id_x})", "(x,{id_x})"])


def test_elements_of_representable_has_terminal_shape():
    base = arrow_base()
    el, _ = element_category(yoneda(base, "y"))
    assert len(el.objects) == 2
    assert len(el.non_identity_morphisms()) == 1
    assert validate_category(el) == []


# -- natural transformation enumeration ---------------------------------------

def test_single_map_to_terminal():
    base = arrow_base()
    f = yoneda(base, "y")
    assert len(enumerate_maps(f, terminal_presheaf(base))) == 1


def test_no_maps_when_forced_level_is_empty():
    base = arrow_base()
    f = yoneda(base, "x")
    g = initial_presheaf(base)
    assert enumerate_maps(f, g) == []


@st.composite
def arrow_presheaves(draw, max_size=3):
    ny = draw(st.integers(0, max_size))
    nx = draw(st.integers(1 if ny else 0, max_size))
    x, y = fin(nx, "gx"), fin(ny, "gy")
    table = tuple(draw(st.integers(0, nx - 1)) for _ in range(ny))
    return Presheaf(arrow_base(), {"x": x, "y": y},
                    {"m": FinFunction(y, x, table)})


@given(arrow_presheaves())
@settings(max_examples=40, deadline=None)
def test_yoneda_lemma_counts(g):
    base = arrow_base()
    for c in base.objects:
        assert len(enumerate_maps(yoneda(base, c), g)) == g.at(c).size


# -- levelwise colimits --------------------------------------------------------

def test_presheaf_pushout_universal_property_small():
    base = arrow_base()
    a = yoneda(base, "y")
    b = terminal_presheaf(base)
    f = enumerate_maps(a, b)[0]
    po = presheaf_pushout(f, presheaf_identity(a))
    assert po.obj.at("x").size == 1 and po.obj.at("y").size == 1
    med = po.mediate(presheaf_identity(b), f)
    assert presheaf_compose(med, po.left) == presheaf_identity(b)


def test_presheaf_coproduct_and_coequalizer():
    base = arrow_base()
    pt = terminal_presheaf(base)
    cp = presheaf_coproduct([pt, pt], tags=("u", "v"))
    assert cp.obj.at("x").size == 2
    q = presheaf_coequalizer(cp.injections[0], cp.injections[1])
    assert q.obj.at("x").size == 1 and q.obj.at("y").size == 1
    assert validate_presheaf(q.obj) == []


def test_coproduct_legs_into_different_targets_raise():
    # w1 and w2 have the same vertices and edge, 0->1 in w1 and 1->0 in w2:
    # the legs agree at every level's set but not on the target presheaf
    base = FinCategory(["v", "e"], [("src", "v", "e"), ("tgt", "v", "e")],
                       {})
    vertices, edge = fin(2, "n"), fin(1, "a")
    pt = Presheaf(base, {"v": fin(1, "p"), "e": fin(0)}, {
        m: FinFunction(fin(0), fin(1, "p"), ()) for m in ("src", "tgt")})

    def graph(s, t):
        return Presheaf(base, {"v": vertices, "e": edge}, {
            "src": FinFunction(edge, vertices, (s,)),
            "tgt": FinFunction(edge, vertices, (t,))})

    def vertex(target, n):
        return PresheafMap(pt, target, {
            "v": FinFunction(pt.at("v"), vertices, (n,)),
            "e": FinFunction(pt.at("e"), edge, ())})
    w1, w2 = graph(0, 1), graph(1, 0)
    q, r = vertex(w1, 0), vertex(w2, 1)
    cp = presheaf_coproduct([pt, pt])
    with pytest.raises(CodomainMismatch):
        cp.mediate([q, r])
    med = cp.mediate([q, vertex(w1, 1)])
    assert presheaf_compose(med, cp.injections[1]) == vertex(w1, 1)


EMPTY_COPRODUCT = """
from garnet.errors import ShapeMismatch
from garnet.presheaf import presheaf_coproduct
try:
    presheaf_coproduct([])
except ShapeMismatch:
    raise SystemExit(0)
raise SystemExit("an empty coproduct without a base did not raise")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_empty_coproduct_without_a_base_raises(flags):
    # with no part and no base there is no base category to build on; an
    # assert here would be stripped by python -O and fail on parts[0]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", EMPTY_COPRODUCT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_presheaf_chain_colimit_stabilizes():
    base = arrow_base()
    pt = terminal_presheaf(base)
    cp = presheaf_coproduct([pt, pt])
    inc = cp.injections[0]
    res = presheaf_sequential_colimit([inc, presheaf_identity(cp.obj)])
    assert res.obj == cp.obj
    assert res.stable_from == 1


def test_presheaf_pullback_matches_levelwise():
    base = arrow_base()
    omega, truth = subobject_classifier(base)
    yy = yoneda(base, "y")
    a = PresheafMap(yy, omega, {
        "x": FinFunction(yy.at("x"), omega.at("x"), (1,)),
        "y": FinFunction(yy.at("y"), omega.at("y"), (1,)),
    })
    pb = pullback_classify(truth, a)
    assert pb.source.at("x").size == 1 and pb.source.at("y").size == 0
    assert validate_presheaf(pb.source) == []


# -- validation and serialization ----------------------------------------------

def test_naturality_violation_is_rejected():
    base = arrow_base()
    two_x = fin(2, "gx")
    two_y = fin(2, "gy")
    g = Presheaf(base, {"x": two_x, "y": two_y},
                 {"m": FinFunction(two_y, two_x, (0, 1))})
    with pytest.raises(NaturalityViolation):
        PresheafMap(g, g, {"x": FinFunction(two_x, two_x, (1, 0)),
                           "y": FinFunction(two_y, two_y, (0, 1))})


def test_validate_presheaf_reports_functoriality_failure():
    # the constructor refuses the presheaf with validate_presheaf's report
    base = FinCategory(["x", "y", "z"],
                       [("f", "x", "y"), ("g", "y", "z"), ("gf", "x", "z")],
                       {("g", "f"): "gf"})
    sx, sy, sz = fin(2, "sx"), fin(1, "sy"), fin(2, "sz")
    with pytest.raises(MalformedInput, match=re.escape(
            "restriction fails functoriality at ('g', 'f')")):
        Presheaf(base, {"x": sx, "y": sy, "z": sz},
                 {"f": FinFunction(sy, sx, (0,)),
                  "g": FinFunction(sz, sy, (0, 0)),
                  "gf": FinFunction(sz, sx, (1, 1))})


def test_presheaf_shape_errors():
    base = arrow_base()
    with pytest.raises(ShapeMismatch):
        Presheaf(base, {"x": fin(1)}, {})
    with pytest.raises(ShapeMismatch):
        Presheaf(base, {"x": fin(1), "y": fin(1)}, {})


def test_presheaf_json_round_trip():
    base = arrow_base()
    omega, truth = subobject_classifier(base)
    assert presheaf_from_json(presheaf_to_json(omega)) == omega
    assert presheaf_map_from_json(
        PresheafAmbient(base).mor_to_json(truth)) == truth
