"""Colimit substrate tests.

Expected values for the quotient-style operations were computed with the
naive partition oracle below (repeated merging until a fixed point), which
shares no code with the union-find implementation.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from garnet.arrows import ArrowAmbient, FinSetAmbient, PresheafAmbient
from garnet.errors import (
    DomainMismatch,
    EnumerationCap,
    MalformedInput,
)
from garnet.fincat import FinCategory
from garnet.finset import (
    EMPTY,
    FinFunction,
    FinSet,
    coequalizer,
    compose,
    coproduct,
    enumerate_functions,
    finset_from_json,
    finset_to_json,
    function_from_json,
    identity,
    pushout,
    quotient,
    sequential_colimit,
)


def fin(n, prefix="x"):
    return FinSet.fresh(n, prefix)


def fn(dom, cod, *table):
    return FinFunction(dom, cod, tuple(table))


def oracle_partition(n, pairs):
    """Fixed-point merging, independent of the union-find code path."""
    classes = [{i} for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            ci = next(c for c in classes if i in c)
            cj = next(c for c in classes if j in c)
            if ci is not cj:
                classes.remove(cj)
                ci |= cj
                changed = True
    return classes


def mediators(colim_obj, legs, cocone):
    """All maps out of the colimit commuting with every (leg, cocone) pair."""
    w = cocone[0].cod
    found = []
    for m in enumerate_functions(colim_obj, w):
        if all(compose(m, leg) == c for leg, c in zip(legs, cocone)):
            found.append(m)
    return found


# -- pushout ---------------------------------------------------------------

def test_pushout_of_singletons_is_two_point_coproduct():
    a, b = fin(1, "a"), fin(1, "b")
    po = pushout(fn(EMPTY, a), fn(EMPTY, b))
    assert po.obj.size == 2
    assert po.left.table == (0,)
    assert po.right.table == (1,)


def test_pushout_along_identity_is_isomorphic_to_other_leg():
    a, c = fin(2, "a"), fin(3, "c")
    g = fn(a, c, 0, 2)
    po = pushout(identity(a), g)
    assert po.obj.size == c.size
    assert po.right.is_bijective


def test_pushout_collapse_two_points():
    # span 1 <- 2 -> 2 with the right leg the identity
    a, b, c = fin(2, "a"), fin(1, "b"), fin(2, "c")
    f = fn(a, b, 0, 0)
    g = fn(a, c, 0, 1)
    # oracle: classes of B+C (indices 0 | 1,2) under {(0,1),(0,2)}
    assert len(oracle_partition(3, [(0, 1), (0, 2)])) == 1
    po = pushout(f, g)
    assert po.obj.size == 1


def test_pushout_labels_are_minimal_representatives():
    a, b, c = fin(1, "a"), fin(2, "b"), fin(2, "c")
    f = fn(a, b, 1)
    g = fn(a, c, 0)
    po = pushout(f, g)
    # classes of {i0.b0, i0.b1, i1.c0, i1.c1} with b1 ~ c0
    assert po.obj.labels == ("i0.b0", "i0.b1", "i1.c1")


def test_coproduct_equals_pushout_over_empty():
    b, c = fin(2, "b"), fin(3, "c")
    po = pushout(fn(EMPTY, b), fn(EMPTY, c))
    cp = coproduct([b, c])
    assert po.obj == cp.obj
    assert po.left == cp.injections[0]
    assert po.right == cp.injections[1]


def test_pushout_rejects_mismatched_span():
    with pytest.raises(DomainMismatch):
        pushout(fn(fin(1), fin(1), 0), fn(fin(2), fin(1), 0, 0))


@st.composite
def spans(draw, max_size=3):
    na = draw(st.integers(0, max_size))
    low = 0 if na == 0 else 1
    nb = draw(st.integers(low, max_size))
    nc = draw(st.integers(low, max_size))
    a, b, c = fin(na, "a"), fin(nb, "b"), fin(nc, "c")
    f = FinFunction(a, b, tuple(draw(st.integers(0, nb - 1)) for _ in range(na)))
    g = FinFunction(a, c, tuple(draw(st.integers(0, nc - 1)) for _ in range(na)))
    return f, g


@given(spans())
@settings(max_examples=60, deadline=None)
def test_pushout_universal_property(span):
    f, g = span
    po = pushout(f, g)
    assert compose(po.left, f) == compose(po.right, g)
    for wn in range(1, 3):
        w = fin(wn, "w")
        for q in enumerate_functions(f.cod, w):
            for r in enumerate_functions(g.cod, w):
                if compose(q, f) != compose(r, g):
                    continue
                ms = mediators(po.obj, [po.left, po.right], [q, r])
                assert len(ms) == 1
                assert po.mediate(q, r) == ms[0]


@given(spans(max_size=4))
@settings(max_examples=60, deadline=None)
def test_pushout_size_matches_partition_oracle(span):
    f, g = span
    nb = f.cod.size
    pairs = [(f(i), nb + g(i)) for i in range(f.dom.size)]
    expected = len(oracle_partition(nb + g.cod.size, pairs))
    assert pushout(f, g).obj.size == expected


@given(spans(max_size=4))
@settings(max_examples=60, deadline=None)
def test_pushout_of_mono_is_mono(span):
    f, g = span
    if not f.is_injective:
        return
    assert pushout(f, g).right.is_injective


@given(spans(max_size=4))
@settings(max_examples=30, deadline=None)
def test_pushout_is_deterministic(span):
    f, g = span
    first, second = pushout(f, g), pushout(f, g)
    assert first.obj == second.obj
    assert first.left == second.left and first.right == second.right


# -- coequalizer -------------------------------------------------------------

def test_coequalizer_of_equal_pair_is_bijective():
    a, b = fin(2, "a"), fin(3, "b")
    f = fn(a, b, 0, 2)
    q = coequalizer(f, f)
    assert q.proj.is_bijective


def test_coequalizer_chain_collapse():
    a, b = fin(2, "a"), fin(3, "b")
    f = fn(a, b, 0, 1)
    g = fn(a, b, 1, 2)
    assert len(oracle_partition(3, [(0, 1), (1, 2)])) == 1
    q = coequalizer(f, g)
    assert q.obj.size == 1
    assert q.obj.labels == ("b0",)


def test_coequalizer_identifies_the_two_summands_of_a_double_point():
    pt = fin(1, "pt")
    two = coproduct([pt, pt], tags=("u", "v"))
    q = coequalizer(two.injections[0], two.injections[1])
    assert q.obj.size == 1


@st.composite
def parallel_pairs(draw, max_size=4):
    na = draw(st.integers(0, max_size))
    nb = draw(st.integers(1, max_size))
    a, b = fin(na, "a"), fin(nb, "b")
    f = FinFunction(a, b, tuple(draw(st.integers(0, nb - 1)) for _ in range(na)))
    g = FinFunction(a, b, tuple(draw(st.integers(0, nb - 1)) for _ in range(na)))
    return f, g


@given(parallel_pairs())
@settings(max_examples=60, deadline=None)
def test_coequalizer_universal_property(pair):
    f, g = pair
    co = coequalizer(f, g)
    assert compose(co.proj, f) == compose(co.proj, g)
    for wn in range(1, 3):
        w = fin(wn, "w")
        for h in enumerate_functions(f.cod, w):
            if compose(h, f) != compose(h, g):
                continue
            ms = mediators(co.obj, [co.proj], [h])
            assert len(ms) == 1
            assert co.mediate(h) == ms[0]


@st.composite
def relations(draw, max_size=5):
    n = draw(st.integers(0, max_size))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=6)) if n else []


@given(relations())
@settings(max_examples=60, deadline=None)
def test_quotient_matches_partition_oracle(rel):
    n, pairs = rel
    x = fin(n, "x")
    q = quotient(x, pairs)
    classes = sorted(sorted(c) for c in oracle_partition(n, pairs))
    assert [[i for i in range(n) if q.proj(i) == k]
            for k in range(q.obj.size)] == classes
    assert q.obj.labels == tuple(x.labels[c[0]] for c in classes)
    assert q.reps == tuple(c[0] for c in classes)


# -- mediators refuse what is no cocone, also under python -O ----------------

NOT_A_COCONE = """
from garnet.errors import CodomainMismatch, DomainMismatch
from garnet.finset import FinFunction, FinSet, coequalizer, coproduct, \\
    pushout, quotient

a, b, w = FinSet.fresh(1, "a"), FinSet.fresh(2, "b"), FinSet.fresh(2, "w")
swap = FinFunction(b, w, (1, 0))
cp = coproduct([a, a])
ce = coequalizer(FinFunction(a, b, (0,)), FinFunction(a, b, (1,)))
po = pushout(FinFunction(a, b, (0,)), FinFunction(a, b, (1,)))
cases = [
    (DomainMismatch, lambda: cp.mediate([FinFunction(a, w, (0,))])),
    (DomainMismatch, lambda: coproduct([a, b], tags=["only"])),
    (DomainMismatch, lambda: ce.mediate(swap)),
    (DomainMismatch, lambda: quotient(b, [(0, 1)]).mediate(swap)),
    (DomainMismatch, lambda: po.mediate(swap, swap)),
    (CodomainMismatch, lambda: po.mediate(
        swap, FinFunction(b, FinSet.fresh(3, "v"), (0, 1)))),
]
for k, (error, build) in enumerate(cases):
    try:
        build()
    except error:
        continue
    raise SystemExit(f"case {k} did not raise {error.__name__}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_mediators_raise_on_what_is_no_cocone(flags):
    # python -O strips assert statements, so a check written as one would
    # let such a cocone through to a wrong map
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", NOT_A_COCONE],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


# -- sequential colimit ------------------------------------------------------

def test_identity_chain_colimit_is_the_object_itself():
    x = fin(3, "x")
    res = sequential_colimit([identity(x), identity(x)])
    assert res.obj == x
    assert res.stable_from == 0
    assert all(leg.is_identity for leg in res.legs)


def test_chain_stabilizing_at_stage_one():
    one, two = fin(1, "s"), fin(2, "t")
    res = sequential_colimit([fn(one, two, 0), identity(two)])
    assert res.obj == two
    assert res.stable_from == 1


def test_chain_with_collapse_then_identity():
    two, one = fin(2, "s"), fin(1, "t")
    res = sequential_colimit([fn(two, one, 0, 0), identity(one)])
    assert res.obj == one
    assert res.stable_from == 1


def test_empty_chain_needs_start():
    # the chain colimit is one algorithm over the ambient protocol, so every
    # ambient rejects a chain with no map, which names no first object
    fs = FinSetAmbient()
    for amb in (fs, PresheafAmbient(FinCategory(("c",), (), {})),
                ArrowAmbient(fs)):
        with pytest.raises(DomainMismatch):
            amb.sequential_colimit([])


def test_chain_colimit_reuses_stable_labels_under_extension():
    one, two = fin(1, "s"), fin(2, "t")
    swap = fn(two, two, 1, 0)
    short = sequential_colimit([fn(one, two, 0)])
    longer = sequential_colimit([fn(one, two, 0), swap, swap])
    assert short.obj == longer.obj == two


@st.composite
def chains(draw, max_len=3, max_size=3):
    length = draw(st.integers(1, max_len))
    sizes = [draw(st.integers(1, max_size)) for _ in range(length + 1)]
    objs = [fin(n, f"s{i}_") for i, n in enumerate(sizes)]
    maps = []
    for i in range(length):
        table = tuple(draw(st.integers(0, sizes[i + 1] - 1))
                      for _ in range(sizes[i]))
        maps.append(FinFunction(objs[i], objs[i + 1], table))
    return maps


@given(chains())
@settings(max_examples=40, deadline=None)
def test_chain_colimit_universal_property(maps):
    res = sequential_colimit(maps)
    for i in range(len(maps)):
        assert compose(res.legs[i + 1], maps[i]) == res.legs[i]
    w = fin(2, "w")
    last = maps[-1].cod
    for h_last in enumerate_functions(last, w):
        cocone = [compose(h_last, _composite(maps, i)) for i in range(len(maps))]
        cocone.append(h_last)
        ms = mediators(res.obj, list(res.legs), cocone)
        assert len(ms) == 1
        assert res.mediate(cocone) == ms[0]


def _composite(maps, start):
    leg = identity(maps[start].dom)
    for m in maps[start:]:
        leg = compose(m, leg)
    return leg


# -- enumeration ------------------------------------------------------------

def test_enumerate_functions_from_empty():
    fs = enumerate_functions(EMPTY, fin(3))
    assert len(fs) == 1 and fs[0].table == ()


def test_enumerate_functions_counts_and_order():
    fs = enumerate_functions(fin(2), fin(2))
    assert [f.table for f in fs] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_functions(fin(1), fin(2))) == 2


def test_enumerate_functions_cap():
    with pytest.raises(EnumerationCap):
        enumerate_functions(fin(3), fin(3), cap=26)


# -- serialization -----------------------------------------------------------

def test_function_json_round_trip():
    f = fn(fin(2, "a"), fin(3, "b"), 2, 0)
    assert function_from_json(FinSetAmbient().mor_to_json(f)) == f


def test_finset_json_rejects_bad_shapes():
    with pytest.raises(MalformedInput):
        finset_from_json({"labels": ["a", "a"]})
    with pytest.raises(MalformedInput):
        finset_from_json({"size": 2, "labels": ["a"]})
    with pytest.raises(MalformedInput):
        function_from_json({"dom": finset_to_json(fin(2)),
                            "cod": finset_to_json(fin(1)),
                            "table": [0]})
