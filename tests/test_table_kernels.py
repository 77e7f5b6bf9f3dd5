"""The table kernels under every colimit, against independent oracles.

``equivalence_classes`` is checked against a breadth-first search for
connected components (``conftest.connected_components``), and
``compose_tables`` against composing one level at a time by hand.
``class_values`` refuses a table of the wrong length with DomainMismatch,
also under ``python -O``, and a colimit relabeled at its first foot is the
colimit built afresh with that foot.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import connected_components
from garnet.errors import DomainMismatch
from garnet.finset import FinSet, class_values, colimit, compose_tables, \
    equivalence_classes


@st.composite
def element_pairs(draw):
    """n from 0 to 60 and pairs of its elements, self and repeated pairs
    included; no pairs when n is 0."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return n, []
    element = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(element, element), max_size=80))
    selves = [(i, i) for i in draw(st.lists(element, max_size=5))]
    repeats = draw(st.lists(st.sampled_from(pairs), max_size=5)) \
        if pairs else []
    return n, draw(st.permutations(pairs + selves + repeats))


@settings(max_examples=200, deadline=None)
@given(element_pairs())
def test_equivalence_classes_are_the_connected_components(case):
    n, pairs = case
    table, reps = equivalence_classes(n, pairs)
    assert (list(table), list(reps)) == connected_components(n, pairs)
    # each class is named by its minimal member, in the order of those
    assert list(reps) == sorted(reps)
    for k, r in enumerate(reps):
        assert table[r] == k
        assert min(i for i in range(n) if table[i] == k) == r


def test_equivalence_classes_edge_cases():
    assert equivalence_classes(0, []) == ([], [])
    assert equivalence_classes(3, []) == ([0, 1, 2], [0, 1, 2])
    assert equivalence_classes(3, [(1, 1), (2, 2)]) == ([0, 1, 2], [0, 1, 2])
    assert equivalence_classes(4, [(3, 1), (3, 1), (1, 3)]) \
        == ([0, 1, 2, 1], [0, 1, 2])
    # a chain glued from its top down ends at its minimal member
    chain = [(i + 1, i) for i in reversed(range(9))]
    assert equivalence_classes(10, chain) == ([0] * 10, [0])


@st.composite
def table_levels(draw):
    """The tables of g and f, level by level, for 0 to 3 levels: at each
    level f: a -> b and g: b -> c, empty tables included."""
    g, f = [], []
    for _ in range(draw(st.integers(0, 3))):
        a, b, c = (draw(st.integers(0, 4)) for _ in range(3))
        if b and not c:
            c = 1
        if a and not b:
            b, c = 1, max(c, 1)
        g.append(tuple(draw(st.lists(st.integers(0, c - 1), min_size=b,
                                     max_size=b))) if b else ())
        f.append(tuple(draw(st.lists(st.integers(0, b - 1), min_size=a,
                                     max_size=a))) if a else ())
    return tuple(g), tuple(f)


@settings(max_examples=200, deadline=None)
@given(table_levels())
def test_compose_tables_composes_each_level(case):
    g, f = case
    naive = []
    for gt, ft in zip(g, f):
        level = []
        for x in ft:
            level.append(gt[x])
        naive.append(tuple(level))
    assert compose_tables(g, f) == tuple(naive)


def test_compose_tables_with_no_levels_and_empty_levels():
    assert compose_tables((), ()) == ()
    assert compose_tables(((),), ((),)) == ((),)
    assert compose_tables(((0, 0), ()), ((1,), ())) == ((0,), ())


@pytest.mark.parametrize("values", [[5], [5, 5, 5], []])
def test_class_values_refuses_a_table_of_the_wrong_length(values):
    with pytest.raises(DomainMismatch):
        class_values([0, 1], [0, 1], values)


def test_class_values_reads_each_class_once():
    assert class_values([0, 1, 0], [0, 1], [7, 8, 7]) == (7, 8)
    with pytest.raises(DomainMismatch):
        class_values([0, 1, 0], [0, 1], [7, 8, 9])


@st.composite
def glued_feet(draw):
    sizes = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    feet = [FinSet.fresh(n, f"f{k}_") for k, n in enumerate(sizes)]
    elements = [(i, x) for i, n in enumerate(sizes) for x in range(n)]
    pairs = [a + b for a, b in draw(st.lists(st.tuples(
        st.sampled_from(elements), st.sampled_from(elements)),
        max_size=8))] if elements else []
    tags = draw(st.none() | st.just([f"t{k}" for k in range(len(feet))]))
    return feet, pairs, tags


@settings(max_examples=100, deadline=None)
@given(glued_feet())
def test_relabeled_colimit_is_the_colimit_of_the_relabeled_feet(case):
    feet, pairs, tags = case
    copy = FinSet(tuple("new_" + label for label in feet[0].labels))
    assert colimit(feet, pairs, tags).relabeled(copy, tags) \
        == colimit([copy, *feet[1:]], pairs, tags)
