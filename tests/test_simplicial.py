"""The paper's running example: boundary generators on truncated simplicial
sets, presheaves on Delta<=n (``conftest.simplex_category``).

Pinned here is what the engine does today, so that a change to the
example's outcome is a change to this file:

- at cap 10^40, the Delta<=2 factorizations of Delta[1] -> Delta[0] and
  Delta[2] -> Delta[0], their midpoints' level sizes, and ``verify_trace``
  passing on each;
- the Delta<=1 law suite of Delta[1] -> Delta[0]: under the default cap it
  raises EnumerationCap on the lifting problems at generator ``bd1`` (44
  bottoms out of Delta[1] by Yoneda, but the cap counts the naive product
  of the levels' hom sizes), and at cap 10^8 it passes.
"""

import pytest

from garnet.awfs import GeneratedAWFS, verify_trace
from garnet.errors import EnumerationCap
from conftest import simplex_boundary_generators, simplex_category, \
    simplex_to_point

DELTA1, DELTA2 = simplex_category(1), simplex_category(2)


def test_simplex_category_sizes():
    # the monotone maps among [0], [1] and [2]: 31, three of them identities
    assert len(DELTA1.morphisms) == 7 and len(DELTA2.morphisms) == 31
    u = simplex_boundary_generators(DELTA2)
    assert [tuple(u.arrow(j).dom.at(x).size for x in DELTA2.objects)
            for j in u.index.objects] == [(0, 0, 0), (2, 2, 2), (3, 6, 9)]


@pytest.mark.parametrize("k, levels", [(1, (3, 13, 108)),
                                       (2, (4, 23, 243))])
def test_delta2_boundary_factorization(k, levels):
    aw = GeneratedAWFS(simplex_boundary_generators(DELTA2), cap=10**40)
    fact = aw.factorize(simplex_to_point(DELTA2, k))
    assert tuple(fact.midpoint.at(x).size for x in DELTA2.objects) == levels
    assert verify_trace(fact.trace, fact, cap=10**40)["pass"]


def test_delta1_law_suite_hits_the_default_cap_at_bd1():
    u = simplex_boundary_generators(DELTA1)
    f = simplex_to_point(DELTA1, 1)
    with pytest.raises(EnumerationCap, match="at generator 'bd1': tops "
                       r"\(0: 2->2, 1: 2->3\), bottoms \(0: 2->5, 1: 3->44\)"):
        GeneratedAWFS(u).law_suite(f)
    assert GeneratedAWFS(u, cap=10**8).law_suite(f)["pass"]
