"""Lifting structures are kept as their fillers' tables.

A ``LiftingStructure`` holds ``problem key -> filler tables`` and builds a
filler map only when one is read.  On random finite-set and graph maps,
the canonical structure's tables are those of the checked maps that
composing the algebra's top with each cell's leg gives, which is how the
structure was read off the algebra when it held maps; ``by_key``,
``fillers`` and ``filler(key)`` give equal maps, each the checked map with
the key's filler tables; structures with equal tables compare and hash
equal; and the structures of one search share one map per problem and
filler.  An unknown key raises BoundaryMismatch, also under ``python -O``,
and writing a structure's JSON builds no map.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from conftest import arrow, finite, func
from garnet import awfs as awfs_module
from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient, \
    square_from_tables
from garnet.awfs import GeneratedAWFS, LiftingStructure, \
    find_lifting_structures
from garnet.density import arrow_diagram_from_json
from garnet.fincat import category_from_json
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import Presheaf, PresheafMap
from test_density_memo import finset_maps, graph_maps

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
AMB = FinSetAmbient()


def _fixture(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


WC = arrow_diagram_from_json(_fixture("walking_cospan.json"), AMB)
GRAPH = category_from_json(_fixture("graph_base.json"))
PAMB = PresheafAmbient(GRAPH)
BOUNDARY = arrow_diagram_from_json(_fixture("graph_boundary.json"), PAMB)
SURJECTION = arrow(func(finite(4), finite(2, "y"), 0, 1, 0, 1))


def _graph(prefix, vertices, src, tgt):
    v = FinSet.fresh(vertices, prefix + "v")
    e = FinSet.fresh(len(src), prefix + "e")
    return Presheaf(GRAPH, {"v": v, "e": e}, {
        "src": FinFunction(e, v, src), "tgt": FinFunction(e, v, tgt)})


# each edge of a 2-cycle doubled, onto the 2-cycle: two problems against
# the boundary of an edge, of two fillers each
_DOUBLED, _CYCLE = (_graph("d", 2, (0, 0, 1, 1), (1, 1, 0, 0)),
                    _graph("c", 2, (0, 1), (1, 0)))
DOUBLED_CYCLE = ArrowObj(PAMB, PresheafMap(_DOUBLED, _CYCLE, {
    "v": FinFunction(_DOUBLED.at("v"), _CYCLE.at("v"), (0, 1)),
    "e": FinFunction(_DOUBLED.at("e"), _CYCLE.at("e"), (0, 0, 1, 1))}))


def oracle_canonical_fillers(aw, f) -> tuple:
    """The right factor at f and its canonical fillers as checked maps, one
    per problem of its one-step gluing: the algebra's top after the
    gluing's cell leg after the problem's cell leg, composed as maps."""
    inner = aw.ambient
    fact = aw.factorize(f)
    data = aw.one_step(fact.right)
    den = data.den
    back = inner.compose(fact.algebra.top, data.po.right)
    return fact.right, {
        key: inner.compose(back, inner.from_tables(
            den.cells[name].cod, den.den.cod, den.legs[name][1]))
        for name, key in den.comma.problems.items()}


def check_maps(psi):
    """by_key, fillers and filler(key) give one map per problem, the
    checked map with the key's filler tables, under the key's square."""
    inner, gen = psi.f.ambient, psi.awfs.generators.arrow
    assert list(psi.by_key) == list(psi.tables)
    assert len(psi.fillers) == len(psi.tables)
    for (key, value), (problem, s) in zip(psi.tables.items(),
                                          psi.fillers.items()):
        j, top, bottom = key
        assert psi.by_key[key] == inner.from_tables(gen(j).cod, psi.f.dom,
                                                    value) == s
        assert psi.filler(key) is psi.by_key[key] is s
        assert problem == (j, square_from_tables(gen(j), psi.f, top, bottom))


def check_equal_tables(u, psi):
    """A structure with equal tables, from another session too, is equal
    and hashes alike; one filler's tables changed make it another."""
    for awfs in (psi.awfs, GeneratedAWFS(u)):
        twin = LiftingStructure(psi.f, dict(psi.tables), awfs)
        assert twin == psi and hash(twin) == hash(psi)
        assert twin.by_key == psi.by_key
    for key in psi.tables:
        other = dict(psi.tables)
        other[key] = ((),) + psi.tables[key]
        assert LiftingStructure(psi.f, other, psi.awfs) != psi


def check_canonical(u, f):
    aw = GeneratedAWFS(u)
    psi = aw.canonical_structure(f)
    right, want = oracle_canonical_fillers(aw, f)
    inner = aw.ambient
    assert psi.f == right
    assert list(psi.tables) == list(want)
    assert list(psi.tables.values()) == [inner.tables(m)
                                         for m in want.values()]
    assert list(psi.by_key.values()) == list(want.values())
    check_maps(psi)
    check_equal_tables(u, psi)


@settings(max_examples=40, deadline=None)
@given(finset_maps())
def test_finset_canonical_structure_is_the_checked_maps_tables(f):
    check_canonical(WC, f)


@settings(max_examples=15, deadline=None)
@given(graph_maps())
def test_graph_canonical_structure_is_the_checked_maps_tables(f):
    check_canonical(BOUNDARY, f)


@pytest.mark.parametrize("u, f", [(WC, SURJECTION),
                                  (BOUNDARY, DOUBLED_CYCLE)],
                         ids=["cospan", "graph"])
def test_searched_structures_share_one_map_per_problem_and_filler(u, f):
    found = find_lifting_structures(GeneratedAWFS(u), f, "all")
    seen, shared = {}, 0
    for psi in found:
        check_maps(psi)
        check_equal_tables(u, psi)
        for key, value in psi.tables.items():
            s = psi.filler(key)
            shared += (key, value) in seen
            assert seen.setdefault((key, value), s) is s
    # the structures do agree on some problems
    assert len(found) > 1 and shared


@pytest.mark.parametrize("u, f", [(WC, SURJECTION),
                                  (BOUNDARY, DOUBLED_CYCLE)],
                         ids=["cospan", "graph"])
def test_structure_json_builds_no_map(monkeypatch, u, f):
    aw = GeneratedAWFS(u)
    # the JSON the structures' filler maps gave before it was written
    # from their tables
    want = [{"f": u.ambient.mor_to_json(psi.f.mor),
             "fillers": [{"index": i,
                          "problem": awfs_module._square_to_json(
                              u.ambient, a),
                          "filler": u.ambient.mor_to_json(s)}
                         for (i, a), s in psi.fillers.items()]}
            for psi in find_lifting_structures(aw, f, "all")]
    built = []
    check = FinFunction.__post_init__

    def counted_check(self):
        built.append(self)
        check(self)
    fresh = find_lifting_structures(aw, f, "all")
    monkeypatch.setattr(FinFunction, "__post_init__", counted_check)
    assert [awfs_module.structure_to_json(psi) for psi in fresh] == want
    assert built == []


UNKNOWN_KEY = """
import json, sys
from garnet.arrows import ArrowObj, FinSetAmbient
from garnet.awfs import GeneratedAWFS, find_lifting_structures
from garnet.density import arrow_diagram_from_json
from garnet.errors import BoundaryMismatch
from garnet.finset import FinFunction, FinSet

amb = FinSetAmbient()
with open(sys.argv[1]) as fh:
    u = arrow_diagram_from_json(json.load(fh), amb)
f = ArrowObj(amb, FinFunction(FinSet.fresh(2), FinSet.fresh(1, "y"), (0, 0)))
(psi,) = find_lifting_structures(GeneratedAWFS(u), f, "first")
j, top, bottom = next(iter(psi.tables))
for key in ((j, top, ((9,),)), ("nowhere", top, bottom)):
    for read in (psi.filler, psi.filler_tables):
        try:
            read(key)
        except BoundaryMismatch:
            continue
        raise SystemExit(f"{read.__name__} accepted {key!r}")
print("refused")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_an_unknown_key_raises_boundary_mismatch(flags):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run(
        [sys.executable, *flags, "-c", UNKNOWN_KEY,
         os.path.join(FIX, "walking_cospan.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "refused"
