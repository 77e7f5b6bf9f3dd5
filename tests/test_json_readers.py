"""The finite-set and presheaf JSON readers have one path, memo or not.

Every occurrence of an object is checked, and only then is its value looked
up in the document's memo or built.  The oracle below is the readers' old
parse without a memo, which checked and built each occurrence on its own,
plus the checks the readers now make (a presheaf is functorial, its inline
base is the given one, a size is an exact int): a sequence of
valid and mutated values, read through one shared memo, gives what the
oracle gives for each value, the same value or the same error and message.
"""

import json
import os

from hypothesis import given, settings, strategies as st

from garnet import fincat, finset, presheaf as psh
from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient
from garnet.awfs import GeneratedAWFS, factorization_to_json, trace_to_json
from garnet.errors import MalformedInput, UnknownObject
from garnet.fincat import FinCategory
from garnet.finset import FinFunction, FinSet
from garnet.presheaf import Presheaf, PresheafMap, validate_presheaf
from conftest import walking_cospan

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _fixture(name):
    with open(os.path.join(FIX, name)) as fh:
        return json.load(fh)


# -- the oracle: each occurrence parsed on its own -----------------------

def oracle_finset_from_json(data) -> FinSet:
    if not isinstance(data, dict) or "labels" not in data:
        raise MalformedInput("finite set needs a labels list")
    labels = data["labels"]
    if not isinstance(labels, list) \
            or not all(isinstance(l, str) for l in labels):
        raise MalformedInput("labels must be strings")
    if len(set(labels)) != len(labels):
        raise MalformedInput("labels must be distinct")
    if "size" in data and (type(data["size"]) is not int
                           or data["size"] != len(labels)):
        raise MalformedInput("size field disagrees with labels")
    return FinSet(tuple(labels))


def oracle_table_from_json(table, dom: FinSet, cod: FinSet,
                           what: str = "table") -> FinFunction:
    if not isinstance(table, list) or len(table) != dom.size:
        raise MalformedInput(f"{what} must list one entry per domain element")
    if not all(type(v) is int and 0 <= v < cod.size for v in table):
        raise MalformedInput(f"{what} entries must index the codomain")
    return FinFunction(dom, cod, tuple(table))


def oracle_function_from_json(data) -> FinFunction:
    if not isinstance(data, dict):
        raise MalformedInput("map must be an object")
    for key in ("dom", "cod", "table"):
        if key not in data:
            raise MalformedInput(f"map is missing field {key!r}")
    dom = oracle_finset_from_json(data["dom"])
    cod = oracle_finset_from_json(data["cod"])
    return oracle_table_from_json(data["table"], dom, cod)


def oracle_presheaf_from_json(data, base=None) -> Presheaf:
    if not isinstance(data, dict) or "at" not in data:
        raise MalformedInput("presheaf needs an 'at' table")
    if base is None:
        raw = data.get("base")
        if not isinstance(raw, dict):
            raise MalformedInput("presheaf base must be inline or preresolved")
        base = fincat.category_from_json(raw)
    elif "base" in data and fincat.category_from_json(data["base"]) != base:
        raise MalformedInput("presheaf base differs from the given base")
    at = {c: oracle_finset_from_json(v)
          for c, v in finset.json_object(data["at"], "presheaf 'at'").items()}
    restrict = {}
    for name, table in finset.json_object(data.get("restrict", {}),
                                          "presheaf 'restrict'").items():
        if not base.has_morphism(name):
            raise UnknownObject(f"restriction along unknown {name!r}")
        m = base.morphism(name)
        if m.cod not in at or m.dom not in at:
            raise MalformedInput(f"restriction {name!r} lacks endpoints")
        restrict[name] = oracle_table_from_json(
            table, at[m.cod], at[m.dom], f"restriction {name!r}")
    p = Presheaf(base, at, restrict)
    problems = validate_presheaf(p)
    if problems:
        raise MalformedInput("; ".join(problems))
    return p


def oracle_presheaf_map_from_json(data, base=None) -> PresheafMap:
    if not isinstance(data, dict):
        raise MalformedInput("presheaf map must be an object")
    for key in ("source", "target", "components"):
        if key not in data:
            raise MalformedInput(f"presheaf map is missing field {key!r}")
    source = oracle_presheaf_from_json(data["source"], base=base)
    target = oracle_presheaf_from_json(data["target"], base=base)
    comps = {}
    for c, table in finset.json_object(data["components"],
                                       "presheaf map 'components'").items():
        if c not in source.base.objects:
            raise UnknownObject(f"component at unknown object {c!r}")
        comps[c] = oracle_table_from_json(table, source.at(c), target.at(c),
                                          f"component at {c!r}")
    return PresheafMap(source, target, comps)


# -- values to read -------------------------------------------------------

GRAPH = fincat.category_from_json(_fixture("graph_base.json"))
# a -> b -> c with g . f = h, where functoriality is a condition
CHAIN = FinCategory(("a", "b", "c"), (("f", "a", "b"), ("g", "b", "c"),
                                      ("h", "a", "c")), {("g", "f"): "h"})


def _chain(n, prefix, f, g):
    """The chain presheaf of n-element sets restricting by f and g, and by
    their composite along h."""
    at = {c: FinSet.fresh(n, prefix) for c in CHAIN.objects}
    return Presheaf(CHAIN, at, {
        "f": FinFunction(at["b"], at["a"], f),
        "g": FinFunction(at["c"], at["b"], g),
        "h": FinFunction(at["c"], at["a"], tuple(f[i] for i in g))})


SWAP = _chain(2, "x", (1, 0), (1, 0))
POINT = _chain(1, "p", (0,), (0,))
EDGE = _fixture("graph_edge_to_loop.json")

READERS = {
    "set": (finset.finset_from_json, oracle_finset_from_json),
    "map": (finset.function_from_json, oracle_function_from_json),
    "presheaf": (lambda d, memo: psh.presheaf_from_json(d, memo=memo),
                 oracle_presheaf_from_json),
    "graph map": (lambda d, memo: psh.presheaf_map_from_json(d, GRAPH, memo),
                  lambda d: oracle_presheaf_map_from_json(d, GRAPH)),
    "chain map": (lambda d, memo: psh.presheaf_map_from_json(d, CHAIN, memo),
                  lambda d: oracle_presheaf_map_from_json(d, CHAIN)),
}
AMB = FinSetAmbient()
POOL = [
    ("set", finset.finset_to_json(FinSet.fresh(3))),
    ("set", finset.finset_to_json(FinSet.fresh(1, "y"))),
    ("map", _fixture("f_2_to_1.json")),
    # the same table between other sets
    ("map", AMB.mor_to_json(FinFunction(FinSet.fresh(2), FinSet(("q",)),
                                        (0, 0)))),
    ("map", AMB.mor_to_json(FinFunction(FinSet.fresh(3), FinSet.fresh(2, "y"),
                                        (0, 1, 1)))),
    ("presheaf", _fixture("graph_loop.json")),
    ("presheaf", psh.presheaf_to_json(SWAP)),
    ("presheaf", psh.presheaf_to_json(_chain(2, "z", (1, 0), (1, 0)))),
    ("graph map", EDGE),
    ("chain map", PresheafAmbient(CHAIN).mor_to_json(PresheafMap(
        SWAP, POINT, {c: FinFunction(SWAP.at(c), POINT.at(c), (0, 0))
                      for c in CHAIN.objects}))),
    ("chain map", PresheafAmbient(CHAIN).mor_to_json(
        psh.presheaf_identity(SWAP))),
]


def _paths(value, path=()):
    """The path of every entry of a JSON value, the value itself included."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _paths(v, path + (k,))


def _mutations(old):
    """What an entry may become: entries of the wrong JSON type (``true``,
    ``1.0``, strings, lists, null), wrong sizes and ranges, other tables of
    the same size (which may not be functorial), repeated labels, and keys
    dropped from or added to an object (a missing endpoint, an unknown
    restriction, an extra component)."""
    out = [True, False, 1.0, 0.0, "0", [0], None, {}, -1, 2]
    if type(old) is int:
        out += [old + 1, float(old), bool(old)]
    if isinstance(old, list):
        out += [old + old[:1], old[:-1], [True] * len(old), [1.0] * len(old),
                [str(v) for v in old], [[v] for v in old], old[:1] * len(old),
                old[::-1], [0] * len(old)]
    if isinstance(old, dict):
        out += [dict(old, zz=[0]), dict(old, zz=finset.finset_to_json(
            FinSet.fresh(1)))]
        out += [{k: v for k, v in old.items() if k != drop} for drop in old]
    return out


def _mutated(data, path, value):
    data = json.loads(json.dumps(data))
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def documents(draw):
    """A sequence of values to read, most of them drawn again and again
    from a small pool, some mutated in one entry."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        kind, data = draw(st.sampled_from(POOL))
        if draw(st.booleans()):
            path = draw(st.sampled_from(list(_paths(data))))
            old = data
            for key in path:
                old = old[key]
            data = _mutated(data, path, draw(st.sampled_from(_mutations(old))))
        out.append((kind, data))
    return out


def outcome(read, *args):
    try:
        return ("read", read(*args))
    except Exception as exc:  # noqa: BLE001 - the kind is the outcome
        return ("raised", type(exc), str(exc))


@settings(max_examples=500, deadline=None)
@given(documents())
def test_readers_with_one_memo_equal_the_oracle(doc):
    memo: dict = {}
    for kind, data in doc:
        read, oracle = READERS[kind]
        got = outcome(read, data, memo)
        assert got == outcome(oracle, data), (kind, data)
        assert got == outcome(read, data, None)


def test_the_pool_reads():
    for kind, data in POOL:
        read, _oracle = READERS[kind]
        read(data, None)


def test_a_mistyped_occurrence_after_a_read_one_raises():
    memo: dict = {}
    data = _fixture("f_2_to_1.json")
    finset.function_from_json(data, memo)
    for value in (True, 0.0, "0", None):
        bad = _mutated(data, ("table", 0), value)
        assert outcome(finset.function_from_json, bad, memo) == (
            "raised", MalformedInput, "table entries must index the codomain")


def test_a_size_is_an_exact_int():
    # false once passed as the size of an empty set, true and 1.0 as that
    # of a one-element set
    for labels, size in [([], False), (["x"], True), (["x"], 1.0)]:
        assert outcome(finset.finset_from_json,
                       {"size": size, "labels": labels}, {}) == (
            "raised", MalformedInput, "size field disagrees with labels")
    assert finset.finset_from_json({"size": 1, "labels": ["x"]}) \
        == FinSet(("x",))


def test_a_non_functorial_presheaf_raises_on_every_read():
    memo: dict = {}
    good = psh.presheaf_to_json(SWAP)
    # f and g each swap, so h must restrict by the identity, not the swap
    bad = _mutated(good, ("restrict", "h"), [1, 0])
    assert psh.presheaf_from_json(good, memo=memo) == SWAP
    for _ in range(2):
        assert outcome(lambda d: psh.presheaf_from_json(d, memo=memo),
                       bad) == ("raised", MalformedInput, "restriction fails "
                                "functoriality at ('g', 'f')")
    assert psh.presheaf_from_json(good, memo=memo) == SWAP


# -- certificates are written as copies -----------------------------------

def test_a_written_certificate_is_a_copy():
    f = ArrowObj(AMB, FinFunction(FinSet.fresh(3), FinSet.fresh(2, "y"),
                                  (0, 0, 1)))
    fact = GeneratedAWFS(walking_cospan()).factorize(f)
    one = trace_to_json(fact.trace)
    two = factorization_to_json(fact)["trace"]
    kept = json.dumps(two, sort_keys=True)
    assert one == two
    for stage in one["stages"]:
        for cert in stage["certificates"]:
            cert["provenance"] = "edited"
    assert all(cert["provenance"] != "edited"
               for stage in fact.trace.stages for cert in stage.certificates)
    assert json.dumps(two, sort_keys=True) == kept
    assert trace_to_json(fact.trace) == two
