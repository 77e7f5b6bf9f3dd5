"""Trace JSON is read and written with one memo per document.

``trace_from_json`` keys each occurrence of a map, and of a map's finite
sets or presheaves, by its exact JSON: an occurrence that repeats, byte for
byte, one already accepted is that one's value and is not checked again,
which is sound since the checks passed on the same bytes; any other
occurrence is checked in full.  ``trace_to_json`` (with
``factorization_to_json`` and ``structure_to_json``) builds each distinct
object's and map's JSON once.  The oracle below is the reader before the
memo, which parsed every occurrence on its own: on random traces, and on
random one-entry edits of them, the memoized reader returns what the oracle
returns or raises what it raises.  A report edited in one occurrence of an
object it repeats (``1`` made ``true`` or ``1.0``, a label renamed, a null
size, a list among the labels) is refused by ``trace-verify`` exactly as
the reader without a memo refused it, also under ``python -O``; those
outcomes are pinned below, as are repeats that only a type-exact key tells
apart (a tuple table, a label of a str subclass).
Count guards pin one map read per distinct map JSON, one ``Presheaf`` per
distinct presheaf and one ``FinSet`` per distinct label list, and the
presheaf report's bytes are pinned by their digest.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import cell_row, walking_cospan
from garnet import awfs, fincat, finset, presheaf as psh
from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient, Square
from garnet.awfs import (GeneratedAWFS, QuotientRecord, Trace, TraceCell,
                         TraceStage, factorization_to_json,
                         find_lifting_structures, structure_to_json,
                         trace_from_json, trace_to_json, verify_trace)
from garnet.cli import main
from garnet.density import arrow_diagram_from_json, arrow_diagram_to_json
from garnet.errors import GarnetError, MalformedInput
from garnet.finset import FinFunction, FinSet, json_object
from garnet.freemonad import backdrop_from_json
from test_density_memo import graph_maps
from test_lift_comma import finset_maps

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
AMB = FinSetAmbient()


def fix(name):
    return os.path.join(FIX, name)


def _fixture(name):
    with open(fix(name)) as fh:
        return json.load(fh)


GRAPH = fincat.category_from_json(_fixture("graph_base.json"))
PAMB = PresheafAmbient(GRAPH)
BOUNDARY = arrow_diagram_from_json(_fixture("graph_boundary.json"), PAMB)
WC = walking_cospan()


# -- the oracle: the reader before the memo ------------------------------------

def oracle_trace_from_json(data, inner):
    """trace_from_json as it was before the memo: every occurrence of an
    object or map is parsed and checked on its own."""
    u = arrow_diagram_from_json(data["generators"], inner)
    mor = inner.mor_from_json

    def square(d):
        d = json_object(d, "square")
        return Square(ArrowObj(inner, mor(d["source"])),
                      ArrowObj(inner, mor(d["target"])),
                      mor(d["top"]), mor(d["bottom"]))
    backdrop = backdrop_from_json(data["backdrop"])
    raw = awfs._json_list(data["stages"], "trace 'stages'")
    stages = []
    for sd in raw:
        sd = json_object(sd, "trace stage")
        cd = json_object(sd["cell"], "stage 'cell'")
        cell = TraceCell(
            ArrowObj(inner, mor(cd["den"])),
            square(cd["counit"]),
            tuple(cell_row(n, square(sq))
                  for n, sq in awfs._rows(cd["legs"], 2, "cell 'legs'")),
            tuple(cell_row(n, j, square(sq))
                  for n, j, sq in awfs._rows(cd["problems"], 3,
                                             "cell 'problems'")))
        built = None
        if sd["built_from"] is not None:
            bd = json_object(sd["built_from"], "stage 'built_from'")
            span = awfs._json_list(bd["span"], "gluing 'span'", 2)
            tags = awfs._json_list(bd["tags"], "gluing 'tags'", 2)
            if not all(isinstance(t, str) for t in tags):
                raise MalformedInput("gluing 'tags' must be two strings")
            if bd["into"] not in ("left", "right"):
                raise MalformedInput("gluing 'into' must be 'left' or "
                                     "'right'")
            built = QuotientRecord(
                (mor(span[0]), mor(span[1])), tuple(tags),
                mor(bd["left"]), mor(bd["right"]), bd["into"])
        certs = tuple(awfs._certificate(c) for c in awfs._json_list(
            sd["certificates"], "stage 'certificates'"))
        stages.append(TraceStage(
            awfs._stage_index(sd["index"], raw, "stage 'index'"),
            ArrowObj(inner, mor(sd["arrow"])), cell, built,
            square(sd["composite"]), square(sd["transition"]), certs))
    return Trace(ArrowObj(inner, mor(data["f"])), u, backdrop,
                 tuple(stages), data["converged_stage"])


class _Forgetful(dict):
    """A memo that finds nothing, so every occurrence is written anew."""

    def get(self, key, default=None):
        return default


def outcome(read, data, inner):
    """What a reader makes of data: the trace, with its generators as
    JSON (a diagram has no equality), or the error it raises."""
    try:
        trace = read(data, inner)
    except Exception as exc:  # noqa: BLE001 - the kind is the outcome
        return ("raised", type(exc), str(exc))
    return ("read", trace, arrow_diagram_to_json(trace.generators))


# -- random traces and edits ----------------------------------------------------

@st.composite
def factorized(draw):
    """A factorization, with its ambient, of a small finite-set map under
    the walking cospan or of a graph map under the edge boundary."""
    if draw(st.booleans()):
        f = draw(finset_maps(most=4))
        return GeneratedAWFS(WC).factorize(f), AMB
    return GeneratedAWFS(BOUNDARY).factorize(draw(graph_maps())), PAMB


def _leaves(value, path=()):
    """The path of every entry of a JSON value that is not an object."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
        return
    yield path
    if isinstance(value, list):
        for k, v in enumerate(value):
            yield from _leaves(v, path + (k,))


def _edited(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def _replacements(old):
    """Values that a parser keyed on loose types would confuse with old."""
    out = [True, False, 1.0, 0.0, None, [], {}, "zz", [old]]
    if type(old) is int:
        out += [old + 1, -1, float(old), bool(old)]
    if isinstance(old, str):
        out.append(old + "'")
    if isinstance(old, list):
        out += [old + old, old[:-1], [True] * len(old), tuple(old)]
    return out


@settings(max_examples=40, deadline=None)
@given(factorized())
def test_memoized_reader_equals_the_oracle(case):
    fact, inner = case
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    got = outcome(trace_from_json, data, inner)
    assert got == outcome(oracle_trace_from_json, data, inner)
    assert got[0] == "read" and got[1] == fact.trace
    assert verify_trace(got[1], fact)["pass"]
    # the memoized writer writes the bytes the writer without one writes
    assert json.dumps(data) == json.dumps(trace_to_json(fact.trace,
                                                        _Forgetful()))


@settings(max_examples=60, deadline=None)
@given(factorized(), st.data())
def test_an_edited_trace_reads_as_the_oracle_reads_it(case, draw):
    fact, inner = case
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    path = draw.draw(st.sampled_from([p for p in _leaves(data) if p]))
    old = data
    for key in path:
        old = old[key]
    data = _edited(data, path, draw.draw(st.sampled_from(_replacements(old))))
    got = outcome(trace_from_json, data, inner)
    assert got == outcome(oracle_trace_from_json, data, inner)
    if got[0] == "raised":
        # what the command line reports as invalid input, no traceback
        assert issubclass(got[1], (GarnetError, KeyError)), got


# -- count guards ------------------------------------------------------------------

def _graph(nv, edges, prefix):
    v, e = FinSet.fresh(nv, prefix + "v"), FinSet.fresh(len(edges), prefix + "e")
    return psh.Presheaf(GRAPH, {"v": v, "e": e}, {
        "src": FinFunction(e, v, tuple(s for s, _ in edges)),
        "tgt": FinFunction(e, v, tuple(t for _, t in edges))})


def _cycle(n, prefix):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)], prefix)


def c3_to_c1():
    x, y = _cycle(3, "x"), _cycle(1, "y")
    return ArrowObj(PAMB, psh.PresheafMap(x, y, {
        "v": FinFunction(x.at("v"), y.at("v"), (0, 0, 0)),
        "e": FinFunction(x.at("e"), y.at("e"), (0, 0, 0))}))


def six_to_four():
    return ArrowObj(AMB, FinFunction(FinSet.fresh(6), FinSet.fresh(4, "y"),
                                     (0, 0, 0, 1, 1, 2)))


# the fields that make a presheaf's JSON, its base aside
PRESHEAF = ("at", "restrict")


def _distinct(data, has, fields=None):
    """The distinct JSON values inside data that have the given key, each
    taken as its given fields, or whole."""
    seen = set()

    def walk(v):
        if isinstance(v, dict):
            if has in v:
                seen.add(json.dumps(v if fields is None else
                                    {k: v[k] for k in fields},
                                    sort_keys=True))
            for w in v.values():
                walk(w)
        elif isinstance(v, list):
            for w in v:
                walk(w)
    walk(data)
    return len(seen)


def test_graph_trace_reads_each_distinct_presheaf_once(monkeypatch):
    fact = GeneratedAWFS(BOUNDARY).factorize(c3_to_c1())
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    built = []
    init = psh.Presheaf.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(psh.Presheaf, "__init__", counted)
    back = trace_from_json(data, PAMB)
    # 356 presheaves were built before the memo
    assert len(built) <= _distinct(data, "restrict", PRESHEAF) == 9
    monkeypatch.undo()
    assert back == fact.trace and verify_trace(back, fact)["pass"]


def test_cospan_trace_reads_each_distinct_label_list_once(monkeypatch):
    fact = GeneratedAWFS(WC).factorize(six_to_four())
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    built = []
    check = FinSet.__post_init__

    def counted(self):
        built.append(self)
        check(self)
    monkeypatch.setattr(FinSet, "__post_init__", counted)
    back = trace_from_json(data, AMB)
    # 1,360 finite sets were built before the memo
    assert len(built) <= _distinct(data, "labels", ("labels",)) == 12
    monkeypatch.undo()
    assert back == fact.trace and verify_trace(back, fact)["pass"]


@pytest.mark.parametrize("arrow, generators, inner, reader, has, distinct", [
    (c3_to_c1, BOUNDARY, PAMB, (psh, "presheaf_map_from_json"),
     "components", 51),
    (six_to_four, WC, AMB, (finset, "function_from_json"), "table", 194),
], ids=["C3->C1", "6->4"])
def test_trace_reads_each_distinct_map_json_once(monkeypatch, arrow,
                                                  generators, inner, reader,
                                                  has, distinct):
    fact = GeneratedAWFS(generators).factorize(arrow())
    data = json.loads(json.dumps(trace_to_json(fact.trace)))
    read = []
    module, name = reader
    original = getattr(module, name)

    def counted(d, *args):
        read.append(d)
        return original(d, *args)
    # the ambient's mor_from_json reads a map through this name
    monkeypatch.setattr(module, name, counted)
    back = trace_from_json(data, inner)
    # maps were read once per occurrence before the memo was keyed by the
    # exact JSON: 178 on C3->C1, 680 on 6->4
    assert len(read) <= _distinct(data, has) == distinct
    monkeypatch.undo()
    assert back == fact.trace and verify_trace(back, fact)["pass"]


def test_graph_trace_writes_each_distinct_presheaf_once(monkeypatch):
    fact = GeneratedAWFS(BOUNDARY).factorize(c3_to_c1())
    written = []
    to_json = fincat.category_to_json

    def counted(cat):
        written.append(cat)
        return to_json(cat)
    # presheaf_to_json writes its base through this name
    monkeypatch.setattr(fincat, "category_to_json", counted)
    data = trace_to_json(fact.trace)
    assert len(written) <= _distinct(data, "restrict", PRESHEAF) == 9


def _objects(value, out):
    """The ids of the objects' JSON (finite sets, presheaves) in value."""
    if isinstance(value, dict):
        if "labels" in value or "at" in value:
            out.add(id(value))
        for v in value.values():
            _objects(v, out)
    elif isinstance(value, list):
        for v in value:
            _objects(v, out)
    return out


@pytest.mark.parametrize("write", [
    lambda fact, aw, f: trace_to_json(fact.trace),
    lambda fact, aw, f: factorization_to_json(fact),
    lambda fact, aw, f: structure_to_json(
        find_lifting_structures(aw, f, "first")[0]),
], ids=["trace", "factorization", "structure"])
def test_documents_share_no_object_json(write):
    aw = GeneratedAWFS(WC)
    f = ArrowObj(AMB, FinFunction(FinSet.fresh(3), FinSet.fresh(2, "y"),
                                  (0, 0, 1)))
    fact = aw.factorize(f)
    one, two = write(fact, aw, f), write(fact, aw, f)
    assert one == two
    assert not _objects(one, set()) & _objects(two, set())


# -- the presheaf report, pinned ---------------------------------------------------

# the SHA-256 of the report below, as written before the writer memo
GRAPH_REPORT_SHA256 = \
    "42206c3c5eff4b2fc0a54caf3d611612321554fc7bc26d45c1150feee513a564"


@pytest.fixture(scope="module")
def graph_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("graph") / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["factorize", "--ambient", "presheaf",
                     "--base", fix("graph_base.json"),
                     "--generators", fix("graph_boundary.json"),
                     "--map", fix("graph_edge_to_loop.json"),
                     "--output", str(out)]) == 0
    return out


def test_presheaf_report_bytes_are_pinned(graph_report):
    blob = graph_report.read_bytes()
    assert len(blob) == 329_469
    assert hashlib.sha256(blob).hexdigest() == GRAPH_REPORT_SHA256
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["trace-verify", "--report", str(graph_report)]) == 0


# -- tampering with one occurrence of a repeated object -----------------------------

GOLDEN = fix(os.path.join("golden", "factorize_walking_cospan.json"))
TRACE = ("factorization", "trace")
# a row's target, the stage's cell arrow, which the stage's "den" and its
# counit's source repeat and which is read after them
ROW = TRACE + ("stages", 2, "cell", "legs", 2, 1, "target")
GRAPH_ROW = TRACE + ("stages", 1, "cell", "legs", 3, 1, "target")
# a problem's source, the generator, read after the generators and stage 0
GRAPH_GEN = TRACE + ("stages", 1, "cell", "problems", 3, 2, "source")
_DROP = object()

# case: (report, edits, (exit code, error kind, message)), as trace-verify
# answered before the memo
TAMPERS = {
    "table-true": (GOLDEN, [(ROW + ("table", 0), True)],
                   (1, "MalformedInput",
                    "table entries must index the codomain")),
    "table-float": (GOLDEN, [(ROW + ("table", 0), 1.0)],
                    (1, "MalformedInput",
                     "table entries must index the codomain")),
    "label-renamed": (GOLDEN, [(ROW + ("dom", "labels", 0), "a#0.renamed")],
                      (1, "BoundaryMismatch", "square sides are mistyped")),
    # the first occurrence drops its size, which is accepted; the later
    # one's null size is not
    "size-null": (GOLDEN, [(TRACE + ("stages", 2, "cell", "den", "dom",
                                     "size"), _DROP),
                           (ROW + ("dom", "size"), None)],
                  (1, "MalformedInput", "size field disagrees with labels")),
    "size-dropped": (GOLDEN, [(ROW + ("dom", "size"), _DROP)],
                     (0, None, None)),
    "labels-hold-a-list": (GOLDEN, [(ROW + ("dom", "labels", 0),
                                     ["a#0.pt"])],
                           (1, "MalformedInput", "labels must be strings")),
    "restriction-true": (None, [(TRACE + ("f", "source", "restrict", "tgt",
                                          0), True)],
                         (1, "MalformedInput", "restriction 'tgt' entries "
                          "must index the codomain")),
    "restriction-float": (None, [(TRACE + ("f", "source", "restrict", "tgt",
                                           0), 1.0)],
                          (1, "MalformedInput", "restriction 'tgt' entries "
                           "must index the codomain")),
    "component-true": (None, [(GRAPH_GEN + ("components", "v", 1), True)],
                       (1, "MalformedInput",
                        "component at 'v' entries must index the codomain")),
    "component-float": (None, [(GRAPH_GEN + ("components", "v", 1), 1.0)],
                        (1, "MalformedInput",
                         "component at 'v' entries must index the codomain")),
    "graph-label-renamed": (None, [(GRAPH_ROW + ("source", "at", "v",
                                                 "labels", 0), "renamed")],
                            (1, "BoundaryMismatch",
                             "square sides are mistyped")),
    "graph-labels-hold-a-list": (None, [(TRACE + ("f", "source", "at", "v",
                                                  "labels", 1), ["1"])],
                                 (1, "MalformedInput",
                                  "labels must be strings")),
}


def _tampered(case, graph_report, tmp_path):
    src, edits, _want = TAMPERS[case]
    with open(src or graph_report) as fh:
        data = json.load(fh)
    for path, value in edits:
        node = _occurrence(data, path)
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    out = tmp_path / f"{case}.json"
    out.write_text(json.dumps(data))
    return out


def _occurrence(report, path):
    """The node that holds the entry at path, which is inside one
    occurrence of an object that the report's trace repeats."""
    node, holder = report, None
    for key in path[:-1]:
        node = node[key]
        if isinstance(node, dict):
            holder = node
    assert _count(report["factorization"]["trace"], holder) >= 2
    return node


def _count(value, wanted) -> int:
    """How often wanted occurs in the JSON value."""
    here = int(value == wanted)
    if isinstance(value, dict):
        return here + sum(_count(v, wanted) for v in value.values())
    if isinstance(value, list):
        return here + sum(_count(v, wanted) for v in value)
    return here


def _answer(report_path):
    """trace-verify's exit code, error kind and message on a report."""
    out = report_path.with_suffix(".out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["trace-verify", "--report", str(report_path),
                     "--output", str(out)])
    error = json.loads(out.read_text()).get("error", {})
    return code, error.get("kind"), error.get("message")


@pytest.mark.parametrize("case", list(TAMPERS))
def test_a_tampered_occurrence_is_refused_as_before(case, graph_report,
                                                    tmp_path):
    report = _tampered(case, graph_report, tmp_path)
    assert _answer(report) == TAMPERS[case][2]


UNDER_O = """
import contextlib, io, json, sys
from garnet.cli import main
out = {}
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["trace-verify", "--report", path, "--output",
                     path + ".out"])
    with open(path + ".out") as fh:
        error = json.load(fh).get("error", {})
    out[path] = [code, error.get("kind"), error.get("message")]
print(json.dumps(out))
"""


def test_tampered_occurrences_are_refused_as_before_under_python_O(
        graph_report, tmp_path):
    # python -O strips assert statements, so a check written as one would
    # let a tampered table through
    reports = {case: str(_tampered(case, graph_report, tmp_path))
               for case in TAMPERS}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", UNDER_O,
                           *reports.values()], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0 and "Traceback" not in done.stderr, \
        done.stderr
    got = json.loads(done.stdout)
    assert {case: tuple(got[path]) for case, path in reports.items()} \
        == {case: want for case, (_s, _e, want) in TAMPERS.items()}


# -- repeats that only a type-exact key tells apart ---------------------------

class Label(str):
    """A label of a str subclass, which no JSON file gives."""


# case: (report, path inside a repeated occurrence, what its old entry
# becomes); each document is built in code, since no JSON text gives a
# tuple or a str subclass (true for 1 is among the tampered reports above)
TYPED_REPEATS = {
    "table-tuple": (GOLDEN, ROW + ("table",), tuple),
    "label-subclass": (GOLDEN, ROW + ("dom", "labels", 0), Label),
    "component-tuple": (None, GRAPH_GEN + ("components", "v"), tuple),
    "graph-label-subclass": (None, GRAPH_ROW + ("source", "at", "v",
                                                "labels", 0), Label),
}


def typed_repeat_answers(graph_report):
    """Per case, what trace_from_json and the oracle make of the report's
    trace with the case's edit, as [outcome, error kind, message] each."""
    answers = {}
    for case, (src, path, make) in TYPED_REPEATS.items():
        with open(src or graph_report) as fh:
            report = json.load(fh)
        node = _occurrence(report, path)
        node[path[-1]] = make(node[path[-1]])
        data, inner = report["factorization"]["trace"], AMB if src else PAMB
        answers[case] = [[got[0], got[1].__name__, got[2]] if got[0] ==
                         "raised" else [got[0]] for got in (
                             outcome(read, data, inner) for read in
                             (trace_from_json, oracle_trace_from_json))]
    return answers


TYPED = """
import json, sys
from test_trace_json import typed_repeat_answers
print(json.dumps(typed_repeat_answers(sys.argv[1])))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_repeat_of_another_type_is_refused_as_the_oracle_refuses_it(
        graph_report, flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.path.dirname(__file__),
                    os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", TYPED,
                           str(graph_report)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0 and "Traceback" not in done.stderr, \
        done.stderr
    got = json.loads(done.stdout)
    assert list(got) == list(TYPED_REPEATS)
    for case, (memoized, oracle) in got.items():
        assert memoized == oracle and memoized[0] == "raised", case
