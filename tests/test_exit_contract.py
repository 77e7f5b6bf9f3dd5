"""The README's exit-code contract holds under hostile input.

Every subcommand is run in-process through ``garnet.cli.main`` on the
fixture files, a lifting problem, and two factorize reports, with one of
its inputs edited: a value swapped for another JSON type, a bool or an
out-of-range int, a key or list entry dropped, a list where an object
belongs, or the file cut short.  Whatever the edit, the exit code is one
of 0-5, no exception leaves ``main``, no traceback is printed, and the
JSON report (``"format": 1``) is written to ``--output``.  The rows of the
reports' trace cells get a test of their own, and a fixed handful of edits
runs once more under ``python -O``, where assert statements are stripped.
"""

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st

from garnet.cli import main

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
CAP = ["--cap", "2000"]


def _load(name):
    with open(os.path.join(FIX, name), encoding="utf-8") as fh:
        return json.load(fh)


def _run(argv, outdir) -> dict:
    """The report of the command line run on argv, checked against the
    contract."""
    out = os.path.join(outdir, "out.json")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(printed):
        code = main([*argv, *CAP, "--output", out])
    assert code in range(6), (argv, code)
    assert "Traceback" not in printed.getvalue()
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(out)
    assert report["format"] == 1 and report["command"] == argv[0]
    return report


def _written(outdir, inputs, argv):
    """argv with each ``@name`` replaced by a file holding inputs[name]:
    a string as it is, anything else as its JSON."""
    out = []
    for arg in argv:
        if arg.startswith("@"):
            value = inputs[arg[1:]]
            arg = os.path.join(outdir, arg[1:] + ".json")
            with open(arg, "w", encoding="utf-8") as fh:
                fh.write(value if isinstance(value, str)
                         else json.dumps(value))
        out.append(arg)
    return out


CELL_JOB = ["--generators", "@cospan", "--map", "@f21"]
GRAPH_JOB = ["--ambient", "presheaf", "--base", "@graph_base",
             "--generators", "@boundary", "--map", "@edge_to_loop"]
COMMANDS = [
    ["validate", "--generators", "@cospan"],
    ["validate", "--category", "@graph_base"],
    ["validate", "--ambient", "presheaf", "--base", "@graph_base",
     "--presheaf", "@loop"],
    ["factorize", *CELL_JOB],
    ["factorize", *GRAPH_JOB],
    ["lift", *CELL_JOB, "--mode", "count"],
    ["lift", *CELL_JOB, "--mode", "first"],
    ["lift", *GRAPH_JOB],
    ["solve", *CELL_JOB, "--problem", "@problem"],
    ["laws", *CELL_JOB],
    ["quillen", "--generators", "@point", "--map", "@f01"],
    ["rlp", *CELL_JOB],
    ["trace-verify", "--report", "@report"],
    ["trace-verify", "--report", "@graph_report"],
    ["replay", "--report", "@report"],
    ["replay", "--report", "@report", "--functor", "times2"],
    ["replay", "--report", "@graph_report"],
]
REPORTS = [argv for argv in COMMANDS if argv[0] in ("trace-verify", "replay")]


@functools.cache
def _inputs() -> dict:
    """Every input unedited, the graph factorize report among them."""
    inputs = {
        "cospan": _load("walking_cospan.json"),
        "point": _load("point_inclusion.json"),
        "f21": _load("f_2_to_1.json"),
        "f01": _load("f_0_to_1.json"),
        "graph_base": _load("graph_base.json"),
        "boundary": _load("graph_boundary.json"),
        "edge_to_loop": _load("graph_edge_to_loop.json"),
        "loop": _load("graph_loop.json"),
        # a lifting problem against the generator at b into f_2_to_1
        "problem": {"index": "b",
                    "top": {"dom": {"size": 0, "labels": []},
                            "cod": {"size": 2, "labels": ["x0", "x1"]},
                            "table": []},
                    "bottom": {"dom": {"size": 1, "labels": ["pt"]},
                               "cod": {"size": 1, "labels": ["pt"]},
                               "table": [0]}},
        "report": _load(os.path.join("golden",
                                     "factorize_walking_cospan.json")),
    }
    with tempfile.TemporaryDirectory() as tmp:
        inputs["graph_report"] = _run(
            _written(tmp, inputs, ["factorize", *GRAPH_JOB]), tmp)
    return inputs


def _paths(value, path=()):
    """The path of every entry of a JSON value, the value's own first."""
    yield path
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, entry in items:
        yield from _paths(entry, path + (key,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


def _replacements(old):
    """Values of another JSON type, bools, and ints out of range."""
    out = ["x", 5, -1, 10 ** 6, 1.0, True, False, None, [], {}]
    if type(old) is int:
        out += [old + 1, -old - 1, float(old), 2 ** 64]
    return out


@st.composite
def edited(draw, value, under=()):
    """The JSON text of value with one edit at or below the path ``under``,
    or cut short."""
    kind = draw(st.sampled_from(["swap", "drop", "list", "truncate"]))
    text = json.dumps(value)
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    return json.dumps(_edit(draw, kind, json.loads(text), under))


def _edit(draw, kind, value, under):
    paths = list(_paths(_at(value, under), under))
    if kind == "drop":
        # the document itself is no entry of anything
        paths = [p for p in paths if p]
    path = draw(st.sampled_from(paths))
    old = _at(value, path)
    if kind == "drop":
        del _at(value, path[:-1])[path[-1]]
        return value
    if kind == "list":
        new = list(old.values()) if isinstance(old, dict) else [old]
    else:
        new = draw(st.sampled_from(_replacements(old)))
    if not path:
        return new
    _at(value, path[:-1])[path[-1]] = new
    return value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_an_edited_input_keeps_the_exit_contract(argv, data):
    name = data.draw(st.sampled_from([a[1:] for a in argv
                                      if a.startswith("@")]))
    inputs = dict(_inputs(), **{name: data.draw(edited(_inputs()[name]))})
    with tempfile.TemporaryDirectory() as tmp:
        _run(_written(tmp, inputs, argv), tmp)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(REPORTS), st.sampled_from(["legs", "problems"]),
       st.data())
def test_an_edited_trace_row_keeps_the_exit_contract(argv, rows, data):
    name = argv[2][1:]
    stages = _inputs()[name]["factorization"]["trace"]["stages"]
    k = data.draw(st.sampled_from([k for k, stage in enumerate(stages)
                                   if stage["cell"][rows]]))
    under = ("factorization", "trace", "stages", k, "cell", rows)
    edit = data.draw(edited(_inputs()[name], under))
    inputs = dict(_inputs(), **{name: edit})
    with tempfile.TemporaryDirectory() as tmp:
        _run(_written(tmp, inputs, argv), tmp)


ARROW_BASE = ("factorization", "trace", "stages", 1, "arrow", "source",
              "base")
ROW_BASE = ("factorization", "trace", "stages", 1, "cell", "legs", 0, 1,
            "source", "source", "base")
# (command, input, path, new value): each edit once under python -O
OPTIMIZED = [
    (["trace-verify", "--report", "@report"], "report",
     ("factorization", "trace", "stages", 1, "cell", "problems", 0, 1),
     "zz"),
    (["replay", "--report", "@report"], "report",
     ("factorization", "trace", "stages", 1, "cell", "problems", 0, 1),
     "zz"),
    (["trace-verify", "--report", "@report"], "report",
     ("factorization", "trace", "stages", 1, "cell", "legs", 0, 1, "top",
      "table"), [True]),
    (["replay", "--report", "@graph_report"], "graph_report",
     ("factorization", "trace", "stages", 1, "cell", "legs", 0), ["x"]),
    (["trace-verify", "--report", "@report"], "report",
     ("factorization", "converged_stage"), 7),
    (["validate", "--generators", "@cospan"], "cospan", ("squares", "s"),
     []),
    (["factorize", *CELL_JOB], "f21", ("table", 1), 5),
    (["lift", *GRAPH_JOB], "edge_to_loop", ("components", "v"), [0, -1]),
    # a presheaf's inline base, a stage arrow's or a trace row's, edited
    # into another category or into none: these were once never read
    (["trace-verify", "--report", "@graph_report"], "graph_report",
     ARROW_BASE + ("objects",), ["e", "v"]),
    (["replay", "--report", "@graph_report"], "graph_report",
     ARROW_BASE + ("morphisms", 0, "cod"), 5),
    (["trace-verify", "--report", "@graph_report"], "graph_report",
     ROW_BASE + ("objects", 1), -1),
    (["replay", "--report", "@graph_report"], "graph_report",
     ROW_BASE + ("morphisms",), [{"name": "src", "dom": "v", "cod": "e"}]),
]


def test_edited_inputs_keep_the_exit_contract_under_python_O(tmp_path):
    runs = []
    for k, (argv, name, path, value) in enumerate(OPTIMIZED):
        data = json.loads(json.dumps(_inputs()[name]))
        _at(data, path[:-1])[path[-1]] = value
        outdir = tmp_path / str(k)
        outdir.mkdir()
        runs.append([*_written(str(outdir), dict(_inputs(), **{name: data}),
                               argv), *CAP, "--output",
                     str(outdir / "out.json")])
    script = ("import json, sys\nfrom garnet.cli import main\n"
              "print(json.dumps([main(argv) for argv in "
              "json.loads(sys.stdin.read())]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          input=json.dumps(runs), env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and "Traceback" not in done.stderr, \
        done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert codes == [1] * len(OPTIMIZED)
    for argv in runs:
        with open(argv[-1], encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["format"] == 1 and report["command"] == argv[0]
