"""Command line behavior: reports, determinism, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from garnet.cli import main

FIX = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fix(name):
    return os.path.join(FIX, name)


def run(args):
    return main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_factorize_matches_golden_bytes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--backdrop", "all",
                "--output", str(out)])
    assert code == 0
    with open(fix(os.path.join("golden", "factorize_walking_cospan.json")),
              "rb") as fh:
        golden = fh.read()
    assert out.read_bytes() == golden


def test_factorize_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["factorize", "--generators", fix("walking_cospan.json"),
                    "--map", fix("f_2_to_1.json"),
                    "--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_factorize_report_content(tmp_path):
    out = tmp_path / "r.json"
    run(["factorize", "--generators", fix("walking_cospan.json"),
         "--map", fix("f_0_to_1.json"), "--output", str(out)])
    data = load(out)
    assert data["format"] == 1
    assert data["command"] == "factorize"
    fd = data["factorization"]
    assert fd["midpoint_size"] == 1
    assert fd["converged_stage"] == 2
    assert len(fd["trace"]["stages"]) == 3


def test_factorize_empty_generators_is_identity_left(tmp_path):
    out = tmp_path / "r.json"
    assert run(["factorize", "--generators", fix("empty_generators.json"),
                "--map", fix("f_2_to_1.json"), "--output", str(out)]) == 0
    fd = load(out)["factorization"]
    assert fd["converged_stage"] == 0
    assert fd["left"]["table"] == [0, 1]
    assert fd["right"]["table"] == [0, 0]


def test_lift_count_and_first(tmp_path):
    out = tmp_path / "r.json"
    assert run(["lift", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_2_to_1.json"), "--mode", "count",
                "--output", str(out)]) == 0
    assert load(out)["count"] == 2
    assert run(["lift", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_2_to_1.json"), "--mode", "all",
                "--output", str(out)]) == 0
    data = load(out)
    assert data["count"] == 2 and len(data["structures"]) == 2
    assert run(["lift", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--mode", "first",
                "--output", str(out)]) == 3
    assert load(out)["found"] is False


# a lifting problem of the walking-cospan generator b against f_2_to_1.json
PROBLEM = {"index": "b",
           "top": {"dom": {"size": 0, "labels": []},
                   "cod": {"size": 2, "labels": ["x0", "x1"]}, "table": []},
           "bottom": {"dom": {"size": 1, "labels": ["pt"]},
                      "cod": {"size": 1, "labels": ["pt"]}, "table": [0]}}


def test_solve_returns_a_filler(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(PROBLEM))
    out = tmp_path / "r.json"
    assert run(["solve", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_2_to_1.json"), "--problem", str(prob),
                "--output", str(out)]) == 0
    data = load(out)
    assert data["found"] and data["filler"]["table"] in ([0], [1])


def test_laws_pass(tmp_path):
    out = tmp_path / "r.json"
    assert run(["laws", "--generators", fix("point_inclusion.json"),
                "--map", fix("f_2_to_1.json"), "--output", str(out)]) == 0
    data = load(out)
    assert data["pass"] and all(data["checks"].values())


def test_trace_verify_round_trip(tmp_path):
    rep = tmp_path / "r.json"
    run(["factorize", "--generators", fix("walking_cospan.json"),
         "--map", fix("f_0_to_1.json"), "--output", str(rep)])
    out = tmp_path / "v.json"
    assert run(["trace-verify", "--report", str(rep),
                "--output", str(out)]) == 0
    assert load(out)["pass"]


def test_trace_verify_rejects_tampering(tmp_path):
    rep = tmp_path / "r.json"
    run(["factorize", "--generators", fix("walking_cospan.json"),
         "--map", fix("f_0_to_1.json"), "--output", str(rep)])
    data = load(rep)
    stage = data["factorization"]["trace"]["stages"][2]
    stage["built_from"]["span"] = [stage["built_from"]["span"][1],
                                   stage["built_from"]["span"][0]]
    rep.write_text(json.dumps(data))
    out = tmp_path / "v.json"
    assert run(["trace-verify", "--report", str(rep),
                "--output", str(out)]) == 1
    report = load(out)
    assert not report["pass"]
    failed = [i for i in report["items"] if not i["pass"]]
    assert any(i["stage"] == 2 and i["check"] == "quotient" for i in failed)


def test_replay_identity_and_doubling(tmp_path):
    rep = tmp_path / "r.json"
    run(["factorize", "--generators", fix("walking_cospan.json"),
         "--map", fix("f_0_to_1.json"), "--output", str(rep)])
    out = tmp_path / "p.json"
    assert run(["replay", "--report", str(rep), "--functor", "identity",
                "--output", str(out)]) == 0
    data = load(out)
    assert data["output"] == load(rep)["factorization"]["left"]
    assert run(["replay", "--report", str(rep), "--functor", "times2",
                "--output", str(out)]) == 0
    data = load(out)
    assert data["output"]["dom"]["size"] == 0
    assert data["output"]["cod"]["size"] == 2
    assert all(c["preserved"] for c in data["checks"])


def test_replay_with_witness_file(tmp_path):
    rep = tmp_path / "r.json"
    run(["factorize", "--generators", fix("walking_cospan.json"),
         "--map", fix("f_0_to_1.json"), "--output", str(rep)])
    gens = load(fix("walking_cospan.json"))["arrows"]
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps(gens))
    out = tmp_path / "p.json"
    assert run(["replay", "--report", str(rep), "--witnesses", str(wit),
                "--output", str(out)]) == 0
    assert set(load(out)["witnesses"]) == {"a", "b", "bp"}


def test_quillen_report(tmp_path):
    out = tmp_path / "r.json"
    assert run(["quillen", "--generators", fix("point_inclusion.json"),
                "--map", fix("f_2_to_1.json"), "--output", str(out)]) == 0
    data = load(out)
    assert data["steps"] == 1
    assert data["left"]["table"] == [0, 1]
    assert data["right"]["cod"]["size"] == 1
    assert data["stage_tops"][0]["cod"]["labels"] == \
        ["old.x0", "old.x1", "new.j#0.pt"]


def test_rlp_answers(tmp_path):
    out = tmp_path / "r.json"
    assert run(["rlp", "--generators", fix("point_inclusion.json"),
                "--map", fix("f_2_to_1.json"), "--output", str(out)]) == 0
    assert load(out)["has_rlp"] is True
    assert run(["rlp", "--generators", fix("point_inclusion.json"),
                "--map", fix("f_0_to_1.json"), "--output", str(out)]) == 0
    assert load(out)["has_rlp"] is False


def test_validate_generators_and_presheaf(tmp_path):
    assert run(["validate", "--generators",
                fix("walking_cospan.json")]) == 0
    assert run(["validate", "--ambient", "presheaf", "--base",
                fix("graph_base.json"), "--presheaf",
                fix("graph_loop.json")]) == 0
    bad = tmp_path / "bad.json"
    data = load(fix("walking_cospan.json"))
    del data["arrows"]["a"]
    bad.write_text(json.dumps(data))
    assert run(["validate", "--generators", str(bad)]) == 1


def test_validate_needs_a_subject():
    assert run(["validate"]) == 1


def test_exit_code_iteration_limit():
    assert run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--max-steps", "1"]) == 2


@pytest.mark.parametrize("cmd", ["quillen", "factorize"])
def test_stage_bound_must_be_a_non_negative_integer(tmp_path, cmd):
    out = tmp_path / "r.json"
    job = [cmd, "--generators", fix("point_inclusion.json"),
           "--map", fix("f_0_to_1.json"), "--output", str(out)]
    assert run([*job, "--max-steps", "-1"]) == 1
    assert load(out)["error"]["kind"] == "MalformedInput"
    # no stage at all: quillen runs out of stages, factorize refuses
    code = run([*job, "--max-steps", "0"])
    kind = load(out)["error"]["kind"]
    assert (code, kind) == ((2, "IterationLimit") if cmd == "quillen"
                            else (1, "MalformedInput"))


@pytest.mark.parametrize("cmd", ["factorize", "rlp", "trace-verify"])
def test_cap_must_be_a_non_negative_integer(tmp_path, monkeypatch, cmd):
    out = tmp_path / "r.json"
    if cmd == "trace-verify":
        job = [cmd, "--report", fix(REPORT), "--output", str(out)]
    else:
        job = [cmd, "--generators", fix("walking_cospan.json"),
               "--map", fix("f_0_to_1.json"), "--output", str(out)]
    assert run([*job, "--cap", "-1"]) == 1
    assert load(out)["error"]["kind"] == "MalformedInput"
    for env in ("-1", "x", "1.5"):
        monkeypatch.setenv("GARNET_CAP", env)
        assert run(job) == 1
        assert load(out)["error"]["kind"] == "MalformedInput"
    monkeypatch.delenv("GARNET_CAP")
    # a cap of 0 stays a cap: every non-empty hom-set exceeds it, and
    # trace-verify reports it as the cap, not as cells that fail to verify
    code = run([*job, "--cap", "0"])
    assert code == 4 and load(out)["error"]["kind"] == "EnumerationCap"


def test_exit_code_cap(monkeypatch):
    assert run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--cap", "1"]) == 4
    monkeypatch.setenv("GARNET_CAP", "1")
    assert run(["lift", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_2_to_1.json"), "--mode", "count"]) == 4


@pytest.mark.parametrize("cap, where", [
    ("0", "generator 'b': tops 0->0, bottoms 1->1"),
    ("1", "generator 'a': tops 1->2, bottoms 2->1"),
    (None, None)])
def test_trace_verify_reports_a_cap_too_small_as_the_cap(tmp_path, cap,
                                                          where):
    # a cell that cannot be recomputed under the cap says nothing about the
    # trace: trace-verify exits 4 like factorize, naming where the cap hit
    out = tmp_path / "r.json"
    job = ["trace-verify", "--report", fix(REPORT), "--output", str(out)]
    code = run(job if cap is None else [*job, "--cap", cap])
    report = load(out)
    if cap is None:
        assert code == 0 and report["pass"]
        return
    assert code == 4 and report["error"]["kind"] == "EnumerationCap"
    assert where in report["error"]["message"]


def _drop_last_leg(cell):
    cell["legs"].pop()


def _drop_last_problem(cell):
    cell["problems"].pop()


def _relabel_leg_source(cell):
    labels = cell["legs"][0][1]["source"]["cod"]["labels"]
    labels[0] += "'"


def _move_problem_top(cell):
    top = next(sq["top"] for _n, _j, sq in cell["problems"]
               if sq["top"]["cod"]["size"] > 1 and sq["top"]["table"])
    top["table"][0] = (top["table"][0] + 1) % top["cod"]["size"]


def _swap_problems(cell):
    rows = cell["problems"]
    rows[0], rows[1] = rows[1], rows[0]


# each row-level tamper of stage 1's cell, with the outcome pinned when the
# cell records were still eager squares: a failing (stage, check), or the
# kind of the error that loading the report raised
@pytest.mark.parametrize("tamper, failed, error", [
    (_drop_last_leg, [(1, "cell")], None),
    (_drop_last_problem, [(1, "cell")], None),
    (_relabel_leg_source, None, "BoundaryMismatch"),
    (_move_problem_top, [(1, "cell")], None),
    (_swap_problems, [(1, "cell")], None),
], ids=["dropped-last-leg", "dropped-last-problem", "relabeled-leg-source",
        "moved-problem-top", "swapped-problems"])
def test_trace_verify_rejects_a_tampered_cell_as_a_failing_check(
        tmp_path, tamper, failed, error):
    data = load(fix(REPORT))
    tamper(data["factorization"]["trace"]["stages"][1]["cell"])
    rep, out = tmp_path / "t.json", tmp_path / "r.json"
    rep.write_text(json.dumps(data))
    assert run(["trace-verify", "--report", str(rep),
                "--output", str(out)]) == 1
    report = load(out)
    if error is not None:
        assert report["error"]["kind"] == error
        return
    assert "error" not in report
    assert [(it["stage"], it["check"]) for it in report["items"]
            if not it["pass"]] == failed


@pytest.mark.parametrize("cmd, where", [
    (["factorize", "--generators", fix("walking_cospan.json"),
      "--map", fix("f_0_to_1.json")],
     "lifting problems at generator 'a': tops 1->2, bottoms 2->1"),
    (["rlp", "--generators", fix("point_inclusion.json"),
      "--map", fix("f_2_to_1.json")],
     "fillers at generator 'j': diagonals 1->2"),
    (["factorize", "--ambient", "presheaf", "--base", fix("graph_base.json"),
      "--generators", fix("graph_boundary.json"),
      "--map", fix("graph_edge_to_loop.json")],
     "lifting problems at generator 'j': tops (v: 2->2, e: 0->1), "
     "bottoms (v: 2->1, e: 1->1)"),
], ids=["factorize", "rlp", "presheaf"])
def test_cap_errors_name_the_generator_and_hom(tmp_path, cmd, where):
    out = tmp_path / "r.json"
    assert run([*cmd, "--cap", "1", "--output", str(out)]) == 4
    error = load(out)["error"]
    assert error["kind"] == "EnumerationCap" and where in error["message"]


def test_exit_code_bad_inputs(tmp_path):
    assert run(["factorize", "--generators", str(tmp_path / "nope.json"),
                "--map", fix("f_0_to_1.json")]) == 1
    garbled = tmp_path / "g.json"
    garbled.write_text("{not json")
    assert run(["factorize", "--generators", str(garbled),
                "--map", fix("f_0_to_1.json")]) == 1


@pytest.mark.parametrize("steps, shapes", [
    ("1", "stage arrows 0->1"), ("2", "stage arrows 0->1, 2->1")])
def test_iteration_limit_names_the_stage_arrows(tmp_path, steps, shapes):
    out = tmp_path / "r.json"
    assert run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--max-steps", steps,
                "--output", str(out)]) == 2
    error = load(out)["error"]
    assert error["kind"] == "IterationLimit"
    assert error["message"] == \
        f"no convergence within {steps} steps; {shapes}"


def test_error_reports_are_machine_readable(tmp_path):
    out = tmp_path / "r.json"
    assert run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_0_to_1.json"), "--max-steps", "1",
                "--output", str(out)]) == 2
    data = load(out)
    assert data["format"] == 1
    assert data["error"]["kind"] == "IterationLimit"


def test_classifier_shorthand_with_mono_backdrop(tmp_path):
    out = tmp_path / "r.json"
    assert run(["factorize", "--generators", "subobject_classifier",
                "--backdrop", "mono", "--map", fix("f_2_to_1.json"),
                "--output", str(out)]) == 0
    fd = load(out)["factorization"]
    assert fd["left"]["table"] == [0, 1]
    assert fd["midpoint_size"] == 3


def test_presheaf_ambient_end_to_end(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["factorize", "--ambient", "presheaf", "--base",
                fix("graph_base.json"), "--generators",
                fix("graph_boundary.json"), "--map",
                fix("graph_edge_to_loop.json"), "--output", str(rep)]) == 0
    assert load(rep)["ambient"]["kind"] == "presheaf"
    assert run(["trace-verify", "--report", str(rep)]) == 0
    out = tmp_path / "p.json"
    assert run(["replay", "--report", str(rep), "--functor", "identity",
                "--output", str(out)]) == 0
    assert run(["replay", "--report", str(rep),
                "--functor", "times2"]) == 1


_DROP = object()


def _edited(data, path, value):
    """data with the entry at path replaced by value (removed for _DROP);
    an empty path replaces the whole document."""
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


# a base a -> b -> c with g . f = h, and a natural map into the point from
# a presheaf over it whose restrictions compose as the base does
CHAIN_BASE = {"objects": ["a", "b", "c"],
              "morphisms": [{"name": "f", "dom": "a", "cod": "b"},
                            {"name": "g", "dom": "b", "cod": "c"},
                            {"name": "h", "dom": "a", "cod": "c"}],
              "compose": [{"g": "g", "f": "f", "eq": "h"}]}


def _chain_presheaf(n, prefix, f, g, h):
    return {"base": CHAIN_BASE,
            "at": {c: {"size": n, "labels": [f"{prefix}{i}" for i in range(n)]}
                   for c in ("a", "b", "c")},
            "restrict": {"f": f, "g": g, "h": h}}


CHAIN_MAP = {"source": _chain_presheaf(2, "x", [0, 1], [0, 1], [0, 1]),
             "target": _chain_presheaf(1, "p", [0], [0], [0]),
             "components": {c: [0, 0] for c in ("a", "b", "c")}}

# a factorize report, the input of trace-verify and replay
REPORT = os.path.join("golden", "factorize_walking_cospan.json")
TRACE = ("factorization", "trace")
GOLDEN = load(fix(REPORT))["factorization"]

MALFORMED = {
    "component-out-of-range": ("graph_edge_to_loop.json",
                               ("components", "v"), [0, 1]),
    "restriction-out-of-range": ("graph_edge_to_loop.json",
                                 ("source", "restrict", "src"), [2]),
    "string-entry": ("graph_edge_to_loop.json", ("components", "e"), ["0"]),
    "bool-restriction": ("graph_edge_to_loop.json",
                         ("source", "restrict", "tgt"), [True]),
    "bool-entry": ("f_2_to_1.json", ("table",), [0, False]),
    # the map file is the map itself, not wrapped in an object
    "map-wrapped-in-mor": ("f_2_to_1.json", (), {"mor": {
        "dom": {"size": 2, "labels": ["x0", "x1"]},
        "cod": {"size": 1, "labels": ["pt"]}, "table": [0, 0]}}),
    # h restricts by the swap where f and g restrict by the identity
    "non-functorial-restriction": ("chain_map.json",
                                   ("source", "restrict", "h"), [1, 0]),
    "at-not-object": ("graph_edge_to_loop.json", ("source", "at"), []),
    "restrict-not-object": ("graph_edge_to_loop.json",
                            ("target", "restrict"), [[0]]),
    "components-not-object": ("graph_edge_to_loop.json", ("components",),
                              [[0]]),
    "problem-not-object": ("problem.json", (), [1, 2]),
    "problem-without-index": ("problem.json", ("index",), _DROP),
    "problem-without-top": ("problem.json", ("top",), _DROP),
    "problem-without-bottom": ("problem.json", ("bottom",), _DROP),
    "problem-unknown-generator": ("problem.json", ("index",), "zz"),
    "report-not-object": (REPORT, (), 5),
    "report-ambient-not-object": (REPORT, ("ambient",), []),
    "report-factorization-not-object": (REPORT, ("factorization",), [1, 2]),
    "report-trace-not-object": (REPORT, ("factorization", "trace"), 5),
    "trace-stages-not-list": (REPORT, TRACE + ("stages",), 5),
    "trace-stage-not-object": (REPORT, TRACE + ("stages", 1), [1]),
    "trace-cell-not-object": (REPORT, TRACE + ("stages", 1, "cell"), 5),
    "trace-certificates-not-list": (REPORT,
                                    TRACE + ("stages", 0, "certificates"), 5),
    "gluing-tags-not-strings": (REPORT,
                                TRACE + ("stages", 1, "built_from", "tags"),
                                [{}, {}]),
    "gluing-into-not-a-leg": (REPORT,
                              TRACE + ("stages", 1, "built_from", "into"),
                              [1]),
    "certificate-morphism-not-string": (REPORT,
                                        TRACE + ("stages", 0, "certificates",
                                                 0, "morphism"), [1]),
    "trace-backdrop-domain": (REPORT, TRACE + ("backdrop",),
                              {"kind": "domain", "inner": "all"}),
    "trace-generator-arrows-not-object": (REPORT,
                                          TRACE + ("generators", "arrows"),
                                          []),
    "trace-index-morphisms-not-list": (REPORT, TRACE + ("generators", "index",
                                                        "morphisms"), 5),
    "index-morphisms-not-list": ("walking_cospan.json",
                                 ("index", "morphisms"), 5),
    "index-compose-not-list": ("walking_cospan.json", ("index", "compose"),
                               5),
    "index-objects-not-list": ("walking_cospan.json", ("index", "objects"),
                               7),
    "index-object-not-string": ("walking_cospan.json",
                                ("index", "objects", 0), ["b"]),
    "index-morphism-name-not-string": ("walking_cospan.json",
                                       ("index", "morphisms", 0, "name"),
                                       ["s"]),
    "generator-arrow-missing": ("walking_cospan.json", ("arrows", "a"),
                                _DROP),
    "square-without-top": ("walking_cospan.json", ("squares", "s", "top"),
                           _DROP),
    "square-without-bottom": ("walking_cospan.json",
                              ("squares", "t", "bottom"), _DROP),
    "witnesses-not-object": ("witnesses.json", (), [1, 2]),
    "report-ambient-without-base": (REPORT, ("ambient",),
                                    {"kind": "presheaf"}),
    # what a report states of its factors must be what they are
    "report-midpoint-not-the-left-codomain": (
        REPORT, ("factorization", "midpoint"), {"size": 0, "labels": []}),
    "report-midpoint-size-wrong": (REPORT, ("factorization", "midpoint_size"),
                                   2),
    "report-midpoint-size-float": (REPORT,
                                   ("factorization", "midpoint_size"), 1.0),
    "report-converged-stage-not-the-trace's": (
        REPORT, ("factorization", "converged_stage"), 7),
    "report-unit-not-the-unit": (REPORT, ("factorization", "unit"),
                                 GOLDEN["algebra"]),
    # the identity square on f, which does not end at the right factor
    "report-algebra-not-into-the-right-factor": (
        REPORT, ("factorization", "algebra"),
        GOLDEN["trace"]["stages"][0]["composite"]),
}

# a factorize report with one field missing, at each object its readers
# index: the report is refused as MalformedInput, not as a bare KeyError
MISSING = {
    ("factorization",): ("f", "left", "right", "trace", "unit", "algebra",
                         "midpoint", "midpoint_size", "converged_stage"),
    TRACE: ("f", "generators", "backdrop", "stages", "converged_stage"),
    TRACE + ("stages", 1): ("index", "arrow", "cell", "built_from",
                            "composite", "transition", "certificates"),
    TRACE + ("stages", 1, "cell"): ("den", "counit", "legs", "problems"),
    TRACE + ("stages", 1, "built_from"): ("span", "tags", "left", "right",
                                          "into"),
    TRACE + ("stages", 1, "transition"): ("source", "target", "top",
                                          "bottom"),
}
for _where, _keys in MISSING.items():
    for _key in _keys:
        MALFORMED[f"report-without-{'.'.join(map(str, _where))}.{_key}"] = (
            REPORT, _where + (_key,), _DROP)


def _malformed_commands(tmp_path, case):
    """The commands that must reject the input of this case, edited and
    written under tmp_path."""
    name, path, value = MALFORMED[case]
    if name == "problem.json":
        data = json.loads(json.dumps(PROBLEM))
    elif name == "chain_map.json":
        data = json.loads(json.dumps(CHAIN_MAP))
    elif name == "witnesses.json":
        data = load(fix("walking_cospan.json"))["arrows"]
    else:
        data = load(fix(name))
    written = tmp_path / os.path.basename(name)
    written.write_text(json.dumps(_edited(data, path, value)))
    bad = str(written)
    if name == "problem.json":
        return [["solve", "--generators", fix("walking_cospan.json"),
                 "--map", fix("f_2_to_1.json"), "--problem", bad]]
    if name == REPORT:
        return [["trace-verify", "--report", bad],
                ["replay", "--report", bad]]
    if name == "witnesses.json":
        return [["replay", "--report", fix(REPORT), "--witnesses", bad]]
    if name == "chain_map.json":
        base = tmp_path / "chain_base.json"
        base.write_text(json.dumps(CHAIN_BASE))
        source = tmp_path / "chain_presheaf.json"
        edited = json.loads(written.read_text())
        source.write_text(json.dumps(edited["source"]))
        return [["factorize", "--ambient", "presheaf", "--base", str(base),
                 "--generators", "subobject_classifier", "--map", bad],
                ["validate", "--ambient", "presheaf", "--base", str(base),
                 "--presheaf", str(source)]]
    if name == "walking_cospan.json":
        return [["factorize", "--generators", bad,
                 "--map", fix("f_0_to_1.json")],
                ["validate", "--generators", bad]]
    if name.startswith("graph"):
        return [["factorize", "--ambient", "presheaf",
                 "--base", fix("graph_base.json"),
                 "--generators", fix("graph_boundary.json"), "--map", bad]]
    return [["factorize", "--generators", fix("point_inclusion.json"),
             "--map", bad]]


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_tables_are_invalid_input(tmp_path, case):
    for cmd in _malformed_commands(tmp_path, case):
        out = tmp_path / "r.json"
        assert run([*cmd, "--output", str(out)]) == 1, cmd
        assert load(out)["error"]["kind"] == "MalformedInput"
        out.unlink()


@pytest.mark.parametrize("case", [c for c in MALFORMED
                                  if c.startswith("report-without-")])
def test_a_report_missing_a_field_names_it(tmp_path, case):
    key = MALFORMED[case][1][-1]
    for cmd in _malformed_commands(tmp_path, case):
        out = tmp_path / "r.json"
        assert run([*cmd, "--output", str(out)]) == 1, cmd
        assert load(out)["error"]["message"].endswith(
            f"is missing field {key!r}")
        out.unlink()


def test_a_category_that_breaks_the_laws_is_refused_where_it_is_read(
        tmp_path):
    # id_e . src = tgt breaks the left identity law at src
    data = load(fix("graph_base.json"))
    data["compose"].append({"g": "id_e", "f": "src", "eq": "tgt"})
    bad = tmp_path / "base.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "r.json"
    for cmd in (["factorize", "--ambient", "presheaf", "--base", str(bad),
                 "--generators", fix("graph_boundary.json"),
                 "--map", fix("graph_edge_to_loop.json")],
                ["validate", "--category", str(bad)]):
        assert run([*cmd, "--output", str(out)]) == 1, cmd
        error = load(out)["error"]
        assert error["kind"] == "MalformedInput"
        assert "left identity law fails at 'src'" in error["message"]


def test_a_non_functorial_presheaf_is_refused_where_it_is_read(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(CHAIN_MAP))
    cmds = _malformed_commands(tmp_path, "non-functorial-restriction")
    factorize = [good if a.endswith("chain_map.json") else a
                 for a in cmds[0]]
    assert run([*map(str, factorize), "--output", str(tmp_path / "ok.json")]) \
        == 0
    for cmd in cmds:
        out = tmp_path / "r.json"
        assert run([*cmd, "--output", str(out)]) == 1
        assert load(out)["error"] == {
            "kind": "MalformedInput",
            "message": "restriction fails functoriality at ('g', 'f')"}


@pytest.mark.parametrize("case", [
    "component-out-of-range", "report-not-object",
    "report-ambient-not-object", "report-factorization-not-object",
    "report-trace-not-object", "trace-stages-not-list",
    "certificate-morphism-not-string", "witnesses-not-object",
    "index-morphisms-not-list", "gluing-into-not-a-leg",
    "non-functorial-restriction", "report-converged-stage-not-the-trace's"])
def test_input_checks_survive_python_O(tmp_path, case):
    # python -O strips assert statements, so an input check written as one
    # would let the input through to a traceback here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(FIX, os.pardir, "src"),
                    os.environ.get("PYTHONPATH", "")) if p))
    for cmd in _malformed_commands(tmp_path, case):
        out = tmp_path / "r.json"
        done = subprocess.run(
            [sys.executable, "-O", "-m", "garnet.cli", *cmd,
             "--output", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert load(out)["error"]["kind"] == "MalformedInput"
        out.unlink()


@pytest.mark.parametrize("stage", [99, "x", -1, True])
def test_replay_rejects_a_converged_stage_that_is_no_stage(tmp_path, stage):
    # the factorization states the trace's converged stage, so both change
    data = _edited(load(fix(REPORT)), TRACE + ("converged_stage",), stage)
    data = _edited(data, ("factorization", "converged_stage"), stage)
    rep = tmp_path / "r.json"
    rep.write_text(json.dumps(data))
    out = tmp_path / "o.json"
    assert run(["replay", "--report", str(rep), "--output", str(out)]) == 1
    assert load(out)["error"]["kind"] == "MalformedInput"
    # the same value is a failing check, not malformed input, for
    # trace-verify
    assert run(["trace-verify", "--report", str(rep),
                "--output", str(out)]) == 1
    report = load(out)
    assert "error" not in report and not report["pass"]
    failed = {it["check"] for it in report["items"] if not it["pass"]}
    assert {"chain", "factorization"} <= failed


def _identity_json(x):
    return {"dom": x, "cod": x, "table": list(range(len(x["labels"])))}


def _forged_algebras(tmp_path):
    """Reports whose algebra is a valid square into the right factor with an
    identity bottom, but does not retract the one-step unit there."""
    rep = tmp_path / "f21.json"
    assert run(["factorize", "--generators", fix("walking_cospan.json"),
                "--map", fix("f_2_to_1.json"), "--output", str(rep)]) == 0
    data = load(rep)
    algebra = data["factorization"]["algebra"]
    # the glued arrow 4 -> 1 onto the right factor 3 -> 1: the algebra is
    # (0, 1, 2, 2); (0, 0, 0, 0) commutes too, as the codomain is a point,
    # but sends the unit's image of x1 to x0
    assert algebra["top"]["table"] == [0, 1, 2, 2]
    algebra["top"]["table"] = [0, 0, 0, 0]
    yield data
    # the golden report's right factor has one square from its glued
    # arrow: take the identity square on the right factor instead
    data = load(fix(REPORT))
    right = data["factorization"]["right"]
    data["factorization"]["algebra"] = {
        "source": right, "target": right,
        "top": _identity_json(right["dom"]),
        "bottom": _identity_json(right["cod"])}
    yield data


def test_a_report_whose_algebra_is_no_retraction_is_refused(tmp_path):
    for k, data in enumerate(_forged_algebras(tmp_path)):
        bad = tmp_path / f"bad{k}.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        for cmd in (["trace-verify", "--report", str(bad)],
                    ["replay", "--report", str(bad)]):
            assert run([*cmd, "--output", str(out)]) == 1, cmd
            assert load(out)["error"] == {
                "kind": "MalformedInput",
                "message": "the report's algebra does not retract the "
                           "one-step unit at its right factor"}


# -- every subcommand reads the cap ---------------------------------------------

CELL = ["--generators", fix("walking_cospan.json"), "--map",
        fix("f_2_to_1.json")]
# each subcommand on fixtures for which it enumerates a hom-set, with the
# exit code a cap of 0 gives: every non-empty hom-set exceeds it.
# validate only reads and checks its inputs, so it enumerates nothing.
UNDER_CAP_0 = {
    "validate": (["--generators", fix("walking_cospan.json")], 0),
    "factorize": (CELL, 4),
    "lift": ([*CELL, "--mode", "count"], 4),
    "solve": ([*CELL, "--problem", "@problem"], 4),
    "laws": (CELL, 4),
    "trace-verify": (["--report", fix(REPORT)], 4),
    "replay": (["--report", fix(REPORT)], 4),
    "quillen": (["--generators", fix("point_inclusion.json"),
                 "--map", fix("f_2_to_1.json")], 4),
    "rlp": (CELL, 4),
}

CAP_0_RUNS = """
import json, os, sys
from garnet.cli import main
out = []
for argv, report in json.loads(sys.stdin.read()):
    for via in ("option", "environment"):
        if via == "option":
            code = main([*argv, "--cap", "0", "--output", report])
        else:
            os.environ["GARNET_CAP"] = "0"
            code = main([*argv, "--output", report])
            del os.environ["GARNET_CAP"]
        with open(report, encoding="utf-8") as fh:
            error = json.load(fh).get("error", {}).get("kind")
        out.append([argv[0], via, code, error])
print(json.dumps(out))
"""


def test_every_subcommand_is_listed_under_cap_0():
    from garnet.cli import _DISPATCH
    assert set(UNDER_CAP_0) == set(_DISPATCH)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_every_subcommand_reads_the_cap(tmp_path, flags):
    # --cap 0 and GARNET_CAP=0 each stop every subcommand that enumerates
    # with exit 4 and an EnumerationCap report, also under python -O
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(PROBLEM))
    runs = [[[cmd, *(str(prob) if a == "@problem" else a for a in argv)],
             str(tmp_path / f"{cmd}.json")]
            for cmd, (argv, _code) in UNDER_CAP_0.items()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(FIX, os.pardir, "src"),
                    os.environ.get("PYTHONPATH", "")) if p))
    env.pop("GARNET_CAP", None)
    done = subprocess.run([sys.executable, *flags, "-c", CAP_0_RUNS],
                          input=json.dumps(runs), env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode != 0 or "Traceback" in done.stderr:
        raise AssertionError(done.stderr)
    got = json.loads(done.stdout.splitlines()[-1])
    want = [[cmd, via, code, "EnumerationCap" if code == 4 else None]
            for cmd, (_argv, code) in UNDER_CAP_0.items()
            for via in ("option", "environment")]
    if got != want:
        raise AssertionError(got)


@pytest.mark.parametrize("cap, code", [("0", 4), ("1", 0), (None, 0)])
def test_replay_reads_the_cap(tmp_path, monkeypatch, cap, code):
    # replay rebuilds the one-step gluing at the right factor to check the
    # algebra, under the cap; the golden report's right factor is 1 -> 1,
    # whose gluing enumerates hom-sets of one element each, so only 0 is
    # too small a cap for it
    out = tmp_path / "r.json"
    job = ["replay", "--report", fix(REPORT), "--output", str(out)]
    assert run(job if cap is None else [*job, "--cap", cap]) == code
    if cap is not None:
        monkeypatch.setenv("GARNET_CAP", cap)
        assert run(job) == code
    if code == 4:
        assert load(out)["error"]["kind"] == "EnumerationCap"
