"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Not part of the package's test suite: the traced-run test starts the
benchmark twice and takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from jobs import MapState, build_arrow, load_env, run_job
from tracer import LAYER_METRICS, Tracer
from workloads import (WORKLOADS, expected_lifts, graph_fibration_spec,
                       graph_random_spec, problem_count, schedule)

ROOT = Path(__file__).resolve().parent.parent
garnet = run.import_garnet()


def _bench(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py"] + args, cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170, check=False)


def _specs(workload, seed, rounds=1):
    stream = schedule(workload, seed)
    return [spec for _ in range(rounds) for spec in next(stream)]


def test_seed_determines_inputs():
    for workload in WORKLOADS:
        a, b = _specs(workload, 7, 2), _specs(workload, 7, 2)
        assert [(s.klass, s.table) for s in a] == \
            [(s.klass, s.table) for s in b]
        c = _specs(workload, 8, 2)
        assert [s.table for s in a] != [s.table for s in c]


def test_closed_forms_match_the_program():
    import random
    rng = random.Random(3)
    cases = [("cospan-laws", s) for s in _specs("cospan-laws", 1)]
    cases += [("graph-presheaf", graph_fibration_spec(rng, 2, 1, "count")),
              ("graph-presheaf", graph_random_spec(rng, 3, 2, 4, "count"))]
    for workload, spec in cases:
        env = load_env(garnet, ROOT / "fixtures", workload)
        f = build_arrow(env, spec)
        aw = garnet.awfs.GeneratedAWFS(env.generators)
        assert garnet.awfs.find_lifting_structures(aw, f, mode="count") \
            == expected_lifts(spec)
        problems = sum(len(garnet.density.lifting_problems(
            env.generators, i, f)) for i in env.generators.index.objects)
        assert problems == problem_count(spec)


def test_tracer_patches_every_binding_and_restores_them():
    originals = {
        "presheaf.compose": garnet.presheaf.compose,
        "awfs.density_comonad": garnet.awfs.density_comonad,
        "awfs.lifting_problems": garnet.awfs.lifting_problems,
        "hom": garnet.arrows.ArrowAmbient.__dict__["hom"],
    }
    env = load_env(garnet, ROOT / "fixtures", "cospan-laws")
    spec = _specs("cospan-laws", 1)[2]
    state = MapState(spec, build_arrow(env, spec))
    tr = Tracer()
    tr.install(garnet)
    try:
        assert garnet.presheaf.compose is not originals["presheaf.compose"]
        assert garnet.awfs.density_comonad is not \
            originals["awfs.density_comonad"]
        assert "garnet.presheaf.compose" in tr.sites["finset.compose"]
        assert "garnet.awfs.density_action" in tr.sites["density.action"]
        for job, kind in enumerate(spec.jobs):
            with tr.job(job, kind):
                run_job(env, state, kind)
    finally:
        tr.uninstall()
    assert garnet.presheaf.compose is originals["presheaf.compose"]
    assert garnet.awfs.density_comonad is originals["awfs.density_comonad"]
    assert garnet.awfs.lifting_problems is originals["awfs.lifting_problems"]
    assert garnet.arrows.ArrowAmbient.__dict__["hom"] is originals["hom"]
    # self times partition the traced jobs' wall time
    roots = sum(end - start for name, parent, _job, start, end in tr.spans
                if parent == -1)
    assert sum(tr.self_s.values()) == pytest.approx(roots, rel=1e-6)
    assert tr.counts["arrows.hom.accepted"] <= \
        tr.counts["arrows.hom.candidates"]
    assert tr.calls["density.comma"] > 0


def test_traced_counts_repeat_exactly():
    """Two traced runs with one seed, in processes with different string
    hashing, give identical per-layer counts."""
    counts = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = _bench(["--workload", "graph-presheaf", "--seed", "5",
                       "--seconds", "5", "--trace", "1"], ROOT, env)
        assert proc.returncode == 0, proc.stderr
        last = json.loads(proc.stdout.splitlines()[-1])
        assert last["correct"] and last["failed"] == 0
        assert set(last["metrics"]) == set(LAYER_METRICS) | \
            {"trace.overhead_s"}
        counts.append({k: v["value"] for k, v in last["metrics"].items()
                       if v["unit"] in ("count", "ratio")})
    assert counts[0] == counts[1]
    assert counts[0]["presheaf.hom.candidates"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "cospan-laws", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
