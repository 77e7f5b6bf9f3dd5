"""Running one benchmark job and checking its output.

Every call into the program goes through a module attribute looked up at
call time (`awfs.find_lifting_structures`, not a name bound at import), so
the traced run sees the benchmark's own calls too.  The checks use plain
table arithmetic on the returned maps and the closed forms in
`workloads`, never the program's own composition.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from workloads import FIXTURES, MapSpec, expected_lifts, problem_count


class WrongAnswer(Exception):
    """A job returned, but its output failed a benchmark check."""


@dataclass
class Env:
    """The loaded program and the workload's generators."""
    garnet: object
    ambient: object
    generators: object
    base: object = None

    @property
    def awfs(self):
        return self.garnet.awfs


def load_env(garnet, fixtures_dir, workload) -> Env:
    fx = FIXTURES[workload]
    arrows = garnet.arrows
    if "base" in fx:
        with open(fixtures_dir / fx["base"], encoding="utf-8") as fh:
            base = garnet.fincat.category_from_json(json.load(fh))
        ambient = arrows.PresheafAmbient(base)
    else:
        base, ambient = None, arrows.FinSetAmbient()
    with open(fixtures_dir / fx["generators"], encoding="utf-8") as fh:
        generators = garnet.density.arrow_diagram_from_json(json.load(fh),
                                                            ambient)
    env = Env(garnet, ambient, generators, base)
    env.awfs.GeneratedAWFS(generators)  # validates the diagram
    return env


def build_arrow(env: Env, spec: MapSpec):
    """The program-side ArrowObj for a spec."""
    fs = env.garnet.finset
    if spec.ambient == "finset":
        mor = fs.FinFunction(fs.FinSet.fresh(spec.dom, "a"),
                             fs.FinSet.fresh(spec.cod, "b"), spec.table)
        return env.garnet.arrows.ArrowObj(env.ambient, mor)
    psh = env.garnet.presheaf

    def graph(g, prefix):
        nv, edges = g
        v = fs.FinSet.fresh(nv, prefix + "v")
        e = fs.FinSet.fresh(len(edges), prefix + "e")
        return psh.Presheaf(env.base, {"v": v, "e": e}, {
            "src": fs.FinFunction(e, v, tuple(s for s, _ in edges)),
            "tgt": fs.FinFunction(e, v, tuple(t for _, t in edges))})

    x, y = graph(spec.dom, "x"), graph(spec.cod, "y")
    vt, et = spec.table
    mor = psh.PresheafMap(x, y, {
        "v": fs.FinFunction(x.at("v"), y.at("v"), vt),
        "e": fs.FinFunction(x.at("e"), y.at("e"), et)})
    return env.garnet.arrows.ArrowObj(env.ambient, mor)


# -- plain table arithmetic ------------------------------------------------------

def levels(m) -> dict:
    """Level name -> table: one level for a function, one per base object
    for a presheaf map."""
    comps = getattr(m, "components", None)
    if comps is None:
        return {"*": m.table}
    return {c: comps[c].table for c in sorted(comps)}


def sizes(obj) -> dict:
    """Level name -> size, for a finite set or a presheaf."""
    base = getattr(obj, "base", None)
    if base is None:
        return {"*": len(obj.labels)}
    return {c: len(obj.at(c).labels) for c in sorted(base.objects)}


def after(g: dict, f: dict) -> dict:
    """Levelwise g after f on tables."""
    return {c: tuple(g[c][v] for v in f[c]) for c in f}


def _require(ok, what):
    if not ok:
        raise WrongAnswer(what)


def check_factorization(f, fact):
    left, right = fact.left.mor, fact.right.mor
    ambient = f.ambient
    _require(after(levels(right), levels(left)) == levels(f.mor),
             "right after left differs from f")
    _require(sizes(ambient.dom(left)) == sizes(ambient.dom(f.mor))
             and sizes(ambient.cod(right)) == sizes(ambient.cod(f.mor))
             and sizes(ambient.cod(left)) == sizes(ambient.dom(right)),
             "factor endpoints do not match f")


def frozen(m) -> tuple:
    """A map's tables as a hashable value."""
    return tuple(sorted(levels(m).items()))


def check_structure(env: Env, spec: MapSpec, f, psi):
    """Every filler solves its problem on the tables, there is one per
    problem, and fillers agree along every generator morphism."""
    u = env.generators
    fmor = levels(f.mor)
    _require(len(psi.fillers) == problem_count(spec),
             "structure does not solve every problem exactly once")
    table = {}
    for (i, a), s in psi.fillers.items():
        st = levels(s)
        _require(after(st, levels(u.arrow(i).mor)) == levels(a.top)
                 and after(fmor, st) == levels(a.bottom),
                 f"filler does not solve its problem at {i}")
        table[(i, frozen(a.top), frozen(a.bottom))] = st
    for m in u.index.non_identity_morphisms():
        sq = u.square(m.name)
        for (i, a), s in psi.fillers.items():
            if i != m.cod:
                continue
            top = after(levels(a.top), levels(sq.top))
            bottom = after(levels(a.bottom), levels(sq.bottom))
            key = (m.dom, tuple(sorted(top.items())),
                   tuple(sorted(bottom.items())))
            _require(table.get(key) == after(levels(s), levels(sq.bottom)),
                     f"fillers disagree along {m.name}")


# -- jobs ------------------------------------------------------------------------

@dataclass
class MapState:
    """A generated map while its jobs run."""
    spec: MapSpec
    arrow: object
    fact: object = None


def run_job(env: Env, state: MapState, kind: str) -> float:
    """Run one job on a fresh session; return its duration in seconds.

    Raises whatever the program raises, or WrongAnswer."""
    awfs = env.awfs
    f = state.arrow
    spec = state.spec
    if kind == "factorize":
        aw = awfs.GeneratedAWFS(env.generators)
        t0 = time.perf_counter()
        fact = aw.factorize(f)
        dt = time.perf_counter() - t0
        check_factorization(f, fact)
        state.fact = fact
        spec.props["converged_stage"] = fact.converged_stage
        return dt
    if kind == "verify":
        if state.fact is None:
            raise WrongAnswer("no factorization to verify")
        t0 = time.perf_counter()
        text = json.dumps(awfs.trace_to_json(state.fact.trace))
        trace = awfs.trace_from_json(json.loads(text), env.ambient)
        out = awfs.verify_trace(trace, state.fact)
        dt = time.perf_counter() - t0
        _require(out["pass"] is True, "verify_trace rejected the trace")
        return dt
    if kind == "laws":
        aw = awfs.GeneratedAWFS(env.generators)
        t0 = time.perf_counter()
        out = aw.law_suite(f)
        dt = time.perf_counter() - t0
        _require(out["pass"] is True and all(out["checks"].values()),
                 "law suite failed: " + ", ".join(
                     k for k, v in out["checks"].items() if not v))
        return dt
    if kind == "lift":
        return _lift(env, spec, f)
    raise ValueError(f"unknown job kind {kind!r}")


def _lift(env: Env, spec: MapSpec, f) -> float:
    awfs = env.awfs
    want = expected_lifts(spec)
    spec.props["lifts"] = want
    mode = spec.lift_mode
    if mode == "has_rlp":
        t0 = time.perf_counter()
        got = awfs.has_rlp(f, env.generators)
        dt = time.perf_counter() - t0
        _require(got is (want > 0), f"has_rlp gave {got}, closed form "
                                    f"{want} structures")
        return dt
    aw = awfs.GeneratedAWFS(env.generators)
    t0 = time.perf_counter()
    got = awfs.find_lifting_structures(aw, f, mode=mode)
    dt = time.perf_counter() - t0
    if mode == "count":
        _require(got == want, f"count gave {got}, closed form {want}")
        return dt
    expect_n = min(want, 1) if mode == "first" else want
    _require(len(got) == expect_n,
             f"{mode} gave {len(got)} structures, closed form {want}")
    seen = set()
    for psi in got:
        check_structure(env, spec, f, psi)
        seen.add(frozenset((i, frozen(a.top), frozen(a.bottom), frozen(s))
                           for (i, a), s in psi.fillers.items()))
    _require(len(seen) == len(got), "structures repeat")
    return dt


def quantile(samples, p):
    """The p-quantile by linear interpolation between order statistics
    (the inclusive method of statistics.quantiles)."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * p
    lo = int(pos)
    if lo + 1 == len(xs):
        return xs[lo]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * (pos - lo)
