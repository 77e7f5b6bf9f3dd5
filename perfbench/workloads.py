"""Seeded inputs for the benchmark workloads, and their closed forms.

A workload is an endless sequence of *rounds*.  Every round holds the same
list of shape classes (fibre sizes, graph sizes, lift mode) in the same
order; the seed picks the concrete map inside each class (which element
lands where, cycle rotations, random edges, which edges are doubled).
A run measures whole rounds only.  Keeping the shape mix fixed per round
is what keeps medians steady across seeds while the inputs themselves
change with the seed.

Everything here is plain Python data.  `build_arrow` turns a spec into the
`ArrowObj` the program receives; the closed forms (`expected_lifts`,
`problem_count`) are computed from the spec tables alone and never call
into the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Fixture files each workload parses during set-up (relative to fixtures/).
FIXTURES = {
    "cospan-laws": {"generators": "walking_cospan.json"},
    "graph-presheaf": {"generators": "graph_boundary.json",
                       "base": "graph_base.json"},
}

FULL = ("factorize", "verify", "laws", "lift")

# Fibre sizes of a map A -> B, one entry per element of B.  The seed
# decides which element of B gets which fibre and shuffles A, so every seed
# sees the same shapes in a different arrangement.

# Each round has an odd number of maps per job kind, so that with whole
# rounds of k maps per class the median, and for k >= 3 the 75th
# percentile, fall inside one class's samples rather than between two.

# cospan-laws: the law suite dominates.  One empty-domain map (converges
# at stage 2) and one non-surjective map, neither with a lifting
# structure; the rest are surjections with uneven fibres.  Lift jobs run
# in every mode, and two lift-only maps with larger fibres give the
# backtracking search work that never touches density.
COSPAN_LAWS_ROUND = (
    ((0,), "count", FULL),
    ((2, 1), "all", FULL),
    ((3, 1), "first", FULL),
    ((3, 1, 1), "has_rlp", FULL),
    ((3, 2, 1), "count", FULL),
    ((3, 2, 1, 0), "has_rlp", FULL),
    ((4, 2, 1), "count", FULL),
    ((3, 3, 2, 2), "count", ("lift",)),
    ((4, 4), "all", ("lift",)),
)

# graph-presheaf: (class, parameters, lift mode).  Cycle covers C_n -> C_m;
# a random graph (vertices, target vertices, edges) into a complete looped
# target; a fibration (vertices, doubled edges) onto the loop.
GRAPH_ROUND = (
    ("cycle", (1, 1), "count"),
    ("cycle", (2, 1), "count"),
    ("cycle", (3, 3), "has_rlp"),
    ("cycle", (3, 1), "first"),
    ("cycle", (4, 2), "count"),
    ("random", (2, 1, 2), "has_rlp"),
    ("fibration", (2, 1), "all"),
)

ROUNDS = {"cospan-laws": COSPAN_LAWS_ROUND,
          "graph-presheaf": GRAPH_ROUND}
WORKLOADS = tuple(ROUNDS)


@dataclass
class MapSpec:
    """A generated map as plain data.

    finset: `dom`/`cod` sizes and `table`.
    graph:  `dom`/`cod` are (vertex count, edge list) and `table` is the
            pair (vertex table, edge table).
    """
    ambient: str
    klass: str
    dom: object
    cod: object
    table: object
    lift_mode: str
    jobs: tuple = FULL
    props: dict = field(default_factory=dict)


# -- finite sets -------------------------------------------------------------

def finset_spec(rng, fibres, mode, jobs=FULL) -> MapSpec:
    """A map whose fibres have the given sizes, assigned to the codomain
    in seeded order, with the domain shuffled."""
    sizes = list(fibres)
    rng.shuffle(sizes)
    table = [b for b, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(table)
    n, m = len(table), len(sizes)
    spec = MapSpec("finset", f"{n}->{m}:{mode}", n, m, tuple(table), mode,
                   jobs)
    spec.props["surjective"] = all(sizes)
    return spec


def finset_fibres(spec: MapSpec) -> list[int]:
    sizes = [0] * spec.cod
    for b in spec.table:
        sizes[b] += 1
    return sizes


# -- graphs (presheaves on the walking parallel pair) ------------------------

def _cycle(n):
    return (n, [(i, (i + 1) % n) for i in range(n)])


def graph_cycle_spec(rng, n, m, mode) -> MapSpec:
    """The cycle cover C_n -> C_m, rotated by a seeded offset."""
    r = rng.randrange(m)
    vt = tuple((i + r) % m for i in range(n))
    return MapSpec("graph", f"C{n}->C{m}", _cycle(n), _cycle(m), (vt, vt),
                   mode)


def _complete_looped(nv):
    """nv vertices, every ordered pair joined, loops included."""
    return (nv, [(s, t) for s in range(nv) for t in range(nv)])


def graph_random_spec(rng, nv, target, n_edges, mode) -> MapSpec:
    """A seeded graph on nv vertices with n_edges edges into the complete
    looped graph on `target` vertices."""
    y = _complete_looped(target)
    vt = tuple(rng.randrange(target) for _ in range(nv))
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(n_edges)]
    et = tuple(y[1].index((vt[s], vt[t])) for s, t in edges)
    return MapSpec("graph", f"random{nv}", (nv, edges), y, (vt, et), mode)


def graph_fibration_spec(rng, nv, doubled, mode) -> MapSpec:
    """A map onto the one-vertex loop with an edge between every ordered
    pair of source vertices, `doubled` seeded pairs carrying two: a lift
    over every problem, 2**doubled lifting structures."""
    pairs = [(s, t) for s in range(nv) for t in range(nv)]
    twice = set(rng.sample(range(len(pairs)), doubled))
    edges = [p for k, p in enumerate(pairs) for _ in range(1 + (k in twice))]
    return MapSpec("graph", f"fibration{nv}", (nv, edges), (1, [(0, 0)]),
                   ((0,) * nv, (0,) * len(edges)), mode)


# -- rounds ------------------------------------------------------------------

def _round(workload, rng):
    if workload == "cospan-laws":
        return [finset_spec(rng, fibres, mode, jobs)
                for fibres, mode, jobs in COSPAN_LAWS_ROUND]
    make = {"cycle": graph_cycle_spec, "random": graph_random_spec,
            "fibration": graph_fibration_spec}
    return [make[klass](rng, *params, mode)
            for klass, params, mode in GRAPH_ROUND]


def schedule(workload: str, seed: int):
    """Endless stream of rounds of map specs for (workload, seed)."""
    if workload not in ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield _round(workload, rng)


# -- closed forms (independent of the program) -------------------------------

def graph_problems(spec: MapSpec):
    """Lifting problems against the edge-boundary generator, with the
    number of fillers of each: a problem is a pair of source vertices and a
    target edge joining their images; a filler is a source edge between
    them over that edge."""
    (xv, xe), (yv, ye) = spec.dom, spec.cod
    vt, et = spec.table
    out = []
    for x0 in range(xv):
        for x1 in range(xv):
            for e, (ys, yt) in enumerate(ye):
                if ys != vt[x0] or yt != vt[x1]:
                    continue
                fillers = sum(1 for d, (s, t) in enumerate(xe)
                              if s == x0 and t == x1 and et[d] == e)
                out.append(((x0, x1, e), fillers))
    return out


def expected_lifts(spec: MapSpec) -> int:
    """Number of coherent lifting structures.

    finset over the walking-cospan generators: prod_b |f^-1(b)|, which is
    0 exactly when f is not surjective.  graph over the edge boundary: the
    generator shape is discrete, so the product of per-problem filler
    counts.
    """
    count = 1
    if spec.ambient == "finset":
        for size in finset_fibres(spec):
            count *= size
        return count
    for _problem, fillers in graph_problems(spec):
        count *= fillers
    return count


def problem_count(spec: MapSpec) -> int:
    """Number of lifting problems, one filler each in every structure.

    walking cospan: |B| problems against each of the two points and
    |A|*|B| against the arrow 1 -> 2."""
    if spec.ambient == "finset":
        return 2 * spec.cod + spec.dom * spec.cod
    return len(graph_problems(spec))
