"""Shared builders for the generator diagrams used across the suites."""

from itertools import combinations_with_replacement

from garnet.arrows import ArrowObj, FinSetAmbient, PresheafAmbient, Square, \
    square_from_tables
from garnet.density import ArrowDiagram
from garnet.fincat import FinCategory, discrete_category, identity_name
from garnet.finset import EMPTY, FinFunction, FinSet, identity
from garnet.presheaf import Presheaf, PresheafMap, yoneda

AMB = FinSetAmbient()

POINT = FinSet(("pt",))
PAIR = FinSet(("l", "r"))


def finite(n, prefix="x"):
    return FinSet.fresh(n, prefix=prefix)


def func(a, b, *table):
    return FinFunction(a, b, tuple(table))


def arrow(m) -> ArrowObj:
    return ArrowObj(AMB, m)


def cell_row(*entries) -> tuple:
    """The trace cell row of ``(name, ..., square)``: the square kept as
    its source, target and sides' tables."""
    *head, s = entries
    tables = s.source.ambient.tables
    return (*head, s.source, s.target, tables(s.top), tables(s.bottom))


def row_square(row) -> Square:
    """The square a trace cell row records."""
    return square_from_tables(*row[-4:])


def walking_cospan() -> ArrowDiagram:
    """Two point inclusions, each glued onto the second coprojection while
    the middle generator is the first one."""
    index = FinCategory(("b", "a", "bp"),
                        (("s", "b", "a"), ("t", "bp", "a")), {})
    u_b = arrow(func(EMPTY, POINT))
    u_a = arrow(func(POINT, PAIR, 0))
    u_bp = arrow(func(EMPTY, POINT))
    s = Square(u_b, u_a, func(EMPTY, POINT), func(POINT, PAIR, 1))
    t = Square(u_bp, u_a, func(EMPTY, POINT), func(POINT, PAIR, 1))
    return ArrowDiagram(AMB, index,
                        {"b": u_b, "a": u_a, "bp": u_bp},
                        {"s": s, "t": t})


def point_inclusion() -> ArrowDiagram:
    """The single generator: empty set into the point."""
    return ArrowDiagram(AMB, discrete_category(("j",)),
                        {"j": arrow(func(EMPTY, POINT))})


def empty_diagram() -> ArrowDiagram:
    return ArrowDiagram(AMB, FinCategory((), (), {}), {})


def f_empty_to_point() -> ArrowObj:
    return arrow(func(EMPTY, POINT))


def connected_components(n, pairs):
    """The classes of the equivalence closure of pairs on range(n), found
    by breadth-first search of the graph whose edges are the pairs: the
    class of each element, and each class's minimal member, classes
    ordered by it.  An oracle for ``finset.equivalence_classes``."""
    pairs = list(pairs)
    edges = {i: [] for i in range(n)}
    for i, j in pairs:
        edges[i].append(j)
        edges[j].append(i)
    table, reps = [None] * n, []
    for start in range(n):
        if table[start] is not None:
            continue
        table[start] = len(reps)
        reps.append(start)
        queue = [start]
        while queue:
            for j in edges[queue.pop(0)]:
                if table[j] is None:
                    table[j] = table[start]
                    queue.append(j)
    return table, reps


# -- the paper's example: truncated simplicial sets ------------------------------

def simplex_category(n) -> FinCategory:
    """Delta<=n: objects ``"0"``..``"n"``, morphisms [i] -> [j] the monotone
    maps, each named by its ends and values (``"1>2:02"``), identities as
    ``id_i``."""
    def name(i, j, values):
        if values == tuple(range(i + 1)) and i == j:
            return identity_name(str(i))
        return f"{i}>{j}:{''.join(map(str, values))}"
    maps = [(i, j, values) for i in range(n + 1) for j in range(n + 1)
            for values in combinations_with_replacement(range(j + 1), i + 1)]
    return FinCategory([str(k) for k in range(n + 1)],
                       [(name(*m), str(m[0]), str(m[1])) for m in maps],
                       {(name(j, k, g), name(i, j, f)):
                        name(i, k, tuple(g[v] for v in f))
                        for i, j, f in maps for j2, k, g in maps if j2 == j})


def simplex_boundary(base, k) -> PresheafMap:
    """The inclusion of the boundary of Delta[k] into y[k]: at each level
    the maps into [k] that miss a vertex, restricted by precomposition."""
    rep = yoneda(base, str(k))
    kept = {x: [h for h in rep.at(x).labels if not h.startswith("id_")
                and len(set(h.split(":")[1])) <= k]
            for x in base.objects}
    at = {x: FinSet(tuple(kept[x])) for x in base.objects}
    sub = Presheaf(base, at, {m.name: FinFunction(at[m.cod], at[m.dom], tuple(
        at[m.dom].index_of(base.compose(h, m.name)) for h in kept[m.cod]))
        for m in base.non_identity_morphisms()})
    return PresheafMap(sub, rep, {x: FinFunction(
        at[x], rep.at(x), tuple(map(rep.at(x).index_of, kept[x])))
        for x in base.objects})


def simplex_boundary_generators(base) -> ArrowDiagram:
    """The boundary inclusions ``bd0``..``bdn`` on a discrete index."""
    amb = PresheafAmbient(base)
    return ArrowDiagram(amb, discrete_category(
        [f"bd{x}" for x in base.objects]), {
        f"bd{x}": ArrowObj(amb, simplex_boundary(base, int(x)))
        for x in base.objects})


def simplex_to_point(base, k) -> ArrowObj:
    """The map Delta[k] -> Delta[0], Delta[0] being terminal."""
    rep, point = yoneda(base, str(k)), yoneda(base, "0")
    return ArrowObj(PresheafAmbient(base), PresheafMap(rep, point, {
        x: FinFunction(rep.at(x), point.at(x), (0,) * rep.at(x).size)
        for x in base.objects}))
