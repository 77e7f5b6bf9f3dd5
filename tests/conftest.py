"""Shared builders for the generator diagrams used across the suites."""

from garnet.arrows import ArrowObj, FinSetAmbient, Square, square_from_tables
from garnet.density import ArrowDiagram
from garnet.fincat import FinCategory, discrete_category
from garnet.finset import EMPTY, FinFunction, FinSet, identity

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
