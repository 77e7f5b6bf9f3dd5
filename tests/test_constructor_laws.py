"""Categories, presheaves and presheaf maps are checked where they are built.

``FinCategory`` refuses a category that breaks the laws and ``Presheaf``
one that is not functorial, each with the report its JSON reader used to
raise; ``PresheafMap`` refuses a component at an object its base lacks, and
``classify_mono`` a truth point that is not the sieve classifier's.  The
doors that tables from outside reach stay checked: ``from_tables`` refuses
unnatural tables, ``square_from_tables`` a square that does not commute,
``DensityResult.mediate`` a cocone whose legs do not,
``ColimitResult.mediate`` legs that disagree on a class, and ``qoppa_step``
a pointed endofunctor whose unit is not natural at the stage's g.  Each case
runs in a subprocess under a plain and a ``python -O`` interpreter: -O
strips assert statements, so a check written as one would let the value
through.
``PresheafAmbient.from_tables`` builds its checked map once; composites,
identities and colimit mediators of presheaf maps, and composites of
squares, are built from tables with no check and no component built.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from garnet import presheaf
from garnet.arrows import ArrowObj, PresheafAmbient, Square, \
    compose_squares, identity_square
from garnet.fincat import FinCategory
from garnet.finset import FinFunction
from garnet.presheaf import PresheafMap, presheaf_compose, \
    presheaf_identity, presheaf_pushout, yoneda, yoneda_map

PRELUDE = """
from garnet.arrows import ArrowObj, FinSetAmbient, PointedEndofunctor, \\
    PresheafAmbient, square_from_tables
from garnet.density import ArrowDiagram, density_comonad
from garnet.errors import BoundaryMismatch, DomainMismatch, MalformedInput, \\
    NaturalityViolation, ShapeMismatch, UnknownObject
from garnet.fincat import FinCategory, discrete_category
from garnet.finset import FinFunction, FinSet, identity
from garnet.freemonad import Backdrop, FreeMonadConfig, QoppaObject, qoppa_step
from garnet.presheaf import Presheaf, PresheafMap, classify_mono, \\
    presheaf_identity, presheaf_pushout, terminal_presheaf
"""

# name -> (error, message, code that must raise it)
CASES = {
    "non-functorial-presheaf": ("MalformedInput",
                                "restriction fails functoriality at "
                                "('g', 'f')", """
base = FinCategory(["x", "y", "z"],
                   [("f", "x", "y"), ("g", "y", "z"), ("gf", "x", "z")],
                   {("g", "f"): "gf"})
sx, sy, sz = FinSet.fresh(2, "sx"), FinSet.fresh(1, "sy"), FinSet.fresh(2, "sz")
Presheaf(base, {"x": sx, "y": sy, "z": sz},
         {"f": FinFunction(sy, sx, (0,)), "g": FinFunction(sz, sy, (0, 0)),
          "gf": FinFunction(sz, sx, (1, 1))})
"""),
    "missing-composite": ("MalformedInput", "compose missing for ('g', 'f')",
                          """
FinCategory(["x", "y", "z"], [("f", "x", "y"), ("g", "y", "z")], {})
"""),
    "non-associative": ("MalformedInput",
                        "associativity fails at ('h', 'g', 'f')", """
FinCategory(["w", "x", "y", "z"],
            [("f", "w", "x"), ("g", "x", "y"), ("h", "y", "z"),
             ("gf", "w", "y"), ("hg", "x", "z"), ("p", "w", "z"),
             ("q", "w", "z")],
            {("g", "f"): "gf", ("h", "g"): "hg", ("h", "gf"): "p",
             ("hg", "f"): "q", ("p", "id_w"): "p", ("q", "id_w"): "q"})
"""),
    # a stray component used to be kept: the map equalled the identity, yet
    # its is_iso and is_identity read False
    "stray-component": ("UnknownObject",
                        "component at unknown object 'bogus'", """
base = FinCategory(["x"], [], {})
x = FinSet.fresh(2, "x")
p = Presheaf(base, {"x": x}, {})
ident = presheaf_identity(p).at("x")
PresheafMap(p, p, {"x": ident, "bogus": FinFunction(x, x, (1, 0))})
"""),
    "foreign-truth-point": ("ShapeMismatch",
                            "truth point is not the sieve classifier's", """
base = FinCategory(["x", "y"], [("m", "x", "y")], {})
one = presheaf_identity(terminal_presheaf(base))
classify_mono(one, one)
"""),
    # the doors that tables from outside reach
    "unnatural-tables": ("NaturalityViolation",
                         "naturality fails along 'm'", """
base = FinCategory(["x", "y"], [("m", "x", "y")], {})
x, y = FinSet.fresh(2, "x"), FinSet.fresh(1, "y")
p = Presheaf(base, {"x": x, "y": y}, {"m": FinFunction(y, x, (0,))})
PresheafAmbient(base).from_tables(p, p, ((1, 0), (0,)))
"""),
    "non-commuting-square": ("BoundaryMismatch", "square does not commute",
                             """
fs, x = FinSetAmbient(), FinSet.fresh(2)
a = ArrowObj(fs, identity(x))
square_from_tables(a, a, ((0, 1),), ((1, 0),))
"""),
    # one cell per point of x, no relations: a cocone is any pair of squares
    # from the point's identity, and the first leg here does not commute
    "non-commuting-density-cocone": ("BoundaryMismatch",
                                     "square does not commute", """
fs, pt, x = FinSetAmbient(), FinSet(("pt",)), FinSet.fresh(2)
u = ArrowDiagram(fs, discrete_category(("j",)), {"j": ArrowObj(fs, identity(pt))})
den = density_comonad(u, ArrowObj(fs, FinFunction(x, pt, (0, 0))))
cod = ArrowObj(fs, FinFunction(x, x, (0, 0)))
den.mediate([(((0,),), ((1,),)), (((0,),), ((0,),))], cod)
"""),
    "disagreeing-mediator-legs": ("DomainMismatch",
                                  "cocone leg is not constant on a class", """
point = FinCategory(["c"], [], {})
one, two = FinSet(("pt",)), FinSet.fresh(2)
p1, p2 = Presheaf(point, {"c": one}, {}), Presheaf(point, {"c": two}, {})
ident = presheaf_identity(p1)
po = presheaf_pushout(ident, ident)
po.mediate(PresheafMap(p1, p2, {"c": FinFunction(one, two, (0,))}),
           PresheafMap(p1, p2, {"c": FinFunction(one, two, (1,))}))
"""),
    # X + 1 pointed by the coprojection after reversing X: at the first
    # stage's g, T(g) . unit and unit . g differ
    "unnatural-unit": ("DomainMismatch",
                       "cocone leg is not constant on a class", """
fs, pt = FinSetAmbient(), FinSet(("pt",))
plus = lambda x: fs.coproduct([x, pt], tags=("v", "new"))
def on_mor(m):
    return plus(m.dom).mediate(fs.compose(plus(m.cod).injections[0], m),
                               plus(m.cod).injections[1])
def unit(x):
    return FinFunction(x, plus(x).obj, tuple(reversed(range(x.size))))
t = PointedEndofunctor(fs, lambda x: plus(x).obj, on_mor, unit)
a = FinSet.fresh(2)
qoppa_step(FreeMonadConfig(fs, Backdrop("all"), t),
           QoppaObject(a, t.on_obj(a), identity(t.on_obj(a))))
"""),
}

CHECK = """
try:
{body}
except {error} as exc:
    if {message!r} not in str(exc):
        raise SystemExit("wrong message: " + str(exc))
    raise SystemExit(0)
raise SystemExit("built without raising {error}")
"""


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "python-O"])
def test_a_lawless_value_is_refused_where_it_is_built(flags, case):
    error, message, body = CASES[case]
    script = PRELUDE + CHECK.format(
        body=textwrap.indent(body.strip(), "    "), error=error,
        message=message)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, *flags, "-c", script],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_from_tables_builds_one_checked_map(monkeypatch):
    base = FinCategory(["x", "y"], [("m", "x", "y")], {})
    p = yoneda(base, "y")
    tables = presheaf_identity(p).tables
    calls = []
    init, natural = PresheafMap.__init__, presheaf._natural_map

    def counted_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    def counted_natural(*args):
        calls.append("_natural_map")
        return natural(*args)

    monkeypatch.setattr(PresheafMap, "__init__", counted_init)
    monkeypatch.setattr(presheaf, "_natural_map", counted_natural)
    m = PresheafAmbient(base).from_tables(p, p, tables)
    assert calls == ["__init__"]
    assert m.tables == tables and m.is_identity


def test_table_constructions_check_and_build_nothing(monkeypatch):
    base = FinCategory(["x", "y"], [("m", "x", "y")], {})
    f = yoneda_map(base, "m")
    ident = presheaf_identity(f.target)
    po = presheaf_pushout(f, f)
    legs = po.legs
    amb = PresheafAmbient(base)
    arrow = ArrowObj(amb, f)
    square = Square(arrow, arrow, presheaf_identity(f.source), ident)
    calls = []

    def counted(name, original):
        def wrapper(self, *args):
            calls.append(name)
            original(self, *args)
        return wrapper

    for cls, attr in ((PresheafMap, "__init__"),
                      (FinFunction, "__post_init__"),
                      (Square, "__post_init__")):
        monkeypatch.setattr(cls, attr, counted(
            f"{cls.__name__}.{attr}", getattr(cls, attr)))
    built = [presheaf_compose(ident, f), presheaf_identity(f.source),
             po.mediate(legs)]
    composite = compose_squares(square, identity_square(arrow))
    assert calls == []
    assert composite.top == presheaf_identity(f.source)
    # components are built when first read
    assert built[0].at("x") == f.at("x") and calls
    calls.clear()
    assert built[2].components == presheaf_identity(po.obj).components
    assert set(calls) == {"FinFunction.__post_init__"}
