"""Command line front end.

Every subcommand reads JSON inputs, runs one job, prints a short human
summary to standard output, and writes a machine report to --output.
Reports are serialized with sorted keys and a fixed indent so identical
inputs always produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .arrows import (ArrowObj, EndoData, FinSetAmbient, PresheafAmbient,
                     Square, compose_squares, identity_square)
from .awfs import (GeneratedAWFS, factorization_to_json,
                   find_lifting_structures, has_rlp, quillen_factorize,
                   replay, require_count, solve_lifting, square_from_json,
                   structure_to_json, trace_from_json, verify_trace)
from .density import arrow_diagram_from_json
from .errors import (EnumerationCap, GarnetError, IterationLimit,
                     MalformedInput)
from .fincat import category_from_json, category_to_json
from .finset import FinFunction, FinSet, json_fields, json_object
from .freemonad import DEFAULT_MAX_STEPS, Backdrop
from .presheaf import presheaf_from_json

FORMAT = 1

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMIT = 2
EXIT_NO_STRUCTURE = 3
EXIT_CAP = 4
EXIT_INTERNAL = 5


@contextlib.contextmanager
def _exact_ints():
    """Lift the interpreter's limit on converting ints of more than 4,300
    digits to text, where it has one, so that an exact count prints; the
    limit is restored on the way out."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cap(args):
    """The enumeration cap: --cap, else GARNET_CAP, else none."""
    cap = args.cap
    if cap is None:
        env = os.environ.get("GARNET_CAP")
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise MalformedInput("GARNET_CAP must be a non-negative "
                                 "integer") from None
    return require_count(cap, "cap")


def _ambient(args):
    if args.ambient == "finset":
        return FinSetAmbient(), {"kind": "finset"}
    if not args.base:
        raise MalformedInput("a presheaf ambient needs --base")
    base = category_from_json(_read_json(args.base))
    return PresheafAmbient(base), {"kind": "presheaf",
                                   "base": category_to_json(base)}


def _ambient_from_spec(spec):
    if spec.get("kind") == "finset":
        return FinSetAmbient()
    if spec.get("kind") == "presheaf":
        return PresheafAmbient(category_from_json(
            json_fields(spec, "report 'ambient'", "base")["base"]))
    raise MalformedInput("unknown ambient kind in report")


def _generators(args, inner):
    if args.generators == "subobject_classifier":
        return arrow_diagram_from_json("subobject_classifier", inner)
    return arrow_diagram_from_json(_read_json(args.generators), inner)


def _map(args, inner):
    return ArrowObj(inner, inner.mor_from_json(_read_json(args.map)))


def _session(args):
    inner, spec = _ambient(args)
    u = _generators(args, inner)
    f = _map(args, inner)
    aw = GeneratedAWFS(
        u, backdrop=Backdrop(args.backdrop), cap=_cap(args),
        max_steps=args.max_steps if args.max_steps is not None
        else DEFAULT_MAX_STEPS)
    return inner, spec, aw, f


def _shape(inner, g: ArrowObj) -> str:
    return f"{inner.obj_size(g.dom)} -> {inner.obj_size(g.cod)}"


# -- subcommands ------------------------------------------------------------------


def _cmd_validate(args):
    # each reader refuses what it checks: a diagram that is not functorial,
    # a category that breaks the laws, a presheaf that is not functorial
    checked = []
    if args.generators:
        inner, _spec = _ambient(args)
        _generators(args, inner)
        checked.append("generators")
    if args.category:
        category_from_json(_read_json(args.category))
        checked.append("category")
    if args.presheaf:
        if not args.base:
            raise MalformedInput("validating a presheaf needs --base")
        base = category_from_json(_read_json(args.base))
        presheaf_from_json(_read_json(args.presheaf), base)
        checked.append("presheaf")
    if not checked:
        raise MalformedInput("nothing to validate; pass --generators, "
                             "--category, or --presheaf")
    return EXIT_OK, {"checked": checked, "ok": True, "problems": []}, \
        ["valid"]


def _cmd_factorize(args):
    inner, spec, aw, f = _session(args)
    fact = aw.factorize(f)
    report = {"ambient": spec, "backdrop": args.backdrop,
              "factorization": factorization_to_json(fact)}
    human = [f"factored {_shape(inner, f)} as left {_shape(inner, fact.left)}"
             f" then right {_shape(inner, fact.right)}",
             f"midpoint size {inner.obj_size(fact.midpoint)}, "
             f"converged at stage {fact.converged_stage}"]
    return EXIT_OK, report, human


def _cmd_lift(args):
    inner, _spec, aw, f = _session(args)
    out = find_lifting_structures(aw, f, mode=args.mode)
    if args.mode == "count":
        report = {"mode": "count", "count": out}
        with _exact_ints():
            human = [f"{out} coherent lifting structure(s)"]
        return EXIT_OK, report, human
    if args.mode == "first":
        if not out:
            report = {"mode": "first", "found": False}
            return EXIT_NO_STRUCTURE, report, ["no lifting structure"]
        report = {"mode": "first", "found": True,
                  "structure": structure_to_json(out[0])}
        return EXIT_OK, report, ["found a lifting structure with "
                                 f"{len(out[0].by_key)} filler(s)"]
    report = {"mode": "all", "count": len(out),
              "structures": [structure_to_json(s) for s in out]}
    return EXIT_OK, report, [f"{len(out)} coherent lifting structure(s)"]


def _cmd_solve(args):
    inner, _spec, aw, f = _session(args)
    prob = json_fields(json_object(_read_json(args.problem), "problem file"),
                       "problem", "index", "top", "bottom")
    i = prob["index"]
    if i not in aw.generators.index.objects:
        raise MalformedInput(f"problem names an unknown generator {i!r}")
    alpha = Square(aw.generators.arrow(i), f,
                   inner.mor_from_json(prob["top"]),
                   inner.mor_from_json(prob["bottom"]))
    found = find_lifting_structures(aw, f, mode="first")
    if not found:
        return EXIT_NO_STRUCTURE, {"found": False}, ["no lifting structure"]
    filler = solve_lifting(found[0], i, alpha)
    report = {"found": True, "index": i,
              "filler": inner.mor_to_json(filler)}
    return EXIT_OK, report, [f"solved the problem at generator {i}"]


def _cmd_laws(args):
    inner, _spec, aw, f = _session(args)
    suite = aw.law_suite(f)
    report = {"pass": suite["pass"], "checks": suite["checks"]}
    failed = [k for k, v in suite["checks"].items() if not v]
    human = ["all laws hold" if suite["pass"]
             else "failed: " + ", ".join(sorted(failed))]
    return (EXIT_OK if suite["pass"] else EXIT_INTERNAL), report, human


class _ReportedFactorization:
    """The facts a verification needs, read back from a report file."""

    def __init__(self, f, left, right):
        self.f = f
        self.left = left
        self.right = right
        self.midpoint = left.cod
        self.algebra = None  # read after the factors are checked


def _same_json(a, b) -> bool:
    """a and b are the same JSON value, with true, 1 and 1.0 told apart."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _load_report(path):
    """The ambient, trace and factorization of a factorize report.  The
    midpoint, unit, algebra and converged stage it states are checked
    against its factors and trace; the algebra's retraction law needs the
    one-step gluing at the right factor, so ``_check_algebra`` checks it
    once the trace has passed."""
    data = json_object(_read_json(path), "report")
    if "factorization" not in data:
        raise MalformedInput("not a factorize report")
    inner = _ambient_from_spec(json_object(data.get("ambient", {}),
                                           "report 'ambient'"))
    fd = json_fields(data["factorization"], "report 'factorization'", "f",
                     "left", "right", "trace", "unit", "algebra", "midpoint",
                     "midpoint_size", "converged_stage")
    trace = trace_from_json(json_object(fd["trace"], "factorization 'trace'"),
                            inner)
    fact = _ReportedFactorization(
        ArrowObj(inner, inner.mor_from_json(fd["f"])),
        ArrowObj(inner, inner.mor_from_json(fd["left"])),
        ArrowObj(inner, inner.mor_from_json(fd["right"])))
    if not (_same_json(fd["midpoint"], inner.obj_to_json(fact.midpoint))
            and _same_json(fd["midpoint_size"],
                           inner.obj_size(fact.midpoint))):
        raise MalformedInput("the report's midpoint is not the left "
                             "factor's codomain")
    if not _same_json(fd["converged_stage"], trace.converged_stage):
        raise MalformedInput("the report's converged stage is not its "
                             "trace's")
    unit = Square(fact.f, fact.right, fact.left.mor,
                  inner.identity(fact.f.cod))
    if square_from_json(inner, fd["unit"]) != unit:
        raise MalformedInput("the report's unit is not the square from the "
                             "map to its right factor")
    fact.algebra = square_from_json(inner, fd["algebra"])
    if fact.algebra.target != fact.right \
            or not inner.is_identity(fact.algebra.bottom):
        raise MalformedInput("the report's algebra is not a square into its "
                             "right factor with an identity bottom")
    return inner, trace, fact


def _check_algebra(trace, fact, cap=None):
    """Refuse a report whose algebra does not retract the one-step unit at
    its right factor, the unit law of an algebra for the gluing."""
    aw = GeneratedAWFS(trace.generators, trace.backdrop, cap=cap)
    unit = aw.t.unit(fact.right)
    if fact.algebra.source != unit.target or compose_squares(
            fact.algebra, unit) != identity_square(fact.right):
        raise MalformedInput("the report's algebra does not retract the "
                             "one-step unit at its right factor")


def _cmd_trace_verify(args):
    _inner, trace, fact = _load_report(args.report)
    cap = _cap(args)
    out = verify_trace(trace, fact, cap=cap)
    if out["pass"]:
        _check_algebra(trace, fact, cap)
    report = {"pass": out["pass"], "items": out["items"]}
    failed = [it for it in out["items"] if not it["pass"]]
    human = [f"trace verifies: {len(out['items'])} checks"] if out["pass"] \
        else [f"trace rejected: {len(failed)} failing check(s), first at "
              f"stage {failed[0]['stage']} ({failed[0]['check']})"]
    return (EXIT_OK if out["pass"] else EXIT_INVALID), report, human


def _doubling(inner):
    def on_obj(x):
        return FinSet(tuple(f"{lbl}*{i}" for lbl in x.labels
                            for i in range(2)))

    def on_mor(m):
        return FinFunction(on_obj(m.dom), on_obj(m.cod),
                           tuple(m.table[j] * 2 + i
                                 for j in range(m.dom.size)
                                 for i in range(2)))
    return EndoData(inner, on_obj, on_mor)


def _cmd_replay(args):
    inner, trace, fact = _load_report(args.report)
    if args.functor == "identity":
        fun = EndoData(inner, lambda x: x, lambda m: m)
    else:
        if not isinstance(inner, FinSetAmbient):
            raise MalformedInput("the doubling functor is only defined "
                                 "over finite sets")
        fun = _doubling(inner)
    if args.witnesses:
        raw = json_object(_read_json(args.witnesses), "witness file")
        witnesses = {j: ArrowObj(inner, inner.mor_from_json(d))
                     for j, d in raw.items()}
    else:
        witnesses = {j: ArrowObj(inner,
                                 fun.on_mor(trace.generators.arrow(j).mor))
                     for j in trace.generators.index.objects}
    out, info = replay(trace, fun, witnesses)
    _check_algebra(trace, fact, _cap(args))
    report = {"functor": args.functor,
              "output": inner.mor_to_json(out.mor),
              "checks": info["checks"],
              "structure": info["structure"],
              "witnesses": {j: inner.mor_to_json(w.mor)
                            for j, w in info["witnesses"].items()}}
    human = [f"replayed to {_shape(inner, out)}; "
             f"{len(info['checks'])} preservation check(s) passed"]
    return EXIT_OK, report, human


def _cmd_quillen(args):
    inner, _spec, aw, f = _session(args)
    out = quillen_factorize(aw, f)
    report = {"left": inner.mor_to_json(out.left.mor),
              "right": inner.mor_to_json(out.right.mor),
              "steps": out.steps,
              "stage_tops": [inner.mor_to_json(t) for t in out.stage_tops]}
    human = [f"attached cells for {out.steps} stage(s): "
             f"left {_shape(inner, out.left)}, "
             f"right {_shape(inner, out.right)}"]
    return EXIT_OK, report, human


def _cmd_rlp(args):
    inner, _spec, aw, f = _session(args)
    answer = has_rlp(f, aw.generators, cap=aw.cap)
    report = {"has_rlp": answer}
    human = ["every problem has a filler" if answer
             else "some problem has no filler"]
    return EXIT_OK, report, human


_DISPATCH = {
    "validate": _cmd_validate,
    "factorize": _cmd_factorize,
    "lift": _cmd_lift,
    "solve": _cmd_solve,
    "laws": _cmd_laws,
    "trace-verify": _cmd_trace_verify,
    "replay": _cmd_replay,
    "quillen": _cmd_quillen,
    "rlp": _cmd_rlp,
}


def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--output", help="write the machine report here")
    shared.add_argument("--cap", type=int, default=None,
                        help="enumeration cap (or env GARNET_CAP)")

    ambient = argparse.ArgumentParser(add_help=False)
    ambient.add_argument("--ambient", choices=("finset", "presheaf"),
                         default="finset")
    ambient.add_argument("--base", help="base category file for presheaves")

    job = argparse.ArgumentParser(add_help=False)
    job.add_argument("--generators", required=True,
                     help="diagram file, or 'subobject_classifier'")
    job.add_argument("--map", required=True, help="the map to process")
    job.add_argument("--backdrop", choices=("all", "mono"), default="all")
    job.add_argument("--max-steps", type=int, default=None)

    p = argparse.ArgumentParser(
        prog="garnet",
        description="algebraic small object argument over finite ambients")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", parents=[shared, ambient],
                       help="check categories, presheaves, or diagrams")
    v.add_argument("--generators")
    v.add_argument("--category")
    v.add_argument("--presheaf")

    sub.add_parser("factorize", parents=[shared, ambient, job],
                   help="factor a map and emit its trace")

    li = sub.add_parser("lift", parents=[shared, ambient, job],
                        help="search coherent lifting structures")
    li.add_argument("--mode", choices=("first", "count", "all"),
                    default="all")

    so = sub.add_parser("solve", parents=[shared, ambient, job],
                        help="read one filler off a lifting structure")
    so.add_argument("--problem", required=True,
                    help="file with index, top, bottom")

    sub.add_parser("laws", parents=[shared, ambient, job],
                   help="run the full law suite at a map")

    tv = sub.add_parser("trace-verify", parents=[shared],
                        help="recheck an emitted factorize report")
    tv.add_argument("--report", required=True)

    rp = sub.add_parser("replay", parents=[shared],
                        help="re-run a trace under a functor")
    rp.add_argument("--report", required=True)
    rp.add_argument("--functor", choices=("identity", "times2"),
                    default="identity")
    rp.add_argument("--witnesses", help="generator witness file")

    sub.add_parser("quillen", parents=[shared, ambient, job],
                   help="cell-by-cell factorization without quotients")

    sub.add_parser("rlp", parents=[shared, ambient, job],
                   help="check plain fillers against the generators")
    return p


def _emit(args, code, report, human):
    body = {"format": FORMAT, "command": args.command}
    body.update(report)
    for line in human:
        print(line)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh, _exact_ints():
            json.dump(body, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, report, human = _DISPATCH[args.command](args)
    except EnumerationCap as exc:
        return _emit(args, EXIT_CAP,
                     {"error": {"kind": "EnumerationCap",
                                "message": str(exc)}},
                     [f"enumeration cap exceeded: {exc}"])
    except IterationLimit as exc:
        return _emit(args, EXIT_LIMIT,
                     {"error": {"kind": "IterationLimit",
                                "message": str(exc)}},
                     [f"iteration limit: {exc}"])
    except (GarnetError, OSError, json.JSONDecodeError,
            UnicodeDecodeError) as exc:
        return _emit(args, EXIT_INVALID,
                     {"error": {"kind": type(exc).__name__,
                                "message": str(exc)}},
                     [f"invalid input: {exc}"])
    except AssertionError as exc:
        return _emit(args, EXIT_INTERNAL,
                     {"error": {"kind": "AssertionError",
                                "message": str(exc)}},
                     [f"internal invariant breach: {exc}"])
    return _emit(args, code, report, human)


if __name__ == "__main__":
    sys.exit(main())
