"""Outside-in tracing of the garnet package.

The tracer replaces the package's public functions and methods with
wrappers for the length of a traced pass, then puts the originals back.
Nothing inside the package changes.

* A module-level function is replaced at *every* module global bound to
  it, because `from .finset import compose` in presheaf.py (and the
  density imports in awfs.py) are separate bindings that patching only the
  defining module would miss.
* Methods are replaced on their class.
* Hot leaves (`finset.compose`, `FinFunction` and `Square` construction)
  are aggregated into counters instead of keeping one span each.
* Counters only read what the wrapped call returned or what its own
  children reported (list lengths, tuple sizes); they never call back
  into the package.

Self time of a layer is its span's duration minus the time covered by its
child spans; time in code that is not wrapped lands in the nearest wrapped
ancestor.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class _Frame:
    __slots__ = ("child", "notes", "name", "sid")

    def __init__(self, name, sid):
        self.child = 0.0
        self.notes = None
        self.name = name
        self.sid = sid


def _note(frame, kind, n):
    if frame.notes is None:
        frame.notes = defaultdict(list)
    frame.notes[kind].append(n)


class Tracer:
    """Spans, per-layer aggregates and counters for one traced pass."""

    def __init__(self):
        self.stack = [_Frame("root", -1)]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.by_kind = defaultdict(float)    # (job kind, layer) -> self s
        self.counts = defaultdict(int)
        self.spans = []                      # [name, parent, job, start, end]
        self.sites = defaultdict(list)       # layer -> patched bindings
        self.job_kind = None
        self.job_id = None
        self._undo = []

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self, name, keep):
        sid = -1
        t0 = perf_counter()
        if keep:
            sid = len(self.spans)
            self.spans.append([name, self.stack[-1].sid, self.job_id, t0,
                               None])
        frame = _Frame(name, sid)
        self.stack.append(frame)
        return frame, t0

    def _exit(self, frame, t0):
        end = perf_counter()
        dur = end - t0
        self.stack.pop()
        self.stack[-1].child += dur
        own = dur - frame.child
        self.calls[frame.name] += 1
        self.self_s[frame.name] += own
        self.by_kind[(self.job_kind, frame.name)] += own
        if frame.sid >= 0:
            self.spans[frame.sid][4] = end

    @contextmanager
    def job(self, job_id, kind):
        """One benchmark job: the root span that all its spans hang under."""
        self.job_id, self.job_kind = job_id, kind
        frame, t0 = self._enter(f"job.{kind}", True)
        try:
            yield
        finally:
            self._exit(frame, t0)
            self.job_id = self.job_kind = None

    # -- wrappers ----------------------------------------------------------------

    def timed(self, fn, name, keep=True, after=None):
        """Wrap fn in a span; `after(frame, result)` may add counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            frame, t0 = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, t0)
            if after is not None:
                after(frame, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, counter):
        """Count calls to fn without timing them (hot constructors)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def noted(self, fn, counter, kind):
        """Pass-through for an inner hom: report the length of the list it
        returned to the calling span, and count the elements."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            n = len(result)
            tracer.counts[counter] += n
            _note(tracer.stack[-1], kind, n)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------------

    def patch_function(self, module, attr, layer, make):
        """Replace module.attr at every garnet module global bound to it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for modname in sorted(sys.modules):
            if modname != "garnet" and not modname.startswith("garnet."):
                continue
            mod = sys.modules[modname]
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))
                    self.sites[layer].append(f"{modname}.{name}")
        if not self.sites[layer]:
            raise RuntimeError(f"no binding found for {layer}")

    def patch_method(self, cls, attr, layer, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))
        self.sites[layer].append(f"{cls.__module__}.{cls.__qualname__}."
                                 f"{attr}")

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def install(self, garnet):
        """Patch every traced entry point of the package."""
        fs, fc, psh = garnet.finset, garnet.fincat, garnet.presheaf
        arrows, dn, fm = garnet.arrows, garnet.density, garnet.freemonad
        awfs, cli = garnet.awfs, garnet.cli
        counts = self.counts
        T, C = self.timed, self.counted

        # finset
        self.patch_method(fs.FinFunction, "__post_init__",
                          "finset.functions_built",
                          lambda f: C(f, "finset.functions_built"))
        self.patch_function(fs, "compose", "finset.compose",
                            lambda f: T(f, "finset.compose", keep=False))

        def enumerated(frame, result):
            counts["finset.enumerate.functions"] += len(result)
            _note(self.stack[-1], "enum", len(result))
        self.patch_function(fs, "enumerate_functions", "finset.enumerate",
                            lambda f: T(f, "finset.enumerate", keep=False,
                                        after=enumerated))
        for op in ("pushout", "coequalizer", "coproduct",
                   "sequential_colimit"):
            self.patch_function(fs, op, f"finset.{op}",
                                lambda f, op=op: T(f, f"finset.{op}"))

        # fincat
        self.patch_method(fc.FinCategory, "__init__", "fincat.category",
                          lambda f: T(f, "fincat.category"))

        # presheaf
        def enumerated_maps(frame, result):
            candidates = 1
            for n in (frame.notes or {}).get("enum", ()):
                candidates *= n
            counts["presheaf.hom.candidates"] += candidates
            counts["presheaf.hom.accepted"] += len(result)
        self.patch_function(psh, "enumerate_maps", "presheaf.enumerate_maps",
                            lambda f: T(f, "presheaf.enumerate_maps",
                                        after=enumerated_maps))
        for op in ("presheaf_pushout", "presheaf_coproduct",
                   "presheaf_coequalizer", "presheaf_sequential_colimit"):
            self.patch_function(psh, op, "presheaf.colimit",
                                lambda f: T(f, "presheaf.colimit"))

        # arrows: the inner homs report their list lengths to the caller
        for cls in (arrows.FinSetAmbient, arrows.PresheafAmbient):
            self.patch_method(cls, "hom", "arrows.inner_hom",
                              lambda f: self.noted(f, "arrows.inner_hom.maps",
                                                   "hom"))

        def squares(frame, result):
            # one inner hom for the tops, then one bottom hom per top
            counts["arrows.hom.candidates"] += sum(
                (frame.notes or {}).get("hom", ())[1:])
            counts["arrows.hom.accepted"] += len(result)
        self.patch_method(arrows.ArrowAmbient, "hom", "arrows.hom",
                          lambda f: T(f, "arrows.hom", after=squares))
        for op in ("pushout", "coproduct", "coequalizer",
                   "sequential_colimit"):
            self.patch_method(arrows.ArrowAmbient, op, "arrows.colimit",
                              lambda f: T(f, "arrows.colimit"))
        self.patch_method(arrows.Square, "__post_init__", "arrows.square",
                          lambda f: C(f, "arrows.square.built"))

        # density
        def comma(frame, result):
            counts["density.comma.objects"] += len(result.problems)
            counts["density.comma.morphisms"] += len(result.over)
        self.patch_function(dn, "comma_category", "density.comma",
                            lambda f: T(f, "density.comma", after=comma))
        self.patch_function(dn, "density_comonad", "density.comonad",
                            lambda f: T(f, "density.comonad"))
        self.patch_function(dn, "density_action", "density.action",
                            lambda f: T(f, "density.action"))
        self.patch_function(dn, "lifting_problems", "density.problems",
                            lambda f: T(f, "density.problems"))

        # freemonad
        self.patch_function(fm, "qoppa_step", "freemonad.qoppa_step",
                            lambda f: T(f, "freemonad.qoppa_step"))

        def stages(frame, result):
            counts["freemonad.stages"] += len(result.trace.stages)
        self.patch_function(fm, "free_algebra", "freemonad.free_algebra",
                            lambda f: T(f, "freemonad.free_algebra",
                                        after=stages))
        self.patch_function(fm, "algebra_extend", "freemonad.algebra_extend",
                            lambda f: T(f, "freemonad.algebra_extend"))

        # awfs: session memo, the session's jobs, lifting, traces
        def memo(original):
            def wrapper(session, key, thunk):
                missed = []

                def run():
                    missed.append(True)
                    return thunk()
                result = original(session, key, run)
                counts["awfs.memo.lookups"] += 1
                counts["awfs.memo.misses"] += len(missed)
                return result
            wrapper.__wrapped__ = original
            return wrapper
        self.patch_method(arrows.Session, "memo", "awfs.memo", memo)
        for meth in ("factorize", "law_suite", "one_step"):
            self.patch_method(awfs.GeneratedAWFS, meth, f"awfs.{meth}",
                              lambda f, meth=meth: T(f, f"awfs.{meth}"))

        def lifted(frame, result):
            counts["awfs.lift.filler_candidates"] += sum(
                (frame.notes or {}).get("hom", ()))
            if isinstance(result, bool):
                return
            counts["awfs.lift.structures"] += (
                result if isinstance(result, int) else len(result))
        for fn in ("find_lifting_structures", "has_rlp"):
            self.patch_function(awfs, fn, "awfs.lift",
                                lambda f: T(f, "awfs.lift", after=lifted))
        self.patch_function(awfs, "verify_trace", "awfs.verify",
                            lambda f: T(f, "awfs.verify"))
        for fn in ("trace_to_json", "trace_from_json"):
            self.patch_function(awfs, fn, "awfs.json",
                                lambda f: T(f, "awfs.json"))

        # cli (the golden check)
        self.patch_function(cli, "main", "cli.main",
                            lambda f: T(f, "cli.main"))


# Per-layer metrics reported by a traced run: name -> (unit, source).
# A source is ("calls", layer), ("self", layer), ("count", counter) or
# ("ratio" or "hits", numerator counter, denominator counter); "hits" takes
# the numerator as the misses of the lookups in the denominator.
LAYER_METRICS = {
    "finset.functions_built": ("count", ("count", "finset.functions_built")),
    "finset.compose.calls": ("count", ("calls", "finset.compose")),
    "finset.compose.self_s": ("s", ("self", "finset.compose")),
    "finset.enumerate.functions": ("count",
                                   ("count", "finset.enumerate.functions")),
    "finset.pushout.calls": ("count", ("calls", "finset.pushout")),
    "finset.pushout.self_s": ("s", ("self", "finset.pushout")),
    "finset.coequalizer.calls": ("count", ("calls", "finset.coequalizer")),
    "finset.coequalizer.self_s": ("s", ("self", "finset.coequalizer")),
    "finset.coproduct.calls": ("count", ("calls", "finset.coproduct")),
    "finset.coproduct.self_s": ("s", ("self", "finset.coproduct")),
    "finset.sequential_colimit.calls": ("count", ("calls",
                                        "finset.sequential_colimit")),
    "finset.sequential_colimit.self_s": ("s", ("self",
                                         "finset.sequential_colimit")),
    "fincat.category.calls": ("count", ("calls", "fincat.category")),
    "fincat.category.self_s": ("s", ("self", "fincat.category")),
    "presheaf.enumerate_maps.calls": ("count", ("calls",
                                      "presheaf.enumerate_maps")),
    "presheaf.enumerate_maps.self_s": ("s", ("self",
                                       "presheaf.enumerate_maps")),
    "presheaf.hom.candidates": ("count", ("count",
                                "presheaf.hom.candidates")),
    "presheaf.hom.accepted": ("count", ("count", "presheaf.hom.accepted")),
    "presheaf.hom.accept_ratio": ("ratio", ("ratio", "presheaf.hom.accepted",
                                  "presheaf.hom.candidates")),
    "presheaf.colimit.calls": ("count", ("calls", "presheaf.colimit")),
    "presheaf.colimit.self_s": ("s", ("self", "presheaf.colimit")),
    "arrows.hom.calls": ("count", ("calls", "arrows.hom")),
    "arrows.hom.self_s": ("s", ("self", "arrows.hom")),
    "arrows.hom.candidates": ("count", ("count", "arrows.hom.candidates")),
    "arrows.hom.accepted": ("count", ("count", "arrows.hom.accepted")),
    "arrows.hom.accept_ratio": ("ratio", ("ratio", "arrows.hom.accepted",
                                "arrows.hom.candidates")),
    "arrows.square.built": ("count", ("count", "arrows.square.built")),
    "arrows.colimit.self_s": ("s", ("self", "arrows.colimit")),
    "density.comma.calls": ("count", ("calls", "density.comma")),
    "density.comma.self_s": ("s", ("self", "density.comma")),
    "density.comma.objects": ("count", ("count", "density.comma.objects")),
    "density.comma.morphisms": ("count", ("count",
                                "density.comma.morphisms")),
    "density.comonad.calls": ("count", ("calls", "density.comonad")),
    "density.comonad.self_s": ("s", ("self", "density.comonad")),
    "density.action.calls": ("count", ("calls", "density.action")),
    "density.action.self_s": ("s", ("self", "density.action")),
    "freemonad.qoppa_step.calls": ("count", ("calls",
                                   "freemonad.qoppa_step")),
    "freemonad.qoppa_step.self_s": ("s", ("self", "freemonad.qoppa_step")),
    "freemonad.stages": ("count", ("count", "freemonad.stages")),
    "freemonad.algebra_extend.calls": ("count", ("calls",
                                       "freemonad.algebra_extend")),
    "freemonad.algebra_extend.self_s": ("s", ("self",
                                        "freemonad.algebra_extend")),
    "awfs.memo.lookups": ("count", ("count", "awfs.memo.lookups")),
    "awfs.memo.misses": ("count", ("count", "awfs.memo.misses")),
    "awfs.memo.hit_ratio": ("ratio", ("hits", "awfs.memo.misses",
                            "awfs.memo.lookups")),
    "awfs.lift.calls": ("count", ("calls", "awfs.lift")),
    "awfs.lift.self_s": ("s", ("self", "awfs.lift")),
    "awfs.lift.filler_candidates": ("count", ("count",
                                    "awfs.lift.filler_candidates")),
    "awfs.lift.structures": ("count", ("count", "awfs.lift.structures")),
    "awfs.verify.calls": ("count", ("calls", "awfs.verify")),
    "awfs.verify.self_s": ("s", ("self", "awfs.verify")),
    "awfs.json.self_s": ("s", ("self", "awfs.json")),
    "awfs.factorize.self_s": ("s", ("self", "awfs.factorize")),
    "awfs.law_suite.self_s": ("s", ("self", "awfs.law_suite")),
    "awfs.one_step.self_s": ("s", ("self", "awfs.one_step")),
    "cli.main.self_s": ("s", ("self", "cli.main")),
}


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metric values of a finished traced pass."""
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        how = source[0]
        if how == "calls":
            value = tr.calls.get(source[1], 0)
        elif how == "self":
            value = tr.self_s.get(source[1], 0.0)
        elif how == "count":
            value = tr.counts.get(source[1], 0)
        else:
            num = tr.counts.get(source[1], 0)
            den = tr.counts.get(source[2], 0)
            if how == "hits":
                num = den - num
            value = num / den if den else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
