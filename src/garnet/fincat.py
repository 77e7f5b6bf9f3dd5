"""Finite categories presented by full composition tables.

Index categories for generator diagrams and base categories for presheaves
are tiny, so categories are stored extensionally: every morphism is listed,
identities are explicit under the reserved names ``id_<object>``, and
composition is a total table on composable pairs.  Law checking is
exhaustive and report-valued, and the constructor refuses a category that
breaks the laws with the whole report, so every category is lawful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MalformedInput
from .finset import cached_hash


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


def identity_name(obj: str) -> str:
    return f"id_{obj}"


class FinCategory:
    """A lawful finite category; identities are auto-inserted when missing."""

    def __init__(self, objects, morphisms, compose):
        self.objects: tuple[str, ...] = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise MalformedInput("duplicate object names")
        listed = [m if isinstance(m, Morphism) else Morphism(*m) for m in morphisms]
        idents = [Morphism(identity_name(x), x, x) for x in self.objects]
        by_name = {m.name: m for m in idents}
        ordered = list(idents)
        for m in listed:
            if m.dom not in self.objects or m.cod not in self.objects:
                raise MalformedInput(f"morphism {m.name!r} has dangling endpoint")
            if m.name in by_name:
                if by_name[m.name] != m:
                    raise MalformedInput(f"conflicting entries for {m.name!r}")
                continue
            by_name[m.name] = m
            ordered.append(m)
        self.morphisms: tuple[Morphism, ...] = tuple(ordered)
        self._by_name = by_name
        self._compose: dict[tuple[str, str], str] = {}
        for (g, f), h in dict(compose).items():
            for name in (g, f, h):
                if name not in by_name:
                    raise MalformedInput(f"compose table references {name!r}")
            self._compose[(g, f)] = h
        # identity composites are forced; fill them in
        for m in self.morphisms:
            self._compose.setdefault((identity_name(m.cod), m.name), m.name)
            self._compose.setdefault((m.name, identity_name(m.dom)), m.name)
        self._key = (self.objects, self.morphisms,
                     tuple(sorted(self._compose.items())))
        self._non_identity = tuple(m for m in self.morphisms
                                   if not self.is_identity(m.name))
        problems = validate_category(self)
        if problems:
            raise MalformedInput("; ".join(problems))

    def __eq__(self, other):
        return isinstance(other, FinCategory) and self._key == other._key

    __hash__ = cached_hash

    def __repr__(self):
        return (f"FinCategory({len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")

    def morphism(self, name: str) -> Morphism:
        if name not in self._by_name:
            raise MalformedInput(f"unknown morphism {name!r}")
        return self._by_name[name]

    def has_morphism(self, name: str) -> bool:
        return name in self._by_name

    def composable(self, g: str, f: str) -> bool:
        return self.morphism(f).cod == self.morphism(g).dom

    def compose(self, g: str, f: str) -> str:
        """Name of g after f."""
        if not self.composable(g, f):
            raise MalformedInput(f"{g!r} after {f!r} is not composable")
        return self._compose[(g, f)]

    def is_identity(self, name: str) -> bool:
        m = self.morphism(name)
        return name == identity_name(m.dom) and m.dom == m.cod

    def hom(self, x: str, y: str) -> list[str]:
        return [m.name for m in self.morphisms if m.dom == x and m.cod == y]

    def non_identity_morphisms(self) -> tuple[Morphism, ...]:
        return self._non_identity


def discrete_category(objects) -> FinCategory:
    return FinCategory(objects, [], {})


def validate_category(cat: FinCategory) -> list[str]:
    """Every violated axiom instance; empty means valid."""
    report = []
    for x in cat.objects:
        if not cat.has_morphism(identity_name(x)):
            report.append(f"missing identity for object {x!r}")
    for g in cat.morphisms:
        for f in cat.morphisms:
            if f.cod != g.dom:
                if (g.name, f.name) in cat._compose:
                    report.append(f"compose defined for non-composable pair "
                                  f"({g.name!r}, {f.name!r})")
                continue
            if (g.name, f.name) not in cat._compose:
                report.append(f"compose missing for ({g.name!r}, {f.name!r})")
                continue
            h = cat.morphism(cat._compose[(g.name, f.name)])
            if h.dom != f.dom or h.cod != g.cod:
                report.append(f"composite {h.name!r} of ({g.name!r}, {f.name!r}) "
                              f"has wrong endpoints")
    for f in cat.morphisms:
        left = cat._compose.get((identity_name(f.cod), f.name))
        right = cat._compose.get((f.name, identity_name(f.dom)))
        if left is not None and left != f.name:
            report.append(f"left identity law fails at {f.name!r}")
        if right is not None and right != f.name:
            report.append(f"right identity law fails at {f.name!r}")
    for h in cat.morphisms:
        for g in cat.morphisms:
            if g.cod != h.dom:
                continue
            for f in cat.morphisms:
                if f.cod != g.dom:
                    continue
                gf = cat._compose.get((g.name, f.name))
                hg = cat._compose.get((h.name, g.name))
                if gf is None or hg is None:
                    continue  # reported as missing above
                outer_left = cat._compose.get((h.name, gf))
                outer_right = cat._compose.get((hg, f.name))
                if outer_left is None or outer_right is None:
                    continue
                if outer_left != outer_right:
                    report.append(f"associativity fails at "
                                  f"({h.name!r}, {g.name!r}, {f.name!r})")
    return report


# -- serialization ----------------------------------------------------------

def category_to_json(cat: FinCategory) -> dict:
    morphisms = [{"name": m.name, "dom": m.dom, "cod": m.cod}
                 for m in cat.non_identity_morphisms()]
    compose = [{"g": g, "f": f, "eq": h}
               for (g, f), h in sorted(cat._compose.items())
               if not (cat.is_identity(g) or cat.is_identity(f))]
    return {"objects": list(cat.objects), "morphisms": morphisms,
            "compose": compose}


def category_from_json(data) -> FinCategory:
    if not isinstance(data, dict):
        raise MalformedInput("category must be an object")
    for key in ("objects", "morphisms"):
        if key not in data:
            raise MalformedInput(f"category is missing field {key!r}")
    for key in ("objects", "morphisms", "compose"):
        if not isinstance(data.get(key, []), list):
            raise MalformedInput(f"category {key!r} must be a list")
    if not all(isinstance(x, str) for x in data["objects"]):
        raise MalformedInput("category objects must be strings")
    morphisms = []
    for entry in data["morphisms"]:
        names = _names(entry, ("name", "dom", "cod"))
        if names is None:
            raise MalformedInput(f"bad morphism entry {entry!r}")
        morphisms.append(Morphism(*names))
    compose = {}
    for entry in data.get("compose", []):
        names = _names(entry, ("g", "f", "eq"))
        if names is None:
            raise MalformedInput(f"bad compose entry {entry!r}")
        g, f, h = names
        compose[(g, f)] = h
    return FinCategory(data["objects"], morphisms, compose)


def _names(entry, keys):
    """The strings an entry holds at keys, or None if it is not an object
    holding a string at each."""
    if isinstance(entry, dict) \
            and all(isinstance(entry.get(k), str) for k in keys):
        return [entry[k] for k in keys]
    return None
