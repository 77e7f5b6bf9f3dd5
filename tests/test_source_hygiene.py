"""The package's imports: each module-level import is used, and imports
inside functions are only the ones that break the import cycle between
``arrows`` and the two base modules, ``finset`` and ``presheaf``.

Read with the standard library's ``ast``, without importing the package.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "garnet")
MODULES = sorted(name[:-3] for name in os.listdir(SRC)
                 if name.endswith(".py"))

# module-level imports that nothing in the module reads: presheaf keeps
# finset's compose because the benchmark's tests read garnet.presheaf.compose
UNUSED_ALLOWED = {("presheaf", "compose")}

# the function-local imports, by module and enclosing function: arrows
# imports finset and presheaf, so these import arrows when they run
LOCAL_ALLOWED = {("finset", "Colimit.ambient"),
                 ("finset", "sequential_colimit"),
                 ("presheaf", "presheaf_colimit"),
                 ("presheaf", "presheaf_sequential_colimit")}


def parse(module):
    with open(os.path.join(SRC, module + ".py")) as fh:
        return ast.parse(fh.read())


def bound_names(node):
    """The names an import statement binds; a ``__future__`` import binds
    none that code reads."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(alias.asname or alias.name.split(".")[0]) for alias in node.names]


def read_names(tree):
    """Every name the module reads: as an expression, in a string
    annotation such as ``"Backdrop | None"``, or listed in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args)
                     if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for text in (c.value for note in notes if note is not None
                     for c in ast.walk(note) if isinstance(c, ast.Constant)
                     and isinstance(c.value, str)):
            names.update(n.id for n in ast.walk(ast.parse(text, mode="eval"))
                         if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def local_imports(tree):
    """(enclosing qualified name, import statement) for every import that
    is not a statement of the module body itself."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + (child.name,))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if scope or node is not tree:
                    found.append((".".join(scope), child))
            else:
                visit(child, scope)
    visit(tree, ())
    return found


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = parse(module)
    used = read_names(tree)
    unused = [name for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in bound_names(node)
              if name not in used and (module, name) not in UNUSED_ALLOWED]
    assert unused == []


def test_allowed_unused_imports_are_still_there():
    for module, name in UNUSED_ALLOWED:
        assert name in {n for node in parse(module).body
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                        for n in bound_names(node)}


def test_only_the_cycle_breaking_imports_are_local():
    found = {(module, scope) for module in MODULES
             for scope, _ in local_imports(parse(module))}
    assert found == LOCAL_ALLOWED
