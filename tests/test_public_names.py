"""Every public name the package defines has a caller in the package, or is a root export.

A public function, class or constant that only tests use still has to be
documented and kept working, and it reads as part of the API; this check
fails on one, so such a name goes with its last caller.
"""

import ast
from pathlib import Path

import maxplus_sylvester

PACKAGE = Path(maxplus_sylvester.__file__).parent


def public_definitions(tree: ast.Module):
    """Names of the module-level functions, classes and constants without a leading ``_``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def references(tree: ast.Module) -> set[str]:
    """Every name the module loads, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    defined = {f"{module}.{name}": name for module, tree in trees.items() for name in public_definitions(tree)}
    assert "matrix.max_plus_matmul" in defined and "solver.DEFAULT_TOLERANCE" in defined
    uncalled = [qualified for qualified, name in defined.items()
                if name not in used and name not in maxplus_sylvester.__all__]
    assert uncalled == []
