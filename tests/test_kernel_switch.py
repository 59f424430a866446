"""``ckernel.LIBRARY`` is the one switch between the compiled passes and the numpy ones.

Only ``ckernel`` decides which kernel runs.  Every other module makes one
call on the handle, as in ``ckernel.LIBRARY.product(...)``, and never binds
it to a name or compares it, so no module grows a branch of its own on
which implementation it got.
"""

import ast
from pathlib import Path

import maxplus_sylvester

PACKAGE = Path(maxplus_sylvester.__file__).parent


def stray_reads(tree: ast.Module) -> list[int]:
    """Lines that read ``LIBRARY`` other than as the object of a method call."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "LIBRARY":  # from .ckernel import LIBRARY
            lines.append(node.lineno)
        elif ((isinstance(node, ast.Attribute) and node.attr == "LIBRARY")
              or (isinstance(node, ast.Name) and node.id == "LIBRARY")):
            method = parents[node]
            if not (isinstance(method, ast.Attribute) and isinstance(parents[method], ast.Call)
                    and parents[method].func is method):
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_but_ckernel_asks_which_kernel_runs():
    found = {path.name: stray_reads(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "ckernel"}
    assert "matrix.py" in found and "solver.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_flags_a_bound_or_compared_handle():
    flagged = stray_reads(ast.parse(
        "from .ckernel import LIBRARY\n"
        "library = ckernel.LIBRARY\n"
        "if ckernel.LIBRARY is None: pass\n"
        "kernel = ckernel.LIBRARY.product\n"
        "ckernel.LIBRARY.product(p, q)\n"))
    assert flagged == [1, 2, 3, 4]
