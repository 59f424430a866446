"""Every function the C sources export is bound by ``ckernel.Library``, and every binding is exported.

A function left behind in C when its Python binding goes is still compiled,
documented and kept working for no caller; a binding whose C function went
fails only at load, where the loader then falls back to numpy.  The check
compares the sources' non-``static`` function definitions with the names
``Library.__init__`` reads off the loaded library as ``cdll.<name>``.
"""

import ast
import inspect
import re

from maxplus_sylvester import ckernel

# a definition at file scope: a type and a name at the start of a line, the
# parameters, and the body's brace, with no ';' between them
DEFINITION = re.compile(r"^(?!static\b|typedef\b)[A-Za-z_][\w \*]*?\b([A-Za-z_]\w*)\s*\([^;{]*\)\s*\{", re.M)


def exported(source: str) -> set[str]:
    """Names of the functions ``source`` defines without ``static``, comments removed."""
    source = re.sub(r"/\*.*?\*/|//[^\n]*", "", source, flags=re.S)
    return set(DEFINITION.findall(source))


def bound() -> set[str]:
    """Names ``Library.__init__`` reads as attributes of its ``cdll`` argument."""
    tree = ast.parse(inspect.getsource(ckernel.Library.__init__).strip())
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cdll"}


def test_every_c_export_is_bound_and_every_binding_is_exported():
    headers = sorted(ckernel.SOURCES[0].parent.glob("*.h"))
    exports = set().union(*(exported(path.read_text()) for path in [*ckernel.SOURCES, *headers]))
    assert {"maxplus_product", "scan_matrix"} <= exports and "scratch" not in exports
    assert exports == bound()


def test_the_scan_finds_only_definitions_without_static():
    source = ("/* int commented(void) { } */\n"
              "static int hidden(int a) { return a; }\n"
              "int declared(int a);\n"
              "ptrdiff_t spread(const double *a,\n"
              "                 ptrdiff_t n)\n"
              "{\n"
              "    return n;\n"
              "}\n"
              "const char *named(void) { return 0; }\n")
    assert exported(source) == {"spread", "named"}
