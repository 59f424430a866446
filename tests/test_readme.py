"""The README's library quick start runs as written, every name its API paragraph gives resolves,
so does every `maxplus_sylvester.…` name anywhere in it, and its command-line section names
exactly the parser's flags."""

import argparse
import ast
import importlib
import re
from pathlib import Path

from maxplus_sylvester.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_its_comments_hold():
    # statements run in order; an expression line whose comment starts
    # with a literal ("report.solvable  # True") must evaluate to it
    block = quick_start_block()
    lines = block.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        source = ast.get_source_segment(block, node)
        line = lines[node.end_lineno - 1]
        comment = line.split("#", 1)[1].split("—")[0].strip()
        assert eval(source, namespace) == ast.literal_eval(comment), line
        checked += 1
    assert checked >= 3


def test_root_exports_resolve():
    import maxplus_sylvester

    assert all(hasattr(maxplus_sylvester, name) for name in maxplus_sylvester.__all__)


def resolve(dotted: str):
    """The object a dotted name refers to: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_api_paragraph_names_resolve():
    # a sentence that names `maxplus_sylvester.<module>` (or an object in
    # it) lists attributes of that; a sentence that names none lists root
    # exports, so a module or name the package drops fails here
    text = README.read_text()
    start = text.index("The package root exports")
    paragraph = text[start:text.index("\n\n", start)]
    checked = set()
    for sentence in re.split(r"\.\s+", paragraph):
        names = re.findall(r"`([A-Za-z_][\w.]*)`", sentence)
        dotted = [name for name in names if name.startswith("maxplus_sylvester.")]
        owner = resolve(dotted[0]) if dotted else resolve("maxplus_sylvester")
        for name in names:
            if name in dotted:
                resolve(name)
            else:
                assert hasattr(owner, name), f"README names {name!r}, which {owner!r} lacks"
            checked.add(name)
    assert {"max_plus_matmul", "unvec", "NEG_INF", "format_scalar", "maxplus_sylvester.opcount.semiring_ops"} <= checked


def test_every_dotted_package_name_resolves():
    # outside the API paragraph too: a section that names a module attribute
    # the package has dropped fails here
    names = set(re.findall(r"`(maxplus_sylvester(?:\.\w+)+)`", README.read_text()))
    for name in names:
        resolve(name)
    assert {"maxplus_sylvester.oracle.SIZE_CAP", "maxplus_sylvester.ckernel"} <= names


def test_command_line_section_names_exactly_the_parsers_flags():
    text = README.read_text()
    start = text.index("## Command line")
    section = text[start:text.index("\n## ", start + 1)]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        flag
        for command in sub.choices.values()
        for action in command._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented - options == set(), "README names flags the parser lacks"
    assert options - documented == set(), "parser flags missing from the README"
