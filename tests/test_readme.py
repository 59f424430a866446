"""The README's library quick start runs as written, and every root export resolves."""

import ast
import re
from pathlib import Path

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
