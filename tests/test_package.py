"""Repository-level guards: a stdlib-only runtime and a README that runs."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_runtime_imports_only_stdlib():
    sources = sorted((ROOT / "src" / "fticalc").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names, "%s imports %s" % (path.name, name)


def test_runtime_has_no_assert():
    # invariants raise real exceptions: python -O strips assert statements
    sources = sorted((ROOT / "src" / "fticalc").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), "%s:%d asserts" % (path.name, node.lineno)


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
