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


def test_one_operator_set_for_the_sum_types():
    # _lincomb.Combination owns the linear operators. No other class writes
    # __sub__, __rmul__, __neg__ or coefficient_sum, and no Combination
    # writes any operator of the set: __add__ may only be bound to the base's,
    # so the tracer finds it in the class's own __dict__. GroupWord.__len__,
    # a word's length, is not a combination operator.
    from fticalc import _lincomb as lc
    from fticalc.chords import DiagramSum
    from fticalc.exterior import MultiVector

    linear = {"__sub__", "__rmul__", "__neg__", "coefficient_sum"}
    shared = linear | {"__add__", "__eq__", "__len__", "_check"}
    combinations = set()
    for path in sorted((ROOT / "src" / "fticalc").glob("*.py")):
        if path.name == "_lincomb.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            if "lc.Combination" in map(ast.unparse, node.bases):
                combinations.add(node.name)
                assert not defined & shared, "%s.%s defines %s" % (path.name, node.name, defined & shared)
            assert not defined & linear, "%s.%s defines %s" % (path.name, node.name, defined & linear)
    assert combinations == {"DiagramSum", "FormalSum", "MultiVector", "TruncatedSeries", "LaurentPoly"}
    assert DiagramSum.__dict__["__add__"] is MultiVector.__dict__["__add__"] is lc.Combination.__add__
