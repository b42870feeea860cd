import ast
import types
from pathlib import Path

import sct

# the benchmark, its independent reference and the test helpers
OUTSIDE = {"perfbench", "reference", "helpers"}


def test_all_lists_api_names_only():
    assert len(set(sct.__all__)) == len(sct.__all__)
    for name in sct.__all__:
        assert not isinstance(getattr(sct, name), types.ModuleType), name


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            # `from . import x` names the module x in its aliases
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_package_imports_neither_benchmark_nor_tests():
    seen = set()
    for path in Path(sct.__file__).parent.rglob("*.py"):
        for name in imported_modules(ast.parse(path.read_text(encoding="utf-8"))):
            seen.add(name)
            assert name.split(".")[0] not in OUTSIDE, (path.name, name)
    assert {"graphs", "dataclasses"} <= seen  # the walk reads real imports
