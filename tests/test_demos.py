"""The demos import only names the package has.

Some demos run too long for the test suite, so their imports are read
from the source, not executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_every_fddkit_name_a_demo_imports_exists(demo):
    imported = 0
    for node in ast.walk(ast.parse(demo.read_text(), str(demo))):
        if isinstance(node, ast.ImportFrom) and \
                node.module.split(".")[0] == "fddkit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module} has no {alias.name}"
                imported += 1
    assert imported
