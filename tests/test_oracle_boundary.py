"""The training loop's modules never import the statevector oracle."""

import ast
from pathlib import Path

import pytest

import gatelearn

PACKAGE = Path(gatelearn.__file__).resolve().parent
FAST_PATH = ("parameter", "backaction", "feedback", "grover", "qft", "harness", "optimize", "cli")


def imported_names(module):
    """Absolute names of everything ``gatelearn.<module>`` imports, anywhere in its code."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # the package is flat, so a relative import is relative to gatelearn
            base = ".".join(filter(None, ["gatelearn" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def imports_oracle(module):
    return any(
        name == "gatelearn.oracle" or name.startswith("gatelearn.oracle.")
        for name in imported_names(module)
    )


def test_selftest_imports_the_oracle():
    # the parser sees the imports it is meant to catch
    assert imports_oracle("selftest")


@pytest.mark.parametrize("module", FAST_PATH)
def test_fast_path_never_imports_the_oracle(module):
    assert not imports_oracle(module)
