"""The training loop's modules never import the statevector oracle, no
module starts threads or processes (every ensemble runs as one batch),
``import gatelearn`` never loads scipy (the oracle imports it when called),
and wavefunctions are plain arrays outside the benchmark-facing modules."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gatelearn

PACKAGE = Path(gatelearn.__file__).resolve().parent
FAST_PATH = ("parameter", "backaction", "feedback", "grover", "qft", "productform", "harness",
             "optimize", "cli")


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


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_no_module_imports_a_worker_pool(module):
    pools = {"concurrent", "threading", "multiprocessing"}
    assert not {name.split(".")[0] for name in imported_names(module)} & pools


@pytest.mark.parametrize("module", sorted(
    p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("parameter", "grover", "__init__")
))
def test_only_benchmark_facing_modules_import_the_grid_handle(module):
    # ParameterState and uniform_init remain for the benchmark's reference checks
    handles = {f"gatelearn{part}.{name}" for part in ("", ".parameter")
               for name in ("ParameterState", "uniform_init")}
    assert not imported_names(module) & handles


def test_package_import_loads_no_scipy():
    # scipy.linalg alone costs more to import than all of gatelearn
    code = "import sys, gatelearn; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    # run from the source tree so that the fresh interpreter imports this checkout
    done = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
