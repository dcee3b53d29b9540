"""Smoke test of the demos: each runs to completion in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gatelearn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert {path.stem for path in DEMOS} >= {
        "aqft_training_demo",
        "grover_training_demo",
        "measurement_filter_demo",
        "phase_table_demo",
    }


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    # the demos import the same gatelearn the tests do
    src = str(Path(gatelearn.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
