"""The acceptance suite's ``--master-seed`` and ``--criteria-json`` options.

``pytest tests/test_acceptance.py -s --master-seed 1`` reruns criterion 1
and the search and Fourier training sweeps (criteria 4 and 6) at seed 1.
``--criteria-json PATH`` also writes every criterion line the run
printed, as ``{"master_seed": ..., "criteria": [{"criterion", "passed",
"detail"}, ...]}`` in the order the criteria ran; ``passed`` is null for a
target, which reports without gating.
"""

import json

import pytest

#: the default master seed; the feedback protocols were chosen on its runs
MASTER_SEED = 20260808

_CRITERIA = pytest.StashKey[list]()


def pytest_addoption(parser):
    parser.addoption(
        "--master-seed", type=int, default=MASTER_SEED,
        help=f"master seed of the acceptance ensembles (default {MASTER_SEED})",
    )
    parser.addoption(
        "--criteria-json", metavar="PATH", default=None,
        help="write each acceptance criterion's pass flag and detail line to PATH as JSON",
    )


def pytest_configure(config):
    config.stash[_CRITERIA] = []


def pytest_sessionfinish(session):
    path = session.config.getoption("--criteria-json")
    if path is not None:
        record = {
            "master_seed": session.config.getoption("--master-seed"),
            "criteria": session.config.stash[_CRITERIA],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")


@pytest.fixture(scope="session")
def acceptance_seed(request):
    return request.config.getoption("--master-seed")


@pytest.fixture
def report(request):
    """Print one criterion line, PASS, FAIL or (``passed`` None) TARGET, and record it."""
    criteria = request.config.stash[_CRITERIA]

    def report(criterion, passed, detail):
        flag = None if passed is None else bool(passed)
        label = "TARGET" if flag is None else "PASS" if flag else "FAIL"
        print(f"{label} {criterion}: {detail}")
        criteria.append({"criterion": criterion, "passed": flag, "detail": detail})
        return passed

    return report
