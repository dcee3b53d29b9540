"""Record the seeded output digests that ``run.py`` compares against for drift.

Run from the root of a source checkout, at the commit whose outputs are
the reference:

    python3 benchmarks/record_reference.py

For each workload and seed 1-10 it runs the first few operations exactly
as ``run.py`` does and writes their output digests (sha256 of ``runs.csv``,
or of the improvement-table rows) to ``benchmarks/reference.json``.
Drift against this file is information only, never a failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR.parent / ".bench_out"
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

SEEDS = range(1, 11)
#: operations recorded per seed: most of what one 20-second run makes
OPERATIONS = {"search-walk": 10, "fourier-train": 4, "phase-table": 1, "fourier-2axis": 4}


def main() -> None:
    reference = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name, spec in workloads.WORKLOADS.items():
        spec.warm_up()
        # the optimizer ignores the seed, so one record ("*") serves every seed
        seeds = ["*"] if name == "phase-table" else SEEDS
        for seed in seeds:
            digests = []
            for index in range(OPERATIONS[name]):
                with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                    produced = spec.run_op(0 if seed == "*" else seed, index, Path(tmp))
                    problems, result = spec.check_op(produced, Path(tmp))
                if problems:
                    raise SystemExit(f"{name} seed {seed} operation {index}: {problems}")
                digests.append(result.digest)
            reference.setdefault(name, {})[str(seed)] = digests
            print(name, seed, digests, flush=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
