"""Print one sha256 per output file of a fixed set of seeded ``gatelearn`` commands.

    python tools/output_digests.py [TREE]

Each command runs as ``python -m gatelearn`` in a fresh interpreter with
``TREE/src`` (default: this checkout) first on the path, writing into a
temporary directory.  ``manifest.json`` is hashed without its
``environment`` block, which records the machine rather than the run.
Two trees write byte-identical outputs when their listings are equal,
so ``diff <(python tools/output_digests.py A) <(python tools/output_digests.py B)``
is the byte-identity check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: experiment commands, each writing runs.csv, summary.json, histogram.csv and manifest.json
EXPERIMENTS = [
    "grover --n-elements 10000 --runs 10 --seed 3",
    "grover --n-elements 200 --strategy single-push --runs 10 --seed 4",
    "aqft --qubits 10 --band 1 --runs 4 --seed 3",
    "aqft --qubits 6 --band 2 --grid-size 64 --runs 3 --seed 5",
    "aqft --qubits 7 --band 2 --grid-size 32 --runs 5 --seed 8 --strategy single-push",
    "grover --n-elements 1024 --runs 6 --seed 5 --no-kickstart",
    "aqft --qubits 8 --band 1 --runs 3 --seed 6 --no-kickstart",
]
#: commands writing one CSV file
TABLES = [
    "table1",
    "table1 --qubits 6,8,10 --bands 1,2,3",
]


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        manifest.pop("environment", None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def output_digests(tree: Path) -> list:
    """``(digest, command, file name)`` for every output file, in command order."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        for i, command in enumerate(EXPERIMENTS + TABLES):
            out = Path(scratch) / str(i)
            target = out if command in EXPERIMENTS else out / "table1.csv"
            argv = [sys.executable, "-m", "gatelearn", *command.split(), "--out", str(target)]
            subprocess.run(argv, env=env, cwd=scratch, check=True, stdout=subprocess.DEVNULL)
            files = sorted(target.iterdir()) if target.is_dir() else [target]
            rows += [(_digest(path), command, path.name) for path in files]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=ROOT,
                        help="source checkout whose src/ to run (default: this one)")
    args = parser.parse_args(argv)
    if not (args.tree / "src" / "gatelearn").is_dir():
        parser.error(f"{args.tree} has no src/gatelearn")
    for digest, command, name in output_digests(args.tree.resolve()):
        print(f"{digest}  {command} -> {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
