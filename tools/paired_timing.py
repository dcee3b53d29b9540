"""Paired in-process timing of two source trees on one training shape.

    python tools/paired_timing.py TREE_A TREE_B --shape S --rounds R

Each tree's ``src/gatelearn`` is copied into a temporary directory under
its own package name (the package's imports are relative), so one
interpreter imports both.  A shape's config is a training workload's of
``benchmarks/workloads.py`` in this checkout, made again from each
tree's own classes.  One operation is ``run_ensemble`` on it plus the
three writers of the command line, as a benchmark training operation
is.  Each round runs the shape's operations
on both trees, on the same seeds, and alternates which tree goes first;
CPU time is read with ``time.process_time``.  The report gives each
tree's median ms per operation, the median of the per-round ratios B/A
and the rounds B won.  Pairs in one process share its warm caches and
its share of the machine, so they resolve smaller gaps than runs of the
benchmark in separate processes; they do not replace those runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.workloads import WORKLOADS, Training  # noqa: E402
from gatelearn import AqftInstance, FeedbackConfig, GroverInstance  # noqa: E402


@dataclass(frozen=True)
class Shape:
    """A training workload, an optional feedback in place of its own, and operations per round."""

    workload: Training
    ops_per_round: int
    feedback: FeedbackConfig | None = None

    def config(self, package, master_seed: int):
        """The workload's config, rebuilt from ``package``'s own classes."""
        config = self.workload.config(master_seed)
        if self.feedback is not None:
            config = dataclasses.replace(config, feedback=self.feedback)
        return _rebuild(config, package)


def _rebuild(value, package):
    """``value``, with each dataclass in it made again by ``package``'s class of that name."""
    if not dataclasses.is_dataclass(value):
        return value
    cls = getattr(package, type(value).__name__)
    return cls(**{f.name: _rebuild(getattr(value, f.name), package)
                  for f in dataclasses.fields(value) if f.init})


#: the benchmark's training workloads; criterion 6's 100-run ensemble shape; and
#: criterion 4's single push, the one shape whose failed runs take a single push
SHAPES = {
    "search-walk": Shape(WORKLOADS["search-walk"], ops_per_round=5),
    "fourier-train": Shape(WORKLOADS["fourier-train"], ops_per_round=5),
    "fourier-2axis": Shape(WORKLOADS["fourier-2axis"], ops_per_round=3),
    "ensemble-100": Shape(Training("ensemble-100", AqftInstance.standard(8, 1), grid_size=256,
                                   runs_per_op=100), ops_per_round=1),
    "single-push": Shape(Training("single-push", GroverInstance.standard(1024), grid_size=256,
                                  runs_per_op=200), ops_per_round=1,
                         feedback=FeedbackConfig(strategy="single_push", initial_push_cells=16,
                                                 push_asymmetry=0.5)),
}


def load_tree(tree: Path, name: str, workdir: Path):
    """Import ``tree/src/gatelearn`` as the package ``name``, copied into ``workdir``."""
    shutil.copytree(tree / "src" / "gatelearn", workdir / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    _unload([name])  # a copy loaded by an earlier call
    sys.path.insert(0, str(workdir))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(workdir))


def _unload(names) -> None:
    """Drop the packages ``names`` and their modules from ``sys.modules``."""
    for module in [m for m in sys.modules if m.split(".")[0] in names]:
        del sys.modules[module]


def operation(package, shape: Shape, master_seed: int, out_dir: Path) -> None:
    """One timed operation: the ensemble and its three output files."""
    harness = package.harness
    config = shape.config(package, master_seed)
    summary, batch = harness.run_ensemble(config)
    harness.write_runs_csv(batch, out_dir / "runs.csv")
    harness.write_summary_json(summary, out_dir / "summary.json",
                               extra={"problem": repr(config.problem)})
    harness.write_histogram_csv(summary, out_dir / "histogram.csv")


def _round_ms(package, shape: Shape, round_index: int, out_dir: Path) -> float:
    gc.collect()
    start = time.process_time()
    for op in range(shape.ops_per_round):
        operation(package, shape, round_index * 1000 + op, out_dir)
    return (time.process_time() - start) * 1e3 / shape.ops_per_round


def paired_rounds(tree_a: Path, tree_b: Path, shape: Shape, rounds: int) -> list:
    """``(ms_a, ms_b)`` per operation for each round; tree A goes first in odd rounds."""
    names = ("gatelearn_a", "gatelearn_b")
    with tempfile.TemporaryDirectory() as workdir:
        workdir = Path(workdir)
        try:
            packages = [load_tree(tree, name, workdir)
                        for tree, name in zip((tree_a, tree_b), names)]
            for package in packages:  # unmeasured: builds each tree's cached trial tables
                operation(package, shape, 0, workdir)
            pairs = []
            for r in range(1, rounds + 1):
                order = (0, 1) if r % 2 else (1, 0)
                ms = {side: _round_ms(packages[side], shape, r, workdir) for side in order}
                pairs.append((ms[0], ms[1]))
        finally:  # the copies' directory is about to go
            _unload(names)
    return pairs


def report(pairs: list) -> list:
    """The report's lines: each tree's median, the median ratio B/A and B's wins."""
    ratios = [b / a for a, b in pairs]
    wins = sum(ratio < 1.0 for ratio in ratios)
    return [
        f"A median {statistics.median(a for a, _ in pairs):.2f} ms/op",
        f"B median {statistics.median(b for _, b in pairs):.2f} ms/op",
        f"B/A median paired ratio {statistics.median(ratios):.3f};"
        f" B faster in {wins} of {len(pairs)} rounds",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="source checkout A (the parent)")
    parser.add_argument("tree_b", type=Path, help="source checkout B (the change)")
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--rounds", type=int, default=15, help="paired rounds (default 15)")
    args = parser.parse_args(argv)
    for tree in (args.tree_a, args.tree_b):
        if not (tree / "src" / "gatelearn").is_dir():
            parser.error(f"{tree} has no src/gatelearn")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    shape = SHAPES[args.shape]
    print(f"{args.shape}: {args.rounds} rounds of {shape.ops_per_round} operations;"
          f" A = {args.tree_a}, B = {args.tree_b}")
    for line in report(paired_rounds(args.tree_a.resolve(), args.tree_b.resolve(),
                                     shape, args.rounds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
