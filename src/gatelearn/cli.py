"""Command-line front end.

Subcommands::

    grover        train the search oracle phase and write ensemble data
    aqft          train the banded Fourier phases likewise
    table1        optimized-phase improvement table as CSV
    grover-curve  ideal-search reference curve as CSV
    selftest      quick internal consistency checks

Every experiment writes ``manifest.json`` with the fully resolved
configuration (defaults included), so re-running a command with the
recorded values reproduces the data files byte for byte.  Its
``environment`` block records the Python, numpy and scipy versions, the
CPU count and the BLAS/OpenMP thread variables of the run.  Output is
CSV/JSON for external plotting; no plotting code lives here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from . import __version__
from .feedback import STRATEGIES, FeedbackConfig
from .grover import GroverInstance
from .harness import (
    ExperimentConfig,
    run_ensemble,
    write_histogram_csv,
    write_runs_csv,
    write_summary_json,
)
from .optimize import grover_reference_curve, improvement_table, improvement_table_csv
from .qft import AqftInstance

__all__ = ["parse_and_dispatch", "main"]

#: thread-pool variables of the BLAS and OpenMP runtimes numpy may load
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _int_list(text: str):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--iterations", type=int, default=ExperimentConfig.iterations,
                        help="training iterations per run")
    parser.add_argument("--runs", type=int, default=200, help="ensemble size")
    parser.add_argument("--grid-size", type=int, default=None,
                        help=f"parameter grid cells per axis (default {ExperimentConfig.grid_size};"
                             " 64 for two-phase training)")
    parser.add_argument("--strategy", choices=[s.replace("_", "-") for s in STRATEGIES],
                        default=FeedbackConfig.strategy.replace("_", "-"))
    parser.add_argument("--push-initial", type=int, default=None,
                        help="initial push magnitude in cells (default grid/32)")
    parser.add_argument("--push-asymmetry", type=float, default=FeedbackConfig.push_asymmetry,
                        help="leftward/rightward push magnitude ratio (default %(default)s)")
    parser.add_argument("--walk-x", type=float, default=FeedbackConfig.walk_strength,
                        help="walk strength cap x = lambda*dt/hbar, any finite value >= 0;"
                             " the walk is applied exactly (default %(default)s)")
    parser.add_argument("--walk-floor", type=float, default=FeedbackConfig.walk_floor,
                        help="walk strength right after a success (default %(default)s)")
    parser.add_argument("--walk-escalation", type=float, default=FeedbackConfig.walk_escalation,
                        help="consecutive failures per walk-strength doubling; 0 = constant"
                             " (default %(default)s)")
    parser.add_argument("--no-kickstart", action="store_true",
                        help="disable the inversion about the mean (on the first failure, "
                             "and for double-push search on every failure before the first pass)")
    parser.add_argument("--seed", type=int, default=ExperimentConfig.master_seed, help="master seed")
    parser.add_argument("--snapshot-chi", action="store_true",
                        help="record per-iteration |chi|^2 snapshots (large)")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatelearn",
        description="Train quantum-circuit phases by measurement back-action and feedback.",
    )
    parser.add_argument("--version", action="version", version=f"gatelearn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grover", help="train the search oracle phase")
    g.add_argument("--n-elements", type=int, required=True, help="search-space size")
    _add_experiment_flags(g)
    g.set_defaults(handler=_cmd_grover)

    a = sub.add_parser("aqft", help="train banded Fourier-transform phases")
    a.add_argument("--qubits", type=int, required=True)
    a.add_argument("--band", type=int, default=1, help="trained phase count (1 or 2)")
    _add_experiment_flags(a)
    a.set_defaults(handler=_cmd_aqft)

    t = sub.add_parser("table1", help="optimized-phase improvement table")
    t.add_argument("--qubits", type=_int_list, default=[6, 8, 10, 12, 14])
    t.add_argument("--bands", type=_int_list, default=[1, 2, 3])
    t.add_argument("--out", type=Path, required=True, help="output CSV file")
    t.set_defaults(handler=_cmd_table1)

    c = sub.add_parser("grover-curve", help="ideal-search reference curve")
    c.add_argument("--n-elements", type=_int_list,
                   default=[16, 64, 200, 1024, 4096, 10000])
    c.add_argument("--out", type=Path, required=True, help="output CSV file")
    c.set_defaults(handler=_cmd_grover_curve)

    sub.add_parser("selftest", help="run quick internal consistency checks").set_defaults(
        handler=_cmd_selftest)
    return parser


def _experiment_config(args: argparse.Namespace, problem) -> ExperimentConfig:
    two_axis = isinstance(problem, AqftInstance) and problem.band == 2
    default_grid = 64 if two_axis else ExperimentConfig.grid_size
    grid_size = default_grid if args.grid_size is None else args.grid_size
    feedback = FeedbackConfig(
        strategy=args.strategy.replace("-", "_"),
        initial_push_cells=(
            args.push_initial if args.push_initial is not None else max(1, grid_size // 32)
        ),
        walk_strength=args.walk_x,
        kickstart_enabled=not args.no_kickstart,
        push_asymmetry=args.push_asymmetry,
        walk_floor=args.walk_floor,
        walk_escalation=args.walk_escalation,
    )
    return ExperimentConfig(
        problem=problem,
        iterations=args.iterations,
        runs=args.runs,
        grid_size=grid_size,
        feedback=feedback,
        master_seed=args.seed,
        snapshot_chi=args.snapshot_chi,
    )


def _environment() -> dict:
    """Interpreter, library versions and thread settings a run used; unset variables are null."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "thread_vars": {name: os.environ.get(name) for name in _THREAD_VARS},
    }


def _manifest(args: argparse.Namespace, config: ExperimentConfig, problem_desc: dict) -> dict:
    """Every config field, with the problem as the command describes it."""
    return dataclasses.asdict(config) | {
        "version": __version__,
        "command": args.command,
        "problem": problem_desc,
        "environment": _environment(),
    }


def _run_experiment(args: argparse.Namespace, problem, problem_desc: dict) -> int:
    config = _experiment_config(args, problem)
    out_dir: Path = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    summary, batch = run_ensemble(config)
    write_runs_csv(batch, out_dir / "runs.csv")
    write_summary_json(summary, out_dir / "summary.json", extra={"problem": problem_desc})
    write_histogram_csv(summary, out_dir / "histogram.csv")
    if config.snapshot_chi:
        np.save(out_dir / "chi_snapshots.npy", batch.chi_snapshots)
    manifest = _manifest(args, config, problem_desc)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"{args.command}: {config.runs} runs x {config.iterations} iterations -> {out_dir}"
        f" (mean final success {summary.mean_final:.4f},"
        f" target {summary.target_success:.4f})"
    )
    return 0


def _cmd_grover(args: argparse.Namespace) -> int:
    problem = GroverInstance.standard(args.n_elements)
    desc = {
        "kind": "grover",
        "n_elements": problem.n_elements,
        "iterations_deep": problem.iterations,
    }
    return _run_experiment(args, problem, desc)


def _cmd_aqft(args: argparse.Namespace) -> int:
    problem = AqftInstance.standard(args.qubits, args.band)
    desc = {"kind": "aqft", "qubits": problem.n_qubits, "band": problem.band}
    return _run_experiment(args, problem, desc)


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = improvement_table(args.qubits, args.bands)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(improvement_table_csv(rows))
    filled = sum(row["improvement_percent"] is not None for row in rows)
    print(f"table1: {filled}/{len(rows)} cells optimized -> {args.out}")
    return 0


def _cmd_grover_curve(args: argparse.Namespace) -> int:
    if not args.n_elements:
        raise ValueError("--n-elements needs at least one value")
    rows = grover_reference_curve(args.n_elements)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["target_overlap,n_elements,max_success"]
    for row in rows:
        lines.append(
            f"{row['target_overlap']!r},{row['n_elements']},{row['max_success']!r}"
        )
    args.out.write_text("\n".join(lines) + "\n")
    print(f"grover-curve: {len(rows)} points -> {args.out}")
    return 0


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return run_selftest()


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments, run the requested command, return the exit status.

    Configuration errors print a one-line diagnostic and yield exit
    status 2 (same as argparse usage errors).
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"gatelearn {args.command}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch())


if __name__ == "__main__":
    main()
