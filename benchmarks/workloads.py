"""Benchmark workloads: fixed, seeded inputs for gatelearn's public entry points.

Each workload knows how to run one timed operation, how to check that
operation's outputs with cheap independent invariants (outside the timed
region), and what its cold set-up is.  The workloads and why each exists
are documented in ``benchmarks/README.md``.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gatelearn import (
    AqftInstance,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    average_success,
    average_success_map,
    harness,
    improvement_table,
    reference_max_success,
    success_probability_map,
    trial_success_amplitude,
    uniform_init,
)

#: absolute tolerance for closed-form and consistency checks
TOL = 1e-12


@dataclass(frozen=True)
class OpResult:
    """What one operation produced: its work items, a digest and its quality."""

    items: int
    digest: str
    quality: float
    passes: int = 0
    trials: int = 0


@dataclass(frozen=True)
class Training:
    """Seeded training ensembles, written out the way ``gatelearn grover/aqft`` does.

    One operation is ``run_ensemble`` over ``runs_per_op`` runs plus the
    three writers of the command line; its work items are the runs.
    """

    name: str
    problem: GroverInstance | AqftInstance
    grid_size: int
    runs_per_op: int
    iterations: int = 120

    item_unit = "runs"
    quality_name = "mean_final_ratio"

    def config(self, master_seed: int) -> ExperimentConfig:
        # the command line's defaults, which scale the push with the grid
        feedback = FeedbackConfig(initial_push_cells=max(1, self.grid_size // 32))
        return ExperimentConfig(
            problem=self.problem,
            iterations=self.iterations,
            runs=self.runs_per_op,
            grid_size=self.grid_size,
            feedback=feedback,
            master_seed=master_seed,
        )

    def cold_setup(self) -> None:
        harness.target_success(self.config(0))

    def warm_up(self) -> None:
        self.cold_setup()

    def run_op(self, seed: int, index: int, out_dir: Path):
        config = self.config(seed * 1000 + index)
        summary, results = harness.run_ensemble(config, threads=1)
        harness.write_runs_csv(results, out_dir / "runs.csv")
        harness.write_summary_json(
            summary, out_dir / "summary.json", extra={"problem": repr(self.problem)}
        )
        harness.write_histogram_csv(summary, out_dir / "histogram.csv")
        return config, summary

    def check_op(self, produced, out_dir: Path):
        """(problems, OpResult) from the written files and the returned summary."""
        config, summary = produced
        problems = []
        with open(out_dir / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != config.runs * config.iterations:
            problems.append(f"runs.csv has {len(rows)} records, expected "
                            f"{config.runs * config.iterations}")
        finals = {}
        passes = np.zeros(config.runs, dtype=int)
        for row in rows:
            run = int(row["run"])
            value = float(row["expected_success"])
            if not 0.0 <= value <= summary.target_success + TOL:
                problems.append(f"run {run} expected success {value} outside [0, target]")
            if int(row["iteration"]) == config.iterations:
                finals[run] = value
            passes[run] += row["outcome"] == "pass"
        final_values = np.array([finals.get(run, np.nan) for run in range(config.runs)])
        if summary.runs != config.runs or summary.iterations != config.iterations:
            problems.append("summary run or iteration count disagrees with the config")
        if not np.array_equal(summary.final_values, final_values):
            problems.append("summary final values disagree with runs.csv")
        if not np.array_equal(summary.pass_counts, passes):
            problems.append("summary pass counts disagree with runs.csv")
        if abs(summary.mean_final - final_values.mean()) > TOL:
            problems.append("summary mean_final is not the mean of the final values")
        if summary.mean_final > summary.target_success + TOL:
            problems.append("mean_final exceeds target_success")
        written = json.loads((out_dir / "summary.json").read_text())
        if written["mean_final"] != summary.mean_final:
            problems.append("summary.json mean_final differs from the returned summary")
        with open(out_dir / "histogram.csv", newline="") as fh:
            fractions = [float(row["fraction"]) for row in csv.DictReader(fh)]
        if abs(sum(fractions) - 1.0) > 1e-9:
            problems.append(f"histogram fractions sum to {sum(fractions)}")
        result = OpResult(
            items=config.runs,
            digest=_digest((out_dir / "runs.csv").read_bytes()),
            quality=summary.mean_final / summary.target_success,
            passes=int(passes.sum()),
            trials=len(rows),
        )
        return problems, result

    def check_reference(self):
        """Closed-form checks of the problem tables that every operation uses."""
        config = self.config(0)
        target = harness.target_success(config)
        grid = uniform_init(self.grid_size)
        if isinstance(self.problem, GroverInstance):
            at_pi = success_probability_map(self.problem, grid)[self.grid_size // 2]
            closed = reference_max_success(self.problem.n_elements)
            if abs(at_pi - closed) > TOL:
                return [f"search success at phi=pi is {at_pi}, closed form {closed}"]
            if target < closed - TOL:
                return [f"target_success {target} below the phi=pi success {closed}"]
            return []
        # Fourier: the grid's best cell, by the product form, against the
        # statevector average over every input k
        axes = [grid.axis_values(0)] * self.problem.band
        cells = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        success = average_success_map(self.problem, cells)
        best = self.problem.with_phases(cells[int(np.argmax(success))])
        simulated = np.mean([
            abs(trial_success_amplitude(best, k)[0][k]) ** 2 for k in range(best.dim)
        ])
        problems = []
        if abs(success.max() - target) > TOL:
            problems.append(f"target_success {target} is not the success-map maximum")
        if abs(simulated - success.max()) > TOL:
            problems.append(
                f"product-form success {success.max()} differs from the statevector "
                f"average {simulated}"
            )
        return problems


@dataclass(frozen=True)
class PhaseTable:
    """The optimized-phase improvement table, as ``gatelearn table1`` computes it.

    One operation is one ``improvement_table`` call; its work items are
    the feasible cells.  The optimizer uses no randomness, so the seed
    does not change the inputs.
    """

    name: str
    qubits: tuple
    bands: tuple

    item_unit = "cells"
    quality_name = "table_optimum_mean"

    def cold_setup(self) -> None:
        n, band = max(self.qubits), max(self.bands)
        average_success(AqftInstance.standard(n, min(band, n - 1)))

    def warm_up(self) -> None:
        for n in self.qubits:
            for band in self.bands:
                if band <= n - 1:
                    average_success(AqftInstance.standard(n, band))

    def run_op(self, seed: int, index: int, out_dir: Path):
        return improvement_table(list(self.qubits), list(self.bands))

    def check_op(self, rows, out_dir: Path):
        problems = []
        expected = {(n, b) for n in self.qubits for b in self.bands}
        if {(row["n_qubits"], row["band"]) for row in rows} != expected:
            problems.append("table rows do not cover the requested cells")
        vouched = []
        for row in rows:
            n, band = row["n_qubits"], row["band"]
            if band > n - 1:
                continue
            baseline = average_success(AqftInstance.standard(n, band))
            if row["baseline"] is None or abs(row["baseline"] - baseline) > TOL:
                problems.append(f"cell ({n},{band}) baseline {row['baseline']} != {baseline}")
                continue
            if row["optimum"] is None:
                vouched.append(row["baseline"])
                continue
            at_best = average_success(AqftInstance(n, band, row["best_phases"]))
            if row["optimum"] < row["baseline"]:
                problems.append(f"cell ({n},{band}) optimum below baseline")
            if abs(row["optimum"] - at_best) > TOL:
                problems.append(
                    f"cell ({n},{band}) optimum {row['optimum']} != success at best_phases {at_best}"
                )
            vouched.append(row["optimum"])
        result = OpResult(
            items=len(vouched),
            digest=_digest(repr(sorted(rows, key=lambda r: (r["n_qubits"], r["band"]))).encode()),
            quality=float(np.mean(vouched)) if vouched else 0.0,
        )
        return problems, result

    def check_reference(self):
        return []


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (
        Training("search-walk", GroverInstance.standard(10000), grid_size=256, runs_per_op=10),
        Training("fourier-train", AqftInstance.standard(10, 1), grid_size=256, runs_per_op=1),
        PhaseTable("phase-table", qubits=(6, 8, 10), bands=(1, 2, 3)),
        Training("fourier-2axis", AqftInstance.standard(6, 2), grid_size=64, runs_per_op=1),
    )
}

#: the same workloads at toy sizes, for the benchmark's own smoke tests
TINY = {
    w.name: w
    for w in (
        Training("search-walk", GroverInstance.standard(64), grid_size=32, runs_per_op=2,
                 iterations=20),
        Training("fourier-train", AqftInstance.standard(4, 1), grid_size=32, runs_per_op=1,
                 iterations=10),
        PhaseTable("phase-table", qubits=(4,), bands=(1, 2)),
        Training("fourier-2axis", AqftInstance.standard(4, 2), grid_size=16, runs_per_op=1,
                 iterations=10),
    )
}
