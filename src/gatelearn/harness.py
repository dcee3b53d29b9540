"""Run-measure-verify-feedback training loops and seeded ensembles.

One learning run repeats, for a fixed number of iterations: build the
per-grid-cell outcome data of a fresh trial, sample one projective
outcome (which filters the parameter wavefunction), verify the outcome
classically, and on failure apply the configured feedback.  Everything
is driven by a single per-run random stream, so a (config, seed) pair
fixes every number exactly, independent of thread count.

Search trials reuse the fixed uniform input every iteration (the
problem instance never changes); Fourier trials draw a fresh target
index k each iteration so the filter sees varied verifications.  A
Fourier trial's outcome distribution and sampled amplitude column come
from the circuit's closed product form (:class:`qft.ProductFormTrials`);
the gate-by-gate statevector simulation is not run in the loop and
serves as the tests' oracle.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .backaction import PASS, OutcomeAmplitudes, sample_and_update
from .feedback import FeedbackConfig, FeedbackHistory, on_failure
from .grover import GroverInstance, success_probability_map, _amplitudes_for_phases
from .parameter import (
    ParameterState,
    distribution_variance,
    expected_success,
    uniform_init,
)
from .qft import AqftInstance, ProductFormTrials, average_success_map

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "RunResult",
    "EnsembleSummary",
    "run_learning",
    "run_ensemble",
    "quantile_analysis",
    "write_runs_csv",
    "write_summary_json",
    "write_histogram_csv",
]

HISTOGRAM_BIN_WIDTH = 0.025
SUCCESS_FRACTION = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    """One training experiment: problem, loop length, ensemble, feedback."""

    problem: GroverInstance | AqftInstance
    iterations: int = 120
    runs: int = 1
    grid_size: int = 256
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    master_seed: int = 0
    snapshot_chi: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        if isinstance(self.problem, AqftInstance) and not 1 <= self.problem.band <= 2:
            raise ValueError("trainable Fourier experiments support band 1 or 2")

    @property
    def n_parameters(self) -> int:
        if isinstance(self.problem, GroverInstance):
            return 1
        return self.problem.band

    @property
    def grid_shape(self) -> tuple:
        return (self.grid_size,) * self.n_parameters


@dataclass(frozen=True)
class TrialRecord:
    """Observable state of one training iteration (1-based)."""

    iteration: int
    outcome: str  # "pass" or "fail"
    measured_index: int | None
    expected_success: float
    circular_variance: float
    feedback_action: str


class RunResult(NamedTuple):
    records: list
    chi_snapshots: np.ndarray | None


# ---------------------------------------------------------------------------
# cached per-problem tables

@lru_cache(maxsize=64)
def _grover_tables(instance: GroverInstance, grid_size: int):
    """(success map, binary outcome amplitudes) for a search problem."""
    grid = uniform_init(grid_size)
    phis = grid.axis_values(0)
    t, u = _amplitudes_for_phases(instance, phis)
    amps = OutcomeAmplitudes.binary(t, u)
    return np.abs(t) ** 2, amps


@lru_cache(maxsize=64)
def _aqft_tables(instance: AqftInstance, grid_size: int):
    """(success map, product-form trial engine) for a Fourier problem."""
    shape = (grid_size,) * instance.band
    axes = [uniform_init(grid_size).axis_values(0) for _ in range(instance.band)]
    mesh = np.meshgrid(*axes, indexing="ij")
    phase_grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
    success = average_success_map(instance, phase_grid).reshape(shape)
    return success, ProductFormTrials(instance, phase_grid, shape)


def _problem_success_map(config: ExperimentConfig) -> np.ndarray:
    if isinstance(config.problem, GroverInstance):
        return _grover_tables(config.problem, config.grid_size)[0]
    return _aqft_tables(config.problem, config.grid_size)[0]


def target_success(config: ExperimentConfig) -> float:
    """Best deployable success on the configured grid (the training target)."""
    return float(_problem_success_map(config).max())


# ---------------------------------------------------------------------------
# single run

def run_learning(config: ExperimentConfig, run_seed) -> RunResult:
    """Execute one seeded training trajectory.

    Returns the per-iteration records and, when ``config.snapshot_chi``
    is set, an (iterations, *grid_shape) array of |chi|^2 snapshots.
    """
    rng = np.random.default_rng(run_seed)
    chi = uniform_init(config.grid_shape)
    success_map = _problem_success_map(config)
    is_grover = isinstance(config.problem, GroverInstance)
    if is_grover:
        _, grover_amps = _grover_tables(config.problem, config.grid_size)
    else:
        _, trials = _aqft_tables(config.problem, config.grid_size)
        dim = config.problem.dim

    records = []
    snapshots = (
        np.empty((config.iterations,) + config.grid_shape) if config.snapshot_chi else None
    )
    history = FeedbackHistory()
    for iteration in range(1, config.iterations + 1):
        if is_grover:
            amps = grover_amps
            expected = PASS
        else:
            expected = int(rng.integers(dim))
            amps = trials.trial(expected)
        measured, chi = sample_and_update(chi, amps, rng)
        passed = measured == expected
        if passed:
            action = "none"
            history = history.after_success()
        else:
            chi, action = on_failure(
                chi, history, config.feedback, rng, binary_readout=is_grover
            )
            history = history.after_failure()
        records.append(
            TrialRecord(
                iteration=iteration,
                outcome="pass" if passed else "fail",
                measured_index=None if is_grover else measured,
                expected_success=expected_success(chi, success_map),
                circular_variance=distribution_variance(chi),
                feedback_action=action,
            )
        )
        if snapshots is not None:
            snapshots[iteration - 1] = chi.probabilities()
    return RunResult(records, snapshots)


# ---------------------------------------------------------------------------
# ensembles

@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate statistics of an ensemble of independent runs."""

    runs: int
    iterations: int
    target_success: float
    mean_curve: np.ndarray
    median_curve: np.ndarray
    variance_curve: np.ndarray
    final_values: np.ndarray
    histogram: np.ndarray
    histogram_edges: np.ndarray
    quantiles: dict
    iterations_to_95: list
    pass_counts: np.ndarray
    mean_final: float
    mean_final_trained: float

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "iterations": self.iterations,
            "target_success": self.target_success,
            "mean_curve": self.mean_curve.tolist(),
            "median_curve": self.median_curve.tolist(),
            "variance_curve": self.variance_curve.tolist(),
            "final_values": self.final_values.tolist(),
            "histogram": self.histogram.tolist(),
            "histogram_edges": self.histogram_edges.tolist(),
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "iterations_to_95": [
                None if math.isinf(v) else int(v) for v in self.iterations_to_95
            ],
            "pass_counts": self.pass_counts.tolist(),
            "mean_final": self.mean_final,
            "mean_final_trained": self.mean_final_trained,
        }


def run_ensemble(config: ExperimentConfig, threads: int = 1) -> tuple:
    """Run ``config.runs`` independent trajectories and aggregate them.

    Per-run seeds are spawned from the master seed, and aggregation is
    ordered by run index, so neither the thread count nor scheduling
    order affects any output number.  Returns
    ``(summary, run_results)`` with run results in run-index order.
    """
    children = np.random.SeedSequence(config.master_seed).spawn(config.runs)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda s: run_learning(config, s), children))
    else:
        results = [run_learning(config, seed) for seed in children]
    return summarize(config, results), results


def summarize(config: ExperimentConfig, results) -> EnsembleSummary:
    """Build the ensemble summary from ordered run results."""
    target = target_success(config)
    threshold = SUCCESS_FRACTION * target
    expected = np.array(
        [[rec.expected_success for rec in run.records] for run in results]
    )
    variance = np.array(
        [[rec.circular_variance for rec in run.records] for run in results]
    )
    finals = expected[:, -1]
    pass_counts = np.array(
        [sum(rec.outcome == "pass" for rec in run.records) for run in results],
        dtype=int,
    )

    to_95 = []
    for row in expected:
        hits = np.nonzero(row >= threshold)[0]
        to_95.append(float(hits[0] + 1) if hits.size else math.inf)

    n_bins = int(round(1.0 / HISTOGRAM_BIN_WIDTH))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    histogram = np.histogram(finals, bins=edges)[0] / len(results)

    trained = finals[pass_counts > 0]
    return EnsembleSummary(
        runs=len(results),
        iterations=config.iterations,
        target_success=target,
        mean_curve=expected.mean(axis=0),
        median_curve=np.median(expected, axis=0),
        variance_curve=variance.mean(axis=0),
        final_values=finals,
        histogram=histogram,
        histogram_edges=edges,
        quantiles={
            q: float(np.quantile(finals, q)) for q in (0.10, 0.25, 0.90)
        },
        iterations_to_95=to_95,
        pass_counts=pass_counts,
        mean_final=float(finals.mean()),
        mean_final_trained=float(trained.mean()) if trained.size else float("nan"),
    )


def quantile_analysis(summaries: dict, quantiles=(0.10, 0.25)) -> list:
    """Iterations needed until a fraction of runs reaches the target band.

    For each labeled summary and each quantile q, reports the smallest
    recorded iteration count T such that at least q of the runs reached
    95% of the target success by iteration T, or None when too few runs
    ever reached it.
    """
    rows = []
    for label, summary in summaries.items():
        row = {"label": label}
        counts = sorted(summary.iterations_to_95)
        for q in quantiles:
            need = math.ceil(q * summary.runs)
            value = counts[need - 1] if need >= 1 and len(counts) >= need else math.inf
            row[q] = None if math.isinf(value) else int(value)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# file output (plot-ready, deterministic formatting)

def write_runs_csv(results, path) -> None:
    """All runs' iteration records as one CSV with a leading run column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "run",
                "iteration",
                "outcome",
                "expected_success",
                "circular_variance",
                "feedback_action",
                "measured_index",
            ]
        )
        for run_index, run in enumerate(results):
            for rec in run.records:
                writer.writerow(
                    [
                        run_index,
                        rec.iteration,
                        rec.outcome,
                        repr(rec.expected_success),
                        repr(rec.circular_variance),
                        rec.feedback_action,
                        "" if rec.measured_index is None else rec.measured_index,
                    ]
                )


def write_summary_json(summary: EnsembleSummary, path, extra: dict | None = None) -> None:
    payload = summary.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_histogram_csv(summary: EnsembleSummary, path) -> None:
    """Final-success histogram in 2.5%-wide bins."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bin_low", "bin_high", "fraction"])
        for lo, hi, frac in zip(
            summary.histogram_edges[:-1], summary.histogram_edges[1:], summary.histogram
        ):
            writer.writerow([repr(float(lo)), repr(float(hi)), repr(float(frac))])
