"""Run-measure-verify-feedback training loops and seeded ensembles.

One learning run repeats, for a fixed number of iterations: build the
per-grid-cell outcome data of a fresh trial, sample one projective
outcome (which filters the parameter wavefunction), verify the outcome
classically, and on failure apply the configured feedback.  Every run
is driven by its own random stream, so a (config, seed) pair fixes
every number exactly.

All runs of an ensemble are stepped together: the wavefunctions form
one ``(runs, *grid_shape)`` array, the feedback acts on the rows of the
runs that failed, and the records are ``(runs, iterations)`` columns of
a :class:`RunBatch`.  Each run still makes its own draws in the same
order (the Fourier input k, the one uniform of the outcome draw, then
the dephasing phases after a walk), and every kernel computes a run's
row exactly as it would alone, so no output depends on how many runs
share a batch or on the thread count.

The loop sees a problem only through a small trial protocol (see
:class:`_SearchTrials` and :class:`_FourierTrials`): its
``success_map``, whether it reads out pass/fail only
(``binary_readout``), each run's expected outcome
(``draw_expected(rngs)``), and ``sample(expected, weights, rngs)``,
which draws each run's outcome with one uniform from its stream and
returns the outcomes with their amplitude columns.  Search trials
reuse the fixed uniform input every iteration and draw from one shared
pass/fail table (:func:`backaction.outcome_table`) with
:func:`backaction.sample_batch`.  Fourier trials draw a fresh target
index k per run and iteration, and draw the outcome bit by bit from the
circuit's closed product form (:meth:`qft.ProductFormTrials.draw`); the
gate-by-gate simulation in :mod:`gatelearn.oracle` is not run in the
loop and serves as the tests' oracle.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .backaction import (
    PASS,
    _check_sums,
    distribution_batch,
    filter_batch,
    outcome_table,
    sample_batch,
)
from .feedback import FeedbackConfig, on_failure_batch
from .grover import GroverInstance, _amplitudes_for_phases
from .parameter import (
    checked_success_map,
    distribution_variance_batch,
    expected_success_batch,
    uniform_init,
)
from .qft import AqftInstance, ProductFormTrials, average_success_map

__all__ = [
    "ExperimentConfig",
    "RunBatch",
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


@dataclass(frozen=True, eq=False)
class RunBatch:
    """Records of a batch of runs, one ``(runs, iterations)`` array per column.

    Row i is run i; column j is iteration j + 1.  ``measured_index`` is
    -1 where the trial is read out as pass/fail only (search).
    ``chi_snapshots`` holds |chi|^2 after every iteration, shape
    ``(runs, iterations, *grid_shape)``, when the config asks for it.
    """

    passed: np.ndarray
    measured_index: np.ndarray
    expected_success: np.ndarray
    circular_variance: np.ndarray
    feedback_action: np.ndarray
    chi_snapshots: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return self.passed.shape[0]

    @property
    def iterations(self) -> int:
        return self.passed.shape[1]

    @classmethod
    def concatenate(cls, batches) -> "RunBatch":
        """The runs of several batches, in order, as one batch."""
        columns = [[getattr(b, f.name) for b in batches] for f in fields(cls)]
        return cls(*(None if c[0] is None else np.concatenate(c) for c in columns))


# ---------------------------------------------------------------------------
# the trial protocol: one object per (problem, grid), shared by every run


class _SearchTrials:
    """Search: every trial reads pass/fail off one shared binary amplitude table."""

    binary_readout = True

    def __init__(self, instance: GroverInstance, grid_size: int):
        t, u = _amplitudes_for_phases(instance, uniform_init(grid_size).axis_values(0))
        self.success_map = checked_success_map(np.abs(t) ** 2, (grid_size,))
        self.success_map.flags.writeable = False  # checked once, shared by every run
        self._table, self._columns = outcome_table([t, u])  # outcome PASS, then fail

    def draw_expected(self, rngs) -> np.ndarray:
        return np.full(len(rngs), PASS)

    def sample(self, expected, weights: np.ndarray, rngs):
        outcomes = sample_batch(distribution_batch(weights, self._table), rngs)
        return outcomes, self._columns[outcomes]


class _FourierTrials:
    """Fourier: each run draws its input k and reads out the full register."""

    binary_readout = False

    def __init__(self, instance: AqftInstance, grid_size: int):
        shape = (grid_size,) * instance.band
        axes = [uniform_init(grid_size).axis_values(0)] * instance.band
        mesh = np.meshgrid(*axes, indexing="ij")
        phase_grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
        success = average_success_map(instance, phase_grid).reshape(shape)
        self.success_map = checked_success_map(success, shape)
        self.success_map.flags.writeable = False  # checked once, shared by every run
        self._dim = instance.dim
        self._trials = ProductFormTrials(instance, phase_grid, shape)

    def draw_expected(self, rngs) -> np.ndarray:
        return np.array([int(rng.integers(self._dim)) for rng in rngs])

    def sample(self, expected, weights: np.ndarray, rngs):
        totals = weights.sum(axis=1).tolist()
        _check_sums(totals)
        targets = [rng.random() * total for rng, total in zip(rngs, totals)]
        outcomes, _, columns = self._trials.draw(expected, weights, targets)
        return outcomes, columns


@lru_cache(maxsize=64)
def _trials(problem, grid_size: int):
    """The trial protocol object of a problem on a grid (built once, read-only)."""
    if isinstance(problem, GroverInstance):
        return _SearchTrials(problem, grid_size)
    return _FourierTrials(problem, grid_size)


def target_success(config: ExperimentConfig) -> float:
    """Best deployable success on the configured grid (the training target)."""
    return float(_trials(config.problem, config.grid_size).success_map.max())


# ---------------------------------------------------------------------------
# the training loop


def _run_batch(config: ExperimentConfig, seeds) -> RunBatch:
    """Train one run per seed, all runs stepped together."""
    trials = _trials(config.problem, config.grid_size)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    runs, iterations = len(rngs), config.iterations
    start = uniform_init(config.grid_shape)
    chi = np.repeat(start.amplitudes[None], runs, axis=0)
    probs = np.abs(chi) ** 2

    passed = np.empty((runs, iterations), dtype=bool)
    measured = np.full((runs, iterations), -1)
    success = np.empty((runs, iterations))
    variance = np.empty((runs, iterations))
    actions = np.full((runs, iterations), "none", dtype=object)
    snapshots = (
        np.empty((runs, iterations) + config.grid_shape) if config.snapshot_chi else None
    )
    successes = np.zeros(runs, dtype=int)
    failures = np.zeros(runs, dtype=int)
    consecutive = np.zeros(runs, dtype=int)
    for it in range(iterations):
        expected = trials.draw_expected(rngs)
        outcomes, columns = trials.sample(expected, probs.reshape(runs, -1), rngs)
        chi = filter_batch(chi, columns)
        ok = outcomes == expected
        failed = np.flatnonzero(~ok)
        if failed.size:
            # a slice when every run failed: views instead of gathered copies
            rows = slice(None) if failed.size == runs else failed
            chi[rows], actions[rows, it] = on_failure_batch(
                chi[rows],
                successes[rows],
                failures[rows],
                consecutive[rows],
                config.feedback,
                [rngs[i] for i in failed],
                binary_readout=trials.binary_readout,
            )
        successes += ok
        failures += ~ok
        consecutive = np.where(ok, 0, consecutive + 1)

        probs = np.abs(chi) ** 2
        passed[:, it] = ok
        if not trials.binary_readout:
            measured[:, it] = outcomes
        success[:, it] = expected_success_batch(probs, trials.success_map)
        variance[:, it] = distribution_variance_batch(probs, start.domains)
        if snapshots is not None:
            snapshots[:, it] = probs
    return RunBatch(passed, measured, success, variance, actions, snapshots)


def run_learning(config: ExperimentConfig, run_seed) -> RunBatch:
    """Execute one seeded training trajectory, as a batch of one run.

    Its rows are bit for bit the row the same seed gives inside any
    larger batch.
    """
    return _run_batch(config, [run_seed])


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

    Per-run seeds are spawned from the master seed.  With ``threads`` >
    1 the runs are split into that many contiguous batches, one per
    worker thread; since a run's numbers do not depend on its batch,
    the thread count never changes an output.  Returns ``(summary,
    batch)`` with the runs in run-index order.
    """
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.runs)
    workers = max(1, min(threads, config.runs))
    if workers > 1:
        chunks = np.array_split(np.arange(config.runs), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            batches = list(
                pool.map(lambda c: _run_batch(config, [seeds[i] for i in c]), chunks)
            )
        batch = RunBatch.concatenate(batches)
    else:
        batch = _run_batch(config, seeds)
    return summarize(config, batch), batch


def summarize(config: ExperimentConfig, batch: RunBatch) -> EnsembleSummary:
    """Build the ensemble summary from a batch of runs in run-index order."""
    target = target_success(config)
    threshold = SUCCESS_FRACTION * target
    expected = batch.expected_success
    finals = expected[:, -1]
    pass_counts = batch.passed.sum(axis=1)

    hits = expected >= threshold
    to_95 = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1.0, math.inf).tolist()

    n_bins = int(round(1.0 / HISTOGRAM_BIN_WIDTH))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    histogram = np.histogram(finals, bins=edges)[0] / batch.runs

    trained = finals[pass_counts > 0]
    return EnsembleSummary(
        runs=batch.runs,
        iterations=config.iterations,
        target_success=target,
        mean_curve=expected.mean(axis=0),
        median_curve=np.median(expected, axis=0),
        variance_curve=batch.circular_variance.mean(axis=0),
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

def write_runs_csv(batch: RunBatch, path) -> None:
    """All runs' iteration records as one CSV with a leading run column."""
    runs, iterations = batch.passed.shape
    measured = batch.measured_index.ravel()
    columns = (
        np.repeat(np.arange(runs), iterations).tolist(),
        np.tile(np.arange(1, iterations + 1), runs).tolist(),
        np.where(batch.passed, "pass", "fail").ravel().tolist(),
        map(repr, batch.expected_success.ravel().tolist()),
        map(repr, batch.circular_variance.ravel().tolist()),
        batch.feedback_action.ravel().tolist(),
        np.where(measured < 0, "", measured.astype(str)).tolist(),
    )
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
        writer.writerows(zip(*columns))


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
