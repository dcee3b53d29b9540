"""Run-measure-verify-feedback training loops and seeded ensembles.

One learning run repeats, for a fixed number of iterations: run a
trial, sample one projective outcome (which filters the parameter
wavefunction), verify the outcome classically, and on failure apply
the configured feedback.  No per-trial outcome table is built: search
trials read one pass/fail table shared by every iteration, and Fourier
trials draw the outcome at a latent parameter cell and build only the
drawn outcome's amplitude column.  Every run is driven by its own
random stream, so a (config, seed) pair fixes every number exactly.

All runs of an ensemble are stepped together: the wavefunctions form
one ``(runs, *grid_shape)`` array, the feedback acts on the rows of the
runs that failed, and the records are ``(runs, iterations)`` columns of
a :class:`RunBatch`.  Work with one value per grid cell is one numpy
operation over the batch; bookkeeping with one value per run (its tally
of passes, failures and consecutive failures, which runs failed, their
action tags) stays in Python scalars, so a batch of one pays no numpy
call for it.  Each run still makes its own draws in the same order:
for a Fourier trial its input k, the uniform of its latent cell and one
call for its n bit uniforms; for a search trial the uniform of its
outcome; then the dephasing phases after a walk.  Every kernel
computes a run's row exactly as it would alone, so no output depends on
how many runs share a batch.

The loop sees a problem only through a small trial protocol (see
:class:`_SearchTrials` and :class:`_FourierTrials`): its
``success_map``, whose shape is the parameter grid's, whether it reads
out pass/fail only (which selects the feedback), and one call per
iteration, ``trial(weights, rngs)``.  Given each run's row of |chi|^2,
that call runs every run's trial and returns ``(passed, measured,
columns, masses)``: whether each run's verification passed, the outcome
index it read out (-1 for a pass/fail readout), the drawn outcome's
amplitude column, shaped like the grid, and the outcome's probability
P(r); :func:`backaction.filter_batch` multiplies the wavefunction by the
column and divides it by sqrt(P(r)).  Search trials reuse the fixed
uniform input every iteration and draw from one shared pass/fail table
(:func:`backaction.outcome_table`) with :func:`backaction.sample_batch`,
and read P(r) off the same distribution row.  Fourier trials draw a
fresh target index k per run and iteration, a latent cell from the
run's |chi|^2 row with :func:`backaction.sample_batch`, and the
outcome's bits at that cell from the circuit's closed product form,
built on the grid's axes (:meth:`productform.ProductFormTrials.draw`),
which also sums P(r); the gate-by-gate simulation in
:mod:`gatelearn.oracle` is not run in the loop and serves as the tests'
oracle.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .backaction import (
    PASS,
    distribution_batch,
    filter_batch,
    outcome_table,
    sample_batch,
)
from .errors import check_integer
from .feedback import FeedbackConfig, next_tallies, on_failure_batch
from .grover import GroverInstance, _amplitudes_for_phases
from .parameter import (
    checked_success_map,
    distribution_variance_batch,
    expected_success_batch,
    grid_points,
)
from .productform import ProductFormTrials
from .qft import AqftInstance, spectrum_on_grid, success_spectrum

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
        if not isinstance(self.problem, (GroverInstance, AqftInstance)):
            raise ValueError(f"problem must be a GroverInstance or an AqftInstance,"
                             f" got {type(self.problem).__name__}")
        for name, low in (("iterations", 1), ("runs", 1), ("grid_size", 2), ("master_seed", 0)):
            value = getattr(self, name)
            check_integer(name, value)
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        if not isinstance(self.feedback, FeedbackConfig):
            raise ValueError(f"feedback must be a FeedbackConfig, got {self.feedback!r}")
        if not isinstance(self.snapshot_chi, bool):
            raise ValueError(f"snapshot_chi must be a bool, got {self.snapshot_chi!r}")
        if isinstance(self.problem, AqftInstance) and not 1 <= self.problem.band <= 2:
            raise ValueError("trainable Fourier experiments support band 1 or 2")


@dataclass(frozen=True, eq=False)
class RunBatch:
    """Records of a batch of runs, one ``(runs, iterations)`` array per column.

    Row i is run i; column j is iteration j + 1.  ``measured_index`` is
    -1 where the trial is read out as pass/fail only (search).
    ``min_outcome_mass`` holds, per run, the smallest probability P(r)
    of any outcome it drew, a ``(runs,)`` health record.
    ``chi_snapshots`` holds |chi|^2 after every iteration, shape
    ``(runs, iterations, *grid_shape)``, when the config asks for it.
    """

    passed: np.ndarray
    measured_index: np.ndarray
    expected_success: np.ndarray
    circular_variance: np.ndarray
    feedback_action: np.ndarray
    min_outcome_mass: np.ndarray
    chi_snapshots: np.ndarray | None = None

    @property
    def runs(self) -> int:
        return self.passed.shape[0]

    @property
    def iterations(self) -> int:
        return self.passed.shape[1]


# ---------------------------------------------------------------------------
# the trial protocol: one object per (problem, grid), shared by every run


class _SearchTrials:
    """Search: every trial reads pass/fail off one shared binary amplitude table."""

    binary_readout = True

    def __init__(self, instance: GroverInstance, grid_size: int):
        t, u = _amplitudes_for_phases(instance, grid_points(grid_size))
        self.success_map = checked_success_map(np.abs(t) ** 2, (grid_size,))
        self.success_map.flags.writeable = False  # checked once, shared by every run
        self._table, self._columns = outcome_table([t, u])  # outcome PASS, then fail

    def trial(self, weights: np.ndarray, rngs) -> tuple:
        dist = distribution_batch(weights, self._table)
        outcomes = sample_batch(dist, rngs)
        masses = np.take_along_axis(dist, outcomes[:, None], axis=1)[:, 0]
        return outcomes == PASS, -1, self._columns[outcomes], masses


class _FourierTrials:
    """Fourier: each run draws its input k and reads out the full register."""

    binary_readout = False

    def __init__(self, instance: AqftInstance, grid_size: int):
        shape = (grid_size,) * instance.band
        # the success is a trigonometric polynomial of the phases, and its
        # spectrum gives every grid cell
        success = spectrum_on_grid(success_spectrum(instance), shape)
        self.success_map = checked_success_map(success, shape)
        self.success_map.flags.writeable = False  # checked once, shared by every run
        self._n, self._dim = instance.n_qubits, instance.dim
        axes = [grid_points(grid_size)] * instance.band
        self._trials = ProductFormTrials(instance, axes)

    def trial(self, weights: np.ndarray, rngs) -> tuple:
        # each run's stream gives its k, its latent cell's uniform, its n bit
        # uniforms, then any dephasing
        ks = np.array([int(rng.integers(self._dim)) for rng in rngs])
        cells = sample_batch(weights, rngs)
        uniforms = [rng.random(self._n).tolist() for rng in rngs]
        outcomes, masses, columns = self._trials.draw(ks, weights, cells, uniforms)
        columns = columns.reshape((len(ks),) + self.success_map.shape)
        return outcomes == ks, outcomes, columns, masses


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
    shape = trials.success_map.shape
    chi = np.full((runs,) + shape, 1.0 / np.sqrt(trials.success_map.size), dtype=np.complex128)
    probs = np.abs(chi) ** 2

    passed = np.empty((runs, iterations), dtype=bool)
    measured = np.empty((runs, iterations), dtype=int)
    success = np.empty((runs, iterations))
    variance = np.empty((runs, iterations))
    actions = np.full((runs, iterations), "none", dtype=object)
    snapshots = np.empty((runs, iterations) + shape) if config.snapshot_chi else None
    smallest = np.full(runs, np.inf)
    tallies = [(0, 0, 0)] * runs
    for it in range(iterations):
        ok, measured[:, it], columns, masses = trials.trial(probs.reshape(runs, -1), rngs)
        np.minimum(smallest, masses, out=smallest)
        chi = filter_batch(chi, columns, masses)
        flags = ok.tolist()
        failed = [i for i, passed_now in enumerate(flags) if not passed_now]
        if failed:
            # a slice when every run failed: views instead of gathered copies
            rows = slice(None) if len(failed) == runs else failed
            chi[rows], actions[rows, it] = on_failure_batch(
                chi[rows], [tallies[i] for i in failed], config.feedback,
                [rngs[i] for i in failed], binary_readout=trials.binary_readout,
            )
        tallies = next_tallies(tallies, flags)

        probs = np.abs(chi) ** 2
        passed[:, it] = ok
        success[:, it] = expected_success_batch(probs, trials.success_map)
        variance[:, it] = distribution_variance_batch(probs)
        if snapshots is not None:
            snapshots[:, it] = probs
    return RunBatch(passed, measured, success, variance, actions, smallest, snapshots)


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
    """Aggregate statistics of an ensemble of independent runs.

    ``health`` holds numerical-health figures over the runs: the minimum
    and median of each run's smallest drawn outcome probability.
    """

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
    health: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field, arrays as lists, in the three forms that strict JSON needs."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in payload.items():
            if isinstance(value, np.ndarray):
                payload[name] = value.tolist()
        payload["quantiles"] = {str(k): v for k, v in self.quantiles.items()}
        payload["iterations_to_95"] = [
            None if math.isinf(v) else int(v) for v in self.iterations_to_95
        ]
        # NaN when no run ever passed; JSON has no NaN
        if math.isnan(self.mean_final_trained):
            payload["mean_final_trained"] = None
        return payload


def run_ensemble(config: ExperimentConfig, threads: int = 1) -> tuple:
    """Run ``config.runs`` independent trajectories and aggregate them.

    Per-run seeds are spawned from the master seed and every run is
    stepped in one batch.  Returns ``(summary, batch)`` with the runs in
    run-index order.  ``threads`` accepts only 1 and is kept for callers
    that still pass it; the next benchmark change removes the keyword.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1: every ensemble runs as one batch (got {threads!r})")
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.runs)
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
        health={"min_outcome_mass": {"min": float(batch.min_outcome_mass.min()),
                                     "median": float(np.median(batch.min_outcome_mass))}},
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
    """All runs' iteration records as one CSV with a leading run column.

    Floats are written as their ``repr``, a measured index of -1 as an
    empty field; no field ever needs CSV quoting.
    """
    columns = (
        batch.passed.tolist(),
        batch.expected_success.tolist(),
        batch.circular_variance.tolist(),
        batch.feedback_action.tolist(),
        batch.measured_index.tolist(),
    )
    with open(path, "w", newline="") as fh:
        fh.write("run,iteration,outcome,expected_success,circular_variance,"
                 "feedback_action,measured_index\n")
        # one string per run keeps large ensembles' memory bounded
        for run, records in enumerate(zip(*columns)):
            fh.write("".join(
                "%d,%d,%s,%r,%r,%s,%s\n"
                % (run, it, "pass" if ok else "fail", success, variance, action,
                   "" if index < 0 else index)
                for it, (ok, success, variance, action, index) in enumerate(zip(*records), 1)
            ))


def write_summary_json(summary: EnsembleSummary, path, extra: dict | None = None) -> None:
    payload = summary.to_dict()
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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
