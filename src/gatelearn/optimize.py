"""Derivative-free optimization of the trainable circuit phases.

Produces the classical reference values the trained ensembles are
compared against: the best achievable averaged success of the banded
Fourier circuit over its phase angles, the relative improvement over
the standard angles, and the ideal-search reference curve.

The landscape is periodic and mildly multimodal, so each cell runs a
dense coarse scan over the full phase torus followed by coordinate-wise
golden-section refinement down to 1e-4 rad.  Everything is
deterministic: no randomness enters, so repeated runs agree bit for
bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .grover import reference_max_success
from .qft import AqftInstance, average_success, average_success_map, standard_phases

__all__ = [
    "OptimizationResult",
    "optimize_phases",
    "improvement_table",
    "improvement_table_csv",
    "grover_reference_curve",
]

#: coarse-scan density per phase dimension; three-phase cells use a coarser
#: scan (the optimum basin spans several tenths of a radian) to keep the
#: full improvement table within its time budget
COARSE_POINTS = {1: 64, 2: 64, 3: 32}
PHASE_RESOLUTION = 1e-4
#: improvements below this many percent count as "no practical gain";
#: such table cells are reported blank
BLANK_BELOW_PERCENT = 0.5

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one phase optimization."""

    best_phases: tuple
    best_value: float
    baseline_value: float
    improvement_percent: float
    evaluations: int


def _golden_section_max(f, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, evaluations)."""
    evals = 0
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    evals += 2
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
        evals += 1
    return 0.5 * (lo + hi), evals


def _coarse_grid(m: int) -> np.ndarray:
    """(COARSE_POINTS[m]^m, m) scan points over the phase torus, last phase fastest."""
    axis = np.linspace(0.0, 2.0 * np.pi, COARSE_POINTS[m], endpoint=False)
    return np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)


def optimize_phases(instance: AqftInstance) -> OptimizationResult:
    """Maximize the k-averaged trial success over the instance's phases.

    Supports 1 to 3 trained phases.  A full coarse grid over [0, 2 pi)
    locates the basin (64 points per dimension, 32 for three-phase
    cells); two coordinate-descent sweeps of golden-section search
    refine to 1e-4 rad.  The standard phases are always evaluated, so
    the reported optimum can never fall below the baseline.
    """
    m = instance.band
    if not 1 <= m <= 3:
        raise ValueError("phase optimization supports 1 to 3 trained phases")
    std = standard_phases(m)
    baseline = average_success(instance.with_phases(std))
    evaluations = 1

    grid = _coarse_grid(m)
    values = average_success_map(instance.with_phases(std), grid)
    evaluations += grid.shape[0]
    best_idx = int(np.argmax(values))
    best_phases = list(grid[best_idx])
    best_value = float(values[best_idx])
    if baseline > best_value:
        best_phases, best_value = list(std), baseline

    span = 2.0 * np.pi / COARSE_POINTS[m]
    for _ in range(2):
        for d in range(m):
            def along(x, d=d):
                trial = list(best_phases)
                trial[d] = x
                return average_success(instance.with_phases(trial))

            x, used = _golden_section_max(
                along, best_phases[d] - span, best_phases[d] + span, PHASE_RESOLUTION
            )
            evaluations += used + 1
            candidate = along(x)
            if candidate > best_value:
                best_phases[d] = x
                best_value = candidate

    improvement = 100.0 * (best_value - baseline) / baseline
    return OptimizationResult(
        best_phases=tuple(float(p) % (2.0 * np.pi) for p in best_phases),
        best_value=best_value,
        baseline_value=baseline,
        improvement_percent=improvement,
        evaluations=evaluations,
    )


def improvement_table(qubit_list, band_list):
    """Optimization gain for every (qubits, band) cell.

    Returns a list of row dicts with keys ``n_qubits``, ``band``,
    ``baseline``, ``optimum``, ``improvement_percent`` and
    ``best_phases``.  Cells that are infeasible (band > qubits - 1) and
    cells whose gain falls below ``BLANK_BELOW_PERCENT`` percent carry None
    entries: tuning buys nothing practical there, so the table leaves
    them blank.
    """
    rows = []
    for n in qubit_list:
        for m in band_list:
            row = {"n_qubits": int(n), "band": int(m)}
            if m > n - 1:
                row.update(
                    baseline=None, optimum=None, improvement_percent=None, best_phases=None
                )
            else:
                result = optimize_phases(AqftInstance.standard(n, m))
                if result.improvement_percent < BLANK_BELOW_PERCENT:
                    row.update(
                        baseline=result.baseline_value,
                        optimum=None,
                        improvement_percent=None,
                        best_phases=None,
                    )
                else:
                    row.update(
                        baseline=result.baseline_value,
                        optimum=result.best_value,
                        improvement_percent=result.improvement_percent,
                        best_phases=result.best_phases,
                    )
            rows.append(row)
    return rows


def improvement_table_csv(rows) -> str:
    """Render improvement-table rows as CSV.

    Improvements are ratios to the standard-phase baseline, in percent;
    blank cells stay empty.  The maximum band across rows fixes the
    number of phase columns.
    """
    max_band = max(row["band"] for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write("# improvement_percent = 100 * (optimum - baseline) / baseline\n")
    buf.write(f"# cells with gain below {BLANK_BELOW_PERCENT}% or band > qubits-1 are blank\n")
    writer.writerow(
        ["n_qubits", "band", "baseline", "optimum", "improvement_percent"]
        + [f"phase_{d}" for d in range(1, max_band + 1)]
    )
    for row in rows:
        phases = row["best_phases"] or ()
        writer.writerow(
            [
                row["n_qubits"],
                row["band"],
                "" if row["baseline"] is None else repr(row["baseline"]),
                "" if row["optimum"] is None else repr(row["optimum"]),
                ""
                if row["improvement_percent"] is None
                else repr(row["improvement_percent"]),
            ]
            + [repr(p) for p in phases]
            + [""] * (max_band - len(phases))
        )
    return buf.getvalue()


def grover_reference_curve(n_elements_list):
    """(overlap, best success) pairs of the ideal search, plot-ready.

    Rows are sorted by descending source-target overlap 1/sqrt(N), i.e.
    from small to large search spaces.
    """
    rows = [
        {
            "n_elements": int(n),
            "target_overlap": float(1.0 / np.sqrt(n)),
            "max_success": reference_max_success(int(n)),
        }
        for n in n_elements_list
    ]
    rows.sort(key=lambda r: -r["target_overlap"])
    return rows
