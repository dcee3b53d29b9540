"""Exact optimization of the trainable circuit phases.

Produces the classical reference values the trained ensembles are
compared against: the best achievable averaged success of the banded
Fourier circuit over its phase angles, the relative improvement over
the standard angles, and the ideal-search reference curve.

The k-averaged success is a trigonometric polynomial of degree at most
n - d in phase d, whose coefficients follow from the circuit's product
form without evaluating the success anywhere
(:func:`gatelearn.qft.success_spectrum`).  The optimizer finds the
basin on a fine grid of that polynomial and refines it by Newton steps
on the polynomial's exact gradient and Hessian; three exact success
evaluations then pick the result.  Everything is deterministic: no
randomness enters, so repeated runs agree bit for bit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import check_integer
from .grover import reference_max_success
from .qft import (
    AqftInstance,
    _SpectrumDerivatives,
    average_success,
    spectrum_on_grid,
    standard_phases,
    success_spectrum,
)

__all__ = [
    "OptimizationResult",
    "optimize_phases",
    "improvement_table",
    "improvement_table_csv",
    "grover_reference_curve",
]

#: improvements below this many percent count as "no practical gain";
#: such table cells are reported blank
BLANK_BELOW_PERCENT = 0.5


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one phase optimization."""

    best_phases: tuple
    best_value: float
    baseline_value: float
    improvement_percent: float
    evaluations: int


def _newton(spectrum: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Newton steps on the success polynomial while it is locally concave.

    Stops where the Hessian is not negative definite (written so that a
    NaN stops too), once a step falls below 1e-13 rad, or after 50
    steps; from a basin's grid point it converges in a few.
    """
    derivatives = _SpectrumDerivatives(spectrum)
    for _ in range(50):
        _, gradient, hessian = derivatives(phases)
        if not np.linalg.eigvalsh(hessian).max() < 0.0:
            break
        step = np.linalg.solve(hessian, -gradient)
        phases = phases + step
        if not np.linalg.norm(step) >= 1e-13:
            break
    return phases


def optimize_phases(instance: AqftInstance) -> OptimizationResult:
    """Maximize the k-averaged trial success over the instance's phases.

    Supports 1 to 3 trained phases.  The success is a trigonometric
    polynomial with 2(n - d) + 1 coefficients along phase axis d; they
    locate the basin on a grid of max(64, 2(n - d) + 2) points per axis
    (max(32, ...) for three-phase cells), and Newton steps on the exact
    gradient and Hessian refine the best grid point.  The result is the
    best of three exact evaluations: at the Newton point, at that grid
    point, and at the standard phases, so the reported optimum never
    falls below the baseline or the scan.  ``evaluations`` counts the
    exact success evaluations, always 3.
    """
    m = instance.band
    if not 1 <= m <= 3:
        raise ValueError("phase optimization supports 1 to 3 trained phases")
    std = standard_phases(m)
    baseline = average_success(instance.with_phases(std))

    spectrum = success_spectrum(instance)
    # the basin scan: 64 points per axis, 32 for three phases, and never
    # coarser than the spectrum
    shape = tuple(max(64 if m < 3 else 32, size + 1) for size in spectrum.shape)
    cell = np.unravel_index(np.argmax(spectrum_on_grid(spectrum, shape)), shape)
    start = 2.0 * np.pi * np.array(cell) / np.array(shape)
    peak = _newton(spectrum, start) % (2.0 * np.pi)
    # one row per call keeps each value bit-equal to average_success at
    # the reported phases
    candidates = [(average_success(instance.with_phases(p)), p) for p in (peak, start)]
    candidates.append((baseline, std))
    best_value, best_phases = max(candidates, key=lambda c: c[0])

    improvement = 100.0 * (best_value - baseline) / baseline
    return OptimizationResult(
        best_phases=tuple(float(p) % (2.0 * np.pi) for p in best_phases),
        best_value=best_value,
        baseline_value=baseline,
        improvement_percent=improvement,
        evaluations=len(candidates),
    )


def improvement_table(qubit_list, band_list):
    """Optimization gain for every (qubits, band) cell.

    Returns a list of row dicts with keys ``n_qubits``, ``band``,
    ``baseline``, ``optimum``, ``improvement_percent`` and
    ``best_phases``.  Cells that are infeasible (band > qubits - 1) and
    cells whose gain falls below ``BLANK_BELOW_PERCENT`` percent carry None
    entries: tuning buys nothing practical there, so the table leaves
    them blank.  Every cell is checked before the first one is
    optimized: a band outside 1 to 3, a register outside the supported
    sizes or an empty list raises ``ValueError``.
    """
    qubit_list, band_list = list(qubit_list), list(band_list)
    if not (qubit_list and band_list):
        raise ValueError("the qubit and band lists each need at least one value")
    for m in band_list:
        check_integer("band", m)
        if not 1 <= m <= 3:
            raise ValueError(f"band {m} not supported; bands 1 to 3")
    for n in qubit_list:
        AqftInstance.standard(n, 1)  # rejects a register outside [2, 20] qubits
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
            "max_success": reference_max_success(n),
        }
        for n in n_elements_list
    ]
    rows.sort(key=lambda r: -r["target_overlap"])
    return rows
