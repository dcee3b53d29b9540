"""Measurement back-action on the parameter register.

Running the processor once entangles the parameter grid with the
computational register.  A projective readout of outcome r then filters
the parameter wavefunction cell by cell,

    chi_g  ->  chi_g * A_r(phi_g) / sqrt(P(r)),

where A_r(phi_g) is the amplitude of outcome r when the circuit runs at
parameter value phi_g, and P(r) = sum_g |chi_g|^2 |A_r(phi_g)|^2 is the
total outcome probability.  Repeated conditioning concentrates |chi|^2
where the observed outcomes are likely: the measurement itself acts as
a Bayesian-style filter on the parameter.

The filter needs three things from a trial: the outcome distribution
for the current |chi|^2, the amplitude column A_r of the one sampled
outcome, and its probability P(r), by whose root it divides.  A trial
with a fixed amplitude table (search, read out as pass/fail) is held as
:func:`outcome_table` builds it: a checked ``(cells, outcomes)``
probability table and its per-outcome amplitude columns.
:func:`distribution_batch`, :func:`sample_batch` and :func:`filter_batch`
then give each run's distribution, draw its outcome and filter its
wavefunction, one row of a ``(runs, ...)`` array per run, with P(r) read
off the run's distribution row.  The Fourier trials of the training loop
need no outcome table: :func:`sample_batch` draws each run's latent
parameter cell from its |chi|^2 row, and the circuit's product form
draws the outcome at that cell and builds its column over every cell,
summing P(r) on the way
(:meth:`gatelearn.productform.ProductFormTrials.draw`).  The explicit
joint state, the filter's independent oracle, is built only in
:mod:`gatelearn.oracle`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError, check_per_run

__all__ = [
    "outcome_table",
    "distribution_batch",
    "sample_batch",
    "filter_batch",
]

_CELL_NORM_TOL = 1e-9

#: outcome index of a passed verification on a pass/fail readout
PASS = 0


def outcome_table(columns):
    """A trial's checked outcome probability table and its amplitude columns.

    ``columns[r]`` is A_r(phi_g), the amplitude of outcome r at every
    grid cell.  Returns ``(table, columns)``: the read-only
    ``(cells, outcomes)`` table |A_r(phi_g)|^2 that
    :func:`distribution_batch` reads, and the columns as one complex
    array.  Raises when a cell's outcome probabilities do not sum to 1
    within 1e-9.  The pass/fail amplitudes of a search trial close
    exactly: every wrong element carries the same amplitude, so the
    aggregated fail amplitude is exact, not an approximation.
    """
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.ndim < 2:
        raise ValueError("columns need an outcome axis plus grid axes")
    table = np.ascontiguousarray((np.abs(columns) ** 2).reshape(len(columns), -1).T)
    # written so that a NaN norm fails too
    if not np.abs(table.sum(axis=1) - 1.0).max() <= _CELL_NORM_TOL:
        raise NumericsError("per-cell outcome probabilities do not sum to 1 within 1e-9")
    table.flags.writeable = False
    return table, columns


def distribution_batch(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each run's outcome probabilities P(r) = sum_g w_g |A_r(phi_g)|^2.

    ``weights`` holds |chi_g|^2 as ``(runs, cells)`` rows; ``table`` is
    from :func:`outcome_table`.  Each row is a separate vector-matrix
    product (one BLAS gemv), so a row's result does not depend on the
    batch around it.
    """
    return np.matmul(weights[:, None, :], table)[:, 0, :]


def sample_batch(dist: np.ndarray, rngs) -> np.ndarray:
    """One index per run, drawn from its ``(runs, entries)`` probability row.

    Each run's target is one uniform from its own stream times its row
    total, and its index is the inverse CDF at that target, accumulated
    in fixed ascending order, so a run's index depends only on its row
    and its stream.  An entry of zero probability is never drawn for a
    uniform in [0, 1).  Raises when a row does not sum to 1 within 1e-9,
    before any stream is read, or when an entry of vanishing probability
    is drawn.  The training loop draws a search trial's outcome here from
    its distribution row, and a Fourier trial's latent cell from its
    |chi|^2 row (:meth:`gatelearn.productform.ProductFormTrials.draw`
    then draws the outcome).
    """
    # the ufuncs' own accumulate and reduce, which np.cumsum, np.max, np.sum
    # and np.min call, without their wrappers' cost
    dist = np.asarray(dist, dtype=float)
    check_per_run("rngs", rngs, len(dist))
    cdf = np.add.accumulate(dist, axis=1)
    totals = cdf[:, -1].tolist()
    # written so that a NaN total fails too
    if not all(abs(total - 1.0) <= _CELL_NORM_TOL for total in totals):
        raise NumericsError("outcome distribution does not sum to 1 within 1e-9")
    targets = np.array([rng.random() * total for rng, total in zip(rngs, totals)])
    # the count of CDF entries <= u * total is searchsorted(..., side="right")
    outcomes = np.add.reduce(cdf <= targets[:, None], axis=1)
    np.minimum(outcomes, dist.shape[1] - 1, out=outcomes)
    if not all(dist.item(i, r) >= 1e-300 for i, r in enumerate(outcomes.tolist())):
        raise NumericsError("sampled an outcome of vanishing probability")
    return outcomes


def filter_batch(amps: np.ndarray, columns: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """chi_g * A_r(phi_g) / sqrt(P(r)) for each run's row, sampled column and outcome mass.

    ``masses`` holds each run's P(r) = sum_g |chi_g|^2 |A_r(phi_g)|^2,
    which the draw has already summed, so the filter computes no norm.
    """
    check_per_run("columns", columns, len(amps))
    check_per_run("masses", masses, len(amps))
    # an explicit ufunc keeps the operand order: a * b and b * a may differ
    # in the last bit for complex operands
    filtered = np.multiply(amps, columns)
    # each real and imaginary part divided as a float: complex division
    # by a real number is slower and not correctly rounded
    parts = filtered.reshape(len(filtered), -1).view(np.float64)
    parts /= np.sqrt(masses)[:, None]
    return filtered
