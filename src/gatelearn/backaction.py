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

The filter needs two things from a trial: the outcome distribution for
the current |chi|^2 and the amplitude column A_r of the one sampled
outcome.  A trial with a fixed amplitude table (search, read out as
pass/fail) is held as :func:`outcome_table` builds it: a checked
``(cells, outcomes)`` probability table and its per-outcome amplitude
columns.  :func:`distribution_batch`, :func:`sample_batch` and
:func:`filter_batch` then give each run's distribution, draw its
outcome and filter its wavefunction, one row of a ``(runs, ...)`` array
per run.  The Fourier trials of the training loop need no table: they
draw outcome and column together from the circuit's product form
(:meth:`gatelearn.qft.ProductFormTrials.draw`).  The explicit joint
state, the filter's independent oracle, is built only in
:mod:`gatelearn.oracle`.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError

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


def _check_sums(totals) -> None:
    # written so that a NaN total fails too
    if not all(abs(t - 1.0) <= _CELL_NORM_TOL for t in totals):
        raise NumericsError("outcome distribution does not sum to 1 within 1e-9")


def sample_batch(dist: np.ndarray, rngs) -> np.ndarray:
    """One projective outcome per run from its ``(runs, outcomes)`` distribution row.

    Each run makes exactly one uniform draw from its own stream and takes
    the inverse CDF, accumulated in fixed ascending outcome order, so a
    run's outcome depends only on its row and its stream.  Raises when a
    row does not sum to 1 within 1e-9 or an outcome of vanishing
    probability is drawn.  The training loop samples search trials here;
    Fourier trials draw from the product form without a distribution
    row, in bit-reversed outcome order (:meth:`gatelearn.qft.ProductFormTrials.draw`).
    """
    cdf = np.cumsum(dist, axis=1)
    totals = cdf[:, -1].tolist()
    _check_sums(totals)
    targets = np.array([rng.random() * total for rng, total in zip(rngs, totals)])
    # the count of CDF entries <= u * total is searchsorted(..., side="right")
    outcomes = (cdf <= targets[:, None]).sum(axis=1)
    np.minimum(outcomes, dist.shape[1] - 1, out=outcomes)
    if not dist[np.arange(len(outcomes)), outcomes].min() >= 1e-300:
        raise NumericsError("sampled an outcome of vanishing probability")
    return outcomes


def _row_norms(amps: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every run's row, bit for bit.

    ``np.linalg.norm`` adds one BLAS dot product of the real parts and
    one of the imaginary parts; a stacked ``(1, cells) @ (cells, 1)``
    matmul makes the same dot call for each row.
    """
    flat = amps.reshape(len(amps), 1, -1)
    re, im = flat.real, flat.imag
    squares = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    return np.sqrt(squares.reshape(len(amps)))


def filter_batch(amps: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """chi_g * A_r(phi_g), renormalized, for each run's row and sampled column."""
    # an explicit ufunc keeps the operand order: a * b and b * a may differ
    # in the last bit for complex operands
    filtered = np.multiply(amps, columns)
    norms = _row_norms(filtered).reshape((-1,) + (1,) * (amps.ndim - 1))
    return filtered / norms
