"""Wavefunction of the control parameter on a cyclic grid.

The trained gate strength is itself a quantum variable.  Its state is a
complex amplitude vector chi over the phase circle [0, 2*pi), cut into
equal cells (one axis per trained parameter, at most two axes).  Grid
points sit at the left edge of each cell, phi_g = g * dphi, so that
physically distinguished values such as pi or pi/2 fall exactly on a
grid point for power-of-two grid sizes.

All operators here (translation, random dephasing, inversion about the
mean, the quantum-walk splitting applied in :mod:`gatelearn.feedback`)
are unitary on the cyclic grid, which is why the periodic boundary is
non-negotiable: translations would otherwise leak probability.

Each operator and diagnostic is an array kernel over a batch of runs,
an array of shape ``(runs, *grid_shape)``, named ``*_batch``; one run
is a batch of one.  Every kernel computes each run's row exactly as it
would alone, so results never depend on how many runs share a batch,
and rejects a per-run argument that does not hold one entry per run.
This module owns the grid convention: :func:`grid_points` places one
axis's cells and :func:`phase_table` lists a product grid's cells.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .errors import NumericsError, check_per_run

__all__ = [
    "ParameterState",
    "uniform_init",
    "grid_points",
    "phase_table",
    "checked_success_map",
    "translate_batch",
    "dephase_batch",
    "invert_about_mean_batch",
    "expected_success_batch",
    "distribution_variance_batch",
]

_TWO_PI = 2.0 * np.pi


class ParameterState:
    """A one-run wavefunction on a grid, as :func:`uniform_init` returns it.

    It survives only as ``uniform_init``'s handle for the benchmark's
    reference checks, which read ``axis_values(0)`` and pass it to
    :func:`gatelearn.grover.success_probability_map`; everything else
    holds wavefunctions as plain complex arrays.

    Parameters
    ----------
    amplitudes : ndarray of complex
        One axis per trained parameter, each axis spanning [0, 2*pi).
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim < 1 or amps.ndim > 2:
            raise ValueError("parameter grids support 1 or 2 axes")
        if any(s < 2 for s in amps.shape):
            raise ValueError(f"each grid axis needs >= 2 cells, got shape {amps.shape}")
        self.amplitudes = amps

    @property
    def ndim(self) -> int:
        return self.amplitudes.ndim

    def axis_values(self, axis: int = 0) -> np.ndarray:
        """Parameter values at the grid points of one axis."""
        return grid_points(self.amplitudes.shape[axis])


def grid_points(cells: int) -> np.ndarray:
    """The phases of one grid axis: cell g sits at 2 pi g / cells."""
    return np.arange(cells) * _TWO_PI / cells


def phase_table(axes) -> np.ndarray:
    """The ``(cells, len(axes))`` table of a product grid, last axis fastest.

    Row g holds the phases of flat cell g of a C-order grid whose axis i
    has the points ``axes[i]``.
    """
    mesh = np.meshgrid(*[np.asarray(axis, dtype=float) for axis in axes], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


@lru_cache(maxsize=64)
def _axis_phasors(cells: int) -> np.ndarray:
    """e^{i phi} at one axis's grid points."""
    phasors = np.exp(1j * grid_points(cells))
    phasors.flags.writeable = False
    return phasors


def uniform_init(grid_size) -> ParameterState:
    """Flat real wavefunction, amplitude 1/sqrt(cells) everywhere.

    ``grid_size`` may be an int (one axis) or a tuple of ints.
    """
    shape = (grid_size,) if np.ndim(grid_size) == 0 else tuple(grid_size)
    cells = int(np.prod(shape))
    amps = np.full(shape, 1.0 / np.sqrt(cells), dtype=np.complex128)
    return ParameterState(amps)


def _grid_axes(amps: np.ndarray) -> tuple:
    """The grid axes of a ``(runs, *grid_shape)`` batch."""
    return tuple(range(1, amps.ndim))


def translate_batch(amps: np.ndarray, shifts, axes) -> np.ndarray:
    """Cyclic shift of each run by ``shifts[i]`` cells along grid axis ``axes[i]``.

    A positive shift moves the distribution toward larger parameter values.
    A shift by s is a shift by s mod N, reduced as a Python int, so it
    may have any integer size.  Raises unless each axis is an int, 0 <= axis < grid ndim.
    The runs on one axis share one gather.
    """
    check_per_run("shifts", shifts, len(amps))
    check_per_run("axes", axes, len(amps))
    axes = np.asarray(axes)
    out = amps.copy()
    for axis in np.unique(axes).tolist():
        if type(axis) is not int or not 0 <= axis < amps.ndim - 1:
            raise ValueError(f"axis {axis} is not a grid axis of a {amps.ndim - 1}-axis grid")
        rows = np.flatnonzero(axes == axis)
        cells = amps.shape[1 + axis]
        steps = np.array([operator.index(shifts[i]) % cells for i in rows], dtype=np.intp)
        # with the axis moved next to the runs, new cell g holds old cell (g - shift) mod N
        source = (np.arange(cells) - steps[:, None]) % cells
        np.moveaxis(out, 1 + axis, 1)[rows] = np.moveaxis(amps, 1 + axis, 1)[rows[:, None], source]
    return out


# e^{2 pi i j / 2^8} and e^{2 pi i j / 2^16} for j < 2^8 (4 KiB each), each
# part rounded once from extended precision
_TURN = 8 * np.arctan(np.longdouble(1))
_COARSE, _FINE = (np.cos(a).astype(float) + 1j * np.sin(a).astype(float)
                  for a in np.arange(1 << 8) * (_TURN / [[1 << 8], [1 << 16]]))


def _unit_phasors(uniforms: np.ndarray) -> np.ndarray:
    """e^{2 pi i u} for every u in [0, 1), without cos and sin of random angles.

    The top 16 bits of u pick a root of unity from each table, and the
    rest, eps = 2 pi (u - j / 2^16) < 2 pi 2^-16, enters as
    cos eps = 1 - eps^2 / 2 and sin eps = eps - eps^3 / 6, whose dropped
    terms are below 4e-18.  Each part is within 1e-15 of cos and sin of
    2 pi u, and the modulus within 5e-16 of 1.
    """
    scaled = uniforms * float(1 << 16)
    index = scaled.astype(np.intp)
    eps = (scaled - index) * (_TWO_PI / (1 << 16))
    square = eps * eps
    series = np.empty(uniforms.shape, dtype=np.complex128)
    # in place on the part views: an augmented assignment to series.real
    # would also copy the part back into itself
    real, imag = series.real, series.imag
    np.multiply(square, -0.5, out=real)
    np.add(real, 1.0, out=real)
    np.multiply(square, -1.0 / 6.0, out=imag)
    np.add(imag, 1.0, out=imag)
    np.multiply(imag, eps, out=imag)
    phasors = _COARSE[index >> 8]
    phasors *= _FINE[index & 0xFF]
    phasors *= series
    return phasors


def dephase_batch(amps: np.ndarray, rngs) -> np.ndarray:
    """Random phase per cell for each run, drawn from that run's own stream.

    Magnitudes are untouched; this scrambles interference between grid
    cells.  Each run's row is filled with ``rng.random`` in row-major
    cell order, the same doubles in the same order that
    ``rng.uniform(0, 2 pi, size)`` draws, so a fixed seed reproduces the
    same phase pattern and the stream ends where it would.  The phasor
    of a uniform u, e^{2 pi i u}, comes from two tables of roots of unity
    and a short series (:func:`_unit_phasors`), within 1e-15 of cos and
    sin of 2 pi u in each part.
    """
    check_per_run("rngs", rngs, len(amps))
    uniforms = np.empty(amps.shape)
    for rng, row in zip(rngs, uniforms):
        rng.random(out=row)
    # an explicit ufunc keeps the operand order: a * b and b * a may differ
    # in the last bit for complex operands
    return np.multiply(amps, _unit_phasors(uniforms))


def invert_about_mean_batch(amps: np.ndarray) -> np.ndarray:
    """chi_g -> 2*mean(chi) - chi_g for each run.

    A unitary reflection: applied to a nearly uniform state carrying a
    dip, it turns the dip into a peak, which is how the feedback
    kickstart uses it.
    """
    mean = amps.mean(axis=_grid_axes(amps), keepdims=True)
    return 2.0 * mean - amps


def expected_success_batch(probs: np.ndarray, success_map: np.ndarray) -> np.ndarray:
    """Each run's |chi|^2-weighted mean success, clamped to [0, 1].

    This is the average success the trained circuit would show if
    deployed now, with the parameter drawn from |chi|^2.  ``probs``
    holds |chi|^2 per run; ``success_map`` must have passed
    :func:`checked_success_map`.
    """
    # np.add.reduce is what np.sum calls, without its wrapper's cost
    values = np.add.reduce(probs * success_map, axis=_grid_axes(probs))
    return np.minimum(np.maximum(values, 0.0), 1.0)


def distribution_variance_batch(probs: np.ndarray) -> np.ndarray:
    """Each run's circular variance; ``probs`` holds |chi|^2 per run.

    Computed per axis from the first trigonometric moment of the
    marginal, 1 - |sum_g w_g e^{i phi_g}|, and summed over axes.  The
    value is 0 for a point mass and 1 for a flat (or antipodally split)
    distribution on a full period; for well-localized distributions it
    approaches sigma^2 / 2.
    """
    ndim = probs.ndim - 1
    spreads = []
    for axis in range(ndim):
        others = tuple(1 + a for a in range(ndim) if a != axis)
        marginal = np.add.reduce(probs, axis=others) if others else probs
        phasors = _axis_phasors(probs.shape[1 + axis])
        moment = np.abs(np.add.reduce(np.multiply(marginal, phasors), axis=1))
        spreads.append(1.0 - moment)
    return np.maximum(sum(spreads[1:], spreads[0]), 0.0)


def checked_success_map(success_map, grid_shape: tuple) -> np.ndarray:
    """The success map as a float array, checked against the grid and [0, 1]."""
    p = np.asarray(success_map, dtype=float)
    if p.shape != tuple(grid_shape):
        raise ValueError(f"success map shape {p.shape} != grid shape {tuple(grid_shape)}")
    # written so that a NaN entry fails too
    if not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):
        raise NumericsError("success-map entries outside [0, 1] beyond 1e-9")
    return p
