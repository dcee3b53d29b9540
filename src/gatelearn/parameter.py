"""Wavefunction of the control parameter on a cyclic grid.

The trained gate strength is itself a quantum variable.  Its state is a
complex amplitude vector chi over a discretized, periodic parameter
domain (one axis per trained parameter, at most two axes).  Grid points
sit at the left edge of each cell, phi_g = phi_lo + g * dphi, so that
physically distinguished values such as pi or pi/2 fall exactly on a
grid point for power-of-two grid sizes.

All operators here (translation, random dephasing, inversion about the
mean, the quantum-walk splitting applied in :mod:`gatelearn.feedback`)
are unitary on the cyclic grid, which is why the periodic boundary is
non-negotiable: translations would otherwise leak probability.

Each operator and diagnostic is an array kernel over a batch of runs,
an array of shape ``(runs, *grid_shape)``, named ``*_batch``; one run
is a batch of one.  Every kernel computes each run's row exactly as it
would alone, so results never depend on how many runs share a batch.
:class:`ParameterState` describes a grid: its domains, grid points and
the flat starting wavefunction (:func:`uniform_init`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericsError

__all__ = [
    "ParameterState",
    "uniform_init",
    "checked_success_map",
    "translate_batch",
    "dephase_batch",
    "invert_about_mean_batch",
    "expected_success_batch",
    "distribution_variance_batch",
]

_TWO_PI = 2.0 * np.pi


class ParameterState:
    """Discretized wavefunction chi over a periodic parameter grid.

    Parameters
    ----------
    amplitudes : ndarray of complex
        Shape ``grid_shape``; one axis per trained parameter.
    domains : tuple of (low, high) pairs, optional
        Half-open interval per axis, default [0, 2*pi) everywhere.
    """

    __slots__ = ("amplitudes", "domains")

    def __init__(self, amplitudes, domains=None):
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.ndim < 1 or amps.ndim > 2:
            raise ValueError("parameter grids support 1 or 2 axes")
        if any(s < 2 for s in amps.shape):
            raise ValueError(f"each grid axis needs >= 2 cells, got shape {amps.shape}")
        if domains is None:
            domains = ((0.0, _TWO_PI),) * amps.ndim
        domains = tuple((float(lo), float(hi)) for lo, hi in domains)
        if len(domains) != amps.ndim:
            raise ValueError("one (low, high) domain required per grid axis")
        for lo, hi in domains:
            if not hi > lo:
                raise ValueError(f"empty domain [{lo}, {hi})")
        self.amplitudes = amps
        self.domains = domains

    @property
    def grid_shape(self) -> tuple:
        return self.amplitudes.shape

    @property
    def ndim(self) -> int:
        return self.amplitudes.ndim

    def axis_values(self, axis: int = 0) -> np.ndarray:
        """Parameter values at the grid points of one axis."""
        return _grid_points(*self.domains[axis], self.grid_shape[axis])

    def probabilities(self) -> np.ndarray:
        """|chi|^2 over the grid."""
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def __repr__(self) -> str:
        return f"ParameterState(grid_shape={self.grid_shape}, domains={self.domains})"


def _grid_points(lo: float, hi: float, cells: int) -> np.ndarray:
    return lo + np.arange(cells) * (hi - lo) / cells


@lru_cache(maxsize=64)
def _axis_phasors(lo: float, hi: float, cells: int) -> np.ndarray:
    """e^{i angle} at one axis's grid points, the domain mapped onto a full circle."""
    angles = (_grid_points(lo, hi, cells) - lo) * (_TWO_PI / (hi - lo))
    phasors = np.exp(1j * angles)
    phasors.flags.writeable = False
    return phasors


def uniform_init(grid_size, domain=None) -> ParameterState:
    """Flat real wavefunction, amplitude 1/sqrt(cells) everywhere.

    ``grid_size`` may be an int (one axis) or a tuple of ints; ``domain``
    correspondingly a (low, high) pair or a tuple of pairs.
    """
    shape = (grid_size,) if np.ndim(grid_size) == 0 else tuple(grid_size)
    if domain is None:
        domains = ((0.0, _TWO_PI),) * len(shape)
    elif np.ndim(domain[0]) == 0:
        domains = (tuple(domain),)
    else:
        domains = tuple(tuple(d) for d in domain)
    cells = int(np.prod(shape))
    amps = np.full(shape, 1.0 / np.sqrt(cells), dtype=np.complex128)
    return ParameterState(amps, domains)


def _grid_axes(amps: np.ndarray) -> tuple:
    """The grid axes of a ``(runs, *grid_shape)`` batch."""
    return tuple(range(1, amps.ndim))


def translate_batch(amps: np.ndarray, shifts, axes) -> np.ndarray:
    """Cyclic shift of each run by ``shifts[i]`` cells along grid axis ``axes[i]``.

    A positive shift moves the distribution toward larger parameter values.
    """
    shifts, axes = np.asarray(shifts), np.asarray(axes)
    out = amps.copy()
    for axis in np.unique(axes):
        rows = np.flatnonzero(axes == axis)
        cells = amps.shape[1 + axis]
        # new cell g holds old cell (g - shift) mod N, as np.roll
        source = (np.arange(cells) - shifts[rows, None]) % cells
        layout = [len(rows)] + [cells if a == axis else 1 for a in range(amps.ndim - 1)]
        out[rows] = np.take_along_axis(amps[rows], source.reshape(layout), axis=1 + axis)
    return out


def dephase_batch(amps: np.ndarray, rngs) -> np.ndarray:
    """Random phase per cell for each run, drawn from that run's own stream.

    Magnitudes are untouched; this scrambles interference between grid
    cells.  Phases are drawn uniformly from [0, 2*pi) in row-major cell
    order, so a fixed seed reproduces the same phase pattern.
    """
    theta = np.stack([rng.uniform(0.0, _TWO_PI, size=amps.shape[1:]) for rng in rngs])
    # an explicit ufunc keeps the operand order: a * b and b * a may differ
    # in the last bit for complex operands
    return np.multiply(amps, np.exp(1j * theta))


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
    values = np.sum(probs * success_map, axis=_grid_axes(probs))
    return np.minimum(np.maximum(values, 0.0), 1.0)


def distribution_variance_batch(probs: np.ndarray, domains) -> np.ndarray:
    """Each run's circular variance; ``probs`` holds |chi|^2 per run.

    Computed per axis from the first trigonometric moment of the
    marginal, 1 - |sum_g w_g e^{i phi_g}|, and summed over axes.  The
    value is 0 for a point mass and 1 for a flat (or antipodally split)
    distribution on a full period; for well-localized distributions it
    approaches sigma^2 / 2.
    """
    ndim = probs.ndim - 1
    total = np.zeros(probs.shape[0])
    for axis in range(ndim):
        others = tuple(1 + a for a in range(ndim) if a != axis)
        marginal = probs.sum(axis=others) if others else probs
        # the domain is mapped onto a full circle so the moment is scale-free
        phasors = _axis_phasors(*domains[axis], probs.shape[1 + axis])
        moment = np.abs(np.sum(np.multiply(marginal, phasors), axis=1))
        total = total + (1.0 - moment)
    return np.maximum(total, 0.0)


def checked_success_map(success_map, grid_shape: tuple) -> np.ndarray:
    """The success map as a float array, checked against the grid and [0, 1]."""
    p = np.asarray(success_map, dtype=float)
    if p.shape != tuple(grid_shape):
        raise ValueError(f"success map shape {p.shape} != grid shape {tuple(grid_shape)}")
    # written so that a NaN entry fails too
    if not (p.min() >= -1e-9 and p.max() <= 1.0 + 1e-9):
        raise NumericsError("success-map entries outside [0, 1] beyond 1e-9")
    return p
