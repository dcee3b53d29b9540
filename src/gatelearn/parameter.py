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
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericsError

__all__ = [
    "ParameterState",
    "uniform_init",
    "translate",
    "dephase_random",
    "invert_about_mean",
    "expected_success",
    "distribution_variance",
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

    @property
    def grid_size(self) -> int:
        """Cell count of a one-axis grid."""
        if self.ndim != 1:
            raise ValueError("grid_size is defined for 1-axis grids; use grid_shape")
        return self.amplitudes.shape[0]

    @property
    def cell_widths(self) -> tuple:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.domains, self.grid_shape)
        )

    @property
    def cell_width(self) -> float:
        """Cell width of a one-axis grid."""
        if self.ndim != 1:
            raise ValueError("cell_width is defined for 1-axis grids; use cell_widths")
        return self.cell_widths[0]

    def axis_values(self, axis: int = 0) -> np.ndarray:
        """Parameter values at the grid points of one axis."""
        return _grid_points(*self.domains[axis], self.grid_shape[axis])

    def probabilities(self) -> np.ndarray:
        """|chi|^2 over the grid."""
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "ParameterState":
        return ParameterState(self.amplitudes.copy(), self.domains)

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


def translate(state: ParameterState, shift_cells: int, axis: int = 0) -> ParameterState:
    """Cyclic shift by ``shift_cells`` grid cells along one axis.

    The new amplitude at cell g is the old amplitude at cell
    (g - shift_cells) mod N: a positive shift moves the distribution
    toward larger parameter values.
    """
    return ParameterState(np.roll(state.amplitudes, shift_cells, axis=axis), state.domains)


def dephase_random(state: ParameterState, rng: np.random.Generator) -> ParameterState:
    """Multiply every cell by an independent random phase e^{i theta}.

    Magnitudes are untouched; this scrambles interference between grid
    cells.  Phases are drawn uniformly from [0, 2*pi) in row-major cell
    order, so a fixed seed reproduces the same phase pattern.
    """
    theta = rng.uniform(0.0, _TWO_PI, size=state.grid_shape)
    return ParameterState(state.amplitudes * np.exp(1j * theta), state.domains)


def invert_about_mean(state: ParameterState) -> ParameterState:
    """Reflect every amplitude about the grid-average amplitude.

    chi_g -> 2*mean(chi) - chi_g.  This is a unitary reflection: applied
    to a nearly uniform state carrying a dip, it converts the dip into a
    peak, which is exactly how the one-shot feedback boost uses it.
    """
    mean = state.amplitudes.mean()
    return ParameterState(2.0 * mean - state.amplitudes, state.domains)


def expected_success(state: ParameterState, success_map) -> float:
    """|chi|^2-weighted mean of a per-cell success probability map.

    This is the average success rate the trained circuit would show if
    deployed immediately, with the parameter drawn from |chi|^2.
    """
    p = np.asarray(success_map, dtype=float)
    if p.shape != state.grid_shape:
        raise ValueError(f"success map shape {p.shape} != grid shape {state.grid_shape}")
    if p.min() < -1e-9 or p.max() > 1.0 + 1e-9:
        raise NumericsError("success-map entries outside [0, 1] beyond 1e-9")
    value = float(np.sum(state.probabilities() * p))
    return min(max(value, 0.0), 1.0)


def distribution_variance(state: ParameterState) -> float:
    """Circular variance of the parameter distribution |chi|^2.

    Computed per axis from the first trigonometric moment of the
    marginal, 1 - |sum_g w_g e^{i phi_g}|, and summed over axes.  The
    value is 0 for a point mass and 1 for a flat (or antipodally split)
    distribution on a full period; for well-localized distributions it
    approaches sigma^2 / 2.  Diagnostic only; branch-cut free on the
    periodic grid.
    """
    w = state.probabilities()
    total = 0.0
    for axis in range(state.ndim):
        marginal = w.sum(axis=tuple(a for a in range(state.ndim) if a != axis))
        # the domain is mapped onto a full circle so the moment is scale-free
        phasors = _axis_phasors(*state.domains[axis], state.grid_shape[axis])
        moment = np.abs(np.sum(marginal * phasors))
        total += 1.0 - float(moment)
    return max(total, 0.0)
