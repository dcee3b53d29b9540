"""Amplitude amplification with a trainable oracle phase.

The search circuit marks the target by the phase shift |t> -> e^{i phi}|t>
instead of the textbook sign flip, and keeps the standard diffusion
reflection about the uniform superposition.  Both operations preserve
the two-dimensional subspace spanned by the target |t> and the uniform
superposition |u> of the non-targets, so the whole evolution reduces to
an exact 2x2 recursion regardless of the search-space size.  At
phi = pi the standard result sin^2((2K+1) theta) is recovered, with
theta = arcsin(1/sqrt(N)).

Every wrong element carries amplitude b/sqrt(N-1) by symmetry, which is
what makes the aggregated pass/fail description used by the measurement
filter exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_integer
from .parameter import ParameterState

__all__ = [
    "GroverInstance",
    "optimal_iterations",
    "pass_fail_amplitudes",
    "reference_max_success",
    "success_probability_map",
]


def optimal_iterations(n_elements: int) -> int:
    """Iteration count of the standard search at its success optimum.

    K = round(pi / (4 theta) - 1/2) with theta = arcsin(1/sqrt(N)),
    clamped to at least one iteration.
    """
    check_integer("n_elements", n_elements)
    if n_elements < 2:
        raise ValueError("search space needs at least 2 elements")
    theta = np.arcsin(1.0 / np.sqrt(n_elements))
    return max(1, round(np.pi / (4.0 * theta) - 0.5))


@dataclass(frozen=True)
class GroverInstance:
    """Search problem: ``n_elements`` database entries, ``iterations`` rounds.

    The target identity is irrelevant by symmetry and fixed to element 0.
    """

    n_elements: int
    iterations: int

    def __post_init__(self):
        check_integer("n_elements", self.n_elements)
        check_integer("iterations", self.iterations)
        if self.n_elements < 2:
            raise ValueError("search space needs at least 2 elements")
        if self.iterations < 1:
            raise ValueError("at least one amplification round is required")

    @classmethod
    def standard(cls, n_elements: int) -> "GroverInstance":
        """Instance at the standard optimal depth for ``n_elements``."""
        return cls(n_elements, optimal_iterations(n_elements))

    @property
    def target_overlap(self) -> float:
        """Overlap 1/sqrt(N) between source and target states."""
        return 1.0 / np.sqrt(self.n_elements)

    @property
    def theta(self) -> float:
        return float(np.arcsin(self.target_overlap))


def pass_fail_amplitudes(instance: GroverInstance, phis):
    """Final (target, non-target) amplitudes at every oracle phase of ``phis``.

    Starting from the uniform superposition sin(theta)|t> + cos(theta)|u>,
    each round multiplies the target amplitude by e^{i phi} and then
    reflects about the start state (a real 2x2 matrix in the (t, u)
    basis).  Returns the exact complex arrays (s, b), each shaped like
    ``phis`` (0-d for one phase); |s|^2 + |b|^2 = 1.
    """
    phis = np.asarray(phis, dtype=float)
    theta = instance.theta
    cos2, sin2 = np.cos(2 * theta), np.sin(2 * theta)
    # 1-D even for one phase: numpy's scalar complex product may round differently
    t = np.full(phis.size, np.sin(theta), dtype=np.complex128)
    u = np.full(phis.size, np.cos(theta), dtype=np.complex128)
    oracle = np.exp(1j * phis.reshape(-1))
    for _ in range(instance.iterations):
        t = t * oracle
        t, u = -cos2 * t + sin2 * u, sin2 * t + cos2 * u
    return t.reshape(phis.shape), u.reshape(phis.shape)


def reference_max_success(n_elements: int) -> float:
    """Success probability of the standard search at its optimal depth."""
    k = optimal_iterations(n_elements)  # rejects a size that is not an integer >= 2
    theta = np.arcsin(1.0 / np.sqrt(n_elements))
    return float(np.sin((2 * k + 1) * theta) ** 2)


def success_probability_map(instance: GroverInstance, grid: ParameterState) -> np.ndarray:
    """|s(phi_g)|^2 evaluated at every grid point of a one-axis grid."""
    if grid.ndim != 1:
        raise ValueError("the oracle phase is a single parameter; expected a 1-axis grid")
    t, _ = pass_fail_amplitudes(instance, grid.axis_values(0))
    return np.abs(t) ** 2
