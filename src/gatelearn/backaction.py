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
outcome.  Any trial object that provides ``grid_shape``,
``distribution(weights)`` and ``outcome_amplitude(r)`` will do:
:class:`OutcomeAmplitudes` holds explicit per-cell amplitude tables
(search trials, and the statevector oracle of the Fourier trials), and
:class:`gatelearn.qft.TrialOutcomes` builds the Fourier trial's data
from the circuit's product form.  The explicit joint-state construction
in :func:`brute_force_joint_step` exists solely as an independent
cross-check at small sizes.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .parameter import ParameterState
from .statevector import PureState, _sample_index

__all__ = [
    "OutcomeAmplitudes",
    "outcome_distribution",
    "sample_and_update",
    "brute_force_joint_step",
]

_CELL_NORM_TOL = 1e-9
_JOINT_LIMIT = 1 << 16

#: outcome index of a passed verification in binary mode
PASS, FAIL = 0, 1


class OutcomeAmplitudes:
    """Per-grid-cell outcome amplitudes of one circuit trial.

    Two layouts:

    * ``binary`` -- two aggregated outcomes (pass, fail) with per-cell
      complex amplitudes ``pass_amp`` and ``fail_amp``.  Requires
      |pass|^2 + |fail|^2 = 1 per cell, i.e. the two amplitudes exhaust
      an exact two-dimensional decomposition of the trial.
    * ``full`` -- one complex amplitude per computational basis outcome,
      an array of shape ``grid_shape + (n_outcomes,)`` with unit norm
      per cell.

    Outcome ordering is fixed (pass=0/fail=1, or ascending basis index)
    so that sampling is reproducible for a fixed random stream.
    """

    __slots__ = ("mode", "_pass", "_fail", "_full", "grid_shape", "n_outcomes")

    def __init__(self, *, pass_amp=None, fail_amp=None, full=None):
        if full is not None:
            if pass_amp is not None or fail_amp is not None:
                raise ValueError("give either binary amplitudes or a full table, not both")
            table = np.asarray(full, dtype=np.complex128)
            if table.ndim < 2:
                raise ValueError("full table needs grid axes plus an outcome axis")
            cell_norms = np.sum(np.abs(table) ** 2, axis=-1)
            if np.abs(cell_norms - 1.0).max() > _CELL_NORM_TOL:
                raise NumericsError("per-cell outcome norm deviates from 1 beyond 1e-9")
            self.mode = "full"
            self._full = table
            self._pass = self._fail = None
            self.grid_shape = table.shape[:-1]
            self.n_outcomes = table.shape[-1]
        else:
            if pass_amp is None or fail_amp is None:
                raise ValueError("binary mode needs both pass_amp and fail_amp")
            s = np.asarray(pass_amp, dtype=np.complex128)
            b = np.asarray(fail_amp, dtype=np.complex128)
            if s.shape != b.shape:
                raise ValueError("pass and fail amplitude shapes differ")
            closure = np.abs(s) ** 2 + np.abs(b) ** 2
            if np.abs(closure - 1.0).max() > _CELL_NORM_TOL:
                raise NumericsError(
                    "binary amplitudes do not close to 1 per cell within 1e-9"
                )
            self.mode = "binary"
            self._pass, self._fail = s, b
            self._full = None
            self.grid_shape = s.shape
            self.n_outcomes = 2

    @classmethod
    def binary(cls, pass_amp, fail_amp) -> "OutcomeAmplitudes":
        return cls(pass_amp=pass_amp, fail_amp=fail_amp)

    @classmethod
    def full(cls, table) -> "OutcomeAmplitudes":
        return cls(full=table)

    def outcome_amplitude(self, outcome: int) -> np.ndarray:
        """Per-cell amplitude of one outcome, shape ``grid_shape``."""
        if not 0 <= outcome < self.n_outcomes:
            raise ValueError(f"outcome {outcome} out of range")
        if self.mode == "binary":
            return self._pass if outcome == PASS else self._fail
        return self._full[..., outcome]

    def probability_table(self) -> np.ndarray:
        """|A_r(phi_g)|^2 with the outcome axis last."""
        if self.mode == "binary":
            return np.stack(
                [np.abs(self._pass) ** 2, np.abs(self._fail) ** 2], axis=-1
            )
        return np.abs(self._full) ** 2

    def distribution(self, weights: np.ndarray) -> np.ndarray:
        """Outcome probabilities for flattened cell weights |chi_g|^2."""
        return weights @ self.probability_table().reshape(-1, self.n_outcomes)


def outcome_distribution(chi: ParameterState, amps) -> np.ndarray:
    """Outcome probabilities P(r) = sum_g |chi_g|^2 |A_r(phi_g)|^2."""
    if amps.grid_shape != chi.grid_shape:
        raise ValueError(
            f"amplitude grid {amps.grid_shape} != parameter grid {chi.grid_shape}"
        )
    dist = amps.distribution(chi.probabilities().reshape(-1))
    if abs(dist.sum() - 1.0) > _CELL_NORM_TOL:
        raise NumericsError("outcome distribution does not sum to 1 within 1e-9")
    return dist


def sample_and_update(chi: ParameterState, amps, rng: np.random.Generator):
    """Sample one projective outcome and apply the conditioning filter.

    ``amps`` is a trial object as described in the module docstring.
    Returns ``(outcome, updated_state)``.  The outcome is drawn with a
    single uniform draw via the inverse CDF in fixed outcome order; the
    updated wavefunction is chi_g * A_r(phi_g) renormalized, so only the
    sampled outcome's amplitude column is ever needed.  For binary
    Grover trials the aggregated fail amplitude already absorbs the
    common factor shared by all wrong elements, so the aggregation is
    exact, not an approximation.
    """
    dist = outcome_distribution(chi, amps)
    r = _sample_index(dist, rng)
    if dist[r] < 1e-300:
        raise NumericsError("sampled an outcome of vanishing probability")
    filtered = chi.amplitudes * amps.outcome_amplitude(r)
    norm = np.linalg.norm(filtered)
    return r, ParameterState(filtered / norm, chi.domains)


def brute_force_joint_step(
    chi: ParameterState, circuit, input_state: PureState, rng: np.random.Generator
):
    """Reference implementation via the explicit joint state.

    Builds sum_g chi_g |g> (x) U(phi_g)|input> as one dense vector,
    measures the processor factor projectively (single inverse-CDF draw
    over ascending basis order), and extracts the conditional parameter
    state.  Fed the same random stream, it must reproduce
    :func:`sample_and_update` exactly; it is deliberately written from
    the joint-state definition rather than the cell-wise filter.

    ``circuit`` is a callable ``circuit(phi, input_state) -> PureState``
    giving the processor output at parameter value phi.  Only meant for
    test scales: refuses to run when cells * 2**n exceeds 2**16.
    """
    cells = int(np.prod(chi.grid_shape))
    dim = input_state.amplitudes.size
    if cells * dim > _JOINT_LIMIT:
        raise ValueError(
            f"joint dimension {cells * dim} exceeds the test-scale limit {_JOINT_LIMIT}"
        )
    chi_flat = chi.amplitudes.reshape(-1)
    if chi.ndim == 1:
        values = [(v,) for v in chi.axis_values(0)]
    else:
        grids = np.meshgrid(*[chi.axis_values(a) for a in range(chi.ndim)], indexing="ij")
        values = list(zip(*[g.reshape(-1) for g in grids]))
    joint = np.empty((cells, dim), dtype=np.complex128)
    for g, phi in enumerate(values):
        arg = phi[0] if len(phi) == 1 else phi
        joint[g] = chi_flat[g] * circuit(arg, input_state).amplitudes
    outcome_probs = np.sum(np.abs(joint) ** 2, axis=0)
    r = _sample_index(outcome_probs, rng)
    conditional = joint[:, r]
    norm = np.linalg.norm(conditional)
    if norm < 1e-150:
        raise NumericsError("measured an outcome of vanishing probability")
    new_amps = (conditional / norm).reshape(chi.grid_shape)
    return r, ParameterState(new_amps, chi.domains)
