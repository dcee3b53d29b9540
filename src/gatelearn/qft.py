"""Banded quantum Fourier transform with trainable controlled-phase angles.

The textbook Fourier circuit applies, per qubit, a Hadamard followed by
controlled phase gates whose standard angles pi/2^j fall off with the
qubit separation j, and finishes with a bit-reversal swap so the whole
circuit equals the DFT matrix F[j,k] = e^{2 pi i jk / 2^n} / sqrt(2^n).
The banded variant keeps only gates with separation j <= band and makes
their angles trainable (one angle per separation, shared across qubit
pairs).

Verification protocol: a trial prepares the exact inverse Fourier image
of a uniformly drawn basis state |k>, runs the banded circuit, and
passes iff the measured outcome equals k.  The circuit maps basis
states, and the trial input, to tensor products of single-qubit
phases, so both the per-trial outcome amplitudes and the k-averaged
pass probability have closed product forms.  The training loop takes
its per-trial outcome data from :class:`ProductFormTrials`; the
gate-by-gate statevector path (:func:`trial_output_batch`,
:func:`trial_success_amplitude`) is the independent oracle the tests
check both product forms against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backaction import _CELL_NORM_TOL
from .errors import NumericsError
from .statevector import (
    HADAMARD,
    PureState,
    _apply_cphase,
    _apply_single_qubit,
    _apply_swap,
)

__all__ = [
    "AqftInstance",
    "standard_phases",
    "apply_aqft",
    "apply_aqft_inverse",
    "trial_success_amplitude",
    "ProductFormTrials",
    "TrialOutcomes",
    "average_success",
    "average_success_map",
]

_MAX_QUBITS = 20


def standard_phases(band: int) -> tuple:
    """Textbook controlled-phase angles pi/2^j for separations 1..band."""
    return tuple(np.pi / 2**j for j in range(1, band + 1))


@dataclass(frozen=True)
class AqftInstance:
    """Banded Fourier circuit on ``n_qubits`` qubits.

    ``phases[j-1]`` is the controlled-phase angle applied between qubits
    at separation j; gates at separation beyond ``band`` are omitted.
    With ``band = n_qubits - 1`` and standard phases the circuit is the
    exact Fourier transform.
    """

    n_qubits: int
    band: int
    phases: tuple

    def __post_init__(self):
        if not 2 <= self.n_qubits <= _MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [2, {_MAX_QUBITS}]")
        if not 0 <= self.band <= self.n_qubits - 1:
            raise ValueError("band must satisfy 0 <= band <= n_qubits - 1")
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != self.band:
            raise ValueError(f"need exactly {self.band} phases, got {len(phases)}")
        object.__setattr__(self, "phases", phases)

    @classmethod
    def standard(cls, n_qubits: int, band: int) -> "AqftInstance":
        return cls(n_qubits, band, standard_phases(band))

    def with_phases(self, phases) -> "AqftInstance":
        return AqftInstance(self.n_qubits, self.band, tuple(phases))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


# ---------------------------------------------------------------------------
# circuit application

def _run_circuit(amps: np.ndarray, n: int, band: int, phases, inverse: bool = False) -> None:
    """Apply the banded Fourier circuit in place on a (batch, 2**n) array.

    ``phases`` entries may be scalars or (batch,) arrays, enabling one
    vectorized pass over many parameter values.
    """
    if not inverse:
        for i in range(n - 1, -1, -1):
            _apply_single_qubit(amps, i, HADAMARD)
            for d in range(1, min(band, i) + 1):
                _apply_cphase(amps, i, i - d, np.exp(1j * np.asarray(phases[d - 1])))
        for i in range(n // 2):
            _apply_swap(amps, i, n - 1 - i)
    else:
        for i in range(n // 2):
            _apply_swap(amps, i, n - 1 - i)
        for i in range(n):
            for d in range(min(band, i), 0, -1):
                _apply_cphase(amps, i, i - d, np.exp(-1j * np.asarray(phases[d - 1])))
            _apply_single_qubit(amps, i, HADAMARD)


def apply_aqft(instance: AqftInstance, state: PureState) -> PureState:
    """Run the banded Fourier circuit on a processor state."""
    if state.n_qubits != instance.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit expects {instance.n_qubits}"
        )
    out = state.copy()
    _run_circuit(out.amplitudes[None, :], instance.n_qubits, instance.band, instance.phases)
    return out


def apply_aqft_inverse(instance: AqftInstance, state: PureState) -> PureState:
    """Run the inverse of the banded circuit (undoes :func:`apply_aqft`)."""
    if state.n_qubits != instance.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit expects {instance.n_qubits}"
        )
    out = state.copy()
    _run_circuit(
        out.amplitudes[None, :], instance.n_qubits, instance.band, instance.phases,
        inverse=True,
    )
    return out


def _fourier_input(n: int, k: int) -> np.ndarray:
    """Exact inverse-Fourier image of |k>: amplitudes e^{-2 pi i jk/2^n}/sqrt(2^n)."""
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(-2j * np.pi * j * (k % dim) / dim) / np.sqrt(dim)


def trial_success_amplitude(instance: AqftInstance, k: int):
    """One verification trial: full output amplitudes and the expected outcome.

    Prepares the exact inverse-Fourier image of |k> (a simulator-side
    idealization with a closed form), runs the banded circuit, and
    returns ``(output_amplitudes, k)``.  The trial passes iff the
    projective readout of the output yields k, so ``output[k]`` is the
    pass amplitude.
    """
    if not 0 <= k < instance.dim:
        raise ValueError(f"basis index {k} out of range")
    amps = _fourier_input(instance.n_qubits, k)[None, :].copy()
    _run_circuit(amps, instance.n_qubits, instance.band, instance.phases)
    return amps[0], k


def _checked_phase_grid(instance: AqftInstance, phase_grid) -> np.ndarray:
    phase_grid = np.atleast_2d(np.asarray(phase_grid, dtype=float))
    if phase_grid.shape[1] != instance.band:
        raise ValueError(f"phase grid needs {instance.band} columns")
    return phase_grid


def trial_output_batch(instance: AqftInstance, k: int, phase_grid: np.ndarray) -> np.ndarray:
    """Trial output vectors for many phase assignments at once.

    ``phase_grid`` has shape (cells, band); returns (cells, 2**n) by
    gate-by-gate simulation.  The training loop uses the product form
    (:class:`ProductFormTrials`) instead; this is its oracle.
    """
    phase_grid = _checked_phase_grid(instance, phase_grid)
    cells = phase_grid.shape[0]
    amps = np.broadcast_to(
        _fourier_input(instance.n_qubits, k), (cells, instance.dim)
    ).copy()
    per_cell = [phase_grid[:, d] for d in range(instance.band)]
    _run_circuit(amps, instance.n_qubits, instance.band, per_cell)
    return amps


# ---------------------------------------------------------------------------
# product-form trial engine

class TrialOutcomes:
    """Outcome data of one verification trial on every parameter grid cell.

    ``table`` is the outcome-major (2**n, cells) array of |A_r(phi_g)|^2
    in ascending outcome order; the complex column A_r of the one
    sampled outcome is built on demand from the factor angles.
    """

    __slots__ = ("grid_shape", "n_outcomes", "table", "_angles")

    def __init__(self, table: np.ndarray, angles: list, grid_shape: tuple):
        if np.abs(table.sum(axis=0) - 1.0).max() > _CELL_NORM_TOL:
            raise NumericsError("per-cell outcome norm deviates from 1 beyond 1e-9")
        self.table, self._angles = table, angles
        self.grid_shape, self.n_outcomes = grid_shape, table.shape[0]

    def distribution(self, weights: np.ndarray) -> np.ndarray:
        """Outcome probabilities for flattened cell weights |chi_g|^2."""
        return self.table @ weights

    def outcome_amplitude(self, outcome: int) -> np.ndarray:
        """Per-cell amplitude A_r(phi_g) of one outcome, shape ``grid_shape``."""
        if not 0 <= outcome < self.n_outcomes:
            raise ValueError(f"outcome {outcome} out of range")
        column = np.ones(self._angles[0].shape[1], dtype=np.complex128)
        for q, theta in enumerate(self._angles):
            w = theta.shape[0].bit_length() - 1
            sign = -1.0 if (outcome >> q) & 1 else 1.0
            window = (outcome >> (q - w)) & ((1 << w) - 1)
            column *= 0.5 * (1.0 + sign * np.exp(1j * theta[window]))
        return column.reshape(self.grid_shape)


class ProductFormTrials:
    """Per-trial outcome data of the banded circuit, from its product form.

    The circuit maps the product-state input of a trial to a product
    state, so every outcome amplitude factorizes over the qubits:

        A_r(phi) = prod_i (1 + (-1)^{b_i} e^{i theta_i}) / 2,
        theta_i  = alpha_i(k) + sum_{d=1..w} phi_d b_{i+d},
        alpha_i(k) = -2 pi k 2^i / 2^n,   w = min(band, n-1-i),

    with b the bit reversal of the outcome r, and |factor i|^2 is
    cos^2(theta_i/2) or sin^2(theta_i/2) = 1 - cos^2 as b_i is 0 or 1.
    Factor i reads only the outcome bits q-w..q, q = n-1-i, so theta_i
    is a (2^w, cells) table whose k-independent part is built here once;
    a trial adds the scalar alpha_i(k), tiles the factors into the
    outcome-major probability table and keeps the angles for the sampled
    column.  :func:`trial_output_batch` is the oracle.
    """

    def __init__(self, instance: AqftInstance, phase_grid, grid_shape: tuple | None = None):
        phase_grid = _checked_phase_grid(instance, phase_grid)
        n, band, cells = instance.n_qubits, instance.band, phase_grid.shape[0]
        self.n_qubits = n
        self.grid_shape = (cells,) if grid_shape is None else tuple(grid_shape)
        if int(np.prod(self.grid_shape)) != cells:
            raise ValueError(f"grid shape {self.grid_shape} does not hold {cells} cells")
        self._base = []  # indexed by outcome bit q, which carries b_i of qubit i = n-1-q
        for q in range(n):
            w = min(band, q)
            window = np.arange(1 << w)[:, None]  # outcome bits q-w..q-1
            angles = np.zeros((1 << w, cells))
            for d in range(1, w + 1):
                angles += ((window >> (w - d)) & 1) * phase_grid[:, d - 1]
            self._base.append(angles)

    def trial(self, k: int) -> TrialOutcomes:
        """Outcome data of the trial whose expected outcome is ``k``."""
        n = self.n_qubits
        dim = 1 << n
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range")
        cells = self._base[0].shape[1]
        table = np.empty((dim, cells))
        table[0] = 1.0
        angles = []
        for q, base in enumerate(self._base):
            w = base.shape[0].bit_length() - 1
            theta = base + (-2.0 * np.pi * ((k << (n - 1 - q)) % dim) / dim)
            cos2 = (np.cos(theta / 2.0) ** 2)[:, None, :]
            # grow the table from the low q outcome bits to the low q+1
            low = table[: 1 << q].reshape(1 << w, 1 << (q - w), cells)
            high = table[1 << q : 2 << q].reshape(low.shape)
            np.multiply(low, 1.0 - cos2, out=high)
            low *= cos2
            angles.append(theta)
        return TrialOutcomes(table, angles, self.grid_shape)


# ---------------------------------------------------------------------------
# closed-form averaged success

class _DiagonalModel:
    """Product form of the per-trial pass probability, averaged over k.

    The circuit sends any basis state to a tensor product of
    single-qubit states (each controlled-phase gate fires while its
    upper qubit is still in the computational basis), and so does the
    adjoint circuit.  The pass amplitude <k| U F^dag |k> therefore
    factorizes into n two-dimensional overlaps:

        p(k) = prod_i cos^2(delta_i(k) / 2),
        delta_i(k) = sum_{d<=min(band,L)} (phase_d - pi/2^d) b_{L-d}
                     - sum_{band<d<=L} (pi/2^d) b_{L-d},     L = n-1-i,

    with b_j the j-th bit of k.  Evaluating the average over all 2^n
    values of k costs O(n 2^n) flops, which keeps phase optimization
    and per-grid-cell success maps exact at every register size.
    """

    def __init__(self, n: int, band: int):
        dim = 1 << n
        k = np.arange(dim)
        bits = ((k[None, :] >> np.arange(n)[:, None]) & 1).astype(float)
        tails = np.zeros((n, dim))
        trained = np.zeros((band, n, dim))
        for i in range(n):
            L = n - 1 - i
            for d in range(1, L + 1):
                if d <= band:
                    trained[d - 1, i] = bits[L - d]
                else:
                    tails[i] -= np.pi / 2**d * bits[L - d]
        self.n, self.band = n, band
        self.tails, self.trained = tails, trained
        self.std = np.array(standard_phases(band))

    def success(self, phases) -> float:
        return float(self.success_many(np.asarray([phases], dtype=float))[0])

    def success_many(self, phase_grid: np.ndarray) -> np.ndarray:
        """Vectorized over rows of a (cells, band) phase table.

        delta_i(k) depends on k only through its low L = n-1-i bits, so
        each qubit's factor is evaluated on those 2^L values and tiled
        across k: 2^n cosines per cell instead of n 2^n, with every
        factor, product and mean computed exactly as on the full table.
        """
        cells = phase_grid.shape[0]
        dim = 1 << self.n
        offsets = phase_grid - self.std
        out = np.empty(cells)
        # chunk so the (chunk, 2^n) product table stays around 2^22 floats
        chunk = max(1, (1 << 22) // dim)
        for start in range(0, cells, chunk):
            block = offsets[start : start + chunk]
            rows = block.shape[0]
            prod = np.empty((rows, dim))
            for i in range(self.n):
                width = 1 << (self.n - 1 - i)
                delta = np.broadcast_to(self.tails[i, :width], (rows, width)).copy()
                for d in range(self.band):
                    delta += block[:, d, None] * self.trained[d, i, :width]
                factor = (np.cos(delta / 2.0) ** 2)[:, None, :]
                tiled = prod.reshape(rows, -1, width)
                if i == 0:
                    tiled[...] = factor
                else:
                    tiled *= factor
            out[start : start + rows] = prod.mean(axis=1)
        return out


@lru_cache(maxsize=32)
def _diagonal_model(n: int, band: int) -> _DiagonalModel:
    return _DiagonalModel(n, band)


def average_success(instance: AqftInstance) -> float:
    """Pass probability of the verification trial averaged over all k.

    p_bar = (1/2^n) sum_k |<k| U F^dag |k>|^2, evaluated exactly over
    every basis state via the product form above.
    """
    return _diagonal_model(instance.n_qubits, instance.band).success(instance.phases)


def average_success_map(instance: AqftInstance, phase_grid: np.ndarray) -> np.ndarray:
    """Exact k-averaged success for every row of a (cells, band) phase table."""
    phase_grid = _checked_phase_grid(instance, phase_grid)
    return _diagonal_model(instance.n_qubits, instance.band).success_many(phase_grid)
