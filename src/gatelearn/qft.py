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
pass probability have closed product forms.  The training loop draws
each trial's outcome and amplitude column with
:class:`ProductFormTrials`.  The circuit itself is simulated gate by
gate only in :mod:`gatelearn.oracle`, the independent oracle the tests
check both product forms against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError

__all__ = [
    "AqftInstance",
    "standard_phases",
    "ProductFormTrials",
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


def _checked_phase_grid(instance: AqftInstance, phase_grid) -> np.ndarray:
    phase_grid = np.atleast_2d(np.asarray(phase_grid, dtype=float))
    if phase_grid.shape[1] != instance.band:
        raise ValueError(f"phase grid needs {instance.band} columns")
    if not np.isfinite(phase_grid).all():
        raise ValueError("phase grid holds a NaN or infinite phase")
    return phase_grid


# ---------------------------------------------------------------------------
# product-form trial engine

class ProductFormTrials:
    """Outcome draws of the banded circuit's trials, from its product form.

    The circuit maps the product-state input of a trial to a product
    state, so every outcome amplitude factorizes over the outcome bits:

        A_r(phi) = prod_q (1 + (-1)^{r_q} e^{i theta_q}) / 2,
        theta_q  = alpha_q(k) + sum_{d=1..band} phi_d r_{q-d},
        alpha_q(k) = -2 pi k 2^{n-1-q} / 2^n,

    with r_q bit q of the outcome r (read off qubit n-1-q) and r_j = 0
    for j < 0.  |factor q|^2 = (1 +- cos theta_q) / 2, so its two values
    for bit q sum to 1 whatever the lower bits are: |factor q|^2 is the
    conditional probability of bit q given the bits below it, and
    P(r) = sum_g w_g prod_q |factor q|^2 is a chain from bit 0 upward.
    :meth:`draw` walks that chain once per run, which is the inverse CDF
    in bit-reversed outcome order, at O(n cells) cost and memory.
    :func:`gatelearn.oracle.trial_output_batch` is the oracle.
    """

    def __init__(self, instance: AqftInstance, phase_grid, grid_shape: tuple | None = None):
        phase_grid = _checked_phase_grid(instance, phase_grid)
        cells = phase_grid.shape[0]
        self.n_qubits, self.band = instance.n_qubits, instance.band
        self.grid_shape = (cells,) if grid_shape is None else tuple(grid_shape)
        if int(np.prod(self.grid_shape)) != cells:
            raise ValueError(f"grid shape {self.grid_shape} does not hold {cells} cells")
        # e^{i theta_q - i alpha_q} / 2 for every window of bits q-band..q-1
        window = np.arange(1 << self.band)[:, None]
        angles = np.zeros((1 << self.band, cells))
        for d in range(1, self.band + 1):
            angles += ((window >> (self.band - d)) & 1) * phase_grid[:, d - 1]
        self._half_phase = 0.5 * np.exp(1j * angles)

    def draw(self, ks, weights: np.ndarray, targets):
        """Each run's outcome, its probability and its amplitude column.

        Run i prepares the trial whose expected outcome is ``ks[i]``,
        weighs the cells by row i of the ``(runs, cells)`` array
        ``weights`` (|chi_g|^2), and draws the outcome whose interval of
        the CDF in bit-reversed order holds ``targets[i]`` (u times the
        row's total): bit q is 1 where the target is not below the mass
        of bit q = 0.  Returns ``(outcomes, masses, columns)``: the
        drawn r, P(r), and A_r(phi_g) of shape ``(runs, *grid_shape)``.
        Every step acts on a run's row alone, so a row does not depend
        on the batch around it.  Raises when an outcome of vanishing
        probability is drawn.
        """
        n, band, dim = self.n_qubits, self.band, 1 << self.n_qubits
        ks = np.asarray(ks, dtype=np.int64)
        if not (ks.min() >= 0 and ks.max() < dim):
            raise ValueError("basis index out of range")
        # e^{i alpha_q(k)} of every run and outcome bit
        turns = (ks[:, None] << (n - 1 - np.arange(n))) % dim
        rotation = np.exp(-2j * np.pi * turns / dim)
        outcomes = np.zeros(len(ks), dtype=np.int64)
        remaining = np.array(targets, dtype=float)
        mass = np.array(weights, dtype=float)
        column = np.ones(mass.shape, dtype=np.complex128)
        factor = np.empty(mass.shape, dtype=np.complex128)
        for q in range(n):
            window = ((outcomes << band) >> q) & ((1 << band) - 1)
            np.multiply(self._half_phase[window], rotation[:, q, None], out=factor)
            factor += 0.5  # (1 + e^{i theta_q}) / 2: bit q = 0
            # one dot product per row, as in backaction._row_norms
            zero = np.matmul(mass[:, None, :], factor.real[:, :, None])[:, 0, 0]
            one = remaining >= zero
            remaining -= np.where(one, zero, 0.0)
            outcomes |= one << q
            np.subtract(1.0, factor, out=factor, where=one[:, None])  # bit q = 1
            mass *= factor.real
            column *= factor
        masses = mass.sum(axis=1)
        # written so that a NaN mass fails too
        if not masses.min() >= 1e-300:
            raise NumericsError("sampled an outcome of vanishing probability")
        return outcomes, masses, column.reshape((len(ks),) + self.grid_shape)


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
