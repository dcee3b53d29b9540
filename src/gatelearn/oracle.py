"""Slow, independent oracles of the fast paths, for the tests and ``gatelearn selftest``.

Every reference lives here, built once; the comparisons live in
:mod:`gatelearn.selftest` and the tests.

* A dense statevector engine for the qubit processor register.  States
  are complex amplitude vectors over the computational basis with
  little-endian ordering: qubit 0 is the least significant bit of the
  basis index.  Gates are applied as in-place amplitude-pair updates on
  views of the vector, never as explicit 2^n x 2^n matrices, so
  registers up to about 20 qubits stay cheap.  The private ``_apply_*``
  kernels operate on a 2-D array of shape (batch, 2**n) so that batched
  circuit evaluation (many parameter values, many input states) shares
  the exact same arithmetic as single states.
* The banded Fourier circuit simulated gate by gate and the dense DFT
  matrix, the oracles of the product forms in :mod:`gatelearn.qft`.
* The full N-element search statevector, the oracle of the 2x2
  recursion in :mod:`gatelearn.grover`.
* The dense walk exponential and the walk's Bessel kernel, the oracles
  of the FFT walk in :mod:`gatelearn.feedback`; they import scipy when
  called, so ``import gatelearn`` stays free of it.
* The explicit joint-state measurement :func:`brute_force_joint_step`,
  the oracle of the conditioning filter in :mod:`gatelearn.backaction`.

No module of the training loop imports this one.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import NumericsError
from .grover import GroverInstance
from .parameter import grid_points, phase_table
from .qft import AqftInstance, _checked_phase_grid

__all__ = [
    "PureState",
    "HADAMARD",
    "apply_single_qubit_gate",
    "apply_controlled_phase",
    "apply_aqft",
    "trial_success_amplitude",
    "trial_output_batch",
    "average_success_statevector",
    "bit_conditionals",
    "dft_matrix",
    "search_statevector",
    "walk_matrix",
    "walk_bessel_kernel",
    "brute_force_joint_step",
]

_UNITARY_TOL = 1e-10
_MEASURE_NORM_TOL = 1e-6
_JOINT_LIMIT = 1 << 16

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


class PureState:
    """Normalized pure state of ``n_qubits`` qubits.

    Parameters
    ----------
    n_qubits : int
        Number of qubits (at least 1).
    amplitudes : array_like of complex, optional
        Length ``2**n_qubits`` amplitude vector.  Defaults to |0...0>.
        The vector must be normalized to within 1e-6.
    """

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes=None):
        if n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
        dim = 1 << n_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=np.complex128)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=np.complex128).copy()
            if amps.shape != (dim,):
                raise ValueError(
                    f"expected {dim} amplitudes for {n_qubits} qubits, got shape {amps.shape}"
                )
            norm = np.linalg.norm(amps)
            # written so that a NaN norm fails too
            if not abs(norm - 1.0) <= _MEASURE_NORM_TOL:
                raise NumericsError(f"state norm {norm} deviates from 1 beyond 1e-6")
        self.n_qubits = n_qubits
        self.amplitudes = amps

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "PureState":
        """Computational basis state |index>."""
        dim = 1 << n_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "PureState":
        dup = PureState.__new__(PureState)
        dup.n_qubits = self.n_qubits
        dup.amplitudes = self.amplitudes.copy()
        return dup

    def __repr__(self) -> str:
        return f"PureState(n_qubits={self.n_qubits})"


# ---------------------------------------------------------------------------
# batched in-place kernels (state axis last, batch axis first)

def _apply_single_qubit(amps: np.ndarray, qubit: int, gate: np.ndarray) -> None:
    """In-place single-qubit gate on a (batch, 2**n) array."""
    view = amps.reshape(amps.shape[0], -1, 2, 1 << qubit)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = gate[0, 0] * a0 + gate[0, 1] * a1
    view[:, :, 1, :] = gate[1, 0] * a0 + gate[1, 1] * a1


def _pair_view(amps: np.ndarray, qa: int, qb: int) -> np.ndarray:
    """Reshape (batch, 2**n) exposing the bit axes of two distinct qubits."""
    hi, lo = max(qa, qb), min(qa, qb)
    return amps.reshape(amps.shape[0], -1, 2, 1 << (hi - lo - 1), 2, 1 << lo)


def _apply_cphase(amps: np.ndarray, qa: int, qb: int, phase) -> None:
    """In-place controlled phase: multiply the |11> sector by ``phase``.

    ``phase`` may be a scalar or an array of shape (batch,) for
    batch-dependent angles.
    """
    view = _pair_view(amps, qa, qb)
    if np.ndim(phase) == 0:
        view[:, :, 1, :, 1, :] *= phase
    else:
        view[:, :, 1, :, 1, :] *= np.asarray(phase)[:, None, None, None]


def _apply_swap(amps: np.ndarray, qa: int, qb: int) -> None:
    """In-place SWAP of two qubits."""
    view = _pair_view(amps, qa, qb)
    tmp = view[:, :, 0, :, 1, :].copy()
    view[:, :, 0, :, 1, :] = view[:, :, 1, :, 0, :]
    view[:, :, 1, :, 0, :] = tmp


# ---------------------------------------------------------------------------
# public operations

def apply_single_qubit_gate(state: PureState, qubit: int, gate) -> PureState:
    """Apply a unitary 2x2 gate to one qubit, returning a new state.

    The gate is rejected if it deviates from unitarity by more than 1e-10.
    """
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    if not np.abs(gate.conj().T @ gate - np.eye(2)).max() <= _UNITARY_TOL:
        raise ValueError("gate is not unitary within 1e-10")
    out = state.copy()
    _apply_single_qubit(out.amplitudes[None, :], qubit, gate)
    return out


def apply_controlled_phase(state: PureState, control: int, target: int, angle: float) -> PureState:
    """Multiply amplitudes with both ``control`` and ``target`` bits set by e^{i angle}."""
    n = state.n_qubits
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    out = state.copy()
    _apply_cphase(out.amplitudes[None, :], control, target, np.exp(1j * angle))
    return out


# ---------------------------------------------------------------------------
# the banded Fourier circuit, gate by gate

def _run_circuit(amps: np.ndarray, n: int, band: int, phases) -> None:
    """Apply the banded Fourier circuit in place on a (batch, 2**n) array.

    ``phases`` entries may be scalars or (batch,) arrays, enabling one
    vectorized pass over many parameter values.
    """
    for i in range(n - 1, -1, -1):
        _apply_single_qubit(amps, i, HADAMARD)
        for d in range(1, min(band, i) + 1):
            _apply_cphase(amps, i, i - d, np.exp(1j * np.asarray(phases[d - 1])))
    for i in range(n // 2):
        _apply_swap(amps, i, n - 1 - i)


def apply_aqft(instance: AqftInstance, state: PureState) -> PureState:
    """Run the banded Fourier circuit on a processor state."""
    if state.n_qubits != instance.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, circuit expects {instance.n_qubits}"
        )
    out = state.copy()
    _run_circuit(out.amplitudes[None, :], instance.n_qubits, instance.band, instance.phases)
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
    return trial_output_batch(instance, k, [instance.phases])[0], k


def trial_output_batch(instance: AqftInstance, k: int, phase_grid: np.ndarray) -> np.ndarray:
    """Trial output vectors for many phase assignments at once.

    ``phase_grid`` has shape (cells, band); returns (cells, 2**n) by
    gate-by-gate simulation.  The training loop draws from the product
    form (:class:`gatelearn.productform.ProductFormTrials`) instead; this is its
    oracle.
    """
    phase_grid = _checked_phase_grid(instance, phase_grid)
    cells = phase_grid.shape[0]
    amps = np.broadcast_to(
        _fourier_input(instance.n_qubits, k), (cells, instance.dim)
    ).copy()
    per_cell = [phase_grid[:, d] for d in range(instance.band)]
    _run_circuit(amps, instance.n_qubits, instance.band, per_cell)
    return amps


def average_success_statevector(instance: AqftInstance) -> float:
    """The k-averaged pass probability, every trial simulated gate by gate.

    Row k of one batch is the exact inverse-Fourier image of |k>; the
    mean of |output_k[k]|^2 over all 2^n values of k is the oracle of
    :func:`gatelearn.qft.average_success` and its map.
    """
    amps = dft_matrix(instance.n_qubits).conj()
    _run_circuit(amps, instance.n_qubits, instance.band, instance.phases)
    return float(np.mean(np.abs(np.diagonal(amps)) ** 2))


def bit_conditionals(probs, outcome: int) -> np.ndarray:
    """Each bit's conditional probability of 0, given one outcome's lower bits.

    ``probs`` is a dense distribution over the 2^n outcomes (one cell's
    |A_r|^2, say).  Entry q is the probability that bit q is 0 given
    that bits 0..q-1 equal those of ``outcome``: the sum of ``probs``
    over the outcomes that share those bits and have bit q = 0, over
    the sum over all that share them.  The product-form Fourier draw
    (:meth:`gatelearn.productform.ProductFormTrials.draw`) takes bit q as 1
    where its uniform is not below this value at the latent cell.
    """
    probs = np.asarray(probs, dtype=float)
    r = np.arange(len(probs))
    zero = []
    for q in range(len(probs).bit_length() - 1):
        low = (1 << q) - 1
        shared = (r & low) == (outcome & low)
        zero.append(probs[shared & ((r >> q) & 1 == 0)].sum() / probs[shared].sum())
    return np.array(zero)


def dft_matrix(n: int) -> np.ndarray:
    """The dense 2^n x 2^n Fourier matrix e^{2 pi i jk / 2^n} / sqrt(2^n)."""
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


# ---------------------------------------------------------------------------
# the full-dimensional search

def search_statevector(instance: GroverInstance, phi: float) -> np.ndarray:
    """The search output over all N elements, simulated in the full space.

    Each round multiplies the target (element 0) by e^{i phi} and then
    reflects about the uniform superposition.
    """
    n = instance.n_elements
    uniform = np.full(n, 1 / np.sqrt(n), dtype=complex)
    state = uniform.copy()
    for _ in range(instance.iterations):
        state[0] *= np.exp(1j * phi)
        state = 2 * uniform * (uniform.conj() @ state) - state
    return state


# ---------------------------------------------------------------------------
# the quantum walk

def walk_matrix(grid_shape, x: float) -> np.ndarray:
    """The walk as one dense matrix over the flattened grid.

    Per axis, scipy's dense expm(-i x (T + T^-1)) with T the cyclic
    one-cell shift; the axes combine as a Kronecker product in C order.
    """
    from scipy.linalg import expm

    shifts = [np.roll(np.eye(cells), 1, axis=0) for cells in grid_shape]
    return reduce(np.kron, [expm(-1j * x * (t + t.T)) for t in shifts])


def walk_bessel_kernel(cells: int, x: float) -> np.ndarray:
    """The walk applied to a delta on a ring of ``cells``, from Bessel values.

    Amplitude (-i)^l J_l(2x) at distance l on either side, with J from
    scipy; the ring's kernel while it is negligible beyond cells / 2.
    """
    from scipy.special import jv

    distance = np.minimum(np.arange(cells), cells - np.arange(cells))
    return (-1j) ** (distance % 4) * jv(distance, 2 * x)


# ---------------------------------------------------------------------------
# the explicit joint state

def brute_force_joint_step(
    chi: np.ndarray, circuit, input_state: PureState, rng: np.random.Generator
):
    """Reference implementation via the explicit joint state.

    ``chi`` is one run's wavefunction on the product grid, each axis
    carrying :func:`grid_points` of its length.  Builds sum_g chi_g |g> (x)
    U(phi_g)|input> as one dense vector, measures the processor factor
    projectively (single inverse-CDF draw over ascending basis order),
    and returns the outcome and the conditional parameter wavefunction,
    shaped like ``chi``.  Fed the same random stream, it must reproduce
    the training loop's kernels (:func:`gatelearn.backaction.sample_batch`
    and :func:`gatelearn.backaction.filter_batch`) exactly; it is
    deliberately written from the joint-state definition rather than the
    cell-wise filter.

    ``circuit`` is a callable ``circuit(phi, input_state) -> PureState``
    giving the processor output at parameter value phi (a row of phases
    on a grid of several axes).  Only meant for test scales: refuses to
    run when cells * 2**n exceeds 2**16.
    """
    chi = np.asarray(chi, dtype=np.complex128)
    dim = input_state.amplitudes.size
    if chi.size * dim > _JOINT_LIMIT:
        raise ValueError(
            f"joint dimension {chi.size * dim} exceeds the test-scale limit {_JOINT_LIMIT}"
        )
    chi_flat = chi.reshape(-1)
    joint = np.empty((chi.size, dim), dtype=np.complex128)
    for g, phi in enumerate(phase_table([grid_points(cells) for cells in chi.shape])):
        arg = phi[0] if len(phi) == 1 else phi
        joint[g] = chi_flat[g] * circuit(arg, input_state).amplitudes
    cdf = np.cumsum(np.sum(np.abs(joint) ** 2, axis=0))
    r = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), dim - 1)
    conditional = joint[:, r]
    norm = np.linalg.norm(conditional)
    # written so that a NaN norm fails too
    if not norm >= 1e-150:
        raise NumericsError("measured an outcome of vanishing probability")
    return r, (conditional / norm).reshape(chi.shape)
