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
* The success's spectrum from an exact sample and an FFT, the oracle of
  the spectrum recursion in :mod:`gatelearn.qft`.
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
from .qft import AqftInstance, _checked_phase_grid, average_success_map

__all__ = [
    "basis_state",
    "HADAMARD",
    "apply_single_qubit_gate",
    "apply_controlled_phase",
    "apply_aqft",
    "trial_success_amplitude",
    "trial_output_batch",
    "average_success_statevector",
    "spectrum_phases",
    "sampled_spectrum",
    "bit_conditionals",
    "dft_matrix",
    "search_statevector",
    "walk_matrix",
    "walk_bessel_kernel",
    "brute_force_joint_step",
]

_UNITARY_TOL = 1e-10
_JOINT_LIMIT = 1 << 16

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> of ``n_qubits`` qubits, as 2^n amplitudes."""
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    if not 0 <= index < amps.size:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps[index] = 1.0
    return amps


def _qubit_count(amps: np.ndarray) -> int:
    """The register size n of a 1-D vector of 2^n amplitudes (n >= 1)."""
    n = amps.size.bit_length() - 1
    if amps.ndim != 1 or n < 1 or amps.size != 1 << n:
        raise ValueError(f"expected 2^n amplitudes with n >= 1, got shape {amps.shape}")
    return n


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

def apply_single_qubit_gate(state, qubit: int, gate) -> np.ndarray:
    """Apply a unitary 2x2 gate to one qubit of 2^n amplitudes, returning new amplitudes.

    The gate is rejected if it deviates from unitarity by more than 1e-10.
    """
    out = np.array(state, dtype=np.complex128)
    n = _qubit_count(out)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (2, 2):
        raise ValueError(f"gate must be 2x2, got shape {gate.shape}")
    if not np.abs(gate.conj().T @ gate - np.eye(2)).max() <= _UNITARY_TOL:
        raise ValueError("gate is not unitary within 1e-10")
    _apply_single_qubit(out[None, :], qubit, gate)
    return out


def apply_controlled_phase(state, control: int, target: int, angle: float) -> np.ndarray:
    """Multiply amplitudes with both ``control`` and ``target`` bits set by e^{i angle}."""
    out = np.array(state, dtype=np.complex128)
    n = _qubit_count(out)
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < n and 0 <= target < n):
        raise ValueError(f"qubits {control}, {target} out of range for {n} qubits")
    _apply_cphase(out[None, :], control, target, np.exp(1j * angle))
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


def apply_aqft(instance: AqftInstance, state) -> np.ndarray:
    """Run the banded Fourier circuit on 2^n processor amplitudes."""
    out = np.array(state, dtype=np.complex128)
    if _qubit_count(out) != instance.n_qubits:
        raise ValueError(f"state has {out.size} amplitudes, circuit expects {instance.dim}")
    _run_circuit(out[None, :], instance.n_qubits, instance.band, instance.phases)
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


def _sample_shape(instance: AqftInstance) -> tuple:
    return tuple(2 * (instance.n_qubits - d) + 1 for d in range(1, instance.band + 1))


def spectrum_phases(instance: AqftInstance) -> np.ndarray:
    """The ``(cells, band)`` phase table whose success values fix the spectrum.

    The k-averaged success is a trigonometric polynomial of degree at
    most D_d = n - d in phase_d, and P_d = 2 D_d + 1 uniform points
    2 pi j / P_d per axis, the fewest that fix its 2 D_d + 1
    coefficients, sample it without aliasing.  Rows run over the
    (P_1, ..., P_band) grid, last phase fastest.  Needs band >= 1.
    """
    return phase_table([np.arange(p) * (2.0 * np.pi / p) for p in _sample_shape(instance)])


def sampled_spectrum(instance: AqftInstance) -> np.ndarray:
    """The spectrum of :func:`gatelearn.qft.success_spectrum`, from an exact sample.

    The success at the rows of :func:`spectrum_phases`, transformed by
    one FFT.  Every axis of the sample has an odd number of points, so it
    has no Nyquist bin and every coefficient is the polynomial's own.
    """
    samples = average_success_map(instance, spectrum_phases(instance))
    # after the shift, frequency f of an axis of 2D + 1 points sits at D + f
    shape = _sample_shape(instance)
    return np.fft.fftshift(np.fft.fftn(np.reshape(samples, shape), norm="forward"))


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
    chi: np.ndarray, circuit, input_state: np.ndarray, rng: np.random.Generator
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

    ``circuit`` is a callable ``circuit(phi, input_state)`` returning the
    processor's 2^n output amplitudes at parameter value phi (a row of phases
    on a grid of several axes).  Only meant for test scales: refuses to
    run when cells * 2**n exceeds 2**16.
    """
    chi = np.asarray(chi, dtype=np.complex128)
    dim = 1 << _qubit_count(np.asarray(input_state))
    if chi.size * dim > _JOINT_LIMIT:
        raise ValueError(
            f"joint dimension {chi.size * dim} exceeds the test-scale limit {_JOINT_LIMIT}"
        )
    chi_flat = chi.reshape(-1)
    joint = np.empty((chi.size, dim), dtype=np.complex128)
    for g, phi in enumerate(phase_table([grid_points(cells) for cells in chi.shape])):
        arg = phi[0] if len(phi) == 1 else phi
        joint[g] = chi_flat[g] * circuit(arg, input_state)
    cdf = np.cumsum(np.sum(np.abs(joint) ** 2, axis=0))
    r = min(int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right")), dim - 1)
    conditional = joint[:, r]
    norm = np.linalg.norm(conditional)
    # written so that a NaN norm fails too
    if not norm >= 1e-150:
        raise NumericsError("measured an outcome of vanishing probability")
    return r, (conditional / norm).reshape(chi.shape)
