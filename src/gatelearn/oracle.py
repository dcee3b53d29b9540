"""Slow, independent oracles of the fast paths, for the tests and ``gatelearn selftest``.

* A dense statevector engine for the qubit processor register.  States
  are complex amplitude vectors over the computational basis with
  little-endian ordering: qubit 0 is the least significant bit of the
  basis index.  Gates are applied as in-place amplitude-pair updates on
  views of the vector, never as explicit 2^n x 2^n matrices, so
  registers up to about 20 qubits stay cheap.  The private ``_apply_*``
  kernels operate on a 2-D array of shape (batch, 2**n) so that batched
  circuit evaluation (many parameter values, many input states) shares
  the exact same arithmetic as single states.
* The banded Fourier circuit simulated gate by gate
  (:func:`apply_aqft`, :func:`trial_output_batch`), the oracle of the
  product forms in :mod:`gatelearn.qft`.
* The explicit joint-state measurement :func:`brute_force_joint_step`,
  the oracle of the conditioning filter in :mod:`gatelearn.backaction`.

No module of the training loop imports this one.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .parameter import ParameterState
from .qft import AqftInstance, _checked_phase_grid

__all__ = [
    "PureState",
    "HADAMARD",
    "apply_single_qubit_gate",
    "apply_controlled_phase",
    "apply_swap",
    "measure_computational",
    "amplitude",
    "apply_aqft",
    "apply_aqft_inverse",
    "trial_success_amplitude",
    "trial_output_batch",
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
        state = cls.__new__(cls)
        state.n_qubits = n_qubits
        state.amplitudes = amps
        return state

    def probabilities(self) -> np.ndarray:
        """|amplitude|^2 for each basis index."""
        return np.abs(self.amplitudes) ** 2

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


def _sample_index(probabilities: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample with exactly one uniform draw.

    The CDF is accumulated in ascending index order, so results are
    reproducible for a fixed random stream regardless of how the
    probabilities were produced.
    """
    cdf = np.cumsum(probabilities)
    u = rng.random()
    idx = int(np.searchsorted(cdf, u * cdf[-1], side="right"))
    return min(idx, len(probabilities) - 1)


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


def apply_swap(state: PureState, qubit_a: int, qubit_b: int) -> PureState:
    """Exchange two qubits."""
    n = state.n_qubits
    if qubit_a == qubit_b:
        raise ValueError("swap qubits must differ")
    for q in (qubit_a, qubit_b):
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for {n} qubits")
    out = state.copy()
    _apply_swap(out.amplitudes[None, :], qubit_a, qubit_b)
    return out


def measure_computational(state: PureState, rng: np.random.Generator) -> int:
    """Projective measurement in the computational basis.

    Returns a basis index sampled with probability |amplitude|^2, using
    exactly one draw from ``rng`` (inverse CDF over ascending basis
    order).  The input state is not modified.
    """
    probs = state.probabilities()
    total = probs.sum()
    if not abs(total - 1.0) <= _MEASURE_NORM_TOL:
        raise NumericsError(f"state norm^2 {total} deviates from 1 beyond 1e-6")
    return _sample_index(probs, rng)


def amplitude(state: PureState, basis: int) -> complex:
    """Amplitude of one computational basis state."""
    if not 0 <= basis < state.amplitudes.size:
        raise ValueError(f"basis index {basis} out of range")
    return complex(state.amplitudes[basis])


# ---------------------------------------------------------------------------
# the banded Fourier circuit, gate by gate

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


def trial_output_batch(instance: AqftInstance, k: int, phase_grid: np.ndarray) -> np.ndarray:
    """Trial output vectors for many phase assignments at once.

    ``phase_grid`` has shape (cells, band); returns (cells, 2**n) by
    gate-by-gate simulation.  The training loop draws from the product
    form (:class:`gatelearn.qft.ProductFormTrials`) instead; this is its
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


# ---------------------------------------------------------------------------
# the explicit joint state

def brute_force_joint_step(
    chi: ParameterState, circuit, input_state: PureState, rng: np.random.Generator
):
    """Reference implementation via the explicit joint state.

    Builds sum_g chi_g |g> (x) U(phi_g)|input> as one dense vector,
    measures the processor factor projectively (single inverse-CDF draw
    over ascending basis order), and extracts the conditional parameter
    state.  Fed the same random stream, it must reproduce the training
    loop's kernels (:func:`gatelearn.backaction.sample_batch` and
    :func:`gatelearn.backaction.filter_batch`) exactly; it is
    deliberately written from the joint-state definition rather than the
    cell-wise filter.

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
    # written so that a NaN norm fails too
    if not norm >= 1e-150:
        raise NumericsError("measured an outcome of vanishing probability")
    new_amps = (conditional / norm).reshape(chi.grid_shape)
    return r, ParameterState(new_amps)
