"""Statevector engine on plain arrays of 2^n amplitudes: basis states, shape checks, gate algebra."""

import numpy as np
import pytest

from gatelearn import AqftInstance
from gatelearn.oracle import (
    HADAMARD,
    apply_aqft,
    apply_controlled_phase,
    apply_single_qubit_gate,
    basis_state,
    dft_matrix,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


class TestConstruction:
    def test_default_is_all_zeros_ket(self):
        state = basis_state(3, 0)
        assert state[0] == 1.0 + 0.0j
        assert np.count_nonzero(state) == 1

    def test_dimension_is_checked(self):
        applies = (
            lambda s: apply_single_qubit_gate(s, 0, HADAMARD),
            lambda s: apply_controlled_phase(s, 0, 1, 0.3),
            lambda s: apply_aqft(AqftInstance.standard(2, 1), s),
        )
        for bad in (np.ones(3) / np.sqrt(3), np.ones(1), np.full((2, 2), 0.5)):
            for apply in applies:
                with pytest.raises(ValueError, match="2\\^n amplitudes"):
                    apply(bad)

    def test_basis_constructor(self):
        state = basis_state(3, 5)
        assert state[5] == 1.0 + 0.0j

    @pytest.mark.parametrize("index", [-1, 8])
    def test_basis_index_out_of_range(self, index):
        with pytest.raises(ValueError, match="out of range"):
            basis_state(3, index)


class TestSingleQubitGates:
    def test_identity_leaves_state_unchanged(self):
        state = random_state(3, seed=1)
        out = apply_single_qubit_gate(state, 1, np.eye(2))
        np.testing.assert_array_equal(out, state)

    def test_hadamard_on_zero(self):
        zero = basis_state(1, 0)
        out = apply_single_qubit_gate(zero, 0, HADAMARD)
        np.testing.assert_allclose(out, [1, 1] / np.sqrt(2), atol=1e-15)
        np.testing.assert_array_equal(zero, [1, 0])  # the input is not written

    def test_hadamard_squares_to_identity(self):
        # composition of the implementation with itself, not a matrix identity
        state = random_state(3, seed=2)
        out = apply_single_qubit_gate(state, 2, HADAMARD)
        out = apply_single_qubit_gate(out, 2, HADAMARD)
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_little_endian_ordering(self):
        # X on qubit 0 flips the least significant bit of the index
        flip = np.array([[0, 1], [1, 0]])
        out = apply_single_qubit_gate(basis_state(2, 0), 0, flip)
        assert out[1] == 1.0 + 0.0j
        out = apply_single_qubit_gate(basis_state(2, 0), 1, flip)
        assert out[2] == 1.0 + 0.0j

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_single_qubit_gate(basis_state(1, 0), 0, np.array([[1, 0], [0, 2.0]]))
        with pytest.raises(ValueError, match="2x2"):
            apply_single_qubit_gate(basis_state(1, 0), 0, np.eye(3))

    def test_nan_gate_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_single_qubit_gate(basis_state(1, 0), 0, [[np.nan, 0], [0, 1]])

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_single_qubit_gate(basis_state(2, 0), 2, np.eye(2))

    def test_norm_preserved_over_many_gates(self):
        rng = np.random.default_rng(3)
        state = random_state(4, seed=3)
        for _ in range(200):
            th = rng.uniform(0, 2 * np.pi, 3)
            gate = np.array(
                [
                    [np.cos(th[0]), -np.sin(th[0]) * np.exp(-1j * th[1])],
                    [np.sin(th[0]) * np.exp(1j * th[1]), np.cos(th[0])],
                ]
            ) * np.exp(1j * th[2])
            state = apply_single_qubit_gate(state, int(rng.integers(4)), gate)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


class TestControlledPhase:
    def test_zero_angle_is_identity(self):
        state = random_state(2, seed=4)
        out = apply_controlled_phase(state, 0, 1, 0.0)
        np.testing.assert_allclose(out, state, atol=1e-15)

    def test_pi_angle_flips_sign_of_11(self):
        state = basis_state(2, 3)
        out = apply_controlled_phase(state, 0, 1, np.pi)
        np.testing.assert_allclose(out[3], -1.0 + 0j, atol=1e-15)
        assert state[3] == 1.0  # the input is not written

    def test_phase_additivity(self):
        # two applications compose the same as one with the summed angle
        state = random_state(2, seed=5)
        a, be = 0.7, 1.9
        two = apply_controlled_phase(apply_controlled_phase(state, 0, 1, a), 0, 1, be)
        one = apply_controlled_phase(state, 0, 1, a + be)
        np.testing.assert_allclose(two, one, atol=1e-12)

    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError):
            apply_controlled_phase(basis_state(2, 0), 1, 1, 0.3)
        with pytest.raises(ValueError, match="out of range"):
            apply_controlled_phase(basis_state(2, 0), 0, 2, 0.3)

    def test_only_11_sector_touched(self):
        state = random_state(3, seed=6)
        out = apply_controlled_phase(state, 0, 2, 0.9)
        for b in range(8):
            if (b & 1) and (b & 4):
                continue
            assert out[b] == state[b]


class TestAmplitude:
    def test_hadamard_component(self):
        out = apply_single_qubit_gate(basis_state(1, 0), 0, HADAMARD)
        assert abs(out[1] - 1 / np.sqrt(2)) < 1e-15

    def test_qft_of_one_on_two_qubits(self):
        # direct DFT-matrix row: |<2|F|1>| = 1/2 on a 2-qubit register
        expected = dft_matrix(2)[:, 1]
        assert abs(abs(expected[2]) - 0.5) < 1e-15

        out = apply_aqft(AqftInstance.standard(2, 1), basis_state(2, 1))
        assert abs(abs(out[2]) - 0.5) < 1e-12


class TestUnitarityComposition:
    def test_gate_then_adjoint_restores_state(self):
        rng = np.random.default_rng(11)
        state = random_state(3, seed=11)
        for _ in range(50):
            th = rng.uniform(0, 2 * np.pi, 3)
            gate = np.array(
                [
                    [np.cos(th[0]), -np.sin(th[0]) * np.exp(-1j * th[1])],
                    [np.sin(th[0]) * np.exp(1j * th[1]), np.cos(th[0])],
                ]
            ) * np.exp(1j * th[2])
            q = int(rng.integers(3))
            back = apply_single_qubit_gate(
                apply_single_qubit_gate(state, q, gate), q, gate.conj().T
            )
            np.testing.assert_allclose(back, state, atol=1e-12)
