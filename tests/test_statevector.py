"""Statevector engine: gate algebra, measurement statistics, amplitudes."""

import numpy as np
import pytest
from scipy.stats import chi2

from gatelearn import NumericsError
from gatelearn.oracle import (
    HADAMARD,
    PureState,
    amplitude,
    apply_aqft,
    apply_controlled_phase,
    apply_single_qubit_gate,
    apply_swap,
    measure_computational,
)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, amps / np.linalg.norm(amps))


class TestConstruction:
    def test_default_is_all_zeros_ket(self):
        state = PureState(3)
        assert amplitude(state, 0) == 1.0 + 0.0j
        assert np.count_nonzero(state.amplitudes) == 1

    def test_dimension_is_checked(self):
        with pytest.raises(ValueError):
            PureState(2, np.ones(3) / np.sqrt(3))

    def test_norm_is_checked(self):
        with pytest.raises(NumericsError):
            PureState(1, np.array([1.0, 1.0]))

    def test_nan_norm_rejected(self):
        with pytest.raises(NumericsError):
            PureState(1, [np.nan, 0])

    def test_basis_constructor(self):
        state = PureState.basis(3, 5)
        assert amplitude(state, 5) == 1.0 + 0.0j


class TestSingleQubitGates:
    def test_identity_leaves_state_unchanged(self):
        state = random_state(3, seed=1)
        out = apply_single_qubit_gate(state, 1, np.eye(2))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_hadamard_on_zero(self):
        out = apply_single_qubit_gate(PureState(1), 0, HADAMARD)
        np.testing.assert_allclose(out.amplitudes, [1, 1] / np.sqrt(2), atol=1e-15)

    def test_hadamard_squares_to_identity(self):
        # composition of the implementation with itself, not a matrix identity
        state = random_state(3, seed=2)
        out = apply_single_qubit_gate(state, 2, HADAMARD)
        out = apply_single_qubit_gate(out, 2, HADAMARD)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_little_endian_ordering(self):
        # X on qubit 0 flips the least significant bit of the index
        flip = np.array([[0, 1], [1, 0]])
        out = apply_single_qubit_gate(PureState.basis(2, 0), 0, flip)
        assert amplitude(out, 1) == 1.0 + 0.0j
        out = apply_single_qubit_gate(PureState.basis(2, 0), 1, flip)
        assert amplitude(out, 2) == 1.0 + 0.0j

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_single_qubit_gate(PureState(1), 0, np.array([[1, 0], [0, 2.0]]))

    def test_nan_gate_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_single_qubit_gate(PureState(1), 0, [[np.nan, 0], [0, 1]])

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_single_qubit_gate(PureState(2), 2, np.eye(2))

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
        assert abs(state.norm() - 1.0) < 1e-10


class TestControlledPhase:
    def test_zero_angle_is_identity(self):
        state = random_state(2, seed=4)
        out = apply_controlled_phase(state, 0, 1, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_pi_angle_flips_sign_of_11(self):
        state = PureState.basis(2, 3)
        out = apply_controlled_phase(state, 0, 1, np.pi)
        np.testing.assert_allclose(amplitude(out, 3), -1.0 + 0j, atol=1e-15)

    def test_phase_additivity(self):
        # two applications compose the same as one with the summed angle
        state = random_state(2, seed=5)
        a, be = 0.7, 1.9
        two = apply_controlled_phase(apply_controlled_phase(state, 0, 1, a), 0, 1, be)
        one = apply_controlled_phase(state, 0, 1, a + be)
        np.testing.assert_allclose(two.amplitudes, one.amplitudes, atol=1e-12)

    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError):
            apply_controlled_phase(PureState(2), 1, 1, 0.3)

    def test_only_11_sector_touched(self):
        state = random_state(3, seed=6)
        out = apply_controlled_phase(state, 0, 2, 0.9)
        for b in range(8):
            if (b & 1) and (b & 4):
                continue
            assert out.amplitudes[b] == state.amplitudes[b]


class TestSwap:
    def test_swap_permutes_basis(self):
        out = apply_swap(PureState.basis(2, 1), 0, 1)
        assert amplitude(out, 2) == 1.0 + 0.0j

    def test_swap_is_involution(self):
        state = random_state(4, seed=7)
        out = apply_swap(apply_swap(state, 1, 3), 1, 3)
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


class TestMeasurement:
    def test_deterministic_state(self):
        rng = np.random.default_rng(0)
        state = PureState.basis(3, 5)
        assert all(measure_computational(state, rng) == 5 for _ in range(20))

    def test_uses_exactly_one_draw(self):
        state = apply_single_qubit_gate(PureState(1), 0, HADAMARD)
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        measure_computational(state, rng_a)
        rng_b.random()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_uniform_two_qubit_frequencies(self):
        state = apply_single_qubit_gate(PureState(2), 0, HADAMARD)
        state = apply_single_qubit_gate(state, 1, HADAMARD)
        rng = np.random.default_rng(8)
        draws = 100_000
        counts = np.bincount(
            [measure_computational(state, rng) for _ in range(draws)], minlength=4
        )
        np.testing.assert_allclose(counts / draws, 0.25, atol=0.01)
        statistic = np.sum((counts - draws / 4) ** 2 / (draws / 4))
        assert statistic < chi2.ppf(0.999, df=3)

    def test_biased_qubit_frequencies(self):
        state = PureState(1, [np.sqrt(0.9), np.sqrt(0.1)])
        rng = np.random.default_rng(9)
        draws = 100_000
        zeros = sum(measure_computational(state, rng) == 0 for _ in range(draws))
        assert abs(zeros / draws - 0.9) < 0.01

    def test_corrupted_norm_raises(self):
        state = PureState(1)
        state.amplitudes = state.amplitudes * 1.01
        with pytest.raises(NumericsError):
            measure_computational(state, np.random.default_rng(0))


    def test_nan_state_raises(self):
        state = PureState.basis(2, 1)
        state.amplitudes = np.full(4, np.nan, dtype=complex)
        with pytest.raises(NumericsError):
            measure_computational(state, np.random.default_rng(0))


class TestAmplitude:
    def test_reads_are_pure(self):
        state = random_state(2, seed=10)
        before = state.amplitudes.copy()
        amplitude(state, 2)
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_hadamard_component(self):
        out = apply_single_qubit_gate(PureState(1), 0, HADAMARD)
        assert abs(amplitude(out, 1) - 1 / np.sqrt(2)) < 1e-15

    def test_qft_of_one_on_two_qubits(self):
        # direct DFT-matrix row: |<2|F|1>| = 1/2 on a 2-qubit register
        dim = 4
        j = np.arange(dim)
        dft = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
        expected = dft[:, 1]
        assert abs(abs(expected[2]) - 0.5) < 1e-15

        from gatelearn import AqftInstance

        out = apply_aqft(AqftInstance.standard(2, 1), PureState.basis(2, 1))
        assert abs(abs(amplitude(out, 2)) - 0.5) < 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            amplitude(PureState(2), 4)


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
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)
