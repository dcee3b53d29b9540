"""Banded Fourier circuit: DFT equivalence, trials, averaged success."""

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    average_success,
    average_success_map,
    standard_phases,
)
from gatelearn.errors import NumericsError
from gatelearn.oracle import (
    PureState,
    amplitude,
    apply_aqft,
    apply_aqft_inverse,
    trial_output_batch,
    trial_success_amplitude,
)
from gatelearn.qft import ProductFormTrials
from gatelearn.selftest import bit_reversed_order


def dft_matrix(n):
    dim = 1 << n
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(n, amps / np.linalg.norm(amps))


def dense_average_success(inst):
    """Oracle: exact sum over all basis states via statevector simulation."""
    dim = inst.dim
    f_dag = dft_matrix(inst.n_qubits).conj().T
    total = 0.0
    for k in range(dim):
        out = apply_aqft(inst, PureState(inst.n_qubits, f_dag[:, k]))
        total += abs(amplitude(out, k)) ** 2
    return total / dim


class TestCircuitEquivalence:
    def test_qft_of_zero_is_uniform_positive(self):
        inst = AqftInstance.standard(3, 2)
        out = apply_aqft(inst, PureState.basis(3, 0))
        np.testing.assert_allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_band_matches_dense_dft(self, n):
        inst = AqftInstance.standard(n, n - 1)
        state = random_state(n, seed=n)
        out = apply_aqft(inst, state)
        np.testing.assert_allclose(
            out.amplitudes, dft_matrix(n) @ state.amplitudes, atol=1e-10
        )

    def test_band_zero_gives_uniform_magnitudes(self):
        inst = AqftInstance.standard(4, 0)
        for k in (0, 5, 15):
            out = apply_aqft(inst, PureState.basis(4, k))
            np.testing.assert_allclose(np.abs(out.amplitudes), 0.25, atol=1e-12)

    def test_zero_phases_reduce_to_band_zero(self):
        state = random_state(4, seed=9)
        zeroed = AqftInstance(4, 2, (0.0, 0.0))
        bare = AqftInstance.standard(4, 0)
        np.testing.assert_allclose(
            apply_aqft(zeroed, state).amplitudes,
            apply_aqft(bare, state).amplitudes,
            atol=1e-12,
        )

    def test_inverse_recovers_input(self):
        rng = np.random.default_rng(1)
        for n, m in ((4, 1), (5, 3), (6, 5)):
            inst = AqftInstance(n, m, tuple(rng.uniform(0, 2 * np.pi, m)))
            state = random_state(n, seed=10 * n + m)
            back = apply_aqft_inverse(inst, apply_aqft(inst, state))
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-9)

    def test_unitarity(self):
        inst = AqftInstance.standard(6, 2)
        out = apply_aqft(inst, random_state(6, seed=3))
        assert abs(out.norm() - 1.0) < 1e-10

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_aqft(AqftInstance.standard(3, 1), PureState(4))


class TestTrials:
    def test_exact_circuit_always_passes(self):
        inst = AqftInstance.standard(4, 3)
        for k in range(16):
            out, expected = trial_success_amplitude(inst, k)
            assert expected == k
            assert abs(abs(out[k]) ** 2 - 1.0) < 1e-10

    def test_two_qubit_band_zero_case(self):
        # dense 4-dimensional product: |<0| U_approx F^dag |0>|^2
        inst = AqftInstance.standard(2, 0)
        f_dag = dft_matrix(2).conj().T
        u = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            u[:, k] = apply_aqft(inst, PureState.basis(2, k)).amplitudes
        expected = abs((u @ f_dag)[0, 0]) ** 2
        out, _ = trial_success_amplitude(inst, 0)
        assert abs(abs(out[0]) ** 2 - expected) < 1e-12

    def test_output_vector_is_normalized(self):
        inst = AqftInstance(5, 1, (2.0,))
        out, _ = trial_success_amplitude(inst, 17)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_batch_matches_single(self):
        inst = AqftInstance.standard(4, 1)
        grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)[:, None]
        batch = trial_output_batch(inst, 7, grid)
        for g in (0, 5, 11):
            single, _ = trial_success_amplitude(inst.with_phases((grid[g, 0],)), 7)
            np.testing.assert_allclose(batch[g], single, atol=1e-12)


class TestProductFormDraw:
    def test_cdf_midpoints_draw_their_outcome_exhaustively(self):
        # n=5 band 2: every k, and for every outcome of nonzero probability a
        # target at the midpoint of its interval of the bit-reversed CDF
        n = 5
        inst = AqftInstance.standard(n, 2)
        rng = np.random.default_rng(5)
        grid = rng.uniform(-np.pi, np.pi, (6, 2))
        weights = rng.random(6) + 0.1
        weights /= weights.sum()
        trials = ProductFormTrials(inst, grid)
        order = bit_reversed_order(n)
        drawn = 0
        for k in range(1 << n):
            dist = weights @ np.abs(trial_output_batch(inst, k, grid)) ** 2
            cdf = np.concatenate([[0.0], np.cumsum(dist[order])])
            wide = np.flatnonzero(np.diff(cdf) > 1e-9)
            midpoints = (cdf[wide] + cdf[wide + 1]) / 2
            outcomes, masses, _ = trials.draw(np.full(len(wide), k),
                                              np.tile(weights, (len(wide), 1)), midpoints)
            np.testing.assert_array_equal(outcomes, order[wide])
            np.testing.assert_allclose(masses, dist[order[wide]], rtol=0, atol=1e-12)
            drawn += len(wide)
        assert drawn >= 10 * (1 << n)  # about a third of the (k, r) pairs can occur

    def test_vanishing_outcome_rejected(self):
        # with the textbook phase the 2-qubit band-1 circuit is exact: a
        # target past the mass of the passing outcome can only reach outcomes
        # of zero probability
        trials = ProductFormTrials(AqftInstance.standard(2, 1), [[np.pi / 2]])
        with pytest.raises(NumericsError):
            trials.draw([0], np.ones((1, 1)), [1.0])

    def test_nan_weights_rejected(self):
        trials = ProductFormTrials(AqftInstance.standard(3, 1), [[0.3], [1.2]])
        with pytest.raises(NumericsError):
            trials.draw([2], np.array([[np.nan, 0.5]]), [0.1])

    def test_nan_phase_row_rejected_when_built(self):
        inst = AqftInstance.standard(4, 2)
        grid = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError):
            ProductFormTrials(inst, grid)
        with pytest.raises(ValueError):
            average_success_map(inst, grid)
        with pytest.raises(ValueError):
            average_success_map(inst, [[0.1, np.inf]])


class TestAverageSuccess:
    def test_exact_circuit_scores_one(self):
        for n in (3, 5, 8):
            assert abs(average_success(AqftInstance.standard(n, n - 1)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n,m", [(2, 0), (3, 1), (4, 2), (5, 1), (6, 1), (6, 3)])
    def test_matches_dense_statevector_sum(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for phases in (standard_phases(m), tuple(rng.uniform(0, 2 * np.pi, m))):
            inst = AqftInstance(n, m, phases)
            assert abs(average_success(inst) - dense_average_success(inst)) < 1e-12

    def test_nearest_neighbor_baseline_in_open_interval(self):
        value = average_success(AqftInstance.standard(6, 1))
        assert 0.0 < value < 1.0

    def test_monotone_in_band_at_standard_phases(self):
        for n in (4, 6, 8, 10):
            values = [average_success(AqftInstance.standard(n, m)) for m in range(n)]
            diffs = np.diff(values)
            assert (diffs >= -1e-12).all()

    def test_periodic_in_each_phase(self):
        inst = AqftInstance(5, 2, (1.1, 0.4))
        shifted = AqftInstance(5, 2, (1.1 + 2 * np.pi, 0.4))
        assert abs(average_success(inst) - average_success(shifted)) < 1e-10

    def test_map_agrees_with_scalar_evaluation(self):
        inst = AqftInstance.standard(5, 2)
        rng = np.random.default_rng(8)
        grid = rng.uniform(0, 2 * np.pi, (12, 2))
        values = average_success_map(inst, grid)
        for i in range(12):
            assert abs(values[i] - average_success(inst.with_phases(grid[i]))) < 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (5, 0), (6, 2), (9, 3)])
    def test_map_equals_full_k_table_bit_for_bit(self, n, m):
        # the map evaluates each qubit's factor only on the low bits of k it
        # depends on; spelled out on all (n, 2^n) entries it must agree exactly
        from gatelearn.qft import _diagonal_model

        model = _diagonal_model(n, m)
        grid = np.random.default_rng(n + m).uniform(-7, 7, (40, m))
        expected = np.empty(len(grid))
        for row, phases in enumerate(grid):
            delta = model.tails.copy()
            for d in range(m):
                delta += (phases[d] - model.std[d]) * model.trained[d]
            expected[row] = (np.cos(delta / 2.0) ** 2).prod(axis=0).mean()
        np.testing.assert_array_equal(average_success_map(AqftInstance.standard(n, m), grid),
                                      expected)


class TestInstanceValidation:
    def test_band_bounds(self):
        with pytest.raises(ValueError):
            AqftInstance.standard(4, 4)

    def test_phase_count(self):
        with pytest.raises(ValueError):
            AqftInstance(4, 2, (0.5,))

    def test_standard_phases_fall_off_by_halves(self):
        phases = standard_phases(3)
        assert phases[0] == np.pi / 2
        assert phases[1] == np.pi / 4
        assert phases[2] == np.pi / 8
