"""Measurement filter: outcome law, conditioning update, joint-state oracle."""

import numpy as np
import pytest

from gatelearn import NumericsError, grid_points
from gatelearn.backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from gatelearn.oracle import apply_single_qubit_gate, basis_state, brute_force_joint_step
from gatelearn.selftest import joint_oracle_deviation
from test_parameter import flat_chi


def rotation_circuit_family(seed):
    """Random single-qubit-rotation family: phi enters as the gate phase."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.2, np.pi - 0.2, 4)

    def circuit(phi, state):
        out = state
        for q in range(len(state).bit_length() - 1):
            c, s = np.cos(theta[q]), np.sin(theta[q])
            gate = np.array(
                [[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]]
            )
            out = apply_single_qubit_gate(out, q, gate)
        return out

    return circuit


def full_table(circuit, cells, src):
    """The full-register outcome columns of one trial, one per basis outcome."""
    return np.stack([circuit(phi, src) for phi in grid_points(cells)], axis=1)


def outcome_distribution(chi, trial):
    """One run's outcome distribution, a batch of one; ``trial`` is from outcome_table."""
    table, _ = trial
    return distribution_batch(np.abs(chi[None]) ** 2, table)[0]


def sample_and_update(chi, trial, rng):
    """One run's draw and filter through the training loop's kernels."""
    _, columns = trial
    dist = outcome_distribution(chi, trial)[None]
    r, mass = sample_batch(dist, [rng])
    return int(r[0]), filter_batch(chi[None], columns[r], mass)[0]


class TestOutcomeAmplitudes:
    def test_columns_need_an_outcome_axis(self):
        with pytest.raises(ValueError, match="outcome axis"):
            outcome_table(np.ones(4, dtype=complex))

    def test_binary_closure_enforced(self):
        with pytest.raises(NumericsError):
            outcome_table([np.array([0.9 + 0j]), np.array([0.9 + 0j])])

    def test_full_norm_enforced(self):
        bad = np.ones((2, 4), dtype=complex)
        with pytest.raises(NumericsError):
            outcome_table(bad)

    def test_binary_closure_rejects_nan(self):
        with pytest.raises(NumericsError):
            outcome_table([[np.nan, 0.6], [np.nan, 0.8]])

    def test_full_norm_rejects_nan(self):
        with pytest.raises(NumericsError):
            outcome_table([[np.nan, 1], [1, 0]])

    def test_binary_layout(self):
        s = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        table, columns = outcome_table([s, b])
        assert table.shape[1] == 2
        np.testing.assert_array_equal(columns[0], s)
        np.testing.assert_array_equal(columns[1], b)


class TestOutcomeDistribution:
    def test_deterministic_circuit_always_passes(self):
        amps = outcome_table([np.ones(8, dtype=complex), np.zeros(8, dtype=complex)])
        dist = outcome_distribution(flat_chi(8)[0], amps)
        np.testing.assert_allclose(dist, [1.0, 0.0], atol=1e-12)

    def test_point_mass_reduces_to_single_cell(self):
        chi = np.zeros(8, dtype=complex)
        chi[3] = 1.0
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 0.9, 8)
        table = outcome_table([np.sqrt(s), np.sqrt(1 - s)])
        dist = outcome_distribution(chi, table)
        np.testing.assert_allclose(dist, [s[3], 1 - s[3]], atol=1e-12)

    def test_equal_weight_average(self):
        table = outcome_table(
            [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        )
        dist = outcome_distribution(flat_chi(2)[0], table)
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-12)

    def test_grid_mismatch_rejected(self):
        table = outcome_table([np.ones(4, dtype=complex), np.zeros(4, dtype=complex)])
        with pytest.raises(ValueError):
            outcome_distribution(flat_chi(8)[0], table)


class TestSampleAndUpdate:
    def test_clamped_draw_onto_a_zero_mass_outcome_rejected(self):
        class TopOfTheRange:
            def random(self):
                return 1.0

        # u = 1 passes the whole CDF; the clamp to the last outcome lands on zero mass
        with pytest.raises(NumericsError, match="vanishing probability"):
            sample_batch(np.array([[0.5, 0.5, 0.0]]), [TopOfTheRange()])

    def test_nested_list_draws_as_its_array(self):
        dist = [[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]
        from_list = sample_batch(dist, [np.random.default_rng(s) for s in (4, 5)])
        from_array = sample_batch(np.array(dist), [np.random.default_rng(s) for s in (4, 5)])
        np.testing.assert_array_equal(from_list[0], from_array[0])
        # the returned probability is the drawn entry of each row, bit for bit
        for indices, probabilities in (from_list, from_array):
            assert probabilities.tolist() == [dist[i][r] for i, r in enumerate(indices)]

    def test_pass_annihilates_zero_amplitude_cells(self):
        table = outcome_table(
            [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
        )
        rng = np.random.default_rng(1)
        r, out = sample_and_update(flat_chi(2)[0], table, rng)
        expected = np.zeros(2)
        expected[r] = 1.0
        np.testing.assert_allclose(np.abs(out), expected, atol=1e-12)

    def test_constant_filter_leaves_chi_unchanged(self):
        table = outcome_table([np.ones(8, dtype=complex), np.zeros(8, dtype=complex)])
        r, out = sample_and_update(flat_chi(8)[0], table, np.random.default_rng(2))
        assert r == 0
        np.testing.assert_allclose(out, flat_chi(8)[0], atol=1e-12)

    def test_complementary_filter_on_fail(self):
        s = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        b = np.array([0.0, 0.0, 1.0, 1.0], dtype=complex)
        table = outcome_table([s, b])
        rng = np.random.default_rng(5)  # first draw 0.8152 -> fail branch
        r, out = sample_and_update(flat_chi(4)[0], table, rng)
        assert r == 1
        np.testing.assert_allclose(out, [0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)

    def test_posterior_is_normalized(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            circuit = rotation_circuit_family(seed)
            table = outcome_table(full_table(circuit, 16, basis_state(2, 0)))
            _, out = sample_and_update(flat_chi(16)[0], table, rng)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_filter_law_posterior_ratio(self):
        # posterior/prior per cell equals |A_r|^2 / P(r) exactly
        rng = np.random.default_rng(4)
        chi_amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        chi = chi_amps / np.linalg.norm(chi_amps)
        circuit = rotation_circuit_family(9)
        table = outcome_table(full_table(circuit, 16, basis_state(2, 1)))
        dist = outcome_distribution(chi, table)
        r, out = sample_and_update(chi, table, np.random.default_rng(5))
        _, columns = table
        gains = np.abs(columns[r]) ** 2 / dist[r]
        np.testing.assert_allclose(np.abs(out) ** 2, np.abs(chi) ** 2 * gains, atol=1e-12)

    def test_martingale_total_probability(self):
        # sum_r P(r) * posterior_r equals the prior, cell by cell
        rng = np.random.default_rng(6)
        chi_amps = rng.normal(size=12) + 1j * rng.normal(size=12)
        chi = chi_amps / np.linalg.norm(chi_amps)
        s = np.sqrt(rng.uniform(0.05, 0.95, 12))
        table = outcome_table([s, np.sqrt(1 - s**2)])
        dist = outcome_distribution(chi, table)
        prior = np.abs(chi) ** 2
        total = np.zeros(12)
        _, columns = table
        for r in range(2):
            filtered = chi * columns[r]
            posterior = np.abs(filtered) ** 2 / dist[r]
            total += dist[r] * posterior
        np.testing.assert_allclose(total, prior, atol=1e-10)


class TestBruteForceOracle:
    def test_agreement_over_chained_steps(self):
        # 20 sequential measurements, shared seed: identical outcomes and states
        circuit = rotation_circuit_family(7)
        src = basis_state(2, 0)
        table = outcome_table(full_table(circuit, 8, src))
        chi_block = chi_joint = flat_chi(8)[0]
        rng_block = np.random.default_rng(99)
        rng_joint = np.random.default_rng(99)
        for _ in range(20):
            r_block, chi_block = sample_and_update(chi_block, table, rng_block)
            r_joint, chi_joint = brute_force_joint_step(chi_joint, circuit, src, rng_joint)
            assert r_block == r_joint
            assert np.abs(chi_block - chi_joint).max() <= 1e-12

    def test_two_axis_agreement_with_the_filter(self):
        # an unequal 4 x 3 grid: phase 0 turns qubits 0 and 2, phase 1 qubit 1
        mismatches, worst = joint_oracle_deviation([0.7, 2.1, 1.3], seed=21, steps=12,
                                                   shape=(4, 3))
        assert mismatches == 0 and worst <= 1e-12

    def test_delta_chi_reduces_to_plain_measurement(self):
        chi = np.zeros(4, dtype=complex)
        chi[2] = 1.0
        circuit = rotation_circuit_family(8)
        src = basis_state(2, 0)
        expected_probs = np.abs(circuit(grid_points(4)[2], src)) ** 2
        rng = np.random.default_rng(11)
        counts = np.zeros(4)
        for _ in range(2000):
            r, out = brute_force_joint_step(chi, circuit, src, rng)
            counts[r] += 1
            np.testing.assert_allclose(np.abs(out), np.abs(chi), atol=1e-12)
        np.testing.assert_allclose(counts / 2000, expected_probs, atol=0.05)

    def test_flat_filter_leaves_chi_unchanged(self):
        def constant_circuit(phi, state):
            return state

        r, out = brute_force_joint_step(
            flat_chi(8)[0], constant_circuit, basis_state(2, 3), np.random.default_rng(1)
        )
        assert r == 3
        np.testing.assert_allclose(out, flat_chi(8)[0], atol=1e-12)

    def test_scale_guard(self):
        with pytest.raises(ValueError, match="test-scale"):
            brute_force_joint_step(
                flat_chi(8192)[0], rotation_circuit_family(0), basis_state(4, 0),
                np.random.default_rng(0),
            )

    def test_nan_state_rejected(self):
        with pytest.raises(NumericsError):
            brute_force_joint_step(
                np.full(4, np.nan, dtype=complex), rotation_circuit_family(1),
                basis_state(2, 0), np.random.default_rng(0),
            )
