"""Feedback operators: walk series, pushes, kickstart, controller dispatch."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from gatelearn import (
    FeedbackConfig,
    FeedbackHistory,
    GroverInstance,
    OutcomeAmplitudes,
    ParameterState,
    apply_quantum_walk,
    invert_about_mean,
    on_failure,
    sample_and_update,
    success_probability_map,
    uniform_init,
    walk_coefficients,
)
from gatelearn.grover import _amplitudes_for_phases


def random_chi(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ParameterState(amps / np.linalg.norm(amps))


class TestWalkCoefficients:
    def test_zero_strength(self):
        coeffs = walk_coefficients(0.0)
        assert abs(coeffs.coefficients[0] - 1.0) < 1e-15
        assert np.abs(coeffs.coefficients[1:]).max() == 0.0

    def test_half_strength_values(self):
        # independent oracle: p_l = (-i)^l J_l(2x) via scipy's Bessel J
        coeffs = walk_coefficients(0.5).coefficients
        assert abs(coeffs[0] - 0.7652) < 1e-4
        assert abs(coeffs[1] - (-0.4401j)) < 1e-4
        for l, c in enumerate(coeffs):
            assert abs(c - (-1j) ** l * jv(l, 1.0)) < 1e-10

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 5.0])
    def test_matches_bessel_oracle(self, x):
        coeffs = walk_coefficients(x).coefficients
        oracle = np.array([(-1j) ** l * jv(l, 2 * x) for l in range(len(coeffs))])
        np.testing.assert_allclose(coeffs, oracle, atol=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.5, 3.0, 5.0])
    def test_unitarity_sum(self, x):
        assert abs(walk_coefficients(x).unitarity_sum() - 1.0) < 1e-9

    def test_large_strength_stays_finite(self):
        coeffs = walk_coefficients(60.0)
        assert np.isfinite(coeffs.coefficients).all()
        assert abs(coeffs.unitarity_sum() - 1.0) < 1e-9

    def test_unphysical_strength_rejected(self):
        with pytest.raises(ValueError, match="translation orders"):
            walk_coefficients(150.0)


class TestApplyQuantumWalk:
    def test_zero_strength_is_identity(self):
        chi = random_chi(32, 0)
        out = apply_quantum_walk(chi, walk_coefficients(0.0), 1)
        np.testing.assert_allclose(out.amplitudes, chi.amplitudes, atol=1e-15)

    def test_symmetric_split_of_a_delta(self):
        amps = np.zeros(16, dtype=complex)
        amps[8] = 1.0
        out = apply_quantum_walk(ParameterState(amps), walk_coefficients(0.5), 1)
        probs = np.abs(out.amplitudes) ** 2
        assert abs(probs[7] - probs[9]) < 1e-12
        assert probs[7] > 1e-3

    @pytest.mark.parametrize("n_cells,x", [(32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5)])
    def test_matches_dense_circulant_exponential(self, n_cells, x):
        # oracle: expm of the hopping Hamiltonian as a dense matrix
        chi = random_chi(n_cells, seed=int(10 * x))
        shift = np.roll(np.eye(n_cells), 1, axis=0)
        dense = expm(-1j * x * (shift + shift.T))
        out = apply_quantum_walk(chi, walk_coefficients(x), 1)
        np.testing.assert_allclose(out.amplitudes, dense @ chi.amplitudes, atol=1e-8)

    def test_step_two_matches_dense_exponential(self):
        chi = random_chi(32, 5)
        shift2 = np.roll(np.eye(32), 2, axis=0)
        dense = expm(-1j * 0.8 * (shift2 + shift2.T))
        out = apply_quantum_walk(chi, walk_coefficients(0.8), 2)
        np.testing.assert_allclose(out.amplitudes, dense @ chi.amplitudes, atol=1e-8)

    def test_norm_preserved(self):
        for x in (0.3, 1.0, 4.0, 18.0):
            out = apply_quantum_walk(random_chi(64, 7), walk_coefficients(x), 1)
            assert abs(out.norm() - 1.0) < 1e-9

    def test_two_axis_walk_acts_on_both(self):
        amps = np.zeros((8, 8), dtype=complex)
        amps[4, 4] = 1.0
        out = apply_quantum_walk(ParameterState(amps), walk_coefficients(0.5), 1)
        probs = np.abs(out.amplitudes) ** 2
        assert probs[3, 4] > 1e-3 and probs[4, 3] > 1e-3
        assert abs(out.norm() - 1.0) < 1e-9


def single_push(chi, failures, successes, config):
    """The controller's single-push branch, with the kickstart out of the way."""
    config = replace(config, kickstart_enabled=False)
    history = FeedbackHistory(successes=successes, failures=failures)
    return on_failure(chi, history, config, np.random.default_rng(0)).state


class TestSinglePush:
    def test_first_push_is_full_magnitude_right(self):
        chi = ParameterState(np.eye(1, 64, 10).ravel().astype(complex))
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 0, 0, config)
        assert abs(out.amplitudes[18] - 1.0) < 1e-15

    def test_decayed_left_push(self):
        # 8 / sqrt(4) = 4 cells, odd failure count pushes left
        chi = ParameterState(np.eye(1, 64, 10).ravel().astype(complex))
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 1, 3, config)
        assert abs(out.amplitudes[6] - 1.0) < 1e-15

    def test_magnitude_clamps_at_one_cell(self):
        chi = ParameterState(np.eye(1, 64, 10).ravel().astype(complex))
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 0, 10_000, config)
        assert abs(out.amplitudes[11] - 1.0) < 1e-15

    def test_magnitude_non_increasing_in_successes(self):
        config = FeedbackConfig(strategy="single_push", initial_push_cells=13)
        from gatelearn.feedback import _push_move

        mags = [abs(_push_move(0, ns, config, 1)[1]) for ns in range(0, 400, 7)]
        assert all(a >= b for a, b in zip(mags, mags[1:]))

    def test_magnitude_independent_of_failures(self):
        config = FeedbackConfig(strategy="single_push", initial_push_cells=13)
        from gatelearn.feedback import _push_move

        mags = {abs(_push_move(nf, 5, config, 1)[1]) for nf in range(0, 20, 2)}
        assert len(mags) == 1

    def test_asymmetry_scales_left_pushes_only(self):
        config = FeedbackConfig(
            strategy="single_push", initial_push_cells=12, push_asymmetry=0.5
        )
        from gatelearn.feedback import _push_move

        assert _push_move(0, 0, config, 1) == (0, 12)
        assert _push_move(1, 0, config, 1) == (0, -6)


class TestKickstart:
    def test_uniform_unchanged(self):
        chi = uniform_init(32)
        out = invert_about_mean(chi)
        np.testing.assert_allclose(out.amplitudes, chi.amplitudes, atol=1e-15)

    def test_norm_preserved(self):
        assert abs(invert_about_mean(random_chi(64, 2)).norm() - 1.0) < 1e-12

    def test_dip_from_failed_trial_becomes_peak(self):
        # uniform chi filtered by one failed verification carries a dip at
        # the good phase; the kickstart must relocate the maximum there
        inst = GroverInstance.standard(16)
        grid = uniform_init(256)
        t, u = _amplitudes_for_phases(inst, grid.axis_values(0))
        amps = OutcomeAmplitudes.binary(t, u)
        rng = np.random.default_rng(4)
        while True:  # condition on a failed first trial
            r, filtered = sample_and_update(grid, amps, rng)
            if r == 1:
                break
        pmap = success_probability_map(inst, grid)
        before = int(np.argmax(filtered.probabilities()))
        assert pmap[before] < 0.5  # the dip sits away from the optimum
        kicked = invert_about_mean(filtered)
        after = int(np.argmax(kicked.probabilities()))
        assert pmap[after] > 0.9  # now the peak marks the good phase


class TestController:
    def test_first_failure_uses_kickstart_only(self):
        chi = random_chi(32, 3)
        config = FeedbackConfig(strategy="single_push")
        result = on_failure(chi, FeedbackHistory(), config, np.random.default_rng(0))
        assert result.action == "kickstart"
        np.testing.assert_allclose(
            result.state.amplitudes, invert_about_mean(chi).amplitudes, atol=1e-15
        )

    def test_kickstart_can_be_disabled(self):
        chi = random_chi(32, 3)
        config = FeedbackConfig(strategy="single_push", kickstart_enabled=False)
        result = on_failure(chi, FeedbackHistory(), config, np.random.default_rng(0))
        assert result.action.startswith("push")

    def test_second_failure_single_push_translates_only(self):
        chi = random_chi(32, 4)
        config = FeedbackConfig(strategy="single_push", initial_push_cells=4)
        history = FeedbackHistory(successes=0, failures=1, consecutive_failures=1)
        result = on_failure(chi, history, config, np.random.default_rng(0))
        assert result.action == "push-4"
        np.testing.assert_allclose(
            np.abs(result.state.amplitudes),
            np.abs(np.roll(chi.amplitudes, -4)),
            atol=1e-15,
        )

    def test_second_failure_double_push_walks_and_dephases(self):
        chi = random_chi(32, 5)
        config = FeedbackConfig(strategy="double_push", walk_strength=0.8,
                                walk_escalation=0.0)
        history = FeedbackHistory(successes=2, failures=1, consecutive_failures=1)
        result = on_failure(chi, history, config, np.random.default_rng(9))
        assert result.action == "walk+dephase"
        walked = apply_quantum_walk(chi, walk_coefficients(0.8), 1)
        np.testing.assert_allclose(
            np.abs(result.state.amplitudes), np.abs(walked.amplitudes), atol=1e-12
        )

    @pytest.mark.parametrize("successes,action", [(0, "kickstart"), (1, "walk+dephase")])
    def test_double_push_search_reflects_until_first_pass(self, successes, action):
        history = FeedbackHistory(successes=successes, failures=5, consecutive_failures=2)
        result = on_failure(random_chi(32, 6), history, FeedbackConfig(),
                            np.random.default_rng(0), binary_readout=True)
        assert result.action == action

    @pytest.mark.parametrize("strategy,binary_readout", [
        ("double_push", False),  # Fourier readout: full outcome index
        ("single_push", True),
    ])
    def test_later_failures_never_reflect_elsewhere(self, strategy, binary_readout):
        chi = random_chi(32, 7)
        history = FeedbackHistory(successes=0, failures=3, consecutive_failures=3)
        result = on_failure(chi, history, FeedbackConfig(strategy=strategy),
                            np.random.default_rng(0), binary_readout=binary_readout)
        assert result.action != "kickstart"

    def test_disabled_kickstart_never_reflects_search(self):
        chi = random_chi(32, 8)
        config = FeedbackConfig(kickstart_enabled=False)
        for failures in (0, 4):
            history = FeedbackHistory(0, failures, failures)
            result = on_failure(chi, history, config, np.random.default_rng(0),
                                binary_readout=True)
            assert result.action == "walk+dephase"

    def test_escalation_strengthens_with_consecutive_failures(self):
        from gatelearn.feedback import _effective_walk_strength

        config = FeedbackConfig(walk_strength=18.0, walk_floor=1.0, walk_escalation=3.0)
        strengths = [
            _effective_walk_strength(config, c) for c in (0, 3, 6, 9, 30)
        ]
        assert strengths[0] == 1.0
        assert strengths[1] == 2.0
        assert strengths[2] == 4.0
        assert strengths[-1] == 18.0  # capped
        assert all(a <= b for a, b in zip(strengths, strengths[1:]))

    def test_all_feedback_preserves_norm(self):
        rng = np.random.default_rng(11)
        for strategy in ("single_push", "double_push"):
            config = FeedbackConfig(strategy=strategy)
            history = FeedbackHistory()
            chi = random_chi(64, 12)
            for _ in range(15):
                chi, _action = on_failure(chi, history, config, rng)
                history = history.after_failure()
                assert abs(chi.norm() - 1.0) < 1e-9

    def test_unknown_strategy_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            FeedbackConfig(strategy="triple_push")

    def test_unreachable_walk_strength_rejected_at_config(self):
        # the series needs more than 200 translation orders beyond x ~ 76
        with pytest.raises(ValueError, match="translation orders"):
            FeedbackConfig(walk_strength=120.0)
        FeedbackConfig(walk_strength=64.0)
