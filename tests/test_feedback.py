"""Feedback operators: quantum walk, pushes, kickstart, controller dispatch."""

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
)
from gatelearn.grover import _amplitudes_for_phases


def random_chi(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ParameterState(amps / np.linalg.norm(amps))


def walk_kernel(x, cells=256):
    """The walk applied to a delta: amplitude p_l at distance l on either side."""
    delta = ParameterState(np.eye(1, cells).ravel())
    return apply_quantum_walk(delta, x, 1).amplitudes


def bessel_kernel(x, cells=256):
    # independent oracle: p_l = (-i)^l J_l(2x) via scipy's Bessel J
    distance = np.minimum(np.arange(cells), cells - np.arange(cells))
    return (-1j) ** (distance % 4) * jv(distance, 2 * x)


class TestWalkCoefficients:
    """The walk's translation coefficients, read off as its kernel."""

    def test_zero_strength(self):
        kernel = walk_kernel(0.0)
        assert abs(kernel[0] - 1.0) < 1e-15
        assert np.abs(kernel[1:]).max() < 1e-15

    def test_half_strength_values(self):
        kernel = walk_kernel(0.5)
        assert abs(kernel[0] - 0.7652) < 1e-4
        assert abs(kernel[1] - (-0.4401j)) < 1e-4
        assert abs(kernel[-1] - (-0.4401j)) < 1e-4
        np.testing.assert_allclose(kernel, bessel_kernel(0.5), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 5.0])
    def test_matches_bessel_oracle(self, x):
        np.testing.assert_allclose(walk_kernel(x), bessel_kernel(x), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.5, 3.0, 5.0])
    def test_unitarity_sum(self, x):
        # |p_0|^2 + 2 sum_{l>=1} |p_l|^2 = 1
        assert abs(np.sum(np.abs(walk_kernel(x)) ** 2) - 1.0) < 1e-12

    def test_large_strength_stays_finite(self):
        kernel = walk_kernel(60.0, cells=512)  # the kernel spans about 2x cells each way
        assert np.isfinite(kernel).all()
        assert abs(np.linalg.norm(kernel) - 1.0) < 1e-12
        np.testing.assert_allclose(kernel, bessel_kernel(60.0, 512), rtol=0, atol=1e-10)

    def test_unphysical_strength_rejected(self):
        for x in (np.nan, np.inf, -np.inf, -0.5):
            with pytest.raises(ValueError, match="finite and >= 0"):
                walk_kernel(x)


def dense_walk(cells, x, step=1):
    # oracle: expm of the hopping Hamiltonian as a dense matrix
    shift = np.roll(np.eye(cells), step, axis=0)
    return expm(-1j * x * (shift + shift.T))


class TestApplyQuantumWalk:
    def test_zero_strength_is_identity(self):
        chi = random_chi(32, 0)
        out = apply_quantum_walk(chi, 0.0, 1)
        np.testing.assert_allclose(out.amplitudes, chi.amplitudes, atol=1e-15)

    def test_symmetric_split_of_a_delta(self):
        amps = np.zeros(16, dtype=complex)
        amps[8] = 1.0
        out = apply_quantum_walk(ParameterState(amps), 0.5, 1)
        probs = np.abs(out.amplitudes) ** 2
        assert abs(probs[7] - probs[9]) < 1e-12
        assert probs[7] > 1e-3

    @pytest.mark.parametrize("n_cells,x", [(32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5)])
    def test_matches_dense_circulant_exponential(self, n_cells, x):
        chi = random_chi(n_cells, seed=int(10 * x))
        out = apply_quantum_walk(chi, x, 1)
        np.testing.assert_allclose(
            out.amplitudes, dense_walk(n_cells, x) @ chi.amplitudes, rtol=0, atol=1e-12
        )

    def test_step_two_matches_dense_exponential(self):
        chi = random_chi(32, 5)
        out = apply_quantum_walk(chi, 0.8, 2)
        np.testing.assert_allclose(
            out.amplitudes, dense_walk(32, 0.8, 2) @ chi.amplitudes, rtol=0, atol=1e-12
        )

    def test_norm_preserved(self):
        for x in (0.3, 1.0, 4.0, 18.0, 120.0):
            out = apply_quantum_walk(random_chi(64, 7), x, 1)
            assert abs(out.norm() - 1.0) < 1e-12

    def test_strided_amplitudes_walk_like_a_copy(self):
        amps = random_chi(64, 8).amplitudes
        amps[::2] /= np.linalg.norm(amps[::2])
        chi = ParameterState(amps[::2])
        assert not chi.amplitudes.flags.c_contiguous
        copy = ParameterState(chi.amplitudes.copy())
        np.testing.assert_array_equal(
            apply_quantum_walk(chi, 2.0, 1).amplitudes, apply_quantum_walk(copy, 2.0, 1).amplitudes
        )

    def test_two_axis_walk_acts_on_both(self):
        amps = np.zeros((8, 8), dtype=complex)
        amps[4, 4] = 1.0
        out = apply_quantum_walk(ParameterState(amps), 0.5, 1)
        probs = np.abs(out.amplitudes) ** 2
        assert probs[3, 4] > 1e-3 and probs[4, 3] > 1e-3
        assert abs(out.norm() - 1.0) < 1e-12
        dense = np.kron(dense_walk(8, 0.5), dense_walk(8, 0.5))
        np.testing.assert_allclose(
            out.amplitudes.ravel(), dense @ amps.ravel(), rtol=0, atol=1e-12
        )


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
        walked = apply_quantum_walk(chi, 0.8, 1)
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

    @pytest.mark.parametrize("failures", [110, 10**6])
    def test_escalation_saturates_without_overflow(self, failures):
        from gatelearn.feedback import _effective_walk_strength

        # at 110 failures, 2 ** (110 / 0.1) is past the largest float
        fast = FeedbackConfig(walk_escalation=0.1)
        assert _effective_walk_strength(fast, failures) == fast.walk_strength
        assert _effective_walk_strength(replace(fast, walk_floor=0.0), failures) == 0.0
        history = FeedbackHistory(successes=1, failures=failures, consecutive_failures=failures)
        result = on_failure(random_chi(32, 4), history, fast, np.random.default_rng(0))
        assert result.action == "walk+dephase"
        assert abs(result.state.norm() - 1.0) < 1e-12

    @pytest.mark.parametrize("floor,escalation", [(1.5, 2.0), (1.5, 0.1), (1e-300, 0.5), (0.0, 2.0)])
    def test_escalation_equals_the_closed_form_where_it_is_finite(self, floor, escalation):
        from gatelearn.feedback import _effective_walk_strength

        config = FeedbackConfig(walk_floor=floor, walk_escalation=escalation)
        for c in range(0, int(1023 * escalation) + 1):
            assert _effective_walk_strength(config, c) == min(24.0, floor * 2.0 ** (c / escalation))

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

    def test_large_walk_strength_builds_and_matches_dense_exponential(self):
        # the exact walk has no strength cap: x=120 builds and runs
        config = FeedbackConfig(walk_strength=120.0, walk_escalation=0.0)
        chi = random_chi(64, 13)
        history = FeedbackHistory(successes=1, failures=1, consecutive_failures=1)
        result = on_failure(chi, history, config, np.random.default_rng(3))
        assert result.action == "walk+dephase"
        oracle = dense_walk(64, 120.0) @ chi.amplitudes
        np.testing.assert_allclose(
            apply_quantum_walk(chi, 120.0, 1).amplitudes, oracle, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            np.abs(result.state.amplitudes), np.abs(oracle), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("field", [
        "walk_strength", "walk_floor", "walk_escalation", "push_asymmetry",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_constants_rejected_at_config(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FeedbackConfig(**{field: value})
