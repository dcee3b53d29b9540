"""Feedback operators: quantum walk, pushes, kickstart, controller dispatch."""

from dataclasses import replace

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    FeedbackConfig,
    GroverInstance,
    NumericsError,
    grid_points,
)
from gatelearn.backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from gatelearn.feedback import apply_quantum_walk_batch, next_tallies, on_failure_batch
from gatelearn.grover import pass_fail_amplitudes
from gatelearn.oracle import walk_bessel_kernel, walk_matrix
from gatelearn.parameter import dephase_batch, invert_about_mean_batch, translate_batch
from gatelearn.productform import ProductFormTrials
from test_parameter import flat_chi, random_chi

# every operator runs on a batch of one run: an array of shape (1, *grid_shape)


def walk(chi, x):
    return apply_quantum_walk_batch(chi, [x])


def on_failure(chi, config, rng, successes=0, failures=0, consecutive=0,
               binary_readout=False):
    """The feedback for one failed run and its action tag.

    The counts are the run's tally of passes, failures and consecutive
    failures before this failure.
    """
    out, tags = on_failure_batch(chi, [(successes, failures, consecutive)], config, [rng],
                                 binary_readout)
    return out, tags[0]


def walk_kernel(x, cells=256):
    """The walk applied to a delta: amplitude p_l at distance l on either side."""
    return walk(np.eye(1, cells, dtype=complex), x)[0]


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
        np.testing.assert_allclose(kernel, walk_bessel_kernel(256, 0.5), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.5, 5.0])
    def test_matches_bessel_oracle(self, x):
        np.testing.assert_allclose(walk_kernel(x), walk_bessel_kernel(256, x), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.5, 3.0, 5.0])
    def test_unitarity_sum(self, x):
        # |p_0|^2 + 2 sum_{l>=1} |p_l|^2 = 1
        assert abs(np.sum(np.abs(walk_kernel(x)) ** 2) - 1.0) < 1e-12

    def test_large_strength_stays_finite(self):
        kernel = walk_kernel(60.0, cells=512)  # the kernel spans about 2x cells each way
        assert np.isfinite(kernel).all()
        assert abs(np.linalg.norm(kernel) - 1.0) < 1e-12
        np.testing.assert_allclose(kernel, walk_bessel_kernel(512, 60.0), rtol=0, atol=1e-10)

    def test_unphysical_strength_rejected(self):
        for x in (np.nan, np.inf, -np.inf, -0.5):
            with pytest.raises(ValueError, match="finite and >= 0"):
                walk_kernel(x)


class TestApplyQuantumWalk:
    def test_zero_strength_is_identity(self):
        chi = random_chi(32, 0)
        out = walk(chi, 0.0)
        np.testing.assert_allclose(out, chi, atol=1e-15)

    def test_symmetric_split_of_a_delta(self):
        amps = np.zeros((1, 16), dtype=complex)
        amps[0, 8] = 1.0
        probs = np.abs(walk(amps, 0.5)[0]) ** 2
        assert abs(probs[7] - probs[9]) < 1e-12
        assert probs[7] > 1e-3

    @pytest.mark.parametrize("n_cells,x", [(32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5)])
    def test_matches_dense_circulant_exponential(self, n_cells, x):
        chi = random_chi(n_cells, seed=int(10 * x))
        out = walk(chi, x)
        np.testing.assert_allclose(
            out[0], walk_matrix((n_cells,), x) @ chi[0], rtol=0, atol=1e-12
        )

    def test_norm_preserved(self):
        for x in (0.3, 1.0, 4.0, 18.0, 120.0):
            out = walk(random_chi(64, 7), x)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_strided_amplitudes_walk_like_a_copy(self):
        amps = random_chi(64, 8)
        amps[:, ::2] /= np.linalg.norm(amps[:, ::2])
        chi = amps[:, ::2]
        assert not chi.flags.c_contiguous
        copy = chi.copy()
        np.testing.assert_array_equal(walk(chi, 2.0), walk(copy, 2.0))

    def test_nan_row_rejected(self):
        chi = random_chi(16, 9)
        chi[0, 3] = np.nan
        with pytest.raises(NumericsError, match="changed the norm"):
            walk(chi, 0.5)

    def test_two_axis_walk_acts_on_both(self):
        amps = np.zeros((1, 8, 8), dtype=complex)
        amps[0, 4, 4] = 1.0
        out = walk(amps, 0.5)
        probs = np.abs(out[0]) ** 2
        assert probs[3, 4] > 1e-3 and probs[4, 3] > 1e-3
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        np.testing.assert_allclose(
            out.ravel(), walk_matrix((8, 8), 0.5) @ amps.ravel(), rtol=0, atol=1e-12
        )


def single_push(chi, failures, successes, config):
    """The controller's single-push branch, with the kickstart out of the way."""
    config = replace(config, kickstart_enabled=False)
    return on_failure(chi, config, np.random.default_rng(0), successes, failures)[0]


class TestSinglePush:
    def test_first_push_is_full_magnitude_right(self):
        chi = np.eye(1, 64, 10, dtype=complex)
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 0, 0, config)
        assert abs(out[0, 18] - 1.0) < 1e-15

    def test_decayed_left_push(self):
        # 8 / sqrt(4) = 4 cells, odd failure count pushes left
        chi = np.eye(1, 64, 10, dtype=complex)
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 1, 3, config)
        assert abs(out[0, 6] - 1.0) < 1e-15

    def test_magnitude_clamps_at_one_cell(self):
        chi = np.eye(1, 64, 10, dtype=complex)
        config = FeedbackConfig(strategy="single_push", initial_push_cells=8)
        out = single_push(chi, 0, 10_000, config)
        assert abs(out[0, 11] - 1.0) < 1e-15

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
        chi = flat_chi(32)
        out = invert_about_mean_batch(chi)
        np.testing.assert_allclose(out, chi, atol=1e-15)

    def test_norm_preserved(self):
        assert abs(np.linalg.norm(invert_about_mean_batch(random_chi(64, 2))) - 1.0) < 1e-12

    def test_dip_from_failed_trial_becomes_peak(self):
        # uniform chi filtered by one failed verification carries a dip at
        # the good phase; the kickstart must relocate the maximum there
        inst = GroverInstance.standard(16)
        t, u = pass_fail_amplitudes(inst, grid_points(256))
        table, columns = outcome_table([t, u])
        chi = flat_chi(256)
        rng = np.random.default_rng(4)
        while True:  # condition on a failed first trial
            dist = distribution_batch(np.abs(chi) ** 2, table)
            r, mass = sample_batch(dist, [rng])
            filtered = filter_batch(chi, columns[r], mass)
            if r[0] == 1:
                break
        pmap = np.abs(t) ** 2
        before = int(np.argmax(np.abs(filtered[0]) ** 2))
        assert pmap[before] < 0.5  # the dip sits away from the optimum
        kicked = invert_about_mean_batch(filtered)
        after = int(np.argmax(np.abs(kicked[0]) ** 2))
        assert pmap[after] > 0.9  # now the peak marks the good phase


class TestController:
    def test_first_failure_uses_kickstart_only(self):
        chi = random_chi(32, 3)
        config = FeedbackConfig(strategy="single_push")
        out, action = on_failure(chi, config, np.random.default_rng(0))
        assert action == "kickstart"
        np.testing.assert_allclose(out, invert_about_mean_batch(chi), atol=1e-15)

    def test_kickstart_can_be_disabled(self):
        chi = random_chi(32, 3)
        config = FeedbackConfig(strategy="single_push", kickstart_enabled=False)
        _, action = on_failure(chi, config, np.random.default_rng(0))
        assert action.startswith("push")

    def test_second_failure_single_push_translates_only(self):
        chi = random_chi(32, 4)
        config = FeedbackConfig(strategy="single_push", initial_push_cells=4)
        out, action = on_failure(chi, config, np.random.default_rng(0),
                                 successes=0, failures=1, consecutive=1)
        assert action == "push-4"
        np.testing.assert_allclose(np.abs(out), np.abs(np.roll(chi, -4, axis=1)), atol=1e-15)

    def test_second_failure_double_push_walks_and_dephases(self):
        chi = random_chi(32, 5)
        config = FeedbackConfig(strategy="double_push", walk_strength=0.8,
                                walk_escalation=0.0)
        out, action = on_failure(chi, config, np.random.default_rng(9),
                                 successes=2, failures=1, consecutive=1)
        assert action == "walk+dephase"
        walked = walk(chi, 0.8)
        np.testing.assert_allclose(np.abs(out), np.abs(walked), atol=1e-12)

    @pytest.mark.parametrize("successes,action", [(0, "kickstart"), (1, "walk+dephase")])
    def test_double_push_search_reflects_until_first_pass(self, successes, action):
        _, tag = on_failure(random_chi(32, 6), FeedbackConfig(), np.random.default_rng(0),
                            successes=successes, failures=5, consecutive=2,
                            binary_readout=True)
        assert tag == action

    @pytest.mark.parametrize("strategy,binary_readout", [
        ("double_push", False),  # Fourier readout: full outcome index
        ("single_push", True),
    ])
    def test_later_failures_never_reflect_elsewhere(self, strategy, binary_readout):
        chi = random_chi(32, 7)
        _, action = on_failure(chi, FeedbackConfig(strategy=strategy), np.random.default_rng(0),
                               successes=0, failures=3, consecutive=3,
                               binary_readout=binary_readout)
        assert action != "kickstart"

    def test_disabled_kickstart_never_reflects_search(self):
        chi = random_chi(32, 8)
        config = FeedbackConfig(kickstart_enabled=False)
        for failures in (0, 4):
            _, action = on_failure(chi, config, np.random.default_rng(0), 0, failures,
                                   failures, binary_readout=True)
            assert action == "walk+dephase"

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
        out, action = on_failure(random_chi(32, 4), fast, np.random.default_rng(0),
                                 successes=1, failures=failures, consecutive=failures)
        assert action == "walk+dephase"
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    @pytest.mark.parametrize("floor,escalation", [(1.5, 2.0), (1.5, 0.1), (1e-300, 0.5), (0.0, 2.0)])
    def test_escalation_equals_the_closed_form_where_it_is_finite(self, floor, escalation):
        from gatelearn.feedback import _effective_walk_strength

        config = FeedbackConfig(walk_floor=floor, walk_escalation=escalation)
        for c in range(0, int(1023 * escalation) + 1):
            assert _effective_walk_strength(config, c) == min(24.0, floor * 2.0 ** (c / escalation))

    @pytest.mark.parametrize("strategy,binary_readout,shape", [
        ("double_push", True, (32,)),  # kickstart rows beside walked rows
        ("single_push", False, (32,)),
        ("single_push", False, (8, 8)),  # push[axN] tags
    ])
    def test_counts_of_any_integer_type_give_the_same_step(self, strategy, binary_readout,
                                                           shape):
        # the loop passes a list of tuples of Python ints; a (runs, 3) array
        # and tuples of numpy integers must give the same rows, byte for
        # byte, and tags
        amps = np.concatenate([random_chi(int(np.prod(shape)), seed) for seed in range(5)])
        amps = amps.reshape((5,) + shape)
        tallies = [(0, 0, 0), (0, 4, 4), (3, 5, 2), (1, 1, 1), (2, 6, 3)]
        config = FeedbackConfig(strategy=strategy, initial_push_cells=3)
        results = []
        for cast in (list, np.array,
                     lambda rows: [tuple(np.int64(c) for c in row) for row in rows]):
            rngs = [np.random.default_rng(seed) for seed in range(5)]
            results.append(on_failure_batch(amps, cast(tallies), config, rngs, binary_readout))
        for out, tags in results:
            assert out.tobytes() == results[0][0].tobytes()
            assert tags == results[0][1]
            assert all(type(tag) is str for tag in tags)
        tags = results[0][1]
        if strategy == "double_push":
            assert tags == ["kickstart", "kickstart", "walk+dephase", "walk+dephase",
                            "walk+dephase"]
        elif len(shape) == 1:
            assert tags[0] == "kickstart" and all(tag.startswith("push") for tag in tags[1:])
        else:
            assert tags[0] == "kickstart"
            assert all(tag.startswith("push[ax") for tag in tags[1:])

    def test_all_feedback_preserves_norm(self):
        rng = np.random.default_rng(11)
        for strategy in ("single_push", "double_push"):
            config = FeedbackConfig(strategy=strategy)
            chi = random_chi(64, 12)
            for failures in range(15):
                chi, _action = on_failure(chi, config, rng, 0, failures, failures)
                assert abs(np.linalg.norm(chi) - 1.0) < 1e-9

    def test_unknown_strategy_rejected_at_config(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            FeedbackConfig(strategy="triple_push")

    def test_large_walk_strength_builds_and_matches_dense_exponential(self):
        # the exact walk has no strength cap: x=120 builds and runs
        config = FeedbackConfig(walk_strength=120.0, walk_escalation=0.0)
        chi = random_chi(64, 13)
        out, action = on_failure(chi, config, np.random.default_rng(3),
                                 successes=1, failures=1, consecutive=1)
        assert action == "walk+dephase"
        oracle = walk_matrix((64,), 120.0) @ chi[0]
        np.testing.assert_allclose(walk(chi, 120.0)[0], oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(out[0]), np.abs(oracle), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("field", [
        "walk_strength", "walk_floor", "walk_escalation", "push_asymmetry",
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_constants_rejected_at_config(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            FeedbackConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("kickstart_enabled", "no"),
        ("kickstart_enabled", 1),
        ("kickstart_enabled", None),
        ("initial_push_cells", 2.5),
        ("initial_push_cells", 2.0),
        ("initial_push_cells", True),
        ("initial_push_cells", "8"),
        ("initial_push_cells", 0),
        ("walk_strength", -1.0),
        ("walk_floor", -0.5),
        ("walk_escalation", -1.0),
        ("push_asymmetry", 0.0),
        ("walk_strength", "24"),
        ("walk_strength", None),
        ("walk_floor", True),
        ("walk_escalation", 1 + 0j),
        ("push_asymmetry", [2.0]),
    ])
    def test_wrong_types_rejected_at_config(self, field, value):
        # "no" is truthy and would turn the kickstart on; 2.5 cells would be
        # rounded inside the push; a string, None, a bool, a complex number
        # and a list are not real strengths; the rest are out of range
        with pytest.raises(ValueError, match=f"{field} must be"):
            FeedbackConfig(**{field: value})

    def test_walk_strength_bound_is_where_the_spectrum_overflows(self):
        # 2 x cos(...) overflows a float just above x = max / 2
        bound = np.finfo(float).max / 2
        config = FeedbackConfig(walk_strength=bound, walk_escalation=0.0)
        out, action = on_failure(random_chi(16, 14), config, np.random.default_rng(0),
                                 successes=1, failures=1, consecutive=1)
        assert action == "walk+dephase"
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        above = float(np.nextafter(bound, np.inf))
        with pytest.raises(ValueError, match="walk_strength must be"):
            FeedbackConfig(walk_strength=above)
        with pytest.raises(ValueError, match="finite and >= 0"):
            walk(random_chi(16, 14), above)

    @pytest.mark.parametrize("cells,asymmetry", [(10**400, 1.0), (10**30, 1e300)],
                             ids=["cells", "cells-times-asymmetry"])
    def test_push_beyond_a_float_rejected_at_config(self, cells, asymmetry):
        # _push_move sizes each push as a float; inf has no cyclic shift
        with pytest.raises(ValueError, match="initial_push_cells must fit a float"):
            FeedbackConfig(strategy="single_push", initial_push_cells=cells,
                           push_asymmetry=asymmetry)

    def test_push_of_any_size_shifts_modulo_the_axis(self):
        # a shift by s is a shift by s mod N; the tag records the size asked for
        config = FeedbackConfig(strategy="single_push", initial_push_cells=10**30,
                                push_asymmetry=1e270, kickstart_enabled=False)
        chi = random_chi(32, 15)
        for failures in (0, 1):
            out, action = on_failure(chi, config, np.random.default_rng(0), 0, failures,
                                     failures)
            shift = int(action[len("push"):])
            assert abs(shift) >= 10**30
            np.testing.assert_array_equal(out, np.roll(chi, shift % 32, axis=1))

    def test_integer_and_numpy_reals_accepted(self):
        config = FeedbackConfig(walk_strength=np.float32(3.0), walk_floor=2,
                                walk_escalation=np.int64(1))
        assert config.walk_strength == 3.0 and config.walk_floor == 2



def _per_run_calls():
    """One call per kernel and per-run argument: three rows, one value of that argument."""
    chi = np.full((3, 4), 0.5, dtype=complex)
    weights, rng = np.full((3, 4), 0.25), np.random.default_rng(0)
    rngs = [np.random.default_rng(i) for i in range(3)]
    draw = ProductFormTrials(AqftInstance.standard(3, 1), [grid_points(4)]).draw
    u = [[0.5] * 3] * 3

    def failure(tallies=((0, 1, 1),) * 3, streams=rngs):
        return on_failure_batch(chi, tallies, FeedbackConfig(), streams)

    calls = [
        ("dephase_batch", "rngs", lambda: dephase_batch(chi, [rng])),
        ("sample_batch", "rngs", lambda: sample_batch(weights, [rng])),
        ("filter_batch", "columns", lambda: filter_batch(chi, chi[:1], [1.0] * 3)),
        ("filter_batch", "masses", lambda: filter_batch(chi, chi, [1.0])),
        ("translate_batch", "shifts", lambda: translate_batch(chi, [1], [0] * 3)),
        ("translate_batch", "axes", lambda: translate_batch(chi, [1] * 3, [0])),
        ("apply_quantum_walk_batch", "strengths", lambda: apply_quantum_walk_batch(chi, [0.5])),
        ("draw", "weights", lambda: draw([0] * 3, weights[:1], [0] * 3, u)),
        ("draw", "cells", lambda: draw([0] * 3, weights, [0], u)),
        ("draw", "uniforms", lambda: draw([0] * 3, weights, [0] * 3, u[:1])),
        # and each run's row of uniforms holds one per outcome bit
        ("draw", "uniforms need 3", lambda: draw([0] * 3, weights, [0] * 3, [[0.5] * 2] * 3)),
        ("on_failure_batch", "tallies", lambda: failure(tallies=[(0, 1, 1)])),
        # and each run's tally holds one count of each kind, not a list of the runs' counts
        ("on_failure_batch", "successes", lambda: failure(tallies=[([0] * 3, 1, 1)] * 3)),
        ("on_failure_batch", "failures", lambda: failure(tallies=[(0, [1] * 3, 1)] * 3)),
        ("on_failure_batch", "consecutive_failures",
         lambda: failure(tallies=[(0, 1, [1] * 3)] * 3)),
        ("on_failure_batch", "rngs", lambda: failure(streams=[rng])),
        ("next_tallies", "passed", lambda: next_tallies([(0, 1, 1)] * 3, [True])),
    ]
    return [pytest.param(name, call, id=f"{kernel}-{name}") for kernel, name, call in calls]


@pytest.mark.parametrize("name,call", _per_run_calls())
def test_per_run_arguments_must_match_the_batch(name, call):
    # zip or broadcasting would silently drop or repeat the one value
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("cast", [list, np.array], ids=["python-bools", "numpy-bools"])
def test_next_tallies_follow_a_pass_fail_record(cast):
    # run 0 reads fail, fail, pass, fail; run 1 reads pass, pass, fail, fail
    record = [[False, True], [False, True], [True, False], [False, False]]
    tallies = [(0, 0, 0)] * 2
    steps = []
    for passed in record:
        tallies = next_tallies(tallies, cast(passed))
        steps.append(tallies)
    assert steps == [
        [(0, 1, 1), (1, 0, 0)],
        [(0, 2, 2), (2, 0, 0)],
        [(1, 2, 0), (2, 1, 1)],
        [(1, 3, 1), (2, 2, 2)],
    ]
    assert all(type(count) is int for tally in tallies for count in tally)
