"""Randomized invariant suite: norms, involutions, filter laws, determinism.

Seeded randomized sweeps standing in for exhaustive checks; together the
cases below exceed a thousand random instances while staying fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelearn import (
    AqftInstance,
    FeedbackConfig,
    FeedbackHistory,
    GroverInstance,
    OutcomeAmplitudes,
    ParameterState,
    PureState,
    apply_controlled_phase,
    apply_quantum_walk,
    apply_single_qubit_gate,
    ExperimentConfig,
    invert_about_mean,
    on_failure,
    outcome_distribution,
    pass_fail_amplitudes,
    run_ensemble,
    translate,
    walk_coefficients,
)
from gatelearn.qft import ProductFormTrials, trial_output_batch

RNG = np.random.default_rng(20260808)


def random_chi(n):
    amps = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return ParameterState(amps / np.linalg.norm(amps))


def random_unitary_2x2():
    th, ph, lam = RNG.uniform(0, 2 * np.pi, 3)
    return np.array(
        [
            [np.cos(th), -np.sin(th) * np.exp(-1j * ph)],
            [np.sin(th) * np.exp(1j * ph), np.cos(th)],
        ]
    ) * np.exp(1j * lam)


def test_gate_sequences_preserve_norm_200_cases():
    for _ in range(200):
        n = int(RNG.integers(1, 5))
        amps = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
        state = PureState(n, amps / np.linalg.norm(amps))
        for _ in range(10):
            if RNG.random() < 0.5 or n == 1:
                state = apply_single_qubit_gate(
                    state, int(RNG.integers(n)), random_unitary_2x2()
                )
            else:
                a, b = RNG.choice(n, size=2, replace=False)
                state = apply_controlled_phase(
                    state, int(a), int(b), float(RNG.uniform(0, 2 * np.pi))
                )
        assert abs(state.norm() - 1.0) < 1e-10


def test_inversion_involution_200_cases():
    for _ in range(200):
        chi = random_chi(int(RNG.integers(4, 128)))
        twice = invert_about_mean(invert_about_mean(chi))
        assert np.abs(twice.amplitudes - chi.amplitudes).max() < 1e-12
        assert abs(invert_about_mean(chi).norm() - 1.0) < 1e-12


def test_translation_group_law_200_cases():
    for _ in range(200):
        n = int(RNG.integers(4, 64))
        chi = random_chi(n)
        k1, k2 = int(RNG.integers(-50, 50)), int(RNG.integers(-50, 50))
        a = translate(translate(chi, k1), k2)
        b = translate(chi, k1 + k2)
        assert np.array_equal(a.amplitudes, b.amplitudes)


def test_martingale_law_200_cases():
    # sum_r P(r) * posterior_r = prior, cell by cell
    for _ in range(200):
        n = int(RNG.integers(3, 40))
        chi = random_chi(n)
        p = RNG.uniform(0.0, 1.0, n)
        amps = OutcomeAmplitudes.binary(np.sqrt(p), np.sqrt(1.0 - p))
        dist = outcome_distribution(chi, amps)
        prior = chi.probabilities()
        reconstruction = np.zeros(n)
        for r in range(2):
            filtered = chi.amplitudes * amps.outcome_amplitude(r)
            reconstruction += dist[r] * np.abs(filtered) ** 2 / dist[r]
        assert np.abs(reconstruction - prior).max() < 1e-10


def test_feedback_operations_preserve_norm_150_cases():
    rng = np.random.default_rng(55)
    for _ in range(150):
        chi = random_chi(int(RNG.integers(8, 96)))
        strategy = "single_push" if RNG.random() < 0.5 else "double_push"
        config = FeedbackConfig(
            strategy=strategy,
            initial_push_cells=int(RNG.integers(1, 8)),
            walk_strength=float(RNG.uniform(0.1, 20.0)),
            push_asymmetry=float(RNG.uniform(0.25, 1.0)),
        )
        history = FeedbackHistory(
            successes=int(RNG.integers(0, 20)),
            failures=int(RNG.integers(0, 20)),
            consecutive_failures=int(RNG.integers(0, 12)),
        )
        out, _action = on_failure(chi, history, config, rng)
        assert abs(out.norm() - 1.0) < 1e-9


def test_walk_unitarity_sum_100_cases():
    for _ in range(100):
        x = float(RNG.uniform(0.0, 30.0))
        assert abs(walk_coefficients(x).unitarity_sum() - 1.0) < 1e-9


def test_walk_norm_preservation_100_cases():
    for _ in range(100):
        chi = random_chi(int(RNG.integers(8, 64)))
        coeffs = walk_coefficients(float(RNG.uniform(0.0, 8.0)))
        step = int(RNG.integers(1, 4))
        assert abs(apply_quantum_walk(chi, coeffs, step).norm() - 1.0) < 1e-9


def test_search_amplitude_closure_100_cases():
    for _ in range(100):
        n_el = int(RNG.integers(2, 4000))
        inst = GroverInstance.standard(n_el)
        s, b = pass_fail_amplitudes(inst, float(RNG.uniform(0, 2 * np.pi)))
        assert abs(abs(s) ** 2 + abs(b) ** 2 - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_form_trial_matches_statevector_oracle(data):
    n = data.draw(st.integers(2, 9), label="n")
    band = data.draw(st.sampled_from([1, 2] if n > 2 else [1]), label="band")
    k = data.draw(st.integers(0, (1 << n) - 1), label="k")
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    rows = data.draw(
        st.lists(st.tuples(*[angle] * band), min_size=1, max_size=8), label="phase rows"
    )
    weights = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(rows), max_size=len(rows)))
    ) + 1e-3
    weights /= weights.sum()
    instance = AqftInstance.standard(n, band)
    oracle = trial_output_batch(instance, k, rows)  # (cells, 2**n)
    trial = ProductFormTrials(instance, rows).trial(k)
    np.testing.assert_allclose(
        trial.distribution(weights), weights @ np.abs(oracle) ** 2, rtol=0, atol=1e-12
    )
    for r in range(1 << n):
        np.testing.assert_allclose(trial.outcome_amplitude(r), oracle[:, r], rtol=0, atol=1e-12)


def test_ensemble_determinism_across_thread_counts():
    config = ExperimentConfig(
        problem=GroverInstance.standard(16),
        iterations=25,
        runs=8,
        grid_size=64,
        feedback=FeedbackConfig(initial_push_cells=2),
        master_seed=99,
    )
    reference = None
    for threads in (1, 2, 4, 8):
        summary, results = run_ensemble(config, threads=threads)
        key = (
            tuple(summary.mean_curve),
            tuple(summary.final_values),
            tuple(r.feedback_action for run in results for r in run.records),
        )
        if reference is None:
            reference = key
        else:
            assert key == reference


def test_learning_loop_chi_normalization_30_runs():
    config = ExperimentConfig(
        problem=GroverInstance.standard(64),
        iterations=60,
        runs=30,
        grid_size=128,
        feedback=FeedbackConfig(initial_push_cells=4),
        master_seed=123,
        snapshot_chi=True,
    )
    _, results = run_ensemble(config)
    for run in results:
        totals = run.chi_snapshots.sum(axis=1)
        assert np.abs(totals - 1.0).max() < 1e-9


def test_success_counter_consistency_30_runs():
    from gatelearn import run_learning

    config = ExperimentConfig(
        problem=GroverInstance.standard(16),
        iterations=50,
        runs=1,
        grid_size=64,
        feedback=FeedbackConfig(strategy="single_push", initial_push_cells=8),
        master_seed=0,
    )
    for seed in range(30):
        result = run_learning(config, run_seed=seed)
        passes = fails = 0
        for rec in result.records:
            if rec.outcome == "fail" and rec.feedback_action.startswith("push"):
                # push magnitude must reflect the success count so far
                magnitude = abs(int(rec.feedback_action.removeprefix("push")))
                expected = max(1, round(8 / np.sqrt(1 + passes)))
                assert magnitude == expected
            if rec.outcome == "pass":
                passes += 1
            else:
                fails += 1
        assert passes + fails == 50
