"""Randomized invariant suite: norms, involutions, filter laws, determinism.

Seeded randomized sweeps standing in for exhaustive checks; together the
cases below exceed a thousand random instances while staying fast.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gatelearn import (
    AqftInstance,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    pass_fail_amplitudes,
    run_ensemble,
    run_learning,
)
from gatelearn.backaction import distribution_batch, outcome_table
from gatelearn.feedback import apply_quantum_walk_batch, on_failure_batch
from gatelearn.oracle import (
    apply_controlled_phase,
    apply_single_qubit_gate,
    walk_matrix,
)
from gatelearn.parameter import invert_about_mean_batch, translate_batch
from gatelearn.selftest import fourier_draw_deviation, spectrum_deviation, success_map_deviation

RNG = np.random.default_rng(20260808)


def random_chi(n):
    """One run's random wavefunction, as a batch of one."""
    amps = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return (amps / np.linalg.norm(amps))[None]


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
        state = amps / np.linalg.norm(amps)
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
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_inversion_involution_200_cases():
    for _ in range(200):
        chi = random_chi(int(RNG.integers(4, 128)))
        twice = invert_about_mean_batch(invert_about_mean_batch(chi))
        assert np.abs(twice - chi).max() < 1e-12
        assert abs(np.linalg.norm(invert_about_mean_batch(chi)) - 1.0) < 1e-12


def test_translation_group_law_200_cases():
    for _ in range(200):
        n = int(RNG.integers(4, 64))
        chi = random_chi(n)
        k1, k2 = int(RNG.integers(-50, 50)), int(RNG.integers(-50, 50))
        a = translate_batch(translate_batch(chi, [k1], [0]), [k2], [0])
        b = translate_batch(chi, [k1 + k2], [0])
        assert np.array_equal(a, b)


def test_martingale_law_200_cases():
    # sum_r P(r) * posterior_r = prior, cell by cell
    for _ in range(200):
        n = int(RNG.integers(3, 40))
        chi = random_chi(n)
        p = RNG.uniform(0.0, 1.0, n)
        table, columns = outcome_table([np.sqrt(p), np.sqrt(1.0 - p)])
        prior = np.abs(chi[0]) ** 2
        dist = distribution_batch(prior[None], table)[0]
        reconstruction = np.zeros(n)
        for r in range(2):
            filtered = chi[0] * columns[r]
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
        successes = int(RNG.integers(0, 20))
        failures = int(RNG.integers(0, 20))
        consecutive_failures = int(RNG.integers(0, 12))
        out, _action = on_failure_batch(
            chi, [(successes, failures, consecutive_failures)], config, [rng]
        )
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def test_walk_unitarity_sum_100_cases():
    # the walked delta holds the translation coefficients, sum |p_l|^2 = 1
    for _ in range(100):
        x = float(RNG.uniform(0.0, 30.0))
        cells = int(RNG.integers(2, 256))
        delta = np.eye(1, cells, dtype=complex)
        kernel = apply_quantum_walk_batch(delta, [x])
        assert abs(np.sum(np.abs(kernel) ** 2) - 1.0) < 1e-12


def test_walk_norm_preservation_100_cases():
    for _ in range(100):
        chi = random_chi(int(RNG.integers(8, 64)))
        x = float(RNG.uniform(0.0, 130.0))
        assert abs(np.linalg.norm(apply_quantum_walk_batch(chi, [x])) - 1.0) < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_fft_walk_matches_dense_exponential(data):
    two_axis = data.draw(st.booleans(), label="two axes")
    # 2-axis grids stay small enough for the dense kron oracle
    sizes = data.draw(
        st.lists(st.integers(2, 24 if two_axis else 64),
                 min_size=1 + two_axis, max_size=1 + two_axis),
        label="cells per axis",
    )
    x = data.draw(st.floats(0.0, 130.0), label="x")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=sizes) + 1j * rng.normal(size=sizes)
    chi = (amps / np.linalg.norm(amps))[None]
    walked = apply_quantum_walk_batch(chi, [x])
    np.testing.assert_allclose(
        walked.ravel(), walk_matrix(sizes, x) @ chi.ravel(), rtol=0, atol=1e-12
    )


def test_search_amplitude_closure_100_cases():
    for _ in range(100):
        n_el = int(RNG.integers(2, 4000))
        inst = GroverInstance.standard(n_el)
        s, b = pass_fail_amplitudes(inst, float(RNG.uniform(0, 2 * np.pi)))
        assert abs(abs(s) ** 2 + abs(b) ** 2 - 1.0) < 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_product_form_draw_matches_statevector_oracle(data):
    """Each bit of the draw falls where the statevector's conditional at the latent cell puts it."""
    band = data.draw(st.integers(1, 3), label="band")
    n = data.draw(st.integers(band + 1, 9), label="n")
    runs = data.draw(st.integers(1, 4), label="runs")
    # the axis lengths come first, so that two- and three-phase examples
    # often vary two or more phases at once: the windows in which the
    # conditional mixes the cells of several axes
    lengths = data.draw(st.lists(st.integers(1, 8 // band + 1), min_size=band, max_size=band),
                        label="cells per axis")
    angle = st.floats(-2 * np.pi, 2 * np.pi)
    axes = [data.draw(st.lists(angle, min_size=size, max_size=size, unique=True),
                      label=f"phase axis {d}")
            for d, size in enumerate(lengths)]
    cells = int(np.prod([len(axis) for axis in axes]))
    ks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=runs, max_size=runs),
                   label="k")
    weights = np.array(data.draw(
        st.lists(st.lists(st.floats(0.0, 1.0), min_size=cells, max_size=cells),
                 min_size=runs, max_size=runs), label="weights")) ** 4 + 1e-3
    weights /= weights.sum(axis=1, keepdims=True)
    latent = data.draw(st.lists(st.integers(0, cells - 1), min_size=runs, max_size=runs),
                       label="latent cells")
    uniform = st.floats(0.0, 1.0, exclude_max=True)
    uniforms = data.draw(st.lists(st.lists(uniform, min_size=n, max_size=n),
                                  min_size=runs, max_size=runs), label="u")
    mismatches, mass, column = fourier_draw_deviation(
        AqftInstance.standard(n, band), axes, ks, weights, latent, uniforms
    )
    assert mismatches == 0
    assert mass <= 1e-12 and column <= 1e-12


#: every column of a RunBatch, the snapshots included
RUN_COLUMNS = ("passed", "measured_index", "expected_success", "circular_variance",
               "feedback_action", "min_outcome_mass", "chi_snapshots")


@st.composite
def small_experiments(draw):
    """Small search or Fourier configs over both strategies and 1- and 2-axis grids."""
    if draw(st.booleans()):
        band = draw(st.sampled_from([1, 2]))
        problem = AqftInstance.standard(draw(st.integers(band + 1, 5)), band)
        grid_size = draw(st.integers(2, 24 if band == 1 else 9))
    else:
        problem = GroverInstance.standard(draw(st.sampled_from([4, 16, 200, 10000])))
        grid_size = draw(st.integers(2, 40))
    feedback = FeedbackConfig(
        strategy=draw(st.sampled_from(["single_push", "double_push"])),
        kickstart_enabled=draw(st.booleans()),
        initial_push_cells=draw(st.integers(1, 6)),
        push_asymmetry=draw(st.sampled_from([0.5, 1.0])),
        walk_escalation=draw(st.sampled_from([0.0, 0.1, 2.0])),
    )
    return ExperimentConfig(
        problem=problem,
        iterations=draw(st.integers(1, 25)),
        runs=draw(st.integers(1, 12)),
        grid_size=grid_size,
        feedback=feedback,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        snapshot_chi=True,
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_success_map_matches_statevector_average(data):
    """The k-averaged success map equals the gate-by-gate average over every k."""
    n = data.draw(st.integers(2, 7), label="n")
    band = data.draw(st.integers(0, min(3, n - 1)), label="band")
    angle = st.floats(-20.0, 20.0)
    rows = data.draw(
        st.lists(st.tuples(*[angle] * band), min_size=1, max_size=4), label="phase rows"
    )
    assert success_map_deviation(n, band, rows) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_spectrum_interpolant_matches_success_map(data):
    """At any phases, the success's spectrum interpolant equals the success map."""
    n = data.draw(st.integers(2, 12), label="n")
    band = data.draw(st.integers(1, min(3, n - 1)), label="band")
    angle = st.floats(-20.0, 20.0)
    rows = data.draw(
        st.lists(st.tuples(*[angle] * band), min_size=1, max_size=4), label="phase rows"
    )
    assert spectrum_deviation(n, band, rows) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(config=small_experiments())
def test_batch_equals_one_run_batches(config):
    """A batch of R runs equals R one-run batches, bit for bit."""
    _, batch = run_ensemble(config)
    seeds = np.random.SeedSequence(config.master_seed).spawn(config.runs)
    for i, seed in enumerate(seeds):
        one = run_learning(config, seed)
        for column in RUN_COLUMNS:
            np.testing.assert_array_equal(
                getattr(batch, column)[i : i + 1], getattr(one, column), err_msg=column
            )


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
    _, batch = run_ensemble(config)
    assert batch.chi_snapshots.shape == (30, 60, 128)
    totals = batch.chi_snapshots.sum(axis=2)
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
        for passed, action in zip(result.passed[0], result.feedback_action[0]):
            if not passed and action.startswith("push"):
                # push magnitude must reflect the success count so far
                magnitude = abs(int(action.removeprefix("push")))
                expected = max(1, round(8 / np.sqrt(1 + passes)))
                assert magnitude == expected
            if passed:
                passes += 1
            else:
                fails += 1
        assert passes + fails == 50
