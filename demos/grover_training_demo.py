"""Teaching a search circuit its oracle phase, one verification at a time.

A 200-element database search needs the marking phase pi, but the
circuit starts with a flat quantum superposition over all phases.  The
trainer never looks inside: it only reruns the circuit, checks whether
the measured element is the marked one, and reacts to failures with the
quantum-walk feedback.  An ensemble of independent trainings shows how
the average deployed success climbs toward the ideal-circuit value
within 120 iterations.
"""

import numpy as np

from gatelearn import (
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    reference_max_success,
    run_ensemble,
    run_learning,
)

N_ELEMENTS = 200


def main():
    problem = GroverInstance.standard(N_ELEMENTS)
    config = ExperimentConfig(
        problem=problem,
        iterations=120,
        runs=60,
        grid_size=256,
        feedback=FeedbackConfig(strategy="double_push"),
        master_seed=7,
    )
    reference = reference_max_success(N_ELEMENTS)
    print(f"database of {N_ELEMENTS} elements; ideal circuit succeeds with "
          f"p = {reference:.4f} after {problem.iterations} rounds\n")

    print("one seeded training run:")
    run = run_learning(config, run_seed=123)  # a batch of one run: row 0 of each column
    for it in (1, 2, 3, 5, 10, 20, 40, 80, 120):
        j = it - 1
        print(f"  iter {it:3d}: {'pass' if run.passed[0, j] else 'fail':4s} "
              f"feedback={run.feedback_action[0, j]:12s} "
              f"deployed success={run.expected_success[0, j]:.4f} "
              f"spread={run.circular_variance[0, j]:.4f}")

    print(f"\nensemble of {config.runs} independent trainings:")
    summary, _ = run_ensemble(config)
    for it in (1, 10, 20, 40, 60, 80, 100, 120):
        print(f"  iter {it:3d}: mean deployed success = {summary.mean_curve[it-1]:.4f}")
    print(f"\nmean final success:   {summary.mean_final:.4f} "
          f"({100 * summary.mean_final / reference:.1f}% of the ideal circuit)")
    print(f"90% quantile of runs: {summary.quantiles[0.90]:.4f}")
    reached = [v for v in summary.iterations_to_95 if np.isfinite(v)]
    print(f"runs reaching 95% of the ideal: {len(reached)}/{summary.runs}, "
          f"fastest at iteration {int(min(reached))}")


if __name__ == "__main__":
    main()
