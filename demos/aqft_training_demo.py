"""Training the nearest-neighbor Fourier transform past its textbook phases.

Truncating the Fourier circuit to nearest-neighbor couplings costs
accuracy, and the textbook angle pi/2 is no longer the best choice.
Here the coupling phase is a quantum variable trained by verification
feedback: each trial Fourier-transforms a known input, checks the
readout against the known answer, and filters the phase register
accordingly.  The trained ensemble is compared against the classical
phase optimizer.
"""

import numpy as np

from gatelearn import (
    AqftInstance,
    ExperimentConfig,
    FeedbackConfig,
    optimize_phases,
    run_ensemble,
)

QUBITS = 6


def main():
    instance = AqftInstance.standard(QUBITS, 1)
    optimum = optimize_phases(instance)
    print(f"{QUBITS}-qubit Fourier transform, nearest-neighbor couplings only")
    print(f"  standard phase pi/2     -> averaged success {optimum.baseline_value:.4f}")
    print(f"  best classical phase    -> averaged success {optimum.best_value:.4f} "
          f"(+{optimum.improvement_percent:.1f}%), "
          f"phase = {optimum.best_phases[0]:.4f} rad\n")

    config = ExperimentConfig(
        problem=instance,
        iterations=120,
        runs=80,
        grid_size=256,
        feedback=FeedbackConfig(strategy="double_push", walk_strength=64.0,
                                walk_floor=2.0, walk_escalation=2.0),
        master_seed=11,
    )
    summary, _ = run_ensemble(config)
    print(f"measurement-and-feedback training, {config.runs} runs x "
          f"{config.iterations} iterations:")
    for it in (1, 10, 30, 60, 90, 120):
        print(f"  iter {it:3d}: mean deployed success = {summary.mean_curve[it-1]:.4f}")
    print(f"\n  mean final:  {summary.mean_final:.4f} "
          f"(standard-phase baseline {optimum.baseline_value:.4f})")
    print(f"  90% quantile: {summary.quantiles[0.90]:.4f} "
          f"(classical optimum {optimum.best_value:.4f})")

    occupied = np.nonzero(summary.histogram > 0)[0]
    print("\nfinal-success histogram (2.5%-wide bins with any mass):")
    for b in occupied:
        lo, hi = summary.histogram_edges[b], summary.histogram_edges[b + 1]
        mass = summary.histogram[b]
        print(f"  [{lo:.3f}, {hi:.3f}): {'#' * max(1, int(60 * mass))}")


if __name__ == "__main__":
    main()
