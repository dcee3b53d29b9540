"""gatelearn: train quantum-circuit gate phases by measurement and feedback.

A gate-strength parameter is treated as a quantum variable with its own
wavefunction over a cyclic grid.  Running the circuit, measuring the
output, and verifying it classically filters that wavefunction through
measurement back-action; simple feedback operators (shrinking pushes, a
quantum-walk splitting, a one-shot inversion about the mean) counteract
the erosion caused by failed trials.  The package reproduces this
training loop for two problems: amplitude amplification with a
trainable oracle phase, and the banded quantum Fourier transform with
trainable controlled-phase angles.
"""

from .backaction import (
    OutcomeAmplitudes,
    brute_force_joint_step,
    outcome_distribution,
    sample_and_update,
)
from .errors import NumericsError
from .feedback import (
    FeedbackConfig,
    FeedbackHistory,
    FeedbackResult,
    apply_quantum_walk,
    on_failure,
)
from .grover import (
    GroverInstance,
    optimal_iterations,
    pass_fail_amplitudes,
    reference_max_success,
    success_probability_map,
)
from .harness import (
    EnsembleSummary,
    ExperimentConfig,
    RunBatch,
    quantile_analysis,
    run_ensemble,
    run_learning,
)
from .optimize import (
    OptimizationResult,
    grover_reference_curve,
    improvement_table,
    optimize_phases,
)
from .parameter import (
    ParameterState,
    dephase_random,
    distribution_variance,
    expected_success,
    invert_about_mean,
    translate,
    uniform_init,
)
from .qft import (
    AqftInstance,
    ProductFormTrials,
    apply_aqft,
    apply_aqft_inverse,
    average_success,
    average_success_map,
    standard_phases,
    trial_success_amplitude,
)
from .statevector import (
    HADAMARD,
    PureState,
    amplitude,
    apply_controlled_phase,
    apply_single_qubit_gate,
    apply_swap,
    measure_computational,
)

__version__ = "0.1.0"
