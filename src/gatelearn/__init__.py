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

from .errors import NumericsError
from .feedback import FeedbackConfig
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
from .parameter import ParameterState, uniform_init
from .productform import ProductFormTrials
from .qft import (
    AqftInstance,
    average_success,
    average_success_map,
    standard_phases,
)

# the statevector oracle stays in gatelearn.oracle; this one name is
# re-exported because benchmarks/workloads.py imports it from here
from .oracle import trial_success_amplitude

__version__ = "0.1.0"
