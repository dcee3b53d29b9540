"""Training loop and ensembles: determinism, records, summaries, files."""

import json
import math

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    EnsembleSummary,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    quantile_analysis,
    run_ensemble,
    run_learning,
    uniform_init,
)
from gatelearn import harness
from gatelearn.backaction import distribution_batch, outcome_table, sample_batch
from gatelearn.errors import NumericsError
from gatelearn.harness import (
    target_success,
    write_histogram_csv,
    write_runs_csv,
    write_summary_json,
)
from gatelearn.oracle import trial_output_batch
from gatelearn.selftest import bit_reversed_order


COLUMNS = ("passed", "measured_index", "expected_success", "circular_variance",
           "feedback_action")


def assert_same_runs(a, b):
    """Every column, and the snapshots, bit for bit."""
    for column in COLUMNS + ("chi_snapshots",):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column), err_msg=column)


def grover_config(**kw):
    defaults = dict(
        problem=GroverInstance.standard(16),
        iterations=40,
        runs=8,
        grid_size=64,
        feedback=FeedbackConfig(initial_push_cells=2),
        master_seed=7,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def aqft_config(**kw):
    defaults = dict(
        problem=AqftInstance.standard(4, 1),
        iterations=30,
        runs=6,
        grid_size=32,
        feedback=FeedbackConfig(initial_push_cells=1),
        master_seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunLearning:
    def test_single_iteration_yields_one_record(self):
        result = run_learning(grover_config(iterations=1), run_seed=3)
        assert (result.runs, result.iterations) == (1, 1)
        for column in COLUMNS:
            assert getattr(result, column).shape == (1, 1)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            grover_config(iterations=0)

    def test_bit_identical_for_same_seed(self):
        config = grover_config()
        a = run_learning(config, run_seed=5)
        b = run_learning(config, run_seed=5)
        assert_same_runs(a, b)

    def test_different_seeds_differ(self):
        config = grover_config()
        a = run_learning(config, run_seed=5)
        b = run_learning(config, run_seed=6)
        assert not np.array_equal(a.expected_success, b.expected_success)

    def test_expected_success_in_range_and_fields_consistent(self):
        result = run_learning(grover_config(), run_seed=1)
        assert np.all((result.expected_success >= 0.0) & (result.expected_success <= 1.0))
        assert np.all(result.circular_variance >= 0.0)
        assert result.passed.dtype == bool
        assert np.all(result.measured_index == -1)  # search trials record pass/fail only
        assert np.all((result.feedback_action == "none") == result.passed)

    def test_kickstart_fires_exactly_once_on_first_failure(self):
        result = run_learning(grover_config(iterations=60), run_seed=2)
        actions = list(result.feedback_action[0])
        first_fail = int(np.argmin(result.passed[0]))
        assert not result.passed[0, first_fail]
        assert actions.count("kickstart") == 1
        assert actions[first_fail] == "kickstart"

    def test_double_push_search_reflects_every_failure_before_first_pass(self):
        config = grover_config(problem=GroverInstance.standard(10000), grid_size=256)
        _, batch = run_ensemble(config)
        most_reflections = 0
        for passed, actions in zip(batch.passed, batch.feedback_action):
            first_pass = int(np.argmax(passed)) if passed.any() else len(passed)
            assert all(a == "kickstart" for a in actions[:first_pass])
            assert "kickstart" not in actions[first_pass:]
            most_reflections = max(most_reflections, first_pass)
        assert most_reflections >= 2

    def test_median_run_improves_over_start(self):
        config = grover_config(iterations=120, runs=24, grid_size=256,
                               feedback=FeedbackConfig())
        summary, _ = run_ensemble(config)
        gain = summary.median_curve[-1] - summary.median_curve[0]
        assert gain > 0

    def test_aqft_records_measured_index(self):
        result = run_learning(aqft_config(), run_seed=4)
        measured = result.measured_index
        assert np.issubdtype(measured.dtype, np.integer)
        assert np.all((measured >= 0) & (measured < 16))
        assert result.passed.any(), "trivially passing trials expected for a 4-qubit band-1 circuit"
        assert not result.passed.all()

    def test_chi_snapshots_shape_and_normalization(self):
        result = run_learning(grover_config(snapshot_chi=True), run_seed=9)
        assert result.chi_snapshots.shape == (1, 40, 64)
        np.testing.assert_allclose(result.chi_snapshots.sum(axis=2), 1.0, atol=1e-9)

    def test_two_axis_training_runs(self):
        config = aqft_config(problem=AqftInstance.standard(3, 2), grid_size=8)
        result = run_learning(config, run_seed=1)
        assert result.iterations == 30

    def test_band_three_training_rejected(self):
        with pytest.raises(ValueError):
            aqft_config(problem=AqftInstance.standard(5, 3))

    def test_seventeen_qubit_register_smoke(self):
        # supported but long-running at production settings; smoke-test a
        # coarse grid and two iterations
        config = aqft_config(
            problem=AqftInstance.standard(17, 1), grid_size=16, iterations=2
        )
        result = run_learning(config, run_seed=0)
        assert result.iterations == 2
        assert 0.0 <= result.expected_success[0, -1] <= 1.0


class StatevectorTrials:
    """The training loop's Fourier trials, rebuilt from gate-by-gate simulation."""

    binary_readout = False

    def __init__(self, instance, grid_size, success_map):
        axes = [uniform_init(grid_size).axis_values(0)] * instance.band
        mesh = np.meshgrid(*axes, indexing="ij")
        self.instance = instance
        self.phase_grid = np.stack([m.reshape(-1) for m in mesh], axis=1)
        self.shape = mesh[0].shape
        self.success_map = success_map

    def trial(self, k):
        """(probability table, amplitude columns) of the full-register readout."""
        outputs = trial_output_batch(self.instance, k, self.phase_grid)
        return outcome_table(outputs.T.reshape((self.instance.dim,) + self.shape))

    def draw_expected(self, rngs):
        return np.array([int(rng.integers(self.instance.dim)) for rng in rngs])

    def sample(self, expected, weights, rngs):
        # the product form draws in bit-reversed outcome order
        order = bit_reversed_order(self.instance.n_qubits)
        trials = [self.trial(k) for k in expected]
        dist = np.concatenate(
            [distribution_batch(w[None], table) for (table, _), w in zip(trials, weights)]
        )
        outcomes = order[sample_batch(dist[:, order], rngs)]
        return outcomes, np.stack([c[r] for (_, c), r in zip(trials, outcomes)])


class TestProductFormEngine:
    @pytest.mark.parametrize("n,band,grid_size", [(6, 1, 256), (4, 2, 16)])
    def test_seeded_run_matches_statevector_oracle(self, monkeypatch, n, band, grid_size):
        config = aqft_config(problem=AqftInstance.standard(n, band), grid_size=grid_size,
                             iterations=120, feedback=FeedbackConfig())
        fast = run_learning(config, run_seed=5)
        success = harness._trials(config.problem, grid_size).success_map
        oracle = StatevectorTrials(config.problem, grid_size, success)
        monkeypatch.setattr(harness, "_trials", lambda *args: oracle)
        slow = run_learning(config, run_seed=5)
        for column in ("passed", "measured_index", "feedback_action"):
            np.testing.assert_array_equal(getattr(fast, column), getattr(slow, column))
        np.testing.assert_allclose(fast.expected_success, slow.expected_success,
                                   rtol=0, atol=1e-12)
        assert fast.passed.any() and not fast.passed.all()

    def test_loop_never_runs_the_statevector(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("statevector kernel called in the training loop")

        for kernel in ("_apply_single_qubit", "_apply_cphase", "_apply_swap"):
            monkeypatch.setattr(f"gatelearn.oracle.{kernel}", refuse)
        config = aqft_config(problem=AqftInstance.standard(5, 2), grid_size=8)
        assert run_learning(config, run_seed=2).iterations == 30

    def test_draw_rejects_unnormalized_or_nan_weights(self):
        trials = harness._trials(AqftInstance.standard(4, 1), 8)
        for weights in (np.full((1, 8), 0.2), np.full((1, 8), np.nan)):
            with pytest.raises(NumericsError):
                trials.sample(np.array([3]), weights, [np.random.default_rng(0)])

    def test_sixteen_qubit_training_memory_stays_linear(self):
        # a (2^16, 256) probability table would take 128 MB per trial; the
        # bit-by-bit draw holds a few (runs, cells) rows per outcome bit
        import tracemalloc

        config = aqft_config(problem=AqftInstance.standard(16, 1), grid_size=256,
                             iterations=120, runs=1)
        target_success(config)  # builds the shared trial data outside the measurement
        tracemalloc.start()
        try:
            result = run_learning(config, run_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations == 120
        assert peak < 8 * 2**20


class TestRunEnsemble:
    def test_single_run_summary_is_degenerate(self):
        config = grover_config(runs=1)
        summary, batch = run_ensemble(config)
        assert summary.runs == 1
        expected = batch.expected_success[0]
        np.testing.assert_array_equal(summary.mean_curve, expected)
        np.testing.assert_array_equal(summary.median_curve, expected)

    def test_thread_count_does_not_change_results(self):
        config = grover_config(runs=6)
        serial, _ = run_ensemble(config, threads=1)
        threaded, _ = run_ensemble(config, threads=4)
        np.testing.assert_array_equal(serial.mean_curve, threaded.mean_curve)
        np.testing.assert_array_equal(serial.final_values, threaded.final_values)
        assert serial.iterations_to_95 == threaded.iterations_to_95

    def test_histogram_mass_sums_to_one(self):
        summary, _ = run_ensemble(grover_config())
        assert abs(summary.histogram.sum() - 1.0) < 1e-12
        assert len(summary.histogram) == 40  # 2.5%-wide bins

    def test_pass_counts_match_records(self):
        summary, batch = run_ensemble(grover_config())
        for count, passed in zip(summary.pass_counts, batch.passed):
            assert count == sum(passed.tolist())

    def test_target_is_grid_maximum(self):
        config = grover_config()
        from gatelearn import reference_max_success

        assert abs(target_success(config) - reference_max_success(16)) < 1e-12


class TestBatchSizeIndependence:
    @pytest.mark.parametrize("problem,feedback", [
        # without the kickstart almost every run walks and dephases in the same iteration
        (GroverInstance.standard(10000), FeedbackConfig(kickstart_enabled=False)),
        (AqftInstance.standard(5, 1), FeedbackConfig()),
    ])
    def test_large_batch_rows_equal_one_run_batches(self, problem, feedback):
        # (128, 256) complex rows are 512 KiB, past the 256 KiB from which numpy
        # computes `a * temporary` in place as `temporary * a`; a complex product
        # can differ in the last bit when its operands swap
        config = ExperimentConfig(problem=problem, iterations=30, runs=128, grid_size=256,
                                  feedback=feedback, master_seed=3)
        _, batch = run_ensemble(config)
        assert batch.runs * 256 * 16 >= 256 * 1024
        assert (batch.feedback_action == "walk+dephase").sum(axis=0).max() >= 64
        seeds = np.random.SeedSequence(config.master_seed).spawn(config.runs)
        for i, seed in enumerate(seeds):
            one = run_learning(config, seed)
            for column in COLUMNS:
                np.testing.assert_array_equal(getattr(batch, column)[i : i + 1],
                                              getattr(one, column), err_msg=f"run {i} {column}")


class TestQuantileAnalysis:
    def _summary_with(self, to_95, runs):
        return EnsembleSummary(
            runs=runs,
            iterations=120,
            target_success=1.0,
            mean_curve=np.zeros(1),
            median_curve=np.zeros(1),
            variance_curve=np.zeros(1),
            final_values=np.zeros(runs),
            histogram=np.zeros(40),
            histogram_edges=np.linspace(0, 1, 41),
            quantiles={},
            iterations_to_95=to_95,
            pass_counts=np.zeros(runs, dtype=int),
            mean_final=0.0,
            mean_final_trained=0.0,
        )

    def test_all_runs_hit_at_iteration_one(self):
        rows = quantile_analysis({"case": self._summary_with([1.0] * 10, 10)})
        assert rows[0][0.10] == 1 and rows[0][0.25] == 1

    def test_no_run_reaches_threshold(self):
        rows = quantile_analysis({"case": self._summary_with([math.inf] * 10, 10)})
        assert rows[0][0.10] is None and rows[0][0.25] is None

    def test_partial_attainment(self):
        to_95 = [3.0, 5.0, math.inf, math.inf, math.inf, math.inf, math.inf, math.inf]
        rows = quantile_analysis({"case": self._summary_with(to_95, 8)})
        assert rows[0][0.10] == 3  # ceil(0.1*8)=1 run suffices
        assert rows[0][0.25] == 5  # ceil(0.25*8)=2 runs


class TestFileOutputs:
    def test_runs_csv_layout(self, tmp_path):
        config = grover_config(runs=2, iterations=5)
        _, results = run_ensemble(config)
        path = tmp_path / "runs.csv"
        write_runs_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "run,iteration,outcome,expected_success,circular_variance,"
            "feedback_action,measured_index"
        )
        assert len(lines) == 1 + 2 * 5

    def test_summary_json_round_trips(self, tmp_path):
        summary, _ = run_ensemble(grover_config(runs=3, iterations=5))
        path = tmp_path / "summary.json"
        write_summary_json(summary, path, extra={"note": "test"})
        payload = json.loads(path.read_text())
        assert payload["runs"] == 3
        assert payload["note"] == "test"
        assert len(payload["mean_curve"]) == 5
        assert abs(sum(payload["histogram"]) - 1.0) < 1e-12

    def test_histogram_csv(self, tmp_path):
        summary, _ = run_ensemble(grover_config(runs=3, iterations=5))
        path = tmp_path / "hist.csv"
        write_histogram_csv(summary, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,bin_high,fraction"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert float(first[1]) - float(first[0]) == pytest.approx(0.025)

    def test_byte_identical_rerun(self, tmp_path):
        config = grover_config(runs=2, iterations=6)
        _, results_a = run_ensemble(config)
        _, results_b = run_ensemble(config)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_runs_csv(results_a, pa)
        write_runs_csv(results_b, pb)
        assert pa.read_bytes() == pb.read_bytes()
