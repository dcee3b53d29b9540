"""Training loop and ensembles: determinism, records, summaries, files."""

import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    EnsembleSummary,
    ExperimentConfig,
    FeedbackConfig,
    GroverInstance,
    average_success_map,
    grid_points,
    quantile_analysis,
    run_ensemble,
    run_learning,
)
from gatelearn import harness
from gatelearn.backaction import outcome_table, sample_batch
from gatelearn.errors import NumericsError
from gatelearn.harness import (
    RunBatch,
    target_success,
    write_histogram_csv,
    write_runs_csv,
    write_summary_json,
)
from gatelearn.oracle import bit_conditionals, trial_output_batch
from gatelearn.parameter import phase_table


COLUMNS = ("passed", "measured_index", "expected_success", "circular_variance",
           "feedback_action")


def assert_same_runs(a, b):
    """Every column, the per-run health record and the snapshots, bit for bit."""
    for column in COLUMNS + ("min_outcome_mass", "chi_snapshots"):
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

    @pytest.mark.parametrize("field,value,message", [
        ("iterations", 2.5, "iterations must be an integer"),
        ("iterations", True, "iterations must be an integer"),
        ("runs", True, "runs must be an integer"),
        ("runs", 3.0, "runs must be an integer"),
        ("grid_size", 8.5, "grid_size must be an integer"),
        ("grid_size", False, "grid_size must be an integer"),
        ("master_seed", -1, "master_seed must be >= 0"),
        ("master_seed", 1.5, "master_seed must be an integer"),
        ("problem", "grover", "problem must be a GroverInstance or an AqftInstance"),
        ("feedback", None, "feedback must be a FeedbackConfig"),
        ("feedback", "double_push", "feedback must be a FeedbackConfig"),
        ("snapshot_chi", "no", "snapshot_chi must be a bool"),
        ("snapshot_chi", None, "snapshot_chi must be a bool"),
    ])
    def test_bad_config_rejected_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            grover_config(**{field: value})

    @pytest.mark.parametrize("problem,args,message", [
        (GroverInstance, (200.5, 3), "n_elements must be an integer"),
        (GroverInstance, (200, 2.5), "iterations must be an integer"),
        (AqftInstance, (6.0, 1, (0.5,)), "n_qubits must be an integer"),
        (AqftInstance, (6, True, (0.5,)), "band must be an integer"),
    ])
    def test_non_integral_problem_size_rejected_when_built(self, problem, args, message):
        with pytest.raises(ValueError, match=message):
            problem(*args)

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
        # the feedback returns its tags as a list; the record stays an object array
        assert result.feedback_action.dtype == object
        assert all(type(tag) is str for tag in result.feedback_action.ravel())

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
        self.instance = instance
        self.phase_grid = phase_table([grid_points(grid_size)] * instance.band)
        self.success_map = success_map

    def readout(self, k):
        """(probability table, amplitude columns) of the full-register readout."""
        outputs = trial_output_batch(self.instance, k, self.phase_grid)
        return outcome_table(outputs.T.reshape((self.instance.dim,) + self.success_map.shape))

    def trial(self, weights, rngs):
        ks = np.array([int(rng.integers(self.instance.dim)) for rng in rngs])
        # the same latent cell, then each bit from the conditional of that
        # cell's dense outcome distribution
        cells, _ = sample_batch(weights, rngs)
        readouts = [self.readout(k) for k in ks]
        outcomes = np.empty(len(ks), dtype=int)
        for i, ((table, _), cell, rng) in enumerate(zip(readouts, cells, rngs)):
            r = 0
            for q, u in enumerate(rng.random(self.instance.n_qubits)):
                r |= int(u >= bit_conditionals(table[cell], r)[q]) << q
            outcomes[i] = r
        columns = np.stack([c[r] for (_, c), r in zip(readouts, outcomes)])
        masses = np.array([w @ table[:, r]
                           for w, (table, _), r in zip(weights, readouts, outcomes)])
        return outcomes == ks, outcomes, columns, masses


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

    # the map comes from the success's spectrum, evaluated on the grid,
    # where frequency f takes the value of f mod grid_size: at
    # n=17 the 33 coefficients outnumber the 16-cell grid, at n=9, band 2
    # an odd 7-cell grid is coarser than both 17- and 15-coefficient axes
    @pytest.mark.parametrize("n,band,grid_size", [(6, 1, 256), (17, 1, 16), (9, 2, 7),
                                                  (6, 2, 64)])
    def test_success_map_equals_the_map_of_every_cell(self, n, band, grid_size):
        problem = AqftInstance.standard(n, band)
        cells = phase_table([grid_points(grid_size)] * band)
        expected = average_success_map(problem, cells).reshape((grid_size,) * band)
        np.testing.assert_allclose(harness._trials(problem, grid_size).success_map, expected,
                                   rtol=0, atol=1e-12)

    def test_loop_never_runs_the_statevector(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("statevector kernel called in the training loop")

        for kernel in ("_apply_single_qubit", "_apply_cphase", "_apply_swap"):
            monkeypatch.setattr(f"gatelearn.oracle.{kernel}", refuse)
        config = aqft_config(problem=AqftInstance.standard(5, 2), grid_size=8)
        assert run_learning(config, run_seed=2).iterations == 30

    def test_zero_weight_cell_is_never_the_latent_cell(self):
        # 2 qubits, k = 1, grid phases 0, pi/2, pi and 3 pi/2: the cell at
        # pi/2 reads out 1 and the cell at 3 pi/2 reads out 3 with certainty.
        # At phases 0 and pi bit 1 is a fair coin, so at each case's bit
        # uniform every other cell would read out the other outcome.  Cell
        # uniforms 0 and 1 - 2^-53 land on the CDF's flat steps at the
        # zero-weight cells.
        class Stream:
            def __init__(self, cell_uniform, bit_uniform):
                self.cell_uniform, self.bit_uniform = cell_uniform, bit_uniform

            def integers(self, high):
                return 1

            def random(self, size=None):
                return self.cell_uniform if size is None else np.full(size, self.bit_uniform)

        trials = harness._trials(AqftInstance.standard(2, 1), 4)
        for cell, bit_uniform in ((1, 0.75), (3, 0.25)):
            weights = np.eye(1, 4, cell)
            for cell_uniform in (0.0, 1.0 - 2.0**-53):
                passed, outcomes, _, _ = trials.trial(weights, [Stream(cell_uniform, bit_uniform)])
                assert outcomes[0] == cell
                assert passed[0] == (cell == 1)

    def test_draw_rejects_unnormalized_or_nan_weights(self):
        trials = harness._trials(AqftInstance.standard(4, 1), 8)
        for weights in (np.full((1, 8), 0.2), np.full((1, 8), np.nan)):
            with pytest.raises(NumericsError):
                trials.trial(weights, [np.random.default_rng(0)])

    def test_sixteen_qubit_training_memory_stays_linear(self):
        # a (2^16, 256) probability table would take 128 MB per trial; the
        # draw takes the outcome's bits at one latent cell, a (runs, 2^band,
        # n) table, and builds the column from one small table per axis,
        # rows 0, +-1 and +-e^{i phi}, in blocks of about 2^14 entries
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

    @pytest.mark.parametrize("problem,grid_size", [(AqftInstance.standard(6, 2), 8),
                                                   (AqftInstance.standard(5, 1), 32),
                                                   (GroverInstance.standard(16), 32)])
    def test_smallest_drawn_mass_is_recorded(self, monkeypatch, problem, grid_size):
        # every trial's P(r), as the draw (or the search distribution) gives
        # it, recorded on the side; the batch keeps each run's smallest and
        # the summary its minimum and median over the runs
        make = aqft_config if isinstance(problem, AqftInstance) else grover_config
        config = make(problem=problem, grid_size=grid_size, runs=4)
        trials = harness._trials(problem, grid_size)
        seen = []

        def recording(weights, rngs):
            result = type(trials).trial(trials, weights, rngs)
            seen.append(result[3])
            return result

        monkeypatch.setattr(trials, "trial", recording)
        summary, batch = run_ensemble(config)
        smallest = np.min(seen, axis=0)
        np.testing.assert_array_equal(batch.min_outcome_mass, smallest)
        assert summary.health == {"min_outcome_mass": {"min": smallest.min(),
                                                       "median": np.median(smallest)}}
        assert (smallest > 0).all() and (smallest <= 1).all()


class TestRunEnsemble:
    def test_single_run_summary_is_degenerate(self):
        config = grover_config(runs=1)
        summary, batch = run_ensemble(config)
        assert summary.runs == 1
        expected = batch.expected_success[0]
        np.testing.assert_array_equal(summary.mean_curve, expected)
        np.testing.assert_array_equal(summary.median_curve, expected)

    def test_threads_other_than_one_rejected(self):
        # every ensemble runs as one batch; the keyword only takes 1
        config = grover_config(runs=2)
        _, batch = run_ensemble(config, threads=1)
        _, default = run_ensemble(config)
        np.testing.assert_array_equal(batch.expected_success, default.expected_success)
        with pytest.raises(ValueError, match="threads must be 1"):
            run_ensemble(config, threads=2)

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


    @pytest.mark.parametrize("band", [1, 2])
    def test_single_push_beyond_int64_completes(self, band):
        # each push shifts by its size mod N; the tags keep the size asked for
        feedback = FeedbackConfig(strategy="single_push", initial_push_cells=10**30)
        config = aqft_config(problem=AqftInstance.standard(5, band), runs=3, grid_size=16,
                             feedback=feedback)
        _, batch = run_ensemble(config)
        pushes = [tag for tag in batch.feedback_action.ravel().tolist()
                  if tag.startswith("push")]
        shifts = [int(re.fullmatch(r"push(\[ax[01]\])?([+-]\d+)", tag)[2]) for tag in pushes]
        assert shifts and all(abs(shift) > 2**63 for shift in shifts)
        assert np.isfinite(batch.expected_success).all()


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
            for column in COLUMNS + ("min_outcome_mass",):
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

    def test_runs_csv_bytes_equal_a_csv_writer_rendering(self, tmp_path):
        # every action tag form, both measured-index kinds (-1 is written
        # empty) and floats whose repr takes an exponent, a sign or no fraction
        tags = ["none", "kickstart", "walk+dephase", "push+8", "push-3", "push[ax0]+2",
                "push[ax1]-1"]
        runs, iterations = 2, len(tags)
        rng = np.random.default_rng(3)
        success = rng.random((runs, iterations))
        success[0, :4] = [0.0, 1.0, 1e-17, 0.1 + 0.2]
        variance = rng.random((runs, iterations))
        variance[1, :2] = [2.5e-300, -0.0]
        measured = np.array([[-1] * iterations, [0, 5, 1023, 7, -1, 2, 65535]])
        batch = RunBatch(
            passed=np.array([[True, False] * 3 + [True]] * runs),
            measured_index=measured,
            expected_success=success,
            circular_variance=variance,
            feedback_action=np.array([tags, tags[::-1]], dtype=object),
            min_outcome_mass=np.ones(runs),
        )
        path = tmp_path / "runs.csv"
        write_runs_csv(batch, path)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["run", "iteration", "outcome", "expected_success",
                             "circular_variance", "feedback_action", "measured_index"])
            for run in range(runs):
                for it in range(iterations):
                    index = int(measured[run, it])
                    writer.writerow([run, it + 1, "pass" if batch.passed[run, it] else "fail",
                                     repr(float(success[run, it])),
                                     repr(float(variance[run, it])),
                                     batch.feedback_action[run, it],
                                     "" if index < 0 else index])
        assert path.read_bytes() == expected.read_bytes()

    def test_summary_json_round_trips(self, tmp_path):
        summary, _ = run_ensemble(grover_config(runs=3, iterations=5))
        path = tmp_path / "summary.json"
        write_summary_json(summary, path, extra={"note": "test"})
        payload = json.loads(path.read_text())
        # every EnsembleSummary field plus the extra keys: a new field is a schema change
        assert set(payload) == {
            "runs", "iterations", "target_success", "mean_curve", "median_curve",
            "variance_curve", "final_values", "histogram", "histogram_edges", "quantiles",
            "iterations_to_95", "pass_counts", "mean_final", "mean_final_trained", "health",
            "note",
        }
        assert payload["runs"] == 3
        assert payload["note"] == "test"
        assert len(payload["mean_curve"]) == 5
        assert abs(sum(payload["histogram"]) - 1.0) < 1e-12
        assert set(payload["health"]["min_outcome_mass"]) == {"min", "median"}

    def test_summary_json_without_a_passing_run_is_strict_json(self, tmp_path):
        # at N=10000 one iteration passes almost never: no run has a trained final
        config = ExperimentConfig(problem=GroverInstance.standard(10000), iterations=1, runs=3,
                                  grid_size=16)
        summary, _ = run_ensemble(config)
        assert not summary.pass_counts.any() and math.isnan(summary.mean_final_trained)
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(path.read_text(), parse_constant=reject)
        assert payload["mean_final_trained"] is None
        # any other non-finite value fails instead of writing a bare NaN
        with pytest.raises(ValueError):
            write_summary_json(dataclasses.replace(summary, mean_final=math.inf), path)

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
