"""Phase optimization: baselines, improvements, table structure, curve."""

import re
import tracemalloc

import numpy as np
import pytest

from gatelearn import (
    AqftInstance,
    average_success,
    average_success_map,
    grid_points,
    grover_reference_curve,
    improvement_table,
    optimize_phases,
    reference_max_success,
    standard_phases,
)
from gatelearn.optimize import (
    BLANK_BELOW_PERCENT,
    _basin_cell,
    _newton,
    _optimize,
    improvement_table_csv,
)
from gatelearn.oracle import sampled_spectrum, spectrum_phases
from gatelearn.parameter import phase_table
from gatelearn.qft import spectrum_derivatives, spectrum_on_grid, success_spectrum


def standard_spectrum(n, band):
    return success_spectrum(AqftInstance.standard(n, band))


def direct_sum(spectrum, shape):
    """Sum over f of c_f e^{i f . phase} at every cell 2 pi j / shape, axis by axis."""
    value = spectrum
    for size in shape:
        freqs = np.arange(value.shape[0]) - value.shape[0] // 2
        cells = 2.0 * np.pi * np.arange(size) / size
        value = np.tensordot(value, np.exp(1j * np.outer(freqs, cells)), axes=(0, 0))
    return value


class TestOptimizePhases:
    def test_untruncated_circuit_cannot_improve(self):
        result = optimize_phases(AqftInstance.standard(4, 3))
        assert abs(result.baseline_value - 1.0) < 1e-10
        assert result.improvement_percent < 1e-6

    def test_never_reports_below_baseline(self):
        for n, m in ((5, 1), (6, 2), (7, 1)):
            result = optimize_phases(AqftInstance.standard(n, m))
            assert result.best_value >= result.baseline_value - 1e-12

    def test_nearest_neighbor_optimum_beats_standard(self):
        result = optimize_phases(AqftInstance.standard(8, 1))
        assert result.improvement_percent > 1.0
        # the optimum phase moves away from the standard pi/2
        assert abs(result.best_phases[0] - np.pi / 2) > 1e-4

    def test_reported_value_is_reproducible(self):
        a = optimize_phases(AqftInstance.standard(6, 1))
        b = optimize_phases(AqftInstance.standard(6, 1))
        assert a == b  # bit-for-bit: no randomness anywhere

    def test_best_value_matches_direct_evaluation(self):
        inst = AqftInstance.standard(6, 2)
        result = optimize_phases(inst)
        check = average_success(inst.with_phases(result.best_phases))
        assert abs(check - result.best_value) < 1e-12

    @pytest.mark.parametrize("n,m,points", [(10, 1, 4096), (8, 2, 128)])
    def test_beats_dense_grid_best_sample_and_baseline(self, n, m, points):
        # brute force: the optimum is at least the best of a dense grid of the
        # success itself, of the oracle's exact sample, and of the standard
        # phases, from three exact evaluations
        inst = AqftInstance.standard(n, m)
        result = optimize_phases(inst)
        dense = phase_table([grid_points(points)] * m)
        samples = average_success_map(inst, spectrum_phases(inst))
        assert result.best_value >= average_success_map(inst, dense).max()
        assert result.best_value >= samples.max()
        assert result.best_value >= result.baseline_value
        assert result.evaluations == 3

    def test_band_out_of_range(self):
        with pytest.raises(ValueError):
            optimize_phases(AqftInstance.standard(8, 4))


class TestSpectrum:
    @pytest.mark.parametrize("n,band", [
        (n, band) for n in range(2, 13) for band in range(1, min(3, n - 1) + 1)
    ])
    def test_recursion_equals_the_sampled_spectrum(self, n, band):
        inst = AqftInstance.standard(n, band)
        spectrum = success_spectrum(inst)
        np.testing.assert_allclose(spectrum, sampled_spectrum(inst), rtol=0, atol=1e-12)
        mirrored = np.conj(spectrum[(slice(None, None, -1),) * band])
        np.testing.assert_array_equal(spectrum, mirrored)

    def test_needs_a_trained_phase(self):
        with pytest.raises(ValueError, match="at least one trained phase"):
            success_spectrum(AqftInstance.standard(6, 0))

    @pytest.mark.parametrize("n,band", [(9, 1), (10, 2), (12, 3)])
    def test_blocks_change_no_bit(self, monkeypatch, n, band):
        # every residue class of the prefixes is computed with the same
        # arithmetic, however finely the blocks are split
        whole = standard_spectrum(n, band)
        monkeypatch.setattr("gatelearn.qft._BLOCK_ENTRIES", 1)
        np.testing.assert_array_equal(standard_spectrum(n, band), whole)

    @pytest.mark.parametrize("n,limit_mb", [(10, 1.5), (16, 4.0)])
    def test_memory_stays_bounded(self, n, limit_mb):
        inst = AqftInstance.standard(n, 3)
        success_spectrum(inst)  # the product form's cached tail bases are not counted
        tracemalloc.start()
        try:
            success_spectrum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    @pytest.mark.parametrize("n,band", [
        (n, band) for n in range(2, 15) for band in range(1, min(3, n - 1) + 1)
    ])
    def test_scan_cell_is_the_grid_argmax(self, n, band):
        spectrum = standard_spectrum(n, band)
        # the optimizer's basin grid: 64 points per axis, 32 for three phases
        shape = tuple(max(64 if band < 3 else 32, size + 1) for size in spectrum.shape)
        expected = np.unravel_index(np.argmax(spectrum_on_grid(spectrum, shape)), shape)
        assert _basin_cell(spectrum, shape) == expected

    def test_newton_stops_where_the_polynomial_is_not_concave(self):
        # at the grid minimum the Hessian is not negative definite: no step is taken
        spectrum = standard_spectrum(6, 2)
        values = spectrum_on_grid(spectrum, (64, 64))
        start = grid_points(64)[list(np.unravel_index(np.argmin(values), values.shape))]
        np.testing.assert_array_equal(_newton(spectrum, start), start)

    def test_scan_ties_keep_the_first_cell(self):
        # cos(2 pi 8 j / 32) on the first axis: exactly 1 at every fourth row,
        # in every block of rows, and at every cell of such a row
        spectrum = np.zeros((17, 3, 3), complex)
        spectrum[0, 1, 1] = spectrum[-1, 1, 1] = 0.5
        assert _basin_cell(spectrum, (32, 32, 32)) == (0, 0, 0)

    @pytest.mark.parametrize("n,band,shape", [
        (10, 1, (256,)), (6, 2, (64, 64)), (10, 2, (64, 64)), (7, 2, (33, 5)),
        (10, 3, (32, 32, 32)), (14, 3, (32, 32, 32)), (6, 3, (9, 40, 7)),
    ])
    def test_grid_blocks_change_no_bit(self, monkeypatch, n, band, shape):
        # every row's products are the same whatever the block holds
        spectrum = standard_spectrum(n, band)
        whole = spectrum_on_grid(spectrum, shape)
        cell = _basin_cell(spectrum, shape)
        monkeypatch.setattr("gatelearn.qft._GRID_BLOCK_CELLS", 1)
        np.testing.assert_array_equal(spectrum_on_grid(spectrum, shape), whole)
        assert _basin_cell(spectrum, shape) == cell

    @pytest.mark.parametrize("n,limit_kib", [(10, 512), (14, 768)])
    def test_band_three_optimizer_memory(self, n, limit_kib):
        # the basin scan keeps one block of its 32^3 grid at a time
        inst = AqftInstance.standard(n, 3)
        spectrum = success_spectrum(inst)
        _optimize(inst, spectrum)  # the product form's cached tail bases are not counted
        tracemalloc.start()
        try:
            _optimize(inst, spectrum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_kib * 1024

    # small axes fold many frequencies into each cell; the basin grids are
    # the optimizer's, finer than every axis of the spectrum
    @pytest.mark.parametrize("band", [1, 2, 3])
    @pytest.mark.parametrize("size", [2, 3, 7, "basin"])
    def test_grid_equals_the_direct_sum(self, band, size):
        spectrum = standard_spectrum(10, band)
        if size == "basin":
            size = 64 if band < 3 else 32
        shape = (size,) * band
        np.testing.assert_allclose(spectrum_on_grid(spectrum, shape),
                                   direct_sum(spectrum, shape).real, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(16,), (16, 16, 16)])
    def test_grid_needs_one_size_per_axis(self, shape):
        with pytest.raises(ValueError, match="one per spectrum axis"):
            spectrum_on_grid(standard_spectrum(6, 2), shape)

    @pytest.mark.parametrize("size,message", [
        (0, "must be positive"),
        (-4, "must be positive"),
        (64.0, "must be an integer"),
        (True, "must be an integer"),
    ])
    def test_grid_sizes_are_positive_integers(self, size, message):
        with pytest.raises(ValueError, match=message):
            spectrum_on_grid(standard_spectrum(6, 2), (16, size))

    @pytest.mark.parametrize("phases", [[0.3], [0.3, 0.4, 0.5], [[0.3, 0.4]]])
    def test_derivatives_need_one_phase_per_axis(self, phases):
        with pytest.raises(ValueError, match="one per spectrum axis"):
            spectrum_derivatives(standard_spectrum(6, 2), phases)


@pytest.mark.parametrize("qubits,bands,message", [
    ([6, 25], [1], "n_qubits must be in [2, 20]"),
    ([6], [1, 4], "band 4 not supported"),
    ([6], [1.0], "band must be an integer"),
    ([], [1], "at least one value"),
    ([6], [], "at least one value"),
])
def test_table_checks_every_cell_before_optimizing(monkeypatch, qubits, bands, message):
    def unexpected(*args):
        raise AssertionError("a cell was optimized before every cell was checked")

    for name in ("_optimize", "success_spectrum"):
        monkeypatch.setattr(f"gatelearn.optimize.{name}", unexpected)
    with pytest.raises(ValueError, match=re.escape(message)):
        improvement_table(qubits, bands)


@pytest.fixture(scope="module")
def small_table():
    return improvement_table([6, 8], [1, 2, 3])


class TestImprovementTable:

    def test_row_count(self, small_table):
        assert len(small_table) == 6

    def test_positive_cells_filled(self, small_table):
        by_key = {(r["n_qubits"], r["band"]): r for r in small_table}
        for key in ((6, 1), (6, 2), (8, 1), (8, 2), (8, 3)):
            assert by_key[key]["improvement_percent"] is not None
            assert by_key[key]["improvement_percent"] > 0

    def test_negligible_gain_cell_left_blank(self, small_table):
        # six qubits with band 3 tunes almost nothing; the cell stays empty
        by_key = {(r["n_qubits"], r["band"]): r for r in small_table}
        assert by_key[(6, 3)]["improvement_percent"] is None
        assert by_key[(6, 3)]["baseline"] is not None

    def test_infeasible_band_left_blank(self):
        rows = improvement_table([3], [1, 2, 3])
        by_band = {r["band"]: r for r in rows}
        assert by_band[3]["baseline"] is None
        assert by_band[3]["improvement_percent"] is None

    def test_cells_match_optimizing_each_alone(self, small_table):
        # a table shares one spectrum per register size; every cell still
        # gets optimize_phases' figures and the same blanks ((3, 3) is
        # infeasible, and (7, 1) skips the band between it and band 3)
        for row in small_table + improvement_table([3, 7], [3, 1]):
            n, band = row["n_qubits"], row["band"]
            if band > n - 1:
                assert row["baseline"] is None
                continue
            alone = optimize_phases(AqftInstance.standard(n, band))
            assert row["baseline"] == alone.baseline_value
            if alone.improvement_percent < BLANK_BELOW_PERCENT:
                assert row["optimum"] is None and row["best_phases"] is None
                continue
            assert abs(row["optimum"] - alone.best_value) <= 1e-15
            np.testing.assert_allclose(row["best_phases"], alone.best_phases, rtol=0, atol=1e-12)

    def test_filled_cells_are_stationary(self, small_table):
        # the reported phases are the polynomial's stationary point, not a
        # grid point or the standard phases
        for row in small_table:
            if row["best_phases"] is not None:
                spectrum = standard_spectrum(row["n_qubits"], row["band"])
                _, gradient, _ = spectrum_derivatives(spectrum, row["best_phases"])
                assert np.abs(gradient).max() < 1e-9

    def test_csv_rendering(self, small_table):
        text = improvement_table_csv(small_table)
        lines = text.strip().splitlines()
        assert lines[2].startswith("n_qubits,band,baseline,optimum,improvement_percent")
        assert len(lines) == 3 + 6
        blank = [ln for ln in lines if ln.startswith("6,3")]
        assert blank and blank[0].split(",")[3] == ""

    def test_csv_of_no_rows_rejected(self):
        with pytest.raises(ValueError, match="row list is empty"):
            improvement_table_csv([])


class TestGroverReferenceCurve:
    def test_four_elements_point(self):
        rows = grover_reference_curve([4])
        assert abs(rows[0]["target_overlap"] - 0.5) < 1e-15
        assert abs(rows[0]["max_success"] - 1.0) < 1e-12

    def test_large_space_overlap(self):
        rows = grover_reference_curve([10000])
        assert abs(rows[0]["target_overlap"] - 0.01) < 1e-15

    def test_sorted_by_descending_overlap(self):
        rows = grover_reference_curve([10000, 16, 1024, 200])
        overlaps = [r["target_overlap"] for r in rows]
        assert overlaps == sorted(overlaps, reverse=True)
        assert [r["n_elements"] for r in rows] == [16, 200, 1024, 10000]

    def test_values_match_reference_function(self):
        rows = grover_reference_curve([64, 256])
        for row in rows:
            assert row["max_success"] == reference_max_success(row["n_elements"])
