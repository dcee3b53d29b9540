"""Banded Fourier circuit: DFT equivalence, trials, averaged success."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import gatelearn
from gatelearn import (
    AqftInstance,
    average_success,
    average_success_map,
    grid_points,
    standard_phases,
)
from gatelearn.errors import NumericsError
from gatelearn.oracle import (
    _fourier_input,
    apply_aqft,
    average_success_statevector,
    basis_state,
    bit_conditionals,
    dft_matrix,
    trial_output_batch,
    trial_success_amplitude,
)
from gatelearn.parameter import phase_table
from gatelearn.productform import ProductFormTrials
from gatelearn.qft import success_spectrum
from gatelearn.selftest import fourier_draw_deviation


def digests_at_blas_threads(script):
    """sha256 digests of ``values`` after ``script``, run at 1 and at 2 BLAS threads."""
    script = "import hashlib\nimport numpy as np\n" + script + (
        "print(hashlib.sha256(values.tobytes()).hexdigest())\n"
    )
    src = str(Path(gatelearn.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path,
               "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    return digests


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return amps / np.linalg.norm(amps)


class TestCircuitEquivalence:
    def test_qft_of_zero_is_uniform_positive(self):
        inst = AqftInstance.standard(3, 2)
        zero = basis_state(3, 0)
        out = apply_aqft(inst, zero)
        np.testing.assert_allclose(out, np.full(8, 1 / np.sqrt(8)), atol=1e-12)
        np.testing.assert_array_equal(zero, basis_state(3, 0))  # the input is not written

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_band_matches_dense_dft(self, n):
        inst = AqftInstance.standard(n, n - 1)
        state = random_state(n, seed=n)
        out = apply_aqft(inst, state)
        np.testing.assert_allclose(out, dft_matrix(n) @ state, atol=1e-10)

    def test_band_zero_gives_uniform_magnitudes(self):
        inst = AqftInstance.standard(4, 0)
        for k in (0, 5, 15):
            out = apply_aqft(inst, basis_state(4, k))
            np.testing.assert_allclose(np.abs(out), 0.25, atol=1e-12)

    def test_zero_phases_reduce_to_band_zero(self):
        state = random_state(4, seed=9)
        zeroed = AqftInstance(4, 2, (0.0, 0.0))
        bare = AqftInstance.standard(4, 0)
        np.testing.assert_allclose(apply_aqft(zeroed, state), apply_aqft(bare, state), atol=1e-12)

    def test_unitarity(self):
        inst = AqftInstance.standard(6, 2)
        out = apply_aqft(inst, random_state(6, seed=3))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_aqft(AqftInstance.standard(3, 1), basis_state(4, 0))


class TestTrials:
    def test_exact_circuit_always_passes(self):
        inst = AqftInstance.standard(4, 3)
        for k in range(16):
            out, expected = trial_success_amplitude(inst, k)
            assert expected == k
            assert abs(abs(out[k]) ** 2 - 1.0) < 1e-10

    def test_two_qubit_band_zero_case(self):
        # dense 4-dimensional product: |<0| U_approx F^dag |0>|^2
        inst = AqftInstance.standard(2, 0)
        f_dag = dft_matrix(2).conj().T
        u = np.zeros((4, 4), dtype=complex)
        for k in range(4):
            u[:, k] = apply_aqft(inst, basis_state(2, k))
        expected = abs((u @ f_dag)[0, 0]) ** 2
        out, _ = trial_success_amplitude(inst, 0)
        assert abs(abs(out[0]) ** 2 - expected) < 1e-12

    def test_output_vector_is_normalized(self):
        inst = AqftInstance(5, 1, (2.0,))
        out, _ = trial_success_amplitude(inst, 17)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10

    def test_batch_matches_single(self):
        inst = AqftInstance.standard(4, 1)
        grid = grid_points(16)[:, None]
        batch = trial_output_batch(inst, 7, grid)
        src = _fourier_input(4, 7)
        for g in (0, 5, 11):
            single = apply_aqft(inst.with_phases((grid[g, 0],)), src)
            np.testing.assert_allclose(batch[g], single, atol=1e-12)


class TestProductFormDraw:
    def test_conditional_midpoints_draw_their_outcome_exhaustively(self):
        # n=5 band 2: every k, every latent cell, and for every outcome of
        # nonzero probability at that cell, each bit's uniform at the midpoint
        # of its interval of the cell's conditional, taken from the dense
        # statevector output
        n = 5
        inst = AqftInstance.standard(n, 2)
        rng = np.random.default_rng(5)
        axes = [rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 2)]
        grid = phase_table(axes)
        weights = rng.random(6) + 0.1
        weights /= weights.sum()
        trials = ProductFormTrials(inst, axes)
        bits = np.arange(n)
        drawn = 0
        for k in range(1 << n):
            amps = trial_output_batch(inst, k, grid)
            probs = np.abs(amps) ** 2
            cells, expected, uniforms = [], [], []
            for cell, row in enumerate(probs):
                for r in np.flatnonzero(row > 1e-9):
                    zero = bit_conditionals(row, r)
                    uniforms.append(np.where((r >> bits) & 1, (1.0 + zero) / 2, zero / 2))
                    cells.append(cell)
                    expected.append(r)
            outcomes, masses, columns = trials.draw(
                np.full(len(cells), k), np.tile(weights, (len(cells), 1)), cells, uniforms
            )
            np.testing.assert_array_equal(outcomes, expected)
            np.testing.assert_allclose(masses, weights @ probs[:, expected], rtol=0, atol=1e-12)
            np.testing.assert_allclose(columns, amps[:, expected].T, rtol=0, atol=1e-12)
            drawn += len(cells)
        assert drawn >= 6 * 10 * (1 << n)

    @pytest.mark.parametrize("n,band,k", [(5, 1, 11), (4, 2, 7)])
    def test_outcome_frequencies_follow_the_born_rule(self, n, band, k):
        # 200k seeded draws against the oracle's P(r); latent cells come from
        # numpy's own weighted choice, so only the bit draw is under test
        inst = AqftInstance.standard(n, band)
        rng = np.random.default_rng(100 * n + band)
        axes = [rng.uniform(-np.pi, np.pi, size) for size in ((8,), (4, 2))[band - 1]]
        weights = rng.random(8) + 0.2
        weights /= weights.sum()
        expected = weights @ np.abs(trial_output_batch(inst, k, phase_table(axes))) ** 2
        trials = ProductFormTrials(inst, axes)
        counts = np.zeros(1 << n)
        draws, chunk = 200_000, 20_000
        for _ in range(draws // chunk):
            cells = rng.choice(len(weights), size=chunk, p=weights)
            outcomes, _, _ = trials.draw(np.full(chunk, k), np.tile(weights, (chunk, 1)),
                                         cells, rng.random((chunk, n)))
            counts += np.bincount(outcomes, minlength=1 << n)
        possible = expected > 1e-12
        assert counts[~possible].sum() == 0
        chi2 = ((counts - draws * expected)[possible] ** 2 / (draws * expected[possible])).sum()
        assert scipy.stats.chi2.sf(chi2, possible.sum() - 1) > 1e-3

    def test_certain_outcome_drawn_at_extreme_uniforms(self):
        # bit uniforms 0 and 1 - 2^-53 both draw an outcome that is certain in
        # exact arithmetic: at phase 0, k = 0 and k = 2^(n-1) pass with
        # certainty on every cell, and so does every k of an exact circuit.
        # From 3 qubits up some certain conditionals of the exact circuit
        # round to about 2^-54 instead of 0, and a uniform of 0 below that
        # once took the impossible bit: k = 7 of the 3-qubit circuit drew
        # outcome 3, of mass 1e-32
        top = 1.0 - 2.0**-53
        at_zero = ProductFormTrials(AqftInstance.standard(5, 2), [np.zeros(3), [0.0]])
        cases = [(at_zero, 5, (0, 16), 3)]
        for n in range(2, 9):
            exact = AqftInstance.standard(n, n - 1)
            axes = [[phase] for phase in exact.phases]
            cases.append((ProductFormTrials(exact, axes), n, range(1 << n), 1))
        for trials, n, ks, cells in cases:
            weights = np.full((1, cells), 1.0 / cells)
            for k in ks:
                for u in (0.0, top):
                    outcomes, masses, _ = trials.draw([k], weights, [cells - 1], [[u] * n])
                    assert outcomes[0] == k
                    assert abs(masses[0] - 1.0) < 1e-12

    @pytest.mark.parametrize("n,band,shape,runs", [(10, 1, (256,), 20), (6, 2, (32, 32), 13),
                                                   (6, 2, (5, 3), 13), (6, 2, (64, 64), 5),
                                                   (7, 3, (3, 2, 2), 9)],
                             ids=["10-1-256-20", "6-2-1024-13", "6-2-5x3-13", "6-2-64x64-5",
                                  "7-3-3x2x2-9"])
    def test_chunked_rows_match_runs_drawn_alone(self, n, band, shape, runs):
        # the axis factors are gathered in blocks of runs, and 20 runs on 256
        # cells span 4 of them; the 5 x 3 grid has unequal axes, the 64 x 64
        # one is the two-axis training grid, and the 3 x 2 x 2 grid draws
        # through a grid table for every window of three multi-cell axes.
        # Every row must equal the run drawn alone and agree with the
        # statevector oracle
        inst = AqftInstance.standard(n, band)
        rng = np.random.default_rng(n + band)
        axes = [rng.uniform(-np.pi, np.pi, size) for size in shape]
        cells = int(np.prod(shape))
        weights = rng.random((runs, cells)) ** 4 + 1e-3
        weights /= weights.sum(axis=1, keepdims=True)
        ks, latent = rng.integers(0, 1 << n, runs), rng.integers(0, cells, runs)
        uniforms = rng.random((runs, n))
        trials = ProductFormTrials(inst, axes)
        outcomes, masses, columns = trials.draw(ks, weights, latent, uniforms)
        for i in range(runs):
            alone = trials.draw(ks[i : i + 1], weights[i : i + 1], latent[i : i + 1],
                                uniforms[i : i + 1])
            assert alone[0][0] == outcomes[i]
            assert alone[1][0].tobytes() == masses[i].tobytes()
            assert alone[2][0].tobytes() == columns[i].tobytes()
        mismatches, mass, column = fourier_draw_deviation(inst, axes, ks, weights, latent,
                                                          uniforms)
        assert mismatches == 0
        assert mass <= 1e-12 and column <= 1e-12

    @pytest.mark.parametrize("n,band,shape", [(10, 1, (256,)), (6, 2, (8, 16))])
    def test_uniform_rows_of_any_sequence_draw_alike(self, n, band, shape):
        # the loop passes lists of Python floats; a 2-D array, nested lists
        # and a list of 1-D arrays must give the same outcomes and bytes
        runs = 9
        rng = np.random.default_rng(40 + band)
        axes = [rng.uniform(-np.pi, np.pi, size) for size in shape]
        cells = int(np.prod(shape))
        weights = rng.random((runs, cells)) + 1e-3
        weights /= weights.sum(axis=1, keepdims=True)
        ks, latent = rng.integers(0, 1 << n, runs), rng.integers(0, cells, runs)
        uniforms = rng.random((runs, n))
        trials = ProductFormTrials(AqftInstance.standard(n, band), axes)
        draws = [trials.draw(ks, weights, latent, form)
                 for form in (uniforms, uniforms.tolist(), list(uniforms))]
        for outcomes, masses, columns in draws[1:]:
            np.testing.assert_array_equal(outcomes, draws[0][0])
            assert masses.tobytes() == draws[0][1].tobytes()
            assert columns.tobytes() == draws[0][2].tobytes()

    @pytest.mark.parametrize("n,band,shape,runs", [(6, 2, (1, 4), 6), (7, 2, (3, 1), 5),
                                                   (5, 2, (1, 1), 4), (4, 1, (1,), 3)],
                             ids=["6-2-1x4-6", "7-2-3x1-5", "5-2-1x1-4", "4-1-1-3"])
    def test_one_cell_axes_match_statevector_oracle(self, n, band, shape, runs):
        # product grids with a one-cell axis, and one-cell grids, against
        # the gate-by-gate oracle
        rng = np.random.default_rng(10 * n + len(shape))
        axes = [rng.uniform(-np.pi, np.pi, size) for size in shape]
        cells = int(np.prod(shape))
        weights = rng.random((runs, cells)) ** 4 + 1e-3
        mismatches, mass, column = fourier_draw_deviation(
            AqftInstance.standard(n, band), axes, rng.integers(0, 1 << n, runs),
            weights / weights.sum(axis=1, keepdims=True), rng.integers(0, cells, runs),
            rng.random((runs, n)))
        assert mismatches == 0
        assert mass <= 1e-12 and column <= 1e-12

    def test_many_run_draw_memory_set_by_the_chunk(self):
        # 200 runs of 16 bits on 256 cells would gather 13 MB of factors at
        # once; in blocks of about 2^14 entries the peak is the (runs, cells)
        # output plus a few buffers of its size
        n, runs, cells = 16, 200, 256
        rng = np.random.default_rng(16)
        trials = ProductFormTrials(AqftInstance.standard(n, 1), [rng.uniform(0, 2 * np.pi, cells)])
        weights = np.full((runs, cells), 1.0 / cells)
        args = (rng.integers(0, 1 << n, runs), weights, rng.integers(0, cells, runs),
                rng.random((runs, n)))
        tracemalloc.start()
        try:
            trials.draw(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_vanishing_outcome_rejected(self):
        # at phase 0 and k = 0 bit 0 is 0 with certainty; a bit uniform of 1,
        # outside [0, 1), takes bit 1, whose mass is exactly 0
        trials = ProductFormTrials(AqftInstance.standard(2, 1), [[0.0]])
        with pytest.raises(NumericsError):
            trials.draw([0], np.ones((1, 1)), [0], [[1.0, 0.0]])

    def test_out_of_range_index_or_cell_rejected(self):
        trials = ProductFormTrials(AqftInstance.standard(3, 1), [[0.3, 1.2]])
        weights, u = np.full((1, 2), 0.5), [[0.1] * 3]
        for k in (-1, 8, -(2**40)):
            with pytest.raises(ValueError, match="basis index"):
                trials.draw([k], weights, [0], u)
        for cell in (-1, 2):
            with pytest.raises(ValueError, match="latent cell"):
                trials.draw([3], weights, [cell], u)

    def test_nan_weights_rejected(self):
        trials = ProductFormTrials(AqftInstance.standard(3, 1), [[0.3, 1.2]])
        with pytest.raises(NumericsError):
            trials.draw([2], np.array([[np.nan, 0.5]]), [1], [[0.1, 0.1, 0.1]])

    def test_bad_axes_rejected_when_built(self):
        inst = AqftInstance.standard(4, 2)
        for axes in ([[0.1, 0.2]], [[0.1], [0.2], [0.3]], [[0.1], []], [[0.1], [[0.2]]]):
            with pytest.raises(ValueError, match="phase axes"):
                ProductFormTrials(inst, axes)
        with pytest.raises(ValueError, match="band >= 1"):
            ProductFormTrials(AqftInstance.standard(4, 0), [])

    def test_nan_phase_row_rejected_when_built(self):
        inst = AqftInstance.standard(4, 2)
        grid = np.array([[0.1, 0.2], [np.nan, 0.3]])
        with pytest.raises(ValueError):
            ProductFormTrials(inst, [[0.1, np.nan], [0.2, 0.3]])
        with pytest.raises(ValueError):
            average_success_map(inst, grid)
        with pytest.raises(ValueError):
            average_success_map(inst, [[0.1, np.inf]])


class TestAverageSuccess:
    def test_exact_circuit_scores_one(self):
        for n in (3, 5, 8):
            assert abs(average_success(AqftInstance.standard(n, n - 1)) - 1.0) < 1e-10

    @pytest.mark.parametrize("n,m", [(2, 0), (3, 1), (4, 2), (5, 1), (6, 1), (6, 3)])
    def test_matches_dense_statevector_sum(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for phases in (standard_phases(m), tuple(rng.uniform(0, 2 * np.pi, m))):
            inst = AqftInstance(n, m, phases)
            assert abs(average_success(inst) - average_success_statevector(inst)) < 1e-12

    def test_nearest_neighbor_baseline_in_open_interval(self):
        value = average_success(AqftInstance.standard(6, 1))
        assert 0.0 < value < 1.0

    def test_monotone_in_band_at_standard_phases(self):
        for n in (4, 6, 8, 10):
            values = [average_success(AqftInstance.standard(n, m)) for m in range(n)]
            diffs = np.diff(values)
            assert (diffs >= -1e-12).all()

    def test_periodic_in_each_phase(self):
        inst = AqftInstance(5, 2, (1.1, 0.4))
        shifted = AqftInstance(5, 2, (1.1 + 2 * np.pi, 0.4))
        assert abs(average_success(inst) - average_success(shifted)) < 1e-10

    def test_map_agrees_with_scalar_evaluation(self):
        inst = AqftInstance.standard(5, 2)
        rng = np.random.default_rng(8)
        grid = rng.uniform(0, 2 * np.pi, (12, 2))
        values = average_success_map(inst, grid)
        for i in range(12):
            assert abs(values[i] - average_success(inst.with_phases(grid[i]))) < 1e-12

    @pytest.mark.parametrize("n", range(4, 13))
    def test_map_rows_do_not_depend_on_the_other_rows(self, n):
        # a row of a random row set gets exactly the bits of that row
        # evaluated alone, so a caller may batch rows without moving a figure
        rng = np.random.default_rng(n)
        for band in (1, 2, 3):
            inst = AqftInstance.standard(n, band)
            for _ in range(12):
                grid = rng.uniform(0, 2 * np.pi, (rng.integers(2, 8), band))
                alone = [average_success_map(inst, row[None, :])[0] for row in grid]
                np.testing.assert_array_equal(average_success_map(inst, grid), alone)

    # (3, 2) has no tail, so every layer is a window layer; at n=12 a chunk
    # holds 32 rows, so 40 rows span a full and a partial chunk, and at n=10
    # a chunk holds 128, so (10, 3) scans 200 rows
    @pytest.mark.parametrize("n,m", [(2, 1), (5, 0), (6, 2), (9, 3), (12, 1),
                                     (3, 2), (4, 2), (10, 3)])
    def test_map_equals_full_k_table(self, n, m):
        # the closed product form spelled out on all (n, 2^n) entries of
        # delta_i(k), built from the bits of k; the map's angle addition
        # and doubling product round differently, so agreement is to 1e-14
        k = np.arange(1 << n)
        bits = (k[None, :] >> np.arange(n)[:, None]) & 1
        grid = np.random.default_rng(n + m).uniform(-7, 7, (200 if n == 10 else 40, m))
        expected = np.empty(len(grid))
        for row, phases in enumerate(grid):
            delta = np.zeros((n, 1 << n))
            for i in range(n):
                L = n - 1 - i
                for d in range(1, L + 1):
                    angle = phases[d - 1] - np.pi / 2**d if d <= m else -np.pi / 2**d
                    delta[i] += angle * bits[L - d]
            expected[row] = (np.cos(delta / 2.0) ** 2).prod(axis=0).mean()
        np.testing.assert_allclose(average_success_map(AqftInstance.standard(n, m), grid),
                                   expected, rtol=0, atol=1e-14)

    def test_map_bytes_do_not_depend_on_blas_threads(self):
        # a BLAS thread split must not change a bit of an n=10, band 3 map
        # over a 32^3 grid
        assert len(digests_at_blas_threads(
            "from gatelearn import AqftInstance, average_success_map\n"
            "from gatelearn.parameter import phase_table\n"
            "axis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)\n"
            "grid = phase_table([axis] * 3)\n"
            "values = average_success_map(AqftInstance.standard(10, 3), grid)\n"
        )) == 1

    def test_grid_bytes_do_not_depend_on_blas_threads(self):
        # nor of the polynomial on that grid, the optimizer's basin scan, at
        # n=10 and at n=14, whose first-axis product is large enough to thread
        assert len(digests_at_blas_threads(
            "from gatelearn import AqftInstance\n"
            "from gatelearn.qft import spectrum_on_grid, success_spectrum\n"
            "values = np.concatenate([\n"
            "    spectrum_on_grid(success_spectrum(AqftInstance.standard(n, 3)), (32, 32, 32))\n"
            "    for n in (10, 14)\n"
            "])\n"
        )) == 1

    def test_set_up_memory_at_sixteen_qubits(self):
        # the map builds no (cells, 2^n) table: a 256-cell map at n=16 stays
        # below 32 MB, a quarter of one (256, 2^16) float table
        grid = grid_points(256)[:, None]
        tracemalloc.start()
        try:
            average_success_map(AqftInstance.standard(16, 1), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@pytest.mark.parametrize("n,band", [
    (n, band) for n in range(3, 13) for band in range(1, min(2, n - 2) + 1)
])
def test_lower_band_spectrum_is_the_marginal_at_zero_phase(n, band):
    # the omitted-gate identity: band b leaves out the gate at separation
    # b + 1, whose fixed angle -pi/2^(b+1) is exactly what band b + 1
    # applies at phase b + 1 = 0; so band b's success is band b + 1's at
    # that phase, and its coefficients are band b + 1's summed over the
    # last axis
    lower = success_spectrum(AqftInstance.standard(n, band))
    upper = success_spectrum(AqftInstance.standard(n, band + 1))
    np.testing.assert_allclose(lower, upper.sum(axis=-1), rtol=0, atol=1e-15)


class TestInstanceValidation:
    def test_band_bounds(self):
        with pytest.raises(ValueError):
            AqftInstance.standard(4, 4)

    def test_non_integral_band_rejected(self):
        with pytest.raises(ValueError, match="band must be an integer"):
            AqftInstance.standard(6, 1.0)

    def test_phase_count(self):
        with pytest.raises(ValueError):
            AqftInstance(4, 2, (0.5,))

    def test_nan_phase_rejected(self):
        with pytest.raises(ValueError):
            AqftInstance(4, 1, (np.nan,))

    def test_infinite_phase_rejected(self):
        with pytest.raises(ValueError):
            AqftInstance(4, 2, (0.5, -np.inf))

    def test_standard_phases_fall_off_by_halves(self):
        phases = standard_phases(3)
        assert phases[0] == np.pi / 2
        assert phases[1] == np.pi / 4
        assert phases[2] == np.pi / 8
