"""Parameter-grid wavefunction: init, translation, dephasing, reflection."""

import numpy as np
import pytest

from gatelearn import NumericsError, grid_points, uniform_init
from gatelearn.parameter import (
    _unit_phasors,
    checked_success_map,
    dephase_batch,
    distribution_variance_batch,
    expected_success_batch,
    invert_about_mean_batch,
    phase_table,
    translate_batch,
)

# every operator runs on a batch of one run: an array of shape (1, *grid_shape)


def flat_chi(n):
    return np.full((1, n), 1 / np.sqrt(n), dtype=complex)


def delta_state(n, cell):
    amps = np.zeros((1, n), dtype=complex)
    amps[0, cell] = 1.0
    return amps


def random_chi(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return (amps / np.linalg.norm(amps))[None]


def translate(chi, shift, axis=0):
    return translate_batch(chi, [shift], [axis])


def expected_success(chi, success_map):
    p = checked_success_map(success_map, chi.shape[1:])
    return expected_success_batch(np.abs(chi) ** 2, p)[0]


def distribution_variance(chi):
    return distribution_variance_batch(np.abs(chi) ** 2)[0]


class TestUniformInit:
    def test_four_cells(self):
        state = uniform_init(4)
        np.testing.assert_allclose(state.amplitudes, 0.5)

    def test_flat_average_of_any_observable(self):
        observable = np.linspace(0.0, 1.0, 10)
        assert abs(expected_success(flat_chi(10), observable) - observable.mean()) < 1e-12

    def test_cell_width(self):
        points = grid_points(256)
        assert abs(points[1] - points[0] - 2 * np.pi / 256) < 1e-15

    def test_grid_points_include_pi(self):
        # left-edge convention: pi sits exactly on the grid for even sizes
        assert grid_points(256)[128] == np.pi

    @pytest.mark.parametrize("cells", [16, 32, 64, 256])
    def test_axis_values_are_the_grid_points(self, cells):
        # the benchmark reads its grids through uniform_init
        assert uniform_init(cells).axis_values(0).tobytes() == grid_points(cells).tobytes()

    def test_phase_table_last_axis_fastest(self):
        table = phase_table([grid_points(5), grid_points(3)])
        assert table.shape == (15, 2)
        np.testing.assert_array_equal(table[:, 0], np.repeat(grid_points(5), 3))
        np.testing.assert_array_equal(table[:, 1], np.tile(grid_points(3), 5))

    def test_two_axis_grid(self):
        state = uniform_init((8, 8))
        assert state.amplitudes.shape == (8, 8)
        np.testing.assert_allclose(state.amplitudes, 1 / 8)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            uniform_init(1)


class TestTranslate:
    def test_delta_moves(self):
        out = translate(delta_state(8, 3), 2)
        assert abs(out[0, 5] - 1.0) < 1e-15

    def test_inverse_pair(self):
        chi = random_chi(16, seed=0)
        out = translate(translate(chi, 5), -5)
        np.testing.assert_array_equal(out, chi)

    def test_cyclic_wrap(self):
        out = translate(delta_state(8, 7), 3)
        assert abs(out[0, 2] - 1.0) < 1e-15

    def test_composition_is_additive(self):
        chi = random_chi(16, seed=1)
        a = translate(translate(chi, 3), 4)
        b = translate(chi, 7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shift", [2**62, 10**30, -(10**30)])
    def test_shift_beyond_int64_is_its_residue(self, shift):
        # a cyclic shift by s is a shift by s mod N, whatever the size of s
        chi = random_chi(8, seed=2)
        np.testing.assert_array_equal(translate(chi, shift), translate(chi, shift % 8))
        amps = random_chi(24, seed=3).reshape(1, 4, 6)
        np.testing.assert_array_equal(translate(amps, shift, axis=1),
                                      translate(amps, shift % 6, axis=1))

    def test_axis_selection(self):
        amps = np.zeros((1, 4, 4), dtype=complex)
        amps[0, 1, 2] = 1.0
        out = translate(amps, 1, axis=1)
        assert abs(out[0, 1, 3] - 1.0) < 1e-15


class TestDephase:
    def test_magnitudes_unchanged(self):
        chi = random_chi(32, seed=2)
        out = dephase_batch(chi, [np.random.default_rng(5)])
        np.testing.assert_allclose(np.abs(out), np.abs(chi), atol=1e-15)

    def test_norm_unchanged(self):
        chi = random_chi(32, seed=3)
        out = dephase_batch(chi, [np.random.default_rng(5)])
        assert abs(np.linalg.norm(out) - np.linalg.norm(chi)) < 1e-15

    def test_reproducible_for_fixed_seed(self):
        chi = random_chi(32, seed=4)
        a = dephase_batch(chi, [np.random.default_rng(77)])
        b = dephase_batch(chi, [np.random.default_rng(77)])
        np.testing.assert_array_equal(a, b)

    def test_phasors_match_cos_and_sin(self):
        # a million seeded uniforms, both ends of [0, 1) and every boundary
        # of both tables, j / 2^8 and j / 2^16, with the doubles just below
        # each; cos and sin of 2 pi u round 2 pi u first, so both sides
        # carry about 1e-15 of error
        j = np.arange(1 << 16) / 2.0**16
        uniforms = np.concatenate([np.random.default_rng(2026).random(10**6), [0.0, 1.0 - 2.0**-53],
                                   j, np.nextafter(j[1:], 0.0)])
        assert np.isin(np.arange(1 << 8) / 2.0**8, uniforms).all()
        phasors, angles = _unit_phasors(uniforms), 2.0 * np.pi * uniforms
        assert np.abs(phasors.real - np.cos(angles)).max() <= 2e-15
        assert np.abs(phasors.imag - np.sin(angles)).max() <= 2e-15
        assert np.abs(np.abs(phasors) - 1.0).max() <= 1e-15
        assert _unit_phasors(np.zeros(1))[0] == 1.0

    @pytest.mark.parametrize("shape", [(3, 256), (2, 16, 8)])
    def test_streams_end_where_uniform_phases_would(self, shape):
        # the phases use the same doubles, in the same order, as
        # rng.uniform(0, 2 pi, size) on each run's stream
        dephased = [np.random.default_rng(seed) for seed in range(shape[0])]
        reference = [np.random.default_rng(seed) for seed in range(shape[0])]
        dephase_batch(np.ones(shape, dtype=complex), dephased)
        for a, b in zip(dephased, reference):
            b.uniform(0.0, 2.0 * np.pi, size=shape[1:])
            assert a.random() == b.random()

    def test_row_in_a_batch_equals_the_row_alone(self):
        chi = np.concatenate([random_chi(64 * 64, seed) for seed in range(5)]).reshape(5, 64, 64)
        batch = dephase_batch(chi, [np.random.default_rng(seed) for seed in range(5)])
        for i in range(5):
            alone = dephase_batch(chi[i : i + 1], [np.random.default_rng(i)])
            assert alone.tobytes() == batch[i : i + 1].tobytes()


class TestInvertAboutMean:
    def test_uniform_is_fixed_point(self):
        chi = flat_chi(16)
        out = invert_about_mean_batch(chi)
        np.testing.assert_allclose(out, chi, atol=1e-15)

    def test_dip_becomes_peak(self):
        # direct evaluation of 2*mean - chi for chi = (1,1,1,0)/sqrt(3)
        chi = np.array([[1.0, 1.0, 1.0, 0.0]]) / np.sqrt(3)
        out = invert_about_mean_batch(chi)
        np.testing.assert_allclose(out[0].real, [0.2887, 0.2887, 0.2887, 0.8660], atol=1e-4)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_involution(self):
        chi = random_chi(64, seed=5)
        out = invert_about_mean_batch(invert_about_mean_batch(chi))
        np.testing.assert_allclose(out, chi, atol=1e-12)

    def test_norm_preserved_on_random_states(self):
        for seed in range(10):
            chi = random_chi(32, seed=seed)
            assert abs(np.linalg.norm(invert_about_mean_batch(chi)) - 1.0) < 1e-12


class TestExpectedSuccess:
    def test_constant_map(self):
        assert abs(expected_success(random_chi(16, 6), np.full(16, 0.37)) - 0.37) < 1e-12

    def test_delta_state_reads_single_cell(self):
        p = np.linspace(0, 1, 8)
        assert abs(expected_success(delta_state(8, 5), p) - p[5]) < 1e-15

    def test_uniform_two_cells(self):
        assert abs(expected_success(flat_chi(2), np.array([0.0, 1.0])) - 0.5) < 1e-15

    def test_monotone_in_the_map(self):
        chi = random_chi(32, seed=7)
        rng = np.random.default_rng(8)
        p = rng.uniform(0, 0.9, 32)
        bigger = np.minimum(p + rng.uniform(0, 0.1, 32), 1.0)
        assert expected_success(chi, bigger) >= expected_success(chi, p)

    def test_out_of_range_map_rejected(self):
        with pytest.raises(NumericsError):
            expected_success(flat_chi(4), np.array([0.0, 0.5, 1.2, 0.1]))

    def test_nan_map_rejected(self):
        with pytest.raises(NumericsError):
            checked_success_map([np.nan, 0.5], (2,))

    def test_wrong_shape_map_rejected(self):
        with pytest.raises(ValueError, match="grid shape"):
            checked_success_map(np.full((4, 4), 0.5), (16,))


class TestDistributionVariance:
    def test_delta_state_is_zero(self):
        assert distribution_variance(delta_state(64, 10)) < 1e-12

    def test_uniform_is_one(self):
        # first trigonometric moment of the full circle vanishes
        assert abs(distribution_variance(flat_chi(64)) - 1.0) < 1e-12

    def test_antipodal_pair_is_one(self):
        amps = np.zeros((1, 64), dtype=complex)
        amps[0, 3] = amps[0, 35] = 1 / np.sqrt(2)  # cells pi apart on a 64-grid
        assert abs(distribution_variance(amps) - 1.0) < 1e-12

    def test_narrow_peak_is_small(self):
        amps = np.zeros((1, 256), dtype=complex)
        amps[0, 100:103] = 1 / np.sqrt(3)
        assert distribution_variance(amps) < 1e-3
