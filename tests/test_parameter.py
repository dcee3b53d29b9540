"""Parameter-grid wavefunction: init, translation, dephasing, reflection."""

import numpy as np
import pytest

from gatelearn import NumericsError, uniform_init
from gatelearn.parameter import (
    checked_success_map,
    dephase_batch,
    distribution_variance_batch,
    expected_success_batch,
    invert_about_mean_batch,
    translate_batch,
)

# every operator runs on a batch of one run: an array of shape (1, *grid_shape)


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
    return distribution_variance_batch(np.abs(chi) ** 2, uniform_init(chi.shape[1:]).domains)[0]


class TestUniformInit:
    def test_four_cells(self):
        state = uniform_init(4)
        np.testing.assert_allclose(state.amplitudes, 0.5)

    def test_flat_average_of_any_observable(self):
        state = uniform_init(10)
        observable = np.linspace(0.0, 1.0, 10)
        assert abs(expected_success(state.amplitudes[None], observable) - observable.mean()) < 1e-12

    def test_cell_width(self):
        points = uniform_init(256).axis_values(0)
        assert abs(points[1] - points[0] - 2 * np.pi / 256) < 1e-15

    def test_grid_points_include_pi(self):
        # left-edge convention: pi sits exactly on the grid for even sizes
        state = uniform_init(256)
        assert np.pi in state.axis_values(0)

    def test_two_axis_grid(self):
        state = uniform_init((8, 8))
        assert state.grid_shape == (8, 8)
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


class TestInvertAboutMean:
    def test_uniform_is_fixed_point(self):
        chi = uniform_init(16).amplitudes[None]
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
        chi = uniform_init(2).amplitudes[None]
        assert abs(expected_success(chi, np.array([0.0, 1.0])) - 0.5) < 1e-15

    def test_monotone_in_the_map(self):
        chi = random_chi(32, seed=7)
        rng = np.random.default_rng(8)
        p = rng.uniform(0, 0.9, 32)
        bigger = np.minimum(p + rng.uniform(0, 0.1, 32), 1.0)
        assert expected_success(chi, bigger) >= expected_success(chi, p)

    def test_out_of_range_map_rejected(self):
        with pytest.raises(NumericsError):
            expected_success(uniform_init(4).amplitudes[None], np.array([0.0, 0.5, 1.2, 0.1]))

    def test_nan_map_rejected(self):
        with pytest.raises(NumericsError):
            checked_success_map([np.nan, 0.5], (2,))


class TestDistributionVariance:
    def test_delta_state_is_zero(self):
        assert distribution_variance(delta_state(64, 10)) < 1e-12

    def test_uniform_is_one(self):
        # first trigonometric moment of the full circle vanishes
        assert abs(distribution_variance(uniform_init(64).amplitudes[None]) - 1.0) < 1e-12

    def test_antipodal_pair_is_one(self):
        amps = np.zeros((1, 64), dtype=complex)
        amps[0, 3] = amps[0, 35] = 1 / np.sqrt(2)  # cells pi apart on a 64-grid
        assert abs(distribution_variance(amps) - 1.0) < 1e-12

    def test_narrow_peak_is_small(self):
        amps = np.zeros((1, 256), dtype=complex)
        amps[0, 100:103] = 1 / np.sqrt(3)
        assert distribution_variance(amps) < 1e-3
