"""Search circuit: 2D-subspace recursion vs full statevector, closed forms."""

import numpy as np
import pytest

from gatelearn import (
    GroverInstance,
    grover_reference_curve,
    optimal_iterations,
    pass_fail_amplitudes,
    reference_max_success,
    success_probability_map,
    uniform_init,
)
from gatelearn.oracle import search_statevector


class TestOptimalIterations:
    def test_four_elements(self):
        assert optimal_iterations(4) == 1

    def test_two_hundred_elements(self):
        # round(pi / (4 asin(1/sqrt(200))) - 1/2)
        assert optimal_iterations(200) == 11

    def test_lower_clamp(self):
        assert optimal_iterations(2) == 1

    def test_grows_with_sqrt_n(self):
        ks = [optimal_iterations(n) for n in (16, 64, 256, 1024, 4096)]
        assert ks == sorted(ks)
        assert ks[-1] > 2 * ks[-3]


class TestPassFailAmplitudes:
    def test_zero_phase_is_inert(self):
        # identity oracle: the start state is a diffusion fixed point
        for n in (4, 16, 200):
            inst = GroverInstance.standard(n)
            s, b = pass_fail_amplitudes(inst, 0.0)
            assert abs(abs(s) ** 2 - 1.0 / n) < 1e-12

    def test_pi_phase_recovers_standard_search(self):
        inst = GroverInstance(16, 3)
        s, _ = pass_fail_amplitudes(inst, np.pi)
        theta = np.arcsin(0.25)
        assert abs(abs(s) ** 2 - np.sin(7 * theta) ** 2) < 1e-12
        assert abs(abs(s) ** 2 - 0.961) < 5e-4

    def test_large_instance_pi_phase(self):
        inst = GroverInstance.standard(200)
        s, _ = pass_fail_amplitudes(inst, np.pi)
        theta = np.arcsin(1 / np.sqrt(200))
        assert abs(abs(s) ** 2 - np.sin(23 * theta) ** 2) < 1e-12
        assert abs(abs(s) ** 2 - 0.9967) < 1e-4

    def test_unit_closure(self):
        rng = np.random.default_rng(0)
        for n in (4, 8, 32, 1000):
            inst = GroverInstance.standard(n)
            for phi in rng.uniform(0, 2 * np.pi, 10):
                s, b = pass_fail_amplitudes(inst, phi)
                assert abs(abs(s) ** 2 + abs(b) ** 2 - 1.0) < 1e-12

    @pytest.mark.parametrize("n_elements", [4, 8, 16, 32])
    def test_matches_full_statevector(self, n_elements):
        rng = np.random.default_rng(n_elements)
        inst = GroverInstance.standard(n_elements)
        for phi in rng.uniform(0, 2 * np.pi, 8):
            s, b = pass_fail_amplitudes(inst, phi)
            state = search_statevector(inst, phi)
            assert abs(s - state[0]) < 1e-10
            # all wrong elements share the amplitude b/sqrt(N-1)
            np.testing.assert_allclose(
                state[1:], b / np.sqrt(n_elements - 1), atol=1e-10
            )


class TestReferenceMaxSuccess:
    def test_four_elements_exact(self):
        assert abs(reference_max_success(4) - 1.0) < 1e-12

    def test_two_hundred_elements(self):
        assert abs(reference_max_success(200) - 0.9967) < 1e-4

    def test_large_spaces_exceed_0995(self):
        for n in (100, 200, 500, 1024, 5000, 10000):
            assert reference_max_success(n) > 0.995


class TestSuccessProbabilityMap:
    grid = uniform_init(256)  # the grid handle the map takes

    def test_peak_cell_value_matches_reference(self):
        for n in (16, 200, 10000):
            inst = GroverInstance.standard(n)
            pmap = success_probability_map(inst, self.grid)
            cell_at_pi = 128  # pi sits exactly on the grid
            assert abs(pmap[cell_at_pi] - reference_max_success(n)) < 1e-12

    def test_zero_phase_cell(self):
        inst = GroverInstance.standard(64)
        pmap = success_probability_map(inst, self.grid)
        assert abs(pmap[0] - 1.0 / 64) < 1e-12

    def test_symmetry_about_pi(self):
        for n in (8, 200):
            pmap = success_probability_map(GroverInstance.standard(n), self.grid)
            np.testing.assert_allclose(pmap[1:], pmap[1:][::-1], atol=1e-12)

    def test_argmax_at_pi_for_larger_spaces(self):
        for n in (8, 16, 64, 200, 1024, 10000):
            pmap = success_probability_map(GroverInstance.standard(n), self.grid)
            assert int(np.argmax(pmap)) == 128

    def test_two_axis_grid_rejected(self):
        with pytest.raises(ValueError, match="1-axis grid"):
            success_probability_map(GroverInstance.standard(16), uniform_init((8, 8)))


class TestInstanceValidation:
    def test_target_overlap(self):
        assert abs(GroverInstance.standard(16).target_overlap - 0.25) < 1e-15

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            GroverInstance(1, 1)
        with pytest.raises(ValueError):
            GroverInstance(8, 0)
        with pytest.raises(ValueError, match="at least 2 elements"):
            optimal_iterations(1)

    @pytest.mark.parametrize("helper", [
        optimal_iterations,
        reference_max_success,
        lambda n: grover_reference_curve([n]),
    ], ids=["optimal_iterations", "reference_max_success", "grover_reference_curve"])
    @pytest.mark.parametrize("size", [200.5, 200.0, True])
    def test_helpers_reject_non_integral_size(self, helper, size):
        with pytest.raises(ValueError, match="n_elements must be an integer"):
            helper(size)
        assert helper(np.int64(200)) == helper(200)  # numpy integers still pass
