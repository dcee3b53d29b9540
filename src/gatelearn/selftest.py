"""Quick internal consistency checks behind ``gatelearn selftest``.

Each check exercises one dual-route equivalence: the production code
path against an independently constructed reference (dense matrix
exponential, explicit joint state, full-dimensional search simulation).
The suite is a fast subset of the package's test suite, runnable
without pytest in deployed environments.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm
from scipy.special import jv

from .backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from .feedback import apply_quantum_walk_batch
from .grover import GroverInstance, pass_fail_amplitudes
from .oracle import (
    PureState,
    apply_aqft,
    apply_single_qubit_gate,
    brute_force_joint_step,
    trial_output_batch,
)
from .parameter import invert_about_mean_batch, uniform_init
from .qft import AqftInstance, ProductFormTrials

__all__ = [
    "run_selftest",
    "joint_oracle_deviation",
    "search_closed_form_deviation",
    "search_statevector_deviation",
    "fourier_draw_deviation",
    "bit_reversed_order",
    "walk_dense_deviation",
    "walk_kernel_deviation",
]


#: bounds of the walk checks, shared with acceptance criterion 2
WALK_DENSE_TOL = 1e-8
WALK_BESSEL_TOL = 1e-10
WALK_NORM_TOL = 1e-9


def walk_kernel_deviation():
    """(worst Bessel deviation, worst norm deviation) of the walk's kernel.

    The walk applied to a delta on 256 cells (>> 2x) gives the
    translation coefficients, amplitude (-i)^l J_l(2x) at distance l on
    either side; the Bessel values come from scipy, independently of
    the FFT.
    """
    cells = 256
    worst_bessel = worst_norm = 0.0
    distance = np.minimum(np.arange(cells), cells - np.arange(cells))
    for x in (0.3, 0.8, 1.5, 5.0, 24.0):
        kernel = apply_quantum_walk_batch(np.eye(1, cells, dtype=complex), [x], 1)[0]
        oracle = (-1j) ** (distance % 4) * jv(distance, 2 * x)
        worst_bessel = max(worst_bessel, np.abs(kernel - oracle).max())
        worst_norm = max(worst_norm, abs(np.linalg.norm(kernel) - 1.0))
    return worst_bessel, worst_norm


def walk_dense_deviation():
    """(worst deviation from the dense expm, worst norm deviation) of the walk.

    Each (cells, x) case walks a seeded random state one cell per step
    and compares with expm(-i x (T + T^-1)) built as a dense matrix.
    """
    worst_op = worst_norm = 0.0
    for cells, x in ((32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5), (64, 24.0)):
        rng = np.random.default_rng(int(10 * x) + cells)
        amps = rng.normal(size=cells) + 1j * rng.normal(size=cells)
        chi = amps / np.linalg.norm(amps)
        shift = np.roll(np.eye(cells), 1, axis=0)
        dense = expm(-1j * x * (shift + shift.T))
        walked = apply_quantum_walk_batch(chi[None], [x], 1)[0]
        worst_op = max(worst_op, np.abs(walked - dense @ chi).max())
        worst_norm = max(worst_norm, abs(np.linalg.norm(walked) - 1.0))
    return worst_op, worst_norm


def _check_walk_kernel() -> str:
    bessel, norm = walk_kernel_deviation()
    if bessel > WALK_BESSEL_TOL:
        raise AssertionError(f"walk kernel deviates from Bessel values by {bessel:.2e}")
    if norm > WALK_NORM_TOL:
        raise AssertionError(f"walk kernel norm deviates from 1 by {norm:.2e}")
    return "walk kernel matches independent Bessel evaluation"


def _check_walk_operator() -> str:
    dense, norm = walk_dense_deviation()
    if dense > WALK_DENSE_TOL:
        raise AssertionError(f"walk disagrees with dense exponential by {dense:.2e}")
    if norm > WALK_NORM_TOL:
        raise AssertionError(f"walk changes the norm by {norm:.2e}")
    return "quantum walk matches dense circulant exponential"


def joint_oracle_deviation(theta, seed: int, steps: int = 20, cells: int = 8):
    """(outcome mismatches, worst state deviation) of the filter against the joint state.

    The circuit rotates qubit q by ``theta[q]`` about an axis set by the
    trained phase phi.  Starting from a uniform parameter state on
    ``cells`` cells, the training loop's kernels (a batch of one run
    through :func:`sample_batch` and :func:`filter_batch`) and the
    explicit joint-state measurement :func:`brute_force_joint_step` each
    take ``steps`` chained measurements, fed identical streams seeded
    with ``seed``.
    """

    def circuit(phi, state):
        out = state
        for q, th in enumerate(theta):
            c, s = np.cos(th), np.sin(th)
            gate = np.array([[c, -s * np.exp(-1j * phi)], [s * np.exp(1j * phi), c]])
            out = apply_single_qubit_gate(out, q, gate)
        return out

    src = PureState.basis(len(theta), 0)
    chi_joint = uniform_init(cells)
    phis = chi_joint.axis_values(0)
    chi_block = chi_joint.amplitudes[None]
    rng_block, rng_joint = np.random.default_rng(seed), np.random.default_rng(seed)
    mismatches, worst = 0, 0.0
    for _ in range(steps):
        table, columns = outcome_table(np.stack([circuit(phi, src).amplitudes for phi in phis], 1))
        dist = distribution_batch(np.abs(chi_block) ** 2, table)
        r_block = sample_batch(dist, [rng_block])
        chi_block = filter_batch(chi_block, columns[r_block])
        r_joint, chi_joint = brute_force_joint_step(chi_joint, circuit, src, rng_joint)
        mismatches += r_block[0] != r_joint
        worst = max(worst, np.abs(chi_block[0] - chi_joint.amplitudes).max())
    return mismatches, worst


def search_closed_form_deviation(sizes):
    """(worst deviation at phase pi, worst deviation at phase 0) of the search recursion.

    At phi = pi the success is sin^2((2K+1) theta) after K rounds; at
    phi = 0 the oracle does nothing and the success stays 1/N.
    """
    worst_pi = worst_zero = 0.0
    for n_el in sizes:
        inst = GroverInstance.standard(n_el)
        s, _ = pass_fail_amplitudes(inst, np.pi)
        closed = np.sin((2 * inst.iterations + 1) * inst.theta) ** 2
        worst_pi = max(worst_pi, abs(abs(s) ** 2 - closed))
        s0, _ = pass_fail_amplitudes(inst, 0.0)
        worst_zero = max(worst_zero, abs(abs(s0) ** 2 - 1.0 / n_el))
    return worst_pi, worst_zero


def search_statevector_deviation(sizes, phases_per_size: int, seed: int) -> float:
    """Worst deviation of the 2x2 search recursion from the full N-element statevector.

    For each size, ``phases_per_size`` oracle phases are drawn from a
    stream seeded with ``seed``; the target and every wrong element's
    amplitude b / sqrt(N - 1) are compared.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n_el in sizes:
        inst = GroverInstance.standard(n_el)
        for phi in rng.uniform(0, 2 * np.pi, phases_per_size):
            s, b = pass_fail_amplitudes(inst, phi)
            state = np.full(n_el, 1 / np.sqrt(n_el), dtype=complex)
            uniform = state.copy()
            for _ in range(inst.iterations):
                state[0] *= np.exp(1j * phi)
                state = 2 * uniform * (uniform.conj() @ state) - state
            worst = max(worst, abs(s - state[0]), np.abs(state[1:] - b / np.sqrt(n_el - 1)).max())
    return worst


def bit_reversed_order(n: int) -> np.ndarray:
    """The 2^n outcomes in the order the product-form Fourier draw takes them.

    Entry j is j with its n bits reversed; the permutation is its own
    inverse, so it also maps an outcome to its position.
    """
    j = np.arange(1 << n)
    return sum(((j >> q) & 1) << (n - 1 - q) for q in range(n))


def fourier_draw_deviation(instance, phase_grid, ks, weights, uniforms):
    """(outcome mismatches, worst mass deviation, worst column deviation) of the Fourier draw.

    Run i weighs the rows of the ``(cells, band)`` ``phase_grid`` by row
    i of ``weights`` and targets ``uniforms[i]`` times that row's sum.
    :meth:`ProductFormTrials.draw` (the training loop's draw) takes the
    outcome bit by bit from the product form; the oracle simulates the
    circuit gate by gate (:func:`trial_output_batch`) and takes the
    inverse CDF of its outcome distribution in bit-reversed outcome
    order.  A draw is a mismatch when its target lies more than 1e-12
    outside the drawn outcome's interval of that CDF; the two routes
    round differently, so a target on an interval boundary (u = 0 with
    an exact-zero outcome first, say) may fall either way.  The masses
    and columns are compared at the drawn outcome.
    """
    phase_grid = np.atleast_2d(np.asarray(phase_grid, dtype=float))
    weights = np.asarray(weights, dtype=float)
    targets = np.asarray(uniforms) * weights.sum(axis=1)
    outcomes, masses, columns = ProductFormTrials(instance, phase_grid).draw(ks, weights, targets)
    order = bit_reversed_order(instance.n_qubits)
    mismatches, worst_mass, worst_column = 0, 0.0, 0.0
    for k, w, target, drawn, mass, column in zip(ks, weights, targets, outcomes, masses, columns):
        amps = trial_output_batch(instance, int(k), phase_grid)
        dist = w @ np.abs(amps) ** 2
        cdf = np.concatenate([[0.0], np.cumsum(dist[order])])
        position = order[drawn]
        mismatches += not cdf[position] - 1e-12 <= target <= cdf[position + 1] + 1e-12
        worst_mass = max(worst_mass, abs(mass - dist[drawn]))
        worst_column = max(worst_column, np.abs(column - amps[:, drawn]).max())
    return mismatches, worst_mass, worst_column


def _check_joint_oracle() -> str:
    theta = np.random.default_rng(5).uniform(0, np.pi, 3)[:2]
    mismatches, worst = joint_oracle_deviation(theta, seed=123)
    if mismatches:
        raise AssertionError("block filter and joint-state oracle sampled differently")
    if worst > 1e-12:
        raise AssertionError("block filter and joint-state oracle states diverged")
    return "block filter matches explicit joint-state measurement"


def _check_grover_subspace() -> str:
    worst_pi, worst_zero = search_closed_form_deviation((4, 16))
    if worst_pi > 1e-12:
        raise AssertionError("phase pi success deviates from the closed form")
    if worst_zero > 1e-12:
        raise AssertionError("zero-phase success is not 1/N")
    return "search recursion reproduces closed-form success probabilities"


def _check_qft_circuit() -> str:
    n = 5
    inst = AqftInstance.standard(n, n - 1)
    dim = 1 << n
    j = np.arange(dim)
    dft = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    out = apply_aqft(inst, PureState(n, amps))
    if np.abs(out.amplitudes - dft @ amps).max() > 1e-10:
        raise AssertionError("full-band circuit deviates from the DFT matrix")
    return "full-band Fourier circuit matches the dense DFT matrix"


def _check_fourier_draw() -> str:
    rng = np.random.default_rng(11)
    for n, band in ((5, 1), (7, 2), (9, 2)):
        weights = rng.random((4, 16)) ** 4 + 1e-3
        mismatches, mass, column = fourier_draw_deviation(
            AqftInstance.standard(n, band),
            rng.uniform(-np.pi, np.pi, (16, band)),
            rng.integers(0, 1 << n, 4),
            weights / weights.sum(axis=1, keepdims=True),
            rng.random(4),
        )
        if mismatches:
            raise AssertionError(f"Fourier draw and statevector oracle disagree at n={n}")
        if max(mass, column) > 1e-12:
            raise AssertionError(f"Fourier draw deviates from the oracle by {max(mass, column):.2e}")
    return "product-form Fourier draw matches the statevector inverse CDF"


def _check_inversion() -> str:
    rng = np.random.default_rng(7)
    amps = rng.normal(size=64) + 1j * rng.normal(size=64)
    chi = (amps / np.linalg.norm(amps))[None]
    twice = invert_about_mean_batch(invert_about_mean_batch(chi))
    if np.abs(twice - chi).max() > 1e-12:
        raise AssertionError("inversion about the mean is not an involution")
    if abs(np.linalg.norm(invert_about_mean_batch(chi)) - 1.0) > 1e-12:
        raise AssertionError("inversion about the mean does not preserve norm")
    return "inversion about the mean is a norm-preserving involution"


_CHECKS = (
    _check_walk_kernel,
    _check_walk_operator,
    _check_joint_oracle,
    _check_grover_subspace,
    _check_qft_circuit,
    _check_fourier_draw,
    _check_inversion,
)


def run_selftest() -> int:
    """Run all checks; print one line each; exit status 0 iff all pass."""
    failures = 0
    for check in _CHECKS:
        try:
            message = check()
            print(f"ok: {message}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL: {exc}")
    if failures:
        print(f"selftest: {failures}/{len(_CHECKS)} checks failed")
        return 1
    print(f"selftest: all {len(_CHECKS)} checks passed")
    return 0
