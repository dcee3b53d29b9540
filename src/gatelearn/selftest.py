"""Quick internal consistency checks behind ``gatelearn selftest``.

Each check exercises one dual-route equivalence: the production code
path against an independently constructed reference (dense matrix
exponential, explicit joint state, full-dimensional search simulation).
The references are all built in :mod:`gatelearn.oracle`; this module
holds only the comparisons, which the tests reuse.  The suite is a fast
subset of the package's test suite, runnable without pytest in deployed
environments.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from .feedback import apply_quantum_walk_batch
from .grover import GroverInstance, pass_fail_amplitudes
from .oracle import (
    PureState,
    apply_aqft,
    apply_single_qubit_gate,
    average_success_statevector,
    bit_conditionals,
    brute_force_joint_step,
    dft_matrix,
    search_statevector,
    trial_output_batch,
    walk_bessel_kernel,
    walk_matrix,
)
from .parameter import _unit_phasors, grid_points, invert_about_mean_batch, phase_table
from .productform import ProductFormTrials
from .qft import (
    AqftInstance,
    average_success_map,
    spectrum_derivatives,
    spectrum_phases,
    success_spectrum,
)

__all__ = [
    "run_selftest",
    "joint_oracle_deviation",
    "search_closed_form_deviation",
    "search_statevector_deviation",
    "fourier_draw_deviation",
    "success_map_deviation",
    "spectrum_deviation",
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
    either side; :func:`walk_bessel_kernel` takes the Bessel values from
    scipy, independently of the FFT.
    """
    cells = 256
    worst_bessel = worst_norm = 0.0
    for x in (0.3, 0.8, 1.5, 5.0, 24.0):
        kernel = apply_quantum_walk_batch(np.eye(1, cells, dtype=complex), [x])[0]
        worst_bessel = max(worst_bessel, np.abs(kernel - walk_bessel_kernel(cells, x)).max())
        worst_norm = max(worst_norm, abs(np.linalg.norm(kernel) - 1.0))
    return worst_bessel, worst_norm


def walk_dense_deviation():
    """(worst deviation from the dense expm, worst norm deviation) of the walk.

    Each (cells, x) case walks a seeded random state one cell per step
    and compares with the dense exponential :func:`walk_matrix`.
    """
    worst_op = worst_norm = 0.0
    for cells, x in ((32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5), (64, 24.0)):
        rng = np.random.default_rng(int(10 * x) + cells)
        amps = rng.normal(size=cells) + 1j * rng.normal(size=cells)
        chi = amps / np.linalg.norm(amps)
        walked = apply_quantum_walk_batch(chi[None], [x])[0]
        worst_op = max(worst_op, np.abs(walked - walk_matrix((cells,), x) @ chi).max())
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


def joint_oracle_deviation(theta, seed: int, steps: int = 20, shape=(8,)):
    """(outcome mismatches, worst state deviation) of the filter against the joint state.

    The circuit rotates qubit q by ``theta[q]`` about an axis set by
    trained phase q mod ``len(shape)``.  Starting from a uniform
    parameter state on a grid of ``shape``, the training loop's kernels
    (a batch of one run through :func:`sample_batch` and
    :func:`filter_batch`, its outcome table listing the cells itself,
    last axis fastest) and the explicit joint-state measurement
    :func:`brute_force_joint_step` each take ``steps`` chained
    measurements, fed identical streams seeded with ``seed``.
    """

    def circuit(phi, state):
        out = state
        for q, (th, p) in enumerate(zip(theta, np.resize(phi, len(theta)))):
            c, s = np.cos(th), np.sin(th)
            gate = np.array([[c, -s * np.exp(-1j * p)], [s * np.exp(1j * p), c]])
            out = apply_single_qubit_gate(out, q, gate)
        return out

    src = PureState.basis(len(theta), 0)
    axes = [grid_points(cells) for cells in shape]
    outputs = [circuit(phi, src).amplitudes for phi in product(*axes)]
    table, columns = outcome_table(np.stack(outputs, 1).reshape((-1,) + tuple(shape)))
    chi_joint = np.full(shape, 1.0 / np.sqrt(np.prod(shape)), dtype=complex)
    chi_block = chi_joint[None]
    rng_block, rng_joint = np.random.default_rng(seed), np.random.default_rng(seed)
    mismatches, worst = 0, 0.0
    for _ in range(steps):
        dist = distribution_batch(np.abs(chi_block.reshape(1, -1)) ** 2, table)
        r_block = sample_batch(dist, [rng_block])
        chi_block = filter_batch(chi_block, columns[r_block], dist[0, r_block])
        r_joint, chi_joint = brute_force_joint_step(chi_joint, circuit, src, rng_joint)
        mismatches += r_block[0] != r_joint
        worst = max(worst, np.abs(chi_block[0] - chi_joint).max())
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
            state = search_statevector(inst, phi)
            worst = max(worst, abs(s - state[0]), np.abs(state[1:] - b / np.sqrt(n_el - 1)).max())
    return worst


def fourier_draw_deviation(instance, axes, ks, weights, cells, uniforms):
    """(outcome mismatches, worst mass deviation, worst column deviation) of the Fourier draw.

    The grid is the product of the ``band`` 1-D phase ``axes``, its cells
    in C order.  Run i weighs the cells by row i of ``weights``, takes
    flat cell ``cells[i]`` as its latent cell and row i of the
    ``(runs, n)`` array ``uniforms`` as its bit uniforms.
    :meth:`ProductFormTrials.draw` (the training loop's draw) takes each
    bit from the product form at the latent cell; the oracle simulates
    the circuit gate by gate (:func:`trial_output_batch`) and takes each
    bit's conditional by marginalizing the latent cell's dense outcome
    distribution (:func:`bit_conditionals`).  A draw is a mismatch when
    a bit of the drawn outcome lies more than 1e-12 on the wrong side of
    its conditional; the two routes round differently, so a uniform on a
    boundary may fall either way.  The masses and columns are compared
    at the drawn outcome.
    """
    phase_grid = phase_table(axes)
    weights = np.asarray(weights, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    trials = ProductFormTrials(instance, axes)
    outcomes, masses, columns = trials.draw(ks, weights, cells, uniforms)
    bits = np.arange(instance.n_qubits)
    mismatches, worst_mass, worst_column = 0, 0.0, 0.0
    for k, w, cell, u, drawn, mass, column in zip(
        ks, weights, cells, uniforms, outcomes, masses, columns
    ):
        amps = trial_output_batch(instance, int(k), phase_grid)
        zero = bit_conditionals(np.abs(amps[cell]) ** 2, drawn)
        # bit 1 needs u_q >= zero_q and bit 0 needs u_q < zero_q; written so
        # that a NaN conditional (a drawn prefix of no mass) fails too
        ok = np.where((drawn >> bits) & 1, u >= zero - 1e-12, u < zero + 1e-12)
        mismatches += not ok.all()
        worst_mass = max(worst_mass, abs(mass - w @ np.abs(amps[:, drawn]) ** 2))
        worst_column = max(worst_column, np.abs(column - amps[:, drawn]).max())
    return mismatches, worst_mass, worst_column


def success_map_deviation(n: int, band: int, phases) -> float:
    """Worst gap between the k-averaged success map and the statevector average.

    ``phases`` is a ``(cells, band)`` table.  :func:`average_success_map`
    evaluates every row from the circuit's product form; the oracle
    (:func:`average_success_statevector`) simulates each row's trial
    gate by gate for every k.
    """
    instance = AqftInstance.standard(n, band)
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    fast = average_success_map(instance, phases)
    exact = [average_success_statevector(instance.with_phases(row)) for row in phases]
    return float(np.abs(fast - np.asarray(exact)).max())


def spectrum_deviation(n: int, band: int, phases) -> float:
    """Worst gap between the success's spectrum interpolant and the success map.

    The spectrum comes from the exact sample at
    :func:`gatelearn.qft.spectrum_phases`; ``phases`` is a ``(cells,
    band)`` table of points off that sample, where the interpolant's
    value is compared with :func:`average_success_map`.
    """
    instance = AqftInstance.standard(n, band)
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    spectrum = success_spectrum(instance, average_success_map(instance, spectrum_phases(instance)))
    interpolant = [spectrum_derivatives(spectrum, row)[0] for row in phases]
    return float(np.abs(np.subtract(interpolant, average_success_map(instance, phases))).max())


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
    rng = np.random.default_rng(3)
    amps = rng.normal(size=inst.dim) + 1j * rng.normal(size=inst.dim)
    amps /= np.linalg.norm(amps)
    out = apply_aqft(inst, PureState(n, amps))
    if np.abs(out.amplitudes - dft_matrix(n) @ amps).max() > 1e-10:
        raise AssertionError("full-band circuit deviates from the DFT matrix")
    return "full-band Fourier circuit matches the dense DFT matrix"


def _check_fourier_draw() -> str:
    rng = np.random.default_rng(11)
    # an unequal 5 x 3 grid, and 13 runs on 256 cells, whose factors span
    # three of the draw's blocks of runs
    for n, band, shape, runs in ((5, 1, (16,), 4), (7, 2, (4, 4), 4), (9, 2, (4, 4), 4),
                                 (6, 2, (5, 3), 6), (10, 1, (256,), 13)):
        cells = int(np.prod(shape))
        weights = rng.random((runs, cells)) ** 4 + 1e-3
        mismatches, mass, column = fourier_draw_deviation(
            AqftInstance.standard(n, band),
            [rng.uniform(-np.pi, np.pi, size) for size in shape],
            rng.integers(0, 1 << n, runs),
            weights / weights.sum(axis=1, keepdims=True),
            rng.integers(0, cells, runs),
            rng.random((runs, n)),
        )
        if mismatches:
            raise AssertionError(f"Fourier draw and statevector oracle disagree at n={n}")
        if max(mass, column) > 1e-12:
            raise AssertionError(f"Fourier draw deviates from the oracle by {max(mass, column):.2e}")
    return "product-form Fourier draw matches the statevector bit conditionals"


def _check_phasors() -> str:
    uniforms = np.concatenate([np.random.default_rng(19).random(1 << 16), [0.0, 1.0 - 2.0**-53]])
    phasors, angles = _unit_phasors(uniforms), 2.0 * np.pi * uniforms
    gap = max(np.abs(phasors.real - np.cos(angles)).max(),
              np.abs(phasors.imag - np.sin(angles)).max())
    if not (gap <= 2e-15 and np.abs(np.abs(phasors) - 1.0).max() <= 1e-15):
        raise AssertionError(f"dephasing phasors deviate from cos and sin by {gap:.2e}")
    return "dephasing phasors match cos and sin of 2 pi u"


def _check_success_map() -> str:
    rng = np.random.default_rng(13)
    for n, band in ((2, 0), (5, 1), (6, 3), (7, 2)):
        worst = success_map_deviation(n, band, rng.uniform(-20, 20, (4, band)))
        if not worst <= 1e-12:
            raise AssertionError(f"success map deviates from the statevector by {worst:.2e} at n={n}")
    return "k-averaged success map matches the statevector average"


def _check_spectrum() -> str:
    rng = np.random.default_rng(17)
    for n, band in ((3, 1), (7, 2), (9, 3), (12, 1)):
        worst = spectrum_deviation(n, band, rng.uniform(-20, 20, (8, band)))
        if not worst <= 1e-12:
            raise AssertionError(f"spectrum interpolant off by {worst:.2e} at n={n}")
    return "spectrum interpolant matches the success map at off-grid phases"


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
    _check_phasors,
    _check_success_map,
    _check_spectrum,
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
