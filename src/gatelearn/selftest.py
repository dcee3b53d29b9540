"""The table of internal consistency checks behind ``gatelearn selftest``.

Each row of :data:`CHECKS` is ``(claim, deviation, bounds)``: what the
check shows, a no-argument callable returning a fast path's deviations
from an independent reference built in :mod:`gatelearn.oracle` (dense
matrix exponential, explicit joint state, full-dimensional search,
gate-by-gate circuit), and one bound per deviation, 0 for a mismatch
count.  The tests call the deviation functions with their own inputs
and bounds.  Each reduces through ``np.max``, so a NaN gap stays NaN
and fails its bound.  :func:`run_selftest` prints one line per row,
``ok: <claim>: <gap> <= <bound>, ...`` or ``FAIL:`` with a failed gap
written ``not <=`` its bound (or with the message of a ``NumericsError``
the row raised).  The suite runs without pytest.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .backaction import distribution_batch, filter_batch, outcome_table, sample_batch
from .errors import NumericsError
from .feedback import apply_quantum_walk_batch
from .grover import GroverInstance, pass_fail_amplitudes
from .oracle import (
    apply_aqft,
    apply_single_qubit_gate,
    average_success_statevector,
    basis_state,
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
from .qft import AqftInstance, average_success_map, spectrum_derivatives, success_spectrum

__all__ = [
    "CHECKS",
    "run_selftest",
    "dft_deviation",
    "inversion_deviation",
    "joint_oracle_deviation",
    "phasor_deviation",
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


def _worst(gaps) -> float:
    """The largest gap; unlike a running ``max``, a NaN gap makes it NaN."""
    return float(np.max(gaps))


def _random_state(cells: int, seed: int) -> np.ndarray:
    """A normalized state whose real, then imaginary, parts are normals seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=cells) + 1j * rng.normal(size=cells)
    return amps / np.linalg.norm(amps)


def walk_kernel_deviation():
    """(worst Bessel deviation, worst norm deviation) of the walk's kernel.

    The walk applied to a delta on 256 cells (>> 2x) gives the
    translation coefficients, amplitude (-i)^l J_l(2x) at distance l on
    either side; :func:`walk_bessel_kernel` takes the Bessel values from
    scipy, independently of the FFT.
    """
    cells = 256
    bessel, norm = [], []
    for x in (0.3, 0.8, 1.5, 5.0, 24.0):
        kernel = apply_quantum_walk_batch(np.eye(1, cells, dtype=complex), [x])[0]
        bessel.append(np.abs(kernel - walk_bessel_kernel(cells, x)).max())
        norm.append(abs(np.linalg.norm(kernel) - 1.0))
    return _worst(bessel), _worst(norm)


def walk_dense_deviation():
    """(worst deviation from the dense expm, worst norm deviation) of the walk.

    Each (cells, x) case walks a seeded random state one cell per step
    and compares with the dense exponential :func:`walk_matrix`.
    """
    dense, norm = [], []
    for cells, x in ((32, 0.3), (32, 0.8), (32, 1.5), (64, 1.5), (64, 24.0)):
        chi = _random_state(cells, int(10 * x) + cells)
        walked = apply_quantum_walk_batch(chi[None], [x])[0]
        dense.append(np.abs(walked - walk_matrix((cells,), x) @ chi).max())
        norm.append(abs(np.linalg.norm(walked) - 1.0))
    return _worst(dense), _worst(norm)


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

    src = basis_state(len(theta), 0)
    axes = [grid_points(cells) for cells in shape]
    outputs = [circuit(phi, src) for phi in product(*axes)]
    table, columns = outcome_table(np.stack(outputs, 1).reshape((-1,) + tuple(shape)))
    chi_joint = np.full(shape, 1.0 / np.sqrt(np.prod(shape)), dtype=complex)
    chi_block = chi_joint[None]
    rng_block, rng_joint = np.random.default_rng(seed), np.random.default_rng(seed)
    mismatches, gaps = 0, []
    for _ in range(steps):
        dist = distribution_batch(np.abs(chi_block.reshape(1, -1)) ** 2, table)
        r_block, mass = sample_batch(dist, [rng_block])
        chi_block = filter_batch(chi_block, columns[r_block], mass)
        r_joint, chi_joint = brute_force_joint_step(chi_joint, circuit, src, rng_joint)
        mismatches += r_block[0] != r_joint
        gaps.append(np.abs(chi_block[0] - chi_joint).max())
    return mismatches, _worst(gaps)


def search_closed_form_deviation(sizes):
    """(worst deviation at phase pi, worst deviation at phase 0) of the search recursion.

    At phi = pi the success is sin^2((2K+1) theta) after K rounds; at
    phi = 0 the oracle does nothing and the success stays 1/N.
    """
    at_pi, at_zero = [], []
    for n_el in sizes:
        inst = GroverInstance.standard(n_el)
        (s, s0), _ = pass_fail_amplitudes(inst, [np.pi, 0.0])
        closed = np.sin((2 * inst.iterations + 1) * inst.theta) ** 2
        at_pi.append(abs(abs(s) ** 2 - closed))
        at_zero.append(abs(abs(s0) ** 2 - 1.0 / n_el))
    return _worst(at_pi), _worst(at_zero)


def search_statevector_deviation(sizes, phases_per_size: int, seed: int) -> float:
    """Worst deviation of the 2x2 search recursion from the full N-element statevector.

    For each size, ``phases_per_size`` oracle phases are drawn from a
    stream seeded with ``seed``; the target and every wrong element's
    amplitude b / sqrt(N - 1) are compared.
    """
    rng, gaps = np.random.default_rng(seed), []
    for n_el in sizes:
        inst = GroverInstance.standard(n_el)
        for phi in rng.uniform(0, 2 * np.pi, phases_per_size):
            s, b = pass_fail_amplitudes(inst, phi)
            state = search_statevector(inst, phi)
            gaps += [abs(s - state[0]), np.abs(state[1:] - b / np.sqrt(n_el - 1)).max()]
    return _worst(gaps)


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
    mismatches, mass_gaps, column_gaps = 0, [], []
    for k, w, cell, u, drawn, mass, column in zip(
        ks, weights, cells, uniforms, outcomes, masses, columns
    ):
        amps = trial_output_batch(instance, int(k), phase_grid)
        zero = bit_conditionals(np.abs(amps[cell]) ** 2, drawn)
        # bit 1 needs u_q >= zero_q and bit 0 needs u_q < zero_q; written so
        # that a NaN conditional (a drawn prefix of no mass) fails too
        ok = np.where((drawn >> bits) & 1, u >= zero - 1e-12, u < zero + 1e-12)
        mismatches += not ok.all()
        mass_gaps.append(abs(mass - w @ np.abs(amps[:, drawn]) ** 2))
        column_gaps.append(np.abs(column - amps[:, drawn]).max())
    return mismatches, _worst(mass_gaps), _worst(column_gaps)


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
    return _worst(np.abs(fast - np.asarray(exact)))


def spectrum_deviation(n: int, band: int, phases) -> float:
    """Worst gap between the success's spectrum interpolant and the success map.

    The spectrum comes from :func:`gatelearn.qft.success_spectrum`'s
    recursion, which evaluates the success nowhere; ``phases`` is a
    ``(cells, band)`` table of any points, where the interpolant's value
    is compared with :func:`average_success_map`.
    """
    instance = AqftInstance.standard(n, band)
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    spectrum = success_spectrum(instance)
    interpolant = [spectrum_derivatives(spectrum, row)[0] for row in phases]
    return _worst(np.abs(np.subtract(interpolant, average_success_map(instance, phases))))


def dft_deviation(n: int, seed: int) -> float:
    """Worst gap between the full-band Fourier circuit and the dense DFT matrix.

    Both act on an ``n``-qubit state of normals seeded with ``seed``.
    """
    state = _random_state(1 << n, seed)
    return _worst(np.abs(apply_aqft(AqftInstance.standard(n, n - 1), state) - dft_matrix(n) @ state))


def phasor_deviation(uniforms):
    """(worst part deviation, worst modulus deviation) of the dephasing phasors.

    Each part of :func:`gatelearn.parameter._unit_phasors` at u is
    compared with cos or sin of 2 pi u, and its modulus with 1.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    phasors, angles = _unit_phasors(uniforms), 2.0 * np.pi * uniforms
    parts = np.maximum(np.abs(phasors.real - np.cos(angles)), np.abs(phasors.imag - np.sin(angles)))
    return _worst(parts), _worst(np.abs(np.abs(phasors) - 1.0))


def inversion_deviation(chi):
    """(worst involution deviation, worst norm deviation) of inversion about the mean.

    ``chi`` is a batch of normalized runs.  Inverting twice must give
    each run back, and inverting once must keep its norm 1.
    """
    once = invert_about_mean_batch(chi)
    norms = np.linalg.norm(once.reshape(len(once), -1), axis=1)
    return _worst(np.abs(invert_about_mean_batch(once) - chi)), _worst(np.abs(norms - 1.0))


def _fourier_draw_cases():
    rng, cases = np.random.default_rng(11), []
    # an unequal 5 x 3 grid, and 13 runs on 256 cells, whose factors span
    # three of the draw's blocks of runs
    for n, band, shape, runs in ((5, 1, (16,), 4), (7, 2, (4, 4), 4), (9, 2, (4, 4), 4),
                                 (6, 2, (5, 3), 6), (10, 1, (256,), 13)):
        cells = int(np.prod(shape))
        weights = rng.random((runs, cells)) ** 4 + 1e-3
        cases.append(fourier_draw_deviation(
            AqftInstance.standard(n, band),
            [rng.uniform(-np.pi, np.pi, size) for size in shape],
            rng.integers(0, 1 << n, runs),
            weights / weights.sum(axis=1, keepdims=True),
            rng.integers(0, cells, runs),
            rng.random((runs, n)),
        ))
    mismatches, mass, column = zip(*cases)
    return sum(mismatches), _worst(mass), _worst(column)


def _random_phase_cases(deviation, seed: int, cases, rows: int) -> float:
    """Worst ``deviation(n, band, phases)`` over ``cases``, each on ``rows`` seeded phases in [-20, 20)."""
    rng = np.random.default_rng(seed)
    return _worst([deviation(n, band, rng.uniform(-20, 20, (rows, band))) for n, band in cases])


#: (claim, deviation, bounds): a tuple of one bound per deviation, 0 for a mismatch count
CHECKS = (
    ("walk kernel matches independent Bessel evaluation",
     walk_kernel_deviation, (WALK_BESSEL_TOL, WALK_NORM_TOL)),
    ("quantum walk matches dense circulant exponential",
     walk_dense_deviation, (WALK_DENSE_TOL, WALK_NORM_TOL)),
    ("block filter matches explicit joint-state measurement",
     lambda: joint_oracle_deviation(np.random.default_rng(5).uniform(0, np.pi, 3)[:2], seed=123),
     (0, 1e-12)),
    ("search recursion reproduces closed-form success probabilities",
     lambda: search_closed_form_deviation((4, 16)), (1e-12, 1e-12)),
    ("full-band Fourier circuit matches the dense DFT matrix",
     lambda: dft_deviation(5, seed=3), (1e-10,)),
    ("product-form Fourier draw matches the statevector bit conditionals",
     _fourier_draw_cases, (0, 1e-12, 1e-12)),
    ("dephasing phasors match cos and sin of 2 pi u",
     lambda: phasor_deviation(
         np.concatenate([np.random.default_rng(19).random(1 << 16), [0.0, 1.0 - 2.0**-53]])),
     (2e-15, 1e-15)),
    ("k-averaged success map matches the statevector average",
     lambda: _random_phase_cases(success_map_deviation, 13, ((2, 0), (5, 1), (6, 3), (7, 2)), 4),
     (1e-12,)),
    ("spectrum interpolant matches the success map at random phases",
     lambda: _random_phase_cases(spectrum_deviation, 17, ((3, 1), (7, 2), (9, 3), (12, 1)), 8),
     (1e-12,)),
    ("inversion about the mean is a norm-preserving involution",
     lambda: inversion_deviation(_random_state(64, 7)[None]), (1e-12, 1e-12)),
)


def run_selftest() -> int:
    """Run every row of :data:`CHECKS`; print one line each; exit status 0 iff all pass."""
    failures = 0
    for claim, deviation, bounds in CHECKS:
        try:
            gaps = np.atleast_1d(deviation())
        except NumericsError as exc:
            failures += 1
            print(f"FAIL: {claim}: {exc}")
            continue
        passed = gaps <= bounds
        failures += not passed.all()
        print(f"{'ok' if passed.all() else 'FAIL'}: {claim}: " + ", ".join(
            f"{gap:.2g} {'<=' if ok else 'not <='} {bound:.2g}"
            for gap, bound, ok in zip(gaps, bounds, passed, strict=True)))
    if failures:
        print(f"selftest: {failures}/{len(CHECKS)} checks failed")
        return 1
    print(f"selftest: all {len(CHECKS)} checks passed")
    return 0
