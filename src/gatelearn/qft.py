"""Banded quantum Fourier transform with trainable controlled-phase angles.

The textbook Fourier circuit applies, per qubit, a Hadamard followed by
controlled phase gates whose standard angles pi/2^j fall off with the
qubit separation j, and finishes with a bit-reversal swap so the whole
circuit equals the DFT matrix F[j,k] = e^{2 pi i jk / 2^n} / sqrt(2^n).
The banded variant keeps only gates with separation j <= band and makes
their angles trainable (one angle per separation, shared across qubit
pairs).

Verification protocol: a trial prepares the exact inverse Fourier image
of a uniformly drawn basis state |k>, runs the banded circuit, and
passes iff the measured outcome equals k.  The circuit maps basis
states, and the trial input, to tensor products of single-qubit
phases, so both the per-trial outcome amplitudes and the k-averaged
pass probability have closed product forms.  This module holds the
averaged one, and the averaged one's Fourier coefficients over the
phases, which a recursion over the bits of k draws from the same
product form without evaluating the success anywhere; the optimizer
and the training loop's success map read the phases' landscape from
them.  The training loop draws each trial's outcome and amplitude
column with :class:`gatelearn.productform.ProductFormTrials`.
The circuit itself is simulated gate by gate only in
:mod:`gatelearn.oracle`, the independent oracle the tests check both
product forms against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_integer

__all__ = [
    "AqftInstance",
    "standard_phases",
    "average_success",
    "average_success_map",
    "success_spectrum",
    "spectrum_on_grid",
    "spectrum_derivatives",
]

_MAX_QUBITS = 20


def standard_phases(band: int) -> tuple:
    """Textbook controlled-phase angles pi/2^j for separations 1..band."""
    return tuple(np.pi / 2**j for j in range(1, band + 1))


@dataclass(frozen=True)
class AqftInstance:
    """Banded Fourier circuit on ``n_qubits`` qubits.

    ``phases[j-1]`` is the controlled-phase angle applied between qubits
    at separation j; gates at separation beyond ``band`` are omitted.
    With ``band = n_qubits - 1`` and standard phases the circuit is the
    exact Fourier transform.
    """

    n_qubits: int
    band: int
    phases: tuple

    def __post_init__(self):
        check_integer("n_qubits", self.n_qubits)
        check_integer("band", self.band)
        if not 2 <= self.n_qubits <= _MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [2, {_MAX_QUBITS}]")
        if not 0 <= self.band <= self.n_qubits - 1:
            raise ValueError("band must satisfy 0 <= band <= n_qubits - 1")
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != self.band:
            raise ValueError(f"need exactly {self.band} phases, got {len(phases)}")
        if not np.isfinite(phases).all():
            raise ValueError("phases hold a NaN or infinite angle")
        object.__setattr__(self, "phases", phases)

    @classmethod
    def standard(cls, n_qubits: int, band: int) -> "AqftInstance":
        check_integer("band", band)  # before standard_phases counts up to it
        return cls(n_qubits, band, standard_phases(band))

    def with_phases(self, phases) -> "AqftInstance":
        return AqftInstance(self.n_qubits, self.band, tuple(phases))

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def _checked_phase_grid(instance: AqftInstance, phase_grid) -> np.ndarray:
    phase_grid = np.atleast_2d(np.asarray(phase_grid, dtype=float))
    if phase_grid.shape[1] != instance.band:
        raise ValueError(f"phase grid needs {instance.band} columns")
    if not np.isfinite(phase_grid).all():
        raise ValueError("phase grid holds a NaN or infinite phase")
    return phase_grid


def _window_bits(band: int) -> np.ndarray:
    """(band, 2^band) bits of every window w: row d-1 holds bit band-d.

    A window is the band bits below a qubit's own, highest first, so
    row d-1 flags the windows in which the gate at separation d fires.
    """
    w = np.arange(1 << band)
    return ((w >> (band - 1 - np.arange(band))[:, None]) & 1).astype(float)


# ---------------------------------------------------------------------------
# closed-form averaged success

class _DiagonalModel:
    """Product form of the per-trial pass probability, averaged over k.

    The circuit sends any basis state to a tensor product of
    single-qubit states (each controlled-phase gate fires while its
    upper qubit is still in the computational basis), and so does the
    adjoint circuit.  The pass amplitude <k| U F^dag |k> therefore
    factorizes into n two-dimensional overlaps, one per L = 0..n-1:

        p(k) = prod_L f_L(k mod 2^L),      f_L(j) = cos^2(delta_L(j) / 2),
        delta_L(j) = sum_{d<=min(band,L)} (phase_d - pi/2^d) b_{L-d}
                     - sum_{band<d<=L} (pi/2^d) b_{L-d},

    with b_j the j-th bit of k; f_0 = 1.  Two identities make the
    average over all 2^n values of k cost O(2^n) per phase cell.

    Angle addition.  For L > band write j = w 2^(L-band) + t: the
    window w (bits L-1..L-band) carries the trained offsets, whose sum
    is s_w, and the tail t carries only the fixed angle tau_L(t).  With
    cos^2(x/2) = (1 + cos x) / 2 and the cosine of a sum,

        f_L(j) = 1/2 + 1/2 cos s_w cos tau_t - 1/2 sin s_w sin tau_t,

    so the factor table of layer L, rows (cell, w) by columns t, is two
    outer products of the cell's 2^band window terms with the cached
    tail terms cos tau_L and sin tau_L.  For L <= band every bit is a
    window bit: f_L(j) = 1/2 + 1/2 cos s_w at w = j 2^(band-L).

    Doubling product.  H_L(j) = prod_{l<=L} f_l(j mod 2^l) obeys
    H_L(j) = f_L(j) H_{L-1}(j mod 2^(L-1)), one multiply per entry of
    H_L.  The top bit of k enters no factor, so the mean of p over k is
    the mean of H_{n-1} over its 2^(n-1) entries, with no (cells, 2^n)
    table.  Every step is an elementwise product or a sum along one
    row, so a row's value does not depend on the other rows of a call.
    """

    def __init__(self, n: int, band: int):
        self.n, self.band = n, band
        self.std = np.array(standard_phases(band))
        self.window = _window_bits(band)
        # [cos tau_L; sin tau_L] for L = band+1..n-1
        self.tails = []
        for L in range(band + 1, n):
            t = np.arange(1 << (L - band))
            tau = np.zeros(len(t))
            for d in range(band + 1, L + 1):
                tau -= np.pi / 2**d * ((t >> (L - d)) & 1)
            self.tails.append(np.stack([np.cos(tau), np.sin(tau)]))

    def success(self, phases) -> float:
        return float(self.success_many(np.asarray([phases], dtype=float))[0])

    def success_many(self, phase_grid: np.ndarray) -> np.ndarray:
        """Vectorized over rows of a (cells, band) phase table."""
        n, band = self.n, self.band
        offsets = phase_grid - self.std
        out = np.empty(len(offsets))
        # rows go in chunks of about 2^16 entries of H_{n-1}, to bound memory
        chunk = max(1, (1 << 16) >> (n - 1))
        for start in range(0, len(out), chunk):
            block = offsets[start : start + chunk]
            rows = len(block)
            s = np.zeros((rows, 1 << band))
            for d in range(band):
                s += block[:, d, None] * self.window[d]
            half_cos, half_sin = (0.5 * np.cos(s))[:, :, None], (-0.5 * np.sin(s))[:, :, None]
            prev = np.ones((rows, 1))
            for L in range(1, n):
                if L <= band:
                    factor = half_cos[:, :: 1 << (band - L), 0] + 0.5
                else:
                    cos_tau, sin_tau = self.tails[L - band - 1]
                    factor = half_cos * cos_tau
                    factor += half_sin * sin_tau
                    factor += 0.5
                factor = factor.reshape(rows, 2, -1)
                factor *= prev[:, None, :]
                prev = factor.reshape(rows, -1)
            out[start : start + rows] = prev.mean(axis=1)
        return out


@lru_cache(maxsize=32)
def _diagonal_model(n: int, band: int) -> _DiagonalModel:
    return _DiagonalModel(n, band)


def average_success(instance: AqftInstance) -> float:
    """Pass probability of the verification trial averaged over all k.

    p_bar = (1/2^n) sum_k |<k| U F^dag |k>|^2, evaluated exactly over
    every basis state via the product form above.
    """
    return _diagonal_model(instance.n_qubits, instance.band).success(instance.phases)


def average_success_map(instance: AqftInstance, phase_grid: np.ndarray) -> np.ndarray:
    """Exact k-averaged success for every row of a (cells, band) phase table.

    Each row's value is bit for bit the value of that row evaluated
    alone, whatever other rows share the call.
    """
    phase_grid = _checked_phase_grid(instance, phase_grid)
    return _diagonal_model(instance.n_qubits, instance.band).success_many(phase_grid)


# ---------------------------------------------------------------------------
# the averaged success as a trigonometric polynomial of the phases

#: complex entries a block of prefix sums may hold: a block that would be
#: larger is computed as two residue classes of its prefixes, one after the
#: other.  Unblocked, (16, 3) peaked at 92 MB; with this budget, at 2 MB.
_BLOCK_ENTRIES = 1 << 14


def _frequencies(points: int) -> np.ndarray:
    """Frequencies -D..D along a spectrum axis of 2D + 1 coefficients."""
    return np.arange(points) - points // 2


class _SuccessSpectrum:
    """The k-averaged success's Fourier coefficients, by a recursion over the bits of k.

    delta_L is linear in phase_d with coefficient w_d = b_{L-d} in {0, 1},
    so each factor of the product form is a trigonometric polynomial
    with three coefficients,

        f_L(j) = 1/2 + 1/4 e^{i theta_L(j)} e^{i w . phase} + c.c.,
        theta_L(j) = tau_L(t) - std . w,

    where w is the window of j (w_d = b_{L-d}, and 0 for d > L) and
    tau_L(t) the fixed angle of its tail (0 for L <= band).  Only the
    n - d layers L >= d hold phase_d, so the mean has degree D_d = n - d
    in phase_d.  For q < 2^M let R_M(q) be the sum, over the j < 2^(n-1)
    whose low M bits are q, of prod_{L>M} f_L(j mod 2^L).  Then

        R_{n-1} = 1,   R_M(q) = sum_{b=0,1} f_{M+1}(q + b 2^M) R_{M+1}(q + b 2^M),

    each product a convolution of coefficient arrays, and the spectrum
    is R_0 / 2^(n-1).  R_M has degree min(n-1-M, n-d) in phase_d, so the
    levels with many prefixes hold small blocks.  Every R_M(q) is real,
    so its coefficients are Hermitian: a level adds up the constant and
    the +w terms only, then adds their reversed conjugate once, which
    leaves every block exactly Hermitian.

    Step M pairs q with q + 2^M, which share every lower bit, so a
    residue class of the prefixes modulo 2^c is computed on its own with
    the same arithmetic.  A block over ``_BLOCK_ENTRIES`` is computed as
    the two classes of the next bit, one after the other, and their
    results interleave one level down.
    """

    def __init__(self, n: int, band: int):
        self.model = _diagonal_model(n, band)
        self.n, self.band = n, band
        self.shapes = [
            tuple(2 * min(n - 1 - M, n - d) + 1 for d in range(1, band + 1)) for M in range(n)
        ]
        # 1/4 e^{-i std . w} and the bits of every window w
        self.quarter_turns = 0.25 * np.exp(-1j * (self.model.std @ self.model.window))
        self.bits = self.model.window.astype(int).T.tolist()

    def prefix_sums(self, M: int, r: int, c: int) -> np.ndarray:
        """R_M(q) for every prefix q < 2^M with q = r mod 2^c, q ascending."""
        count = 1 << (M - c)
        if M == self.n - 1:
            return np.ones((count,) + self.shapes[M], complex)
        if c < M and 2 * count * math.prod(self.shapes[M + 1]) > _BLOCK_ENTRIES:
            first = self.prefix_sums(M, r, c + 1)
            second = self.prefix_sums(M, r + (1 << c), c + 1)
            return np.stack((first, second), axis=1).reshape((count,) + self.shapes[M])
        return self.step(M, r, c, self.prefix_sums(M + 1, r, c))

    def step(self, M: int, r: int, c: int, inner: np.ndarray) -> np.ndarray:
        """R_M on a residue class from R_{M+1} on the same class: layer L = M + 1.

        Overwrites ``inner``, which no caller reads again.
        """
        band, L = self.band, M + 1
        tail_bits = L - min(band, L)
        half = len(inner) // 2
        block = np.zeros((half,) + self.shapes[M], complex)
        # layer L raises the degree in phase_d by one, d <= L: the constant
        # term sits one in from each end of those axes, the +w term at 1 + w_d
        grown = [int(d <= L) for d in range(1, band + 1)]
        centre = block[(slice(None),) + tuple(slice(g, -g or None) for g in grown)]
        np.add(inner[:half], inner[half:], out=centre)
        centre *= 0.25
        # the prefixes r + 2^c i in order run through the windows in order,
        # each window over one run of tails (or one tail, once c passes them)
        run = 1 << max(0, tail_bits - c)
        windows = [
            ((r + (i << c)) >> tail_bits) << (band - L + tail_bits)
            for i in range(0, len(inner), run)
        ]
        weights = self.quarter_turns[windows]
        if tail_bits:
            cos_tau, sin_tau = self.model.tails[L - band - 1]
            tails = slice(r % (1 << tail_bits), None, 1 << c)
            weights = np.multiply.outer(weights, cos_tau[tails] + 1j * sin_tau[tails])
        inner *= weights.reshape((-1,) + (1,) * band)
        sizes = inner.shape[1:]
        for k, w in enumerate(windows):
            start = (k * run) % half
            shifted = tuple(
                slice(g + b, g + b + size) for g, b, size in zip(grown, self.bits[w], sizes)
            )
            block[(slice(start, start + run),) + shifted] += inner[k * run : (k + 1) * run]
        # add the reversed conjugate in place: reversing every phase axis
        # reverses each prefix's flattened coefficients
        flat = block.reshape(half, -1)
        mid = flat.shape[1] // 2
        low, high = flat[:, :mid], flat[:, : mid : -1]
        low.real += high.real
        low.imag -= high.imag
        np.conjugate(low, out=high)
        flat[:, mid].real *= 2.0
        flat[:, mid].imag = 0.0
        return block


def success_spectrum(instance: AqftInstance) -> np.ndarray:
    """Fourier coefficients of the k-averaged success over the phases.

    Entry ``[D_1 + f_1, ..., D_band + f_band]`` of the returned
    ``(2 D_1 + 1, ..., 2 D_band + 1)`` array, D_d = n - d, is the
    coefficient of e^{i f . phase}.  The array is exactly Hermitian.
    Computed without evaluating the success anywhere: see
    :class:`_SuccessSpectrum`.  Needs band >= 1.
    """
    if instance.band < 1:
        raise ValueError("the spectrum needs at least one trained phase")
    n = instance.n_qubits
    return _SuccessSpectrum(n, instance.band).prefix_sums(0, 0, 0)[0] / (1 << (n - 1))


def _fold(values: np.ndarray, axis: int, size: int, bins: int) -> np.ndarray:
    """Sum a spectrum axis modulo ``size``, keeping bins 0..bins-1 of the result.

    Entry m of the axis holds frequency m - D, which lands in bin
    (m - D) mod size.  Consecutive entries fill consecutive bins up to
    the wrap, so each such run is one slice addition; the runs are added
    in entry order, the order ``np.add.at`` adds in.
    """
    points = values.shape[axis]
    folded = np.zeros(values.shape[:axis] + (bins,) + values.shape[axis + 1 :], complex)
    source, target = np.moveaxis(values, axis, 0), np.moveaxis(folded, axis, 0)
    start = 0
    while start < points:
        cell = (start - points // 2) % size
        run = min(points - start, size - cell)
        kept = min(run, bins - cell)
        if kept > 0:
            target[cell : cell + kept] += source[start : start + kept]
        start += run
    return folded


def spectrum_on_grid(spectrum: np.ndarray, shape: tuple) -> np.ndarray:
    """The polynomial on the uniform grid of ``shape``: cell j at phases 2 pi j / shape.

    At the G points of an axis, frequency f takes the same values as
    f mod G, so each axis folds its coefficients modulo G, which stays
    exact whether G is above or below the number of coefficients, and
    one inverse FFT evaluates every cell.  ``shape`` needs one positive
    integer size per spectrum axis.
    """
    shape = tuple(shape)
    if len(shape) != spectrum.ndim:
        raise ValueError(f"grid shape {shape} needs {spectrum.ndim} axes, one per spectrum axis")
    for size in shape:
        check_integer("grid size", size)
        if size < 1:
            raise ValueError(f"grid sizes must be positive, got {size}")
    folded = spectrum
    for axis, size in enumerate(shape):
        # the polynomial is real, so the inverse FFT reads only the lower
        # half of the last axis: the upper half repeats its conjugate
        bins = size // 2 + 1 if axis == len(shape) - 1 else size
        folded = _fold(folded, axis, size, bins)
    return np.fft.irfftn(folded, shape, axes=range(len(shape)), norm="forward")


class _SpectrumDerivatives:
    """:func:`spectrum_derivatives` of one spectrum, for many phase vectors.

    The frequencies, the powers (i f)^o and the table positions of the
    gradient and Hessian depend on the spectrum alone, so they are built
    once; each call then takes one exponential and one product over
    every axis's frequencies, and one matrix product per axis.  Calls do
    not check ``phases``: it must hold one angle per spectrum axis.
    """

    def __init__(self, spectrum: np.ndarray):
        self.spectrum = spectrum
        self.sizes = spectrum.shape
        self.bounds = np.cumsum((0,) + self.sizes).tolist()
        self.i_freqs = 1j * np.concatenate([_frequencies(size) for size in self.sizes])
        self.powers = self.i_freqs ** np.arange(3)[:, None]
        # flat positions in the (3,) * band table: gradient entry d has order
        # 1 on axis d, Hessian entry (d, e) orders summing to 2 on d and e
        self.gradient_at = 3 ** np.arange(spectrum.ndim)[::-1]
        self.hessian_at = self.gradient_at[:, None] + self.gradient_at[None, :]

    def __call__(self, phases) -> tuple:
        orders = self.powers * np.exp(self.i_freqs * np.repeat(phases, self.sizes))
        table, lead = self.spectrum, 1
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            # contract the first spectrum axis left: (lead, size, rest) -> (lead, 3, rest)
            table = np.matmul(orders[:, lo:hi], table.reshape(lead, hi - lo, -1))
            lead *= 3
        table = table.real.ravel()
        return table[0], table[self.gradient_at], table[self.hessian_at]


def spectrum_derivatives(spectrum: np.ndarray, phases) -> tuple:
    """``(value, gradient, hessian)`` of the polynomial at one phase vector.

    The exponentials factorize over the axes, so each axis in turn is
    contracted with its derivatives of order 0, 1 and 2,
    (i f)^o e^{i f phase_d}, leaving a (3,) * band table indexed by the
    derivative order along each axis.  ``phases`` needs one angle per
    spectrum axis.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (spectrum.ndim,):
        raise ValueError(
            f"need {spectrum.ndim} phases, one per spectrum axis, got shape {phases.shape}"
        )
    return _SpectrumDerivatives(spectrum)(phases)
