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
averaged one; the training loop draws each trial's outcome and
amplitude column with :class:`gatelearn.productform.ProductFormTrials`.
The circuit itself is simulated gate by gate only in
:mod:`gatelearn.oracle`, the independent oracle the tests check both
product forms against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_integer
from .parameter import phase_table

__all__ = [
    "AqftInstance",
    "standard_phases",
    "average_success",
    "average_success_map",
    "spectrum_phases",
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

    with b_j the j-th bit of k; f_0 = 1.  Three identities make the
    average over all 2^n values of k cost O(2^n) per phase cell.

    Angle addition.  For L > band write j = w 2^(L-band) + t: the
    window w (bits L-1..L-band) carries the trained offsets, whose sum
    is s_w, and the tail t carries only the fixed angle tau_L(t).  With
    cos^2(x/2) = (1 + cos x) / 2 and the cosine of a sum,

        f_L(j) = 1/2 + 1/2 cos s_w cos tau_t - 1/2 sin s_w sin tau_t
               = c_w . b_t,   c_w = [1/2, 1/2 cos s_w, -1/2 sin s_w],
                              b_t = [1, cos tau_t, sin tau_t].

    So the factor table of layer L, rows (cell, w) by columns t, is one
    matrix product of the cell's (2^band, 3) coefficients with the
    cached (3, 2^(L-band)) tail basis [1; cos tau_L; sin tau_L].  For
    L <= band every bit is a window bit: f_L(j) = 1/2 + 1/2 cos s_w at
    w = j 2^(band-L).

    Doubling product.  H_L(j) = prod_{l<=L} f_l(j mod 2^l) obeys
    H_L(j) = f_L(j) H_{L-1}(j mod 2^(L-1)), one multiply per entry of
    H_L.  The top bit of k enters no factor, so the mean of p over k is
    the mean of H_{n-1} over its 2^(n-1) entries, with no (cells, 2^n)
    table.

    Top-bit contraction.  H_{n-1} is half of that work, and only its
    mean is needed.  When 0 < band < n-1, the top bit of j < 2^(n-1) is
    the top window bit of f_{n-1}: write w = b 2^(band-1) + v and
    j = b 2^(n-2) + i with i = v 2^(n-1-band) + t, so that
    H_{n-1}(j) = (c_w . b_t) H_{n-2}(i).  Summing over b first,

        sum_j H_{n-1}(j) = sum_v (c_v + c_{v + 2^(band-1)})
                                 . sum_t H_{n-2}(v, t) b_t,

    which is one matrix product of H_{n-2}, as a (2^(band-1), 2^(n-1-band))
    table per cell, with the transposed tail basis of layer n-1.  That
    reads H_{n-2} once and never builds H_{n-1}, so a cell builds about
    2^(n-1) entries in all, each one matrix entry and one multiply.
    """

    def __init__(self, n: int, band: int):
        self.n, self.band = n, band
        self.std = np.array(standard_phases(band))
        self.window = _window_bits(band)
        # [1; cos tau_L; sin tau_L] for L = band+1..n-1
        self.bases = []
        for L in range(band + 1, n):
            t = np.arange(1 << (L - band))
            tau = np.zeros(len(t))
            for d in range(band + 1, L + 1):
                tau -= np.pi / 2**d * ((t >> (L - d)) & 1)
            self.bases.append(np.stack([np.ones(len(t)), np.cos(tau), np.sin(tau)]))

    def success(self, phases) -> float:
        return float(self.success_many(np.asarray([phases], dtype=float))[0])

    def success_many(self, phase_grid: np.ndarray) -> np.ndarray:
        """Vectorized over rows of a (cells, band) phase table."""
        n, band = self.n, self.band
        offsets = phase_grid - self.std
        out = np.empty(phase_grid.shape[0])
        # f_{n-1} is summed over its top bit instead of built when that bit is
        # a window bit (band > 0) and f_{n-1} has a tail (band < n-1)
        contract = 0 < band < n - 1
        top = n - 2 if contract else n - 1
        # chunk so 2^(n-1) entries per row hold about 2^16 floats: twice the
        # rows scanned the phase table 2% faster but peaked 1.5 MB higher
        chunk = max(1, (1 << 16) >> (n - 1))
        rows = min(chunk, len(out))
        # every buffer is allocated once per call: fresh 512 KiB temporaries
        # per chunk and layer cost up to twice the scan's time in page
        # faults, depending on the allocator's state
        layers = np.empty((2, rows << top))
        sums = np.empty((rows, 1 << band))
        coef = np.empty((rows << band, 3))
        coef[:, 0] = 0.5
        if contract:
            pairs = np.empty((rows << (band - 1), 3))
            moments = np.empty(pairs.shape)
        for start in range(0, len(out), chunk):
            block = offsets[start : start + chunk]
            rows = block.shape[0]
            s = np.matmul(block, self.window, out=sums[:rows])
            c = coef[: rows << band]
            np.cos(s.ravel(), out=c[:, 1])
            np.sin(s.ravel(), out=c[:, 2])
            c[:, 1:] *= (0.5, -0.5)
            prev = np.ones((rows, 1))
            for L in range(1, top + 1):
                factor = layers[L % 2, : rows << L].reshape(rows, 1 << L)
                if L <= band:
                    np.add(c[:, 1].reshape(rows, -1)[:, :: 1 << (band - L)], 0.5, out=factor)
                else:
                    np.matmul(c, self.bases[L - band - 1], out=factor.reshape(rows << band, -1))
                factor.reshape(rows, 2, -1)[...] *= prev[:, None, :]
                prev = factor
            if contract:
                # sum over the window's top bit first, then one pass over H_{n-2}
                p, m = pairs[: rows << (band - 1)], moments[: rows << (band - 1)]
                halves = c.reshape(rows, 2, -1, 3)
                np.add(halves[:, 0], halves[:, 1], out=p.reshape(rows, -1, 3))
                np.matmul(prev.reshape(len(m), -1), self.bases[-1].T, out=m)
                m *= p
                out[start : start + rows] = m.reshape(rows, -1).sum(axis=1) / (1 << (n - 1))
            else:
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

    A row's last bit depends on how many rows share the call: the
    evaluation is a matrix product, and BLAS picks its kernel by the
    row count.  Callers whose figures must not move keep their row sets
    fixed.
    """
    phase_grid = _checked_phase_grid(instance, phase_grid)
    return _diagonal_model(instance.n_qubits, instance.band).success_many(phase_grid)


# ---------------------------------------------------------------------------
# the averaged success as a trigonometric polynomial of the phases

def _sample_shape(instance: AqftInstance) -> tuple:
    return tuple(2 * (instance.n_qubits - d) + 1 for d in range(1, instance.band + 1))


def _frequencies(points: int) -> np.ndarray:
    """Frequencies -D..D along a spectrum axis of 2D + 1 coefficients."""
    return np.arange(points) - points // 2


def spectrum_phases(instance: AqftInstance) -> np.ndarray:
    """The ``(cells, band)`` phase table whose success values fix the spectrum.

    delta_L is linear in phase_d with coefficient b_{L-d} in {0, 1}, so
    the factor cos^2(delta_L / 2) = (1 + cos delta_L) / 2 has degree at
    most 1 in phase_d, and only the n - d layers L >= d hold phase_d.
    The k-averaged success is therefore a trigonometric polynomial of
    degree at most D_d = n - d in phase_d, and P_d = 2 D_d + 1 uniform
    points 2 pi j / P_d per axis, the fewest that fix its 2 D_d + 1
    coefficients, sample it without aliasing.  Rows run over the
    (P_1, ..., P_band) grid, last phase fastest.  Needs band >= 1.
    """
    return phase_table([np.arange(p) * (2.0 * np.pi / p) for p in _sample_shape(instance)])


def success_spectrum(instance: AqftInstance, samples) -> np.ndarray:
    """Fourier coefficients of the k-averaged success over the phases.

    ``samples`` holds the success at the rows of
    :func:`spectrum_phases`.  Entry ``[D_1 + f_1, ..., D_band + f_band]``
    of the returned ``(2 D_1 + 1, ..., 2 D_band + 1)`` array is the
    coefficient of e^{i f . phase}.  Every axis of the sample has an odd
    number of points, so it has no Nyquist bin and every coefficient is
    the polynomial's own.
    """
    shape = _sample_shape(instance)
    # after the shift, frequency f of an axis of 2D + 1 points sits at D + f
    return np.fft.fftshift(np.fft.fftn(np.reshape(samples, shape), norm="forward"))


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
    exact whether G is above or below the sample size, and one inverse
    FFT evaluates every cell.  ``shape`` needs one size per spectrum
    axis.
    """
    shape = tuple(shape)
    if len(shape) != spectrum.ndim:
        raise ValueError(f"grid shape {shape} needs {spectrum.ndim} axes, one per spectrum axis")
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
        table = self.spectrum
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            # np.tensordot(table, orders of this axis, axes=(0, 1)), without
            # its per-call set-up: the same reshape and the same np.dot
            rest = table.shape[1:]
            rows = np.moveaxis(table, 0, -1).reshape(-1, hi - lo)
            table = np.dot(rows, orders[:, lo:hi].T).reshape(rest + (3,))
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
