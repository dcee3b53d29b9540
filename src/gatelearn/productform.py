"""Product-form outcome draws of the banded Fourier circuit's trials.

The training loop's Fourier trials call :meth:`ProductFormTrials.draw`
once per iteration; :mod:`gatelearn.oracle` holds its gate-by-gate
oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError, check_per_run
from .qft import AqftInstance, _window_bits

__all__ = ["ProductFormTrials"]

# a bit's conditional this close to 0 or 1 is rounding off a certain bit
_CERTAIN = 2.0**-52
_ALMOST_ONE = 1.0 - _CERTAIN
# a 0-d array adds to a complex array about twice as fast as the float 1
_ONE = np.array(1 + 0j)
# complex entries per gathered block of an axis's factors
_CHUNK_ENTRIES = 1 << 14


class ProductFormTrials:
    """Outcome draws of the banded circuit's trials, from its product form.

    Built on one 1-D array of angles per trained phase, ``axes[d-1]``
    for the gate at separation d; the parameter grid is their product,
    its cells flattened in C order (the last phase fastest).  The
    circuit maps the product-state input of a trial to a product state,
    so every outcome amplitude factorizes over the outcome bits:

        A_r(phi) = prod_q (1 + (-1)^{r_q} e^{i theta_q}) / 2,
        theta_q  = alpha_q(k) + sum_{d=1..band} phi_d r_{q-d},
        alpha_q(k) = -2 pi k 2^{n-1-q} / 2^n,

    with r_q bit q of the outcome r (read off qubit n-1-q) and r_j = 0
    for j < 0.  |factor q|^2 = (1 +- cos theta_q) / 2, so its two values
    for bit q sum to 1 whatever the lower bits are: at one cell g,
    |factor q|^2 is the conditional probability of bit q given the bits
    below it.  P(r) = sum_g w_g prod_q |factor q|^2 is therefore a
    mixture over the cells of one such chain per cell, and :meth:`draw`
    samples it ancestrally: a latent cell g with probability w_g, then
    the bits of r from bit 0 up at that cell alone, so r has exactly the
    probability P(r).  The latent cell is a sampling device only; what
    filters the parameter state is r, through its amplitude column
    A_r(phi_g) over every cell.

    Factor q depends on the grid only through its window r_{q-1}..r_{q-band}:
    with no bit set it is one number, with r_{q-d} alone set a vector along
    axis d-1, and only a window of two or more set bits needs a table over
    the whole grid (one for band 2).  The column is built from these
    tables; the draw's walk needs the window phasors at one cell only, and
    multiplies them up from that cell's e^{i phi_d}.
    :func:`gatelearn.oracle.trial_output_batch` is the oracle.
    """

    def __init__(self, instance: AqftInstance, axes):
        axes = [np.asarray(axis, dtype=float) for axis in axes]
        band = instance.band
        if not band or len(axes) != band or any(a.ndim != 1 or not a.size for a in axes):
            raise ValueError(f"need band >= 1 and {band} non-empty 1-D phase axes")
        if not all(np.isfinite(a).all() for a in axes):
            raise ValueError("phase axes hold a NaN or infinite phase")
        self.n_qubits, self.band = instance.n_qubits, band
        self.shape, window = tuple(map(len, axes)), _window_bits(band)
        windows, width, self._cells = 1 << band, max(self.shape), math.prod(self.shape)
        gates = window.sum(axis=0)
        single, slot = gates == 1, np.cumsum(gates > 1) - 1
        # rows 0, +1, -1, +e^{i phi_d} and -e^{i phi_d} of axis d-1 from row
        # 5(d-1) of a (5 band, width) table, and prod_d e^{i phi_d} over the
        # grid per window of 2+ set bits
        phasors = [np.exp(1j * a) for a in axes]
        table = np.zeros((band, 5, width), dtype=np.complex128)
        for rows, e in zip(table, phasors):
            rows[:, : len(e)] = [0 * e, e**0, -(e**0), e, -e]
        grid = np.meshgrid(*phasors, indexing="ij", sparse=True)
        joint = [math.prod(g for g, fires in zip(grid, window[:, w]) if fires)
                 for w in np.flatnonzero(gates > 1)]
        joint = [np.broadcast_to(product, self.shape).ravel() for product in joint]
        self._table = table.reshape(5 * band, width)
        self._joint = np.reshape(joint, (len(joint), self._cells))
        # each axis's phasors as Python complexes, last axis first: the walk
        # splits a latent cell into its axis indices in that order
        self._axes = [(e.tolist(), len(e)) for e in reversed(phasors)]
        # step s = window + 2^band r_q, the window below bit q and then bit
        # q, picks factor q's row in each axis's table (row 0, exactly 1,
        # where the factor is of another kind), its grid table and its sign
        steps = np.arange(2 << band)
        w, negative = steps % windows, steps >> band
        rows = np.where((window[:, w] == 1) & single[w], 3 + negative, 0)
        rows[0, gates[w] == 0] = 1 + negative[gates[w] == 0]
        self._rows = (rows + 5 * np.arange(band)[:, None]).T
        self._sign, self._slot = np.where(gates[w] > 1, 1 - 2 * negative, 0), slot[w].clip(0)
        # alpha_q(k) is -(k << (n-1-q)) mod 2^n turns of 2 pi / 2^n
        self._shifts = self.n_qubits - 1 - np.arange(self.n_qubits)

    def draw(self, ks, weights: np.ndarray, cells, uniforms):
        """Each run's outcome, its probability and its amplitude column.

        Run i prepares the trial whose expected outcome is ``ks[i]`` and
        weighs the cells by row i of the ``(runs, cells)`` array
        ``weights`` (|chi_g|^2); ``cells[i]`` is its latent cell, a flat
        index drawn from that row.  Bit q of its outcome is 1 where
        ``uniforms[i][q]`` is not below |factor q|^2 of bit q = 0 at the
        latent cell, given the bits already drawn; a conditional within
        2^-52 of 0 or 1 is taken as exactly 0 or 1, so a bit that is
        certain in exact arithmetic is drawn for every uniform in [0, 1).
        ``uniforms`` is a ``(runs, n)`` array or a sequence of rows (the
        loop passes lists of floats).  The bits are a per-run walk over
        Python scalars: the run's window phasors at its latent cell are
        multiplied up once from the cell's axis phasors, and each bit's
        conditional, its snap and the step that picks its factor (the
        window below it and the bit) are scalar work.
        The column is then the product over the bits of the doubled
        factors 1 + (-1)^{r_q} e^{i theta_q}, times 2^-n: one product per
        axis (a factor of another kind enters it as exactly 1), their
        outer product, and one pass per bit whose window needs a grid
        table.  On one axis this is the running product from bit 0 up.

        Returns ``(outcomes, masses, columns)``: the drawn r,
        P(r) = sum_g w_g |A_r(phi_g)|^2, and A_r(phi_g) as flat
        ``(runs, cells)`` columns.  Every step acts on a run's row alone,
        so a row does not depend on the batch around it.  Other
        conditionals are rounded like any float, so a uniform within
        about 1e-16 of one may fall either way.  Raises when an outcome
        of vanishing probability is drawn, and when a per-run argument or
        a row of ``uniforms`` does not match the batch.
        """
        n, band, dim = self.n_qubits, self.band, 1 << self.n_qubits
        ks = np.asarray(ks, dtype=np.int64)
        # a basis index has no bit at or above bit n; a negative one has all
        if np.bitwise_or.reduce(ks) >> n:
            raise ValueError("basis index out of range")
        cells = np.asarray(cells, dtype=np.int64)
        if not (np.minimum.reduce(cells) >= 0 and np.maximum.reduce(cells) < self._cells):
            raise ValueError("latent cell out of range")
        weights = np.asarray(weights, dtype=float)
        runs = len(ks)
        for name, values in (("weights", weights), ("cells", cells), ("uniforms", uniforms)):
            check_per_run(name, values, runs)
        # e^{i alpha_q(k)} of every run and outcome bit
        turns = (ks[:, None] << self._shifts) % dim
        rotation = np.exp(-2j * np.pi * turns / dim)
        # the bits of a run are a walk over Python scalars at its latent cell,
        # the conditional of bit 0 being 1/2 + Re(e^{i theta_q}) / 2 there
        (last_axis, last_size), *others = self._axes
        top, outcomes, steps = band - 1, [], []
        for cell, turn, u in zip(cells.tolist(), rotation.tolist(), uniforms):
            if len(u) != n:
                raise ValueError(f"uniforms need {n} per run, got a row of {len(u)}")
            # window w's phasor: the product of e^{i phi_d} over the gates it
            # fires, 1 if none; the last axis is window bit 0
            cell, index = divmod(cell, last_size)
            phasors = [1, last_axis[index]]
            for axis, size in others:
                cell, index = divmod(cell, size)
                phasor = axis[index]
                phasors += [p * phasor for p in phasors]
            r = window = 0
            for q in range(n):
                zero = 0.5 + 0.5 * (phasors[window] * turn[q]).real
                if zero <= _CERTAIN:
                    zero = 0.0
                elif zero >= _ALMOST_ONE:
                    zero = 1.0
                bit = 1 if u[q] >= zero else 0
                # step s = window + 2^band r_q, the window below bit q and then bit q
                steps.append(window | bit << band)
                r |= bit << q
                window = window >> 1 | bit << top
            outcomes.append(r)
        outcomes = np.array(outcomes, dtype=np.int64)
        steps = np.array(steps, dtype=np.intp).reshape(runs, n)
        # factor q's row in each axis's table, gathered as (runs, bits, axes,
        # width) blocks of as many runs as fit in 2^14 entries (one at least);
        # numpy reduces the bit axis from bit 0 up with its elementwise loop
        # (with its scalar loop on a one-cell axis, which may round the last
        # bit differently)
        rows = self._rows[steps]
        vectors = np.empty((runs, band, self._table.shape[1]), dtype=np.complex128)
        chunk = max(1, _CHUNK_ENTRIES // (band * n * self._table.shape[1]))
        block = np.empty((min(chunk, runs), n, band, self._table.shape[1]), dtype=np.complex128)
        for start in range(0, runs, chunk):
            stop = min(start + chunk, runs)
            factors = block[: stop - start]
            self._table.take(rows[start:stop], axis=0, out=factors, mode="clip")
            np.multiply(factors, rotation[start:stop, :, None, None], out=factors)
            np.add(factors, _ONE, out=factors)
            np.multiply.reduce(factors, axis=1, out=vectors[start:stop])
        column = vectors[:, 0, : self.shape[0]]
        np.multiply(column, 0.5**n, out=column)
        for d, size in enumerate(self.shape[1:], 1):
            column = (column[:, :, None] * vectors[:, d, None, :size]).reshape(runs, -1)
        signs = self._sign[steps]
        for q in np.flatnonzero(signs.any(axis=0)) if len(self._joint) else ():
            table = self._joint if len(self._joint) == 1 else self._joint[self._slot[steps[:, q]]]
            factor = np.multiply(table, (rotation[:, q] * signs[:, q])[:, None])
            factor += _ONE
            column *= factor
        square = column.real**2
        square += column.imag**2
        # one dot product per row
        masses = np.matmul(weights[:, None, :], square[:, :, None])[:, 0, 0]
        # written so that a NaN mass fails too
        if not np.minimum.reduce(masses) >= 1e-300:
            raise NumericsError("sampled an outcome of vanishing probability")
        return outcomes, masses, column
