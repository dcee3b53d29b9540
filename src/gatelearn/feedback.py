"""Active feedback on the parameter register after failed verifications.

A failed trial both signals a bad outcome and, through measurement
back-action, erodes exactly the parameter region that performs well.
The feedback operators here counteract that erosion using only
information an experimenter has: the running counts of passed and
failed verifications.

Three operators are provided, plus the controller that schedules them:

* an inversion about the mean, applied on the very first failure
  while the wavefunction is still nearly uniform, converting the
  freshly dug dip into a peak at the good parameter values; under the
  double push on pass/fail (search) readouts it is repeated on every
  failure until the first pass, since each failed trial digs a new dip
  into a wavefunction that has not yet found anything;
* an alternating push (cyclic translation) whose magnitude shrinks as
  successes accumulate, optionally asymmetric so the distribution
  slowly scans the parameter circle;
* a quantum-walk splitting, the "double push": the coherent
  superposition of translations generated by the hopping Hamiltonian
  H|phi> = lambda(|phi + dphi> + |phi - dphi>), followed by a
  pseudo-random dephasing that suppresses interference artifacts from
  the complex walk coefficients.  On the cyclic grid the walk is
  diagonal in Fourier space, so it is applied exactly, at any strength,
  by one FFT, a phase multiply and one inverse FFT.

:func:`on_failure_batch` and :func:`apply_quantum_walk_batch` act on the
failed runs of a batch, one row of a ``(runs, *grid_shape)`` array per
run; one run is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError
from .parameter import dephase_batch, invert_about_mean_batch, translate_batch

__all__ = [
    "FeedbackConfig",
    "apply_quantum_walk_batch",
    "on_failure_batch",
]

_NORM_TOL = 1e-9

STRATEGIES = ("single_push", "double_push")


@dataclass(frozen=True)
class FeedbackConfig:
    """Feedback strategy and its strength constants.

    ``walk_strength`` is the dimensionless walk parameter
    x = lambda * dt / hbar, interpreted as a cap.  With
    ``walk_escalation`` > 0 the strength actually applied is

        min(walk_strength, walk_floor * 2 ** (c / walk_escalation)),

    where c counts consecutive failures since the last success: gentle
    splitting while recent successes show the distribution is near good
    values, escalating toward full-strength mixing the longer nothing
    has worked.  Set ``walk_escalation`` to 0 for a constant-strength
    walk.  ``push_asymmetry`` scales the leftward push magnitude
    relative to the rightward one; values below 1 give the distribution
    a slow net drift that scans the parameter circle.

    The walk is applied exactly in Fourier space, so any finite strength
    is reachable.  Non-finite strengths, floors, escalation rates and
    asymmetries fail here rather than minutes into an ensemble.
    """

    strategy: str = "double_push"
    initial_push_cells: int = 8
    walk_strength: float = 24.0
    walk_step_cells: int = 1
    kickstart_enabled: bool = True
    push_asymmetry: float = 1.0
    walk_floor: float = 1.5
    walk_escalation: float = 2.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; use one of {STRATEGIES}")
        if self.initial_push_cells < 1:
            raise ValueError("initial_push_cells must be >= 1")
        if self.walk_step_cells < 1:
            raise ValueError("walk_step_cells must be >= 1")
        for name in ("walk_strength", "walk_floor", "walk_escalation", "push_asymmetry"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.walk_strength < 0:
            raise ValueError("walk_strength must be >= 0")
        if self.push_asymmetry <= 0:
            raise ValueError("push_asymmetry must be > 0")
        if self.walk_floor < 0:
            raise ValueError("walk_floor must be >= 0")
        if self.walk_escalation < 0:
            raise ValueError("walk_escalation must be >= 0")


@lru_cache(maxsize=256)
def _walk_spectrum(strength: float, step_cells: int, grid_shape: tuple) -> np.ndarray:
    """Eigenvalues of the walk on a grid, the outer product of the axis spectra."""
    if step_cells < 1:
        raise ValueError("step_cells must be >= 1")
    if not 0 <= strength < np.inf:
        raise ValueError(f"walk strength must be finite and >= 0, got {strength}")
    spectrum = np.ones(())
    for cells in grid_shape:
        # reduce m*s mod N in integers so the cosine argument stays exact
        modes = (step_cells * np.arange(cells)) % cells
        phase = np.exp(-2j * strength * np.cos(2.0 * np.pi / cells * modes))
        spectrum = np.multiply.outer(spectrum, phase)
    spectrum.flags.writeable = False
    return spectrum


def _norms_squared(amps: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(amps).reshape(len(amps), -1)
    parts = rows.view(np.float64)  # real, imag interleaved
    return np.einsum("ij,ij->i", parts, parts)


def apply_quantum_walk_batch(amps: np.ndarray, strengths, step_cells: int) -> np.ndarray:
    """Split each run's wavefunction coherently toward both directions.

    ``amps`` is ``(runs, *grid_shape)``; run i gets exp(-i x (T^s + T^-s))
    along every grid axis, with x = ``strengths[i]`` and s =
    ``step_cells``.  On the cyclic grid this operator is circulant: the
    Fourier mode m of an axis with N cells is an eigenvector with
    eigenvalue exp(-2i x cos(2 pi m s / N)).  So one FFT over the grid
    axes, a multiply by the outer product of the axis spectra (cached
    per strength), and one inverse FFT apply the walk exactly at any
    strength.  Translations along different axes commute, so the
    product spectrum equals the sequential per-axis walk.  In
    translation form the walk is p_0 + sum_l p_l (T^{ls} + T^{-ls}) with
    p_l = (-i)^l J_l(2x).  Raises ``NumericsError`` if a run's norm
    moves by more than 1e-9.
    """
    spectra = [_walk_spectrum(float(x), step_cells, amps.shape[1:]) for x in strengths]
    # one shared strength (always so for a single run) broadcasts its spectrum
    spectra = spectra[0] if len(set(strengths)) == 1 else np.stack(spectra)
    # the 1-D transforms over the grid axes, last axis first: np.fft.fftn's
    # own order, so the result is fftn's, without its argument handling
    walked = amps
    for axis in range(amps.ndim - 1, 0, -1):
        walked = np.fft.fft(walked, axis=axis)
    np.multiply(walked, spectra, out=walked)
    for axis in range(amps.ndim - 1, 0, -1):
        walked = np.fft.ifft(walked, axis=axis)
    within = np.abs(_norms_squared(walked) - _norms_squared(amps)) <= _NORM_TOL
    if not within.all():
        x = strengths[int(np.argmin(within))]
        raise NumericsError(f"walk at x={x} changed the norm beyond {_NORM_TOL:g}")
    return walked


def _push_move(failure_count: int, success_count: int, config: FeedbackConfig, ndim: int):
    """(axis, signed shift) of the next alternating push.

    The magnitude shrinks with accumulated successes as
    initial_push_cells / sqrt(1 + n_success), never below one cell;
    the direction alternates with the failure count (even -> +, odd -> -),
    cycling through grid axes for multi-parameter grids.  Asymmetry
    scales the leftward magnitude only.
    """
    base = config.initial_push_cells / np.sqrt(1.0 + success_count)
    direction = failure_count % (2 * ndim)
    axis, sign = direction // 2, (1 if direction % 2 == 0 else -1)
    if sign < 0:
        base *= config.push_asymmetry
    return axis, sign * max(1, round(base))


def _effective_walk_strength(config: FeedbackConfig, consecutive_failures: int) -> float:
    if config.walk_escalation == 0:
        return config.walk_strength
    if config.walk_floor == 0:
        return min(config.walk_strength, 0.0)
    exponent = consecutive_failures / config.walk_escalation
    if exponent < 1024:
        escalated = config.walk_floor * 2.0**exponent
    else:
        # 2.0 ** exponent overflows a float; compare in the log domain instead
        log2_escalated = math.log2(config.walk_floor) + exponent
        escalated = math.inf if log2_escalated >= 1024 else 2.0**log2_escalated
    return min(config.walk_strength, escalated)


def on_failure_batch(
    amps: np.ndarray,
    successes,
    failures,
    consecutive_failures,
    config: FeedbackConfig,
    rngs,
    binary_readout: bool = False,
):
    """Feedback for a batch of runs that each just failed a verification.

    ``amps`` is ``(runs, *grid_shape)``, one row per failed run.  The
    counts are per run: total passes, total failures and the current run
    of consecutive failures, all read off the pass/fail record and all
    excluding the failure being handled.  ``rngs`` are the runs' own
    streams; ``binary_readout`` says the trial was read out as pass/fail
    only (search) rather than as a full outcome index (Fourier).  Each
    row gets what it would get alone.  Returns the new rows and an
    object array of short action tags for the run record.

    When the kickstart (the inversion about the mean) is enabled, the
    first failure of a run triggers it, and under the double push on a
    binary readout so does every failure before the first pass.
    Otherwise the configured strategy applies: a single push, or the
    quantum walk followed by random dephasing.

    Why the kickstart repeats only there: right after a failed
    verification the still nearly uniform wavefunction carries a dip
    where the circuit works well, and the reflection turns that dip into
    a peak.  On pass/fail readouts the reflected wavefunction stays close
    enough to uniform that the next failure digs a dip again (search at
    N=10000 on 256 cells: a second reflection gives a pass probability of
    0.030, against 0.0134 for a uniform wavefunction).  On a
    full-register (Fourier) readout a failure singles out one wrong index
    rather than digging a dip, once a run has passed the amplitudes are
    structured, and under the single push repeating it lowers the search
    ensemble mean (N=1024: 0.72 to 0.57 of the ideal success).
    """
    successes, failures = np.asarray(successes), np.asarray(failures)
    consecutive_failures = np.asarray(consecutive_failures)
    kick = failures == 0
    if binary_readout and config.strategy == "double_push":
        kick |= successes == 0  # still searching: no pass yet
    if not (config.kickstart_enabled and kick.any()):
        return _push_or_walk(amps, successes, failures, consecutive_failures, config, rngs)
    rest = np.flatnonzero(~kick)
    # the reflection is row-wise, so reflecting every row and overwriting
    # the others leaves each kickstarted row as it would be alone
    out = invert_about_mean_batch(amps)
    tags = np.full(len(amps), "kickstart", dtype=object)
    if rest.size:
        out[rest], tags[rest] = _push_or_walk(
            amps[rest],
            successes[rest],
            failures[rest],
            consecutive_failures[rest],
            config,
            [rngs[i] for i in rest],
        )
    return out, tags


def _push_or_walk(amps, successes, failures, consecutive_failures, config, rngs):
    """The configured strategy's step on failed runs that take no kickstart."""
    if config.strategy == "single_push":
        ndim = amps.ndim - 1
        moves = [
            _push_move(f, n, config, ndim)
            for f, n in zip(failures.tolist(), successes.tolist())
        ]
        axes, shifts = zip(*moves)
        tags = [
            f"push{shift:+d}" if ndim == 1 else f"push[ax{axis}]{shift:+d}"
            for axis, shift in moves
        ]
        return translate_batch(amps, shifts, axes), np.array(tags, dtype=object)
    strengths = [_effective_walk_strength(config, c) for c in consecutive_failures.tolist()]
    walked = apply_quantum_walk_batch(amps, strengths, config.walk_step_cells)
    return dephase_batch(walked, rngs), np.full(len(amps), "walk+dephase", dtype=object)
