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
  the complex walk coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .parameter import (
    ParameterState,
    dephase_random,
    invert_about_mean,
    translate,
)

__all__ = [
    "FeedbackConfig",
    "FeedbackHistory",
    "WalkCoefficients",
    "FeedbackResult",
    "walk_coefficients",
    "apply_quantum_walk",
    "on_failure",
]

_MAX_WALK_ORDER = 200
_UNITARITY_TOL = 1e-9

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

    Construction builds the walk series at the cap, so a strength the
    series cannot reach (x above about 76 at the default cutoff) fails
    here rather than at a run's first walk.
    """

    strategy: str = "double_push"
    initial_push_cells: int = 8
    walk_strength: float = 24.0
    walk_step_cells: int = 1
    kickstart_enabled: bool = True
    series_cutoff: float = 1e-12
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
        if self.walk_strength < 0:
            raise ValueError("walk_strength must be >= 0")
        if not 0 < self.series_cutoff < 1e-3:
            raise ValueError("series_cutoff must be a small positive number")
        if self.push_asymmetry <= 0:
            raise ValueError("push_asymmetry must be > 0")
        if self.walk_floor < 0:
            raise ValueError("walk_floor must be >= 0")
        if self.walk_escalation < 0:
            raise ValueError("walk_escalation must be >= 0")
        walk_coefficients(self.walk_strength, self.series_cutoff)


@dataclass(frozen=True)
class FeedbackHistory:
    """Verification record available to the controller.

    Only quantities an experimenter can read off the pass/fail sequence:
    total successes, total failures, and the current run of consecutive
    failures.  All counts exclude the failure being handled.
    """

    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0

    def __post_init__(self):
        if min(self.successes, self.failures, self.consecutive_failures) < 0:
            raise ValueError("history counts must be >= 0")

    def after_success(self) -> "FeedbackHistory":
        return FeedbackHistory(self.successes + 1, self.failures, 0)

    def after_failure(self) -> "FeedbackHistory":
        return FeedbackHistory(
            self.successes, self.failures + 1, self.consecutive_failures + 1
        )


@dataclass(frozen=True)
class WalkCoefficients:
    """Translation expansion of the walk unitary at strength ``x``.

    ``coefficients[l]`` multiplies the symmetric translation pair
    T(+l dphi) + T(-l dphi) (the l = 0 entry multiplies the identity).
    Unitarity fixes |p_0|^2 + 2 sum_{l>=1} |p_l|^2 = 1; the series is
    truncated at the first order whose coefficient falls below the
    configured cutoff.
    """

    strength: float
    coefficients: np.ndarray

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def unitarity_sum(self) -> float:
        mags = np.abs(self.coefficients) ** 2
        return float(mags[0] + 2.0 * mags[1:].sum())


_SERIES_MAX_X = 6.0


def _ascending_series(x: float, cutoff: float) -> list:
    """Power series p_l = sum_{j>=l} (-i x)^{2j-l} / (j! (j-l)!), term-wise.

    Truncation happens at the first sub-cutoff coefficient in the
    monotone tail l >= 2x; for l below 2x the magnitudes oscillate and
    may pass through zeros without the series having converged.
    """
    tail_start = max(1, int(np.ceil(2.0 * x)))
    coeffs = []
    l = 0
    while True:
        # leading term (-i x)^l / l!, built incrementally to avoid overflow
        term = 1.0 + 0.0j
        for i in range(1, l + 1):
            term *= (-1j * x) / i
        total = term
        j = l
        while abs(term) > cutoff * 1e-3:
            j += 1
            term *= (-x * x) / (j * (j - l))
            total += term
        coeffs.append(total)
        if l >= tail_start and abs(total) < cutoff:
            return coeffs
        l += 1
        if l > _MAX_WALK_ORDER:
            raise ValueError(
                f"walk strength x={x} needs more than {_MAX_WALK_ORDER} translation orders"
            )


def _backward_recurrence(x: float, cutoff: float) -> list:
    """p_l for large x via downward three-term recurrence.

    The power series cancels catastrophically beyond x of a few, so the
    Bessel values J_l(2x) are generated with backward recurrence from a
    high order and normalized with J_0 + 2 sum J_{2k} = 1 (Miller's
    method), then dressed with the (-i)^l walk phases.
    """
    z = 2.0 * x
    start = int(z + 16 + 12 * z ** (1.0 / 3.0))
    high, low = 0.0, 1e-280
    values = np.zeros(start)  # orders 0 .. start-1
    for l in range(start, 0, -1):
        high, low = low, (2.0 * l / z) * low - high
        values[l - 1] = low
        if abs(low) > 1e250:  # rescale to dodge overflow; ratios survive
            high *= 1e-250
            low *= 1e-250
            values[l - 1 :] *= 1e-250
    norm = values[0] + 2.0 * values[2::2].sum()
    values /= norm
    tail_start = max(1, int(np.ceil(z)))
    coeffs = []
    for l, v in enumerate(values):
        coeffs.append((-1j) ** (l % 4) * v)
        if l >= tail_start and abs(v) < cutoff:
            if l > _MAX_WALK_ORDER:
                raise ValueError(
                    f"walk strength x={x} needs more than {_MAX_WALK_ORDER}"
                    " translation orders"
                )
            return coeffs
    raise ValueError(
        f"walk strength x={x} needs more than {_MAX_WALK_ORDER} translation orders"
    )


def walk_coefficients(x: float, cutoff: float = 1e-12) -> WalkCoefficients:
    """Coefficients p_l(x) of the walk unitary exp(-i x (T + T^{-1})).

    Each p_l is the power series sum_{j>=l} (-i x)^{2j-l} / (j! (j-l)!),
    accumulated by term-wise recurrence until terms fall below the
    cutoff with a safety margin; beyond x = 6 the equivalent Bessel
    values (p_l = (-i)^l J_l(2x)) are generated by backward recurrence
    instead, because the alternating series loses roughly e^{2x} in
    precision to cancellation.  Rejects strengths so large that more
    than 200 translation orders would be needed.
    """
    if x < 0:
        raise ValueError("walk strength must be >= 0")
    if x <= _SERIES_MAX_X:
        coeffs = _ascending_series(x, cutoff)
    else:
        coeffs = _backward_recurrence(x, cutoff)
    result = WalkCoefficients(float(x), np.asarray(coeffs, dtype=np.complex128))
    if abs(result.unitarity_sum() - 1.0) > _UNITARITY_TOL:
        raise ValueError(f"walk series at x={x} failed the unitarity check")
    return result


def apply_quantum_walk(
    chi: ParameterState, coeffs: WalkCoefficients, step_cells: int, axis: int | None = None
) -> ParameterState:
    """Split the wavefunction coherently toward both directions.

    chi <- p_0 chi + sum_l p_l (T(+l step) + T(-l step)) chi on each
    requested axis (all axes when ``axis`` is None).  Translations along
    different axes commute, so the multi-axis walk is the sequential
    product.  Norm is preserved to the series truncation level.
    """
    if step_cells < 1:
        raise ValueError("step_cells must be >= 1")
    axes = range(chi.ndim) if axis is None else (axis,)
    amps = chi.amplitudes
    p = coeffs.coefficients
    for ax in axes:
        out = p[0] * amps
        for l in range(1, len(p)):
            shift = l * step_cells
            out = out + p[l] * (
                np.roll(amps, shift, axis=ax) + np.roll(amps, -shift, axis=ax)
            )
        amps = out
    return ParameterState(amps, chi.domains)


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


class FeedbackResult(NamedTuple):
    state: ParameterState
    action: str


def _effective_walk_strength(config: FeedbackConfig, consecutive_failures: int) -> float:
    if config.walk_escalation == 0:
        return config.walk_strength
    escalated = config.walk_floor * 2.0 ** (consecutive_failures / config.walk_escalation)
    return min(config.walk_strength, escalated)


def on_failure(
    chi: ParameterState,
    history: FeedbackHistory,
    config: FeedbackConfig,
    rng: np.random.Generator,
    binary_readout: bool = False,
) -> FeedbackResult:
    """Feedback dispatch after a failed verification.

    ``history`` holds the verification counts *before* the current
    failure; ``binary_readout`` says the trial was read out as pass/fail
    only (search) rather than as a full outcome index (Fourier).  When
    the kickstart (the inversion about the mean) is enabled, the first
    failure of a run triggers it, and under the double push on a binary
    readout so does every failure before the first pass.  Otherwise the
    configured strategy applies: a single push, or the quantum walk
    followed by random dephasing.  Returns the new state together with
    a short action tag for the run record.

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
    searching = binary_readout and config.strategy == "double_push" and history.successes == 0
    if config.kickstart_enabled and (history.failures == 0 or searching):
        return FeedbackResult(invert_about_mean(chi), "kickstart")
    if config.strategy == "single_push":
        axis, shift = _push_move(history.failures, history.successes, config, chi.ndim)
        tag = f"push{shift:+d}" if chi.ndim == 1 else f"push[ax{axis}]{shift:+d}"
        return FeedbackResult(translate(chi, shift, axis=axis), tag)
    if config.strategy == "double_push":
        x = _effective_walk_strength(config, history.consecutive_failures)
        coeffs = walk_coefficients(x, config.series_cutoff)
        walked = apply_quantum_walk(chi, coeffs, config.walk_step_cells)
        return FeedbackResult(dephase_random(walked, rng), "walk+dephase")
    raise ValueError(f"unknown strategy {config.strategy!r}")
