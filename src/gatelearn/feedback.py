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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericsError
from .parameter import (
    ParameterState,
    dephase_random,
    invert_about_mean,
    translate,
)

__all__ = [
    "FeedbackConfig",
    "FeedbackHistory",
    "FeedbackResult",
    "apply_quantum_walk",
    "on_failure",
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


def apply_quantum_walk(chi: ParameterState, strength: float, step_cells: int) -> ParameterState:
    """Split the wavefunction coherently toward both directions.

    Applies exp(-i x (T^s + T^-s)) along every grid axis, with x the
    walk ``strength`` and s = ``step_cells``.  On the cyclic grid this
    operator is circulant: the Fourier mode m of an axis with N cells is
    an eigenvector with eigenvalue exp(-2i x cos(2 pi m s / N)).  So one
    ``fftn``, a multiply by the outer product of the axis spectra, and
    one ``ifftn`` apply the walk exactly at any strength.  Translations
    along different axes commute, so the product spectrum equals the
    sequential per-axis walk.  In translation form the walk is
    p_0 + sum_l p_l (T^{ls} + T^{-ls}) with p_l = (-i)^l J_l(2x).
    """
    if step_cells < 1:
        raise ValueError("step_cells must be >= 1")
    if not 0 <= strength < np.inf:
        raise ValueError(f"walk strength must be finite and >= 0, got {strength}")
    spectrum = np.ones(())
    for cells in chi.grid_shape:
        # reduce m*s mod N in integers so the cosine argument stays exact
        modes = (step_cells * np.arange(cells)) % cells
        phase = np.exp(-2j * strength * np.cos(2.0 * np.pi / cells * modes))
        spectrum = np.multiply.outer(spectrum, phase)
    amps = np.fft.ifftn(np.fft.fftn(chi.amplitudes) * spectrum)
    before, after = np.vdot(chi.amplitudes, chi.amplitudes), np.vdot(amps, amps)
    if abs(after.real - before.real) > _NORM_TOL:
        raise NumericsError(f"walk at x={strength} changed the norm beyond {_NORM_TOL:g}")
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
        walked = apply_quantum_walk(chi, x, config.walk_step_cells)
        return FeedbackResult(dephase_random(walked, rng), "walk+dephase")
    raise ValueError(f"unknown strategy {config.strategy!r}")
