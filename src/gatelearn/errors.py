"""Exception types shared across the package, and its setting and per-run argument checks.

Configuration mistakes (bad indices, non-unitary gates, inconsistent
shapes, non-integral sizes) raise the built-in ``ValueError``.  ``NumericsError`` is reserved
for diagnostics that indicate numerical corruption upstream, e.g. a state
whose norm has drifted beyond tolerance.
"""

import numbers


def check_integer(name: str, value) -> None:
    """Reject a setting that is not an integer; numpy integers pass.

    A bool is an int to Python, but runs=True is a slip, not one run.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_per_run(name: str, values, runs: int) -> None:
    """Reject a per-run argument without one entry per run, which zip or broadcasting would hide."""
    if len(values) != runs:
        raise ValueError(f"{name} needs one entry per run: got {len(values)} for {runs} runs")


def check_real(name: str, value) -> None:
    """Reject a setting that is not a real number; ints and numpy reals pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


class NumericsError(RuntimeError):
    """A numerical invariant was violated (normalization drift, etc.)."""
