"""Exception types shared across the package, and the one settings rule.

The CLI maps these onto process exit codes (see cli.py), so new error
conditions should reuse one of the families below instead of raising a
bare Exception.

Every numeric setting, from a flag, a config file or a library call, is
checked by _check_setting: its type, its finiteness and its range, with
a ValidationError that names the setting, and _check_band is the one
Nyquist rule.  This module imports no numeric library, so the CLI and
metrics can use the rules without one.
"""

import math
import numbers
import sys


class VibelineError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(VibelineError, ValueError):
    """A parameter or field violates a documented precondition."""


def _check_setting(name, value, lo=-math.inf, hi=math.inf, *, lo_closed=False,
                   hi_closed=False, integer=False, message=None) -> None:
    """Raise ValidationError unless value is a real number in the range.

    Each end of the range is open unless *_closed, so an infinite end
    makes the value finite.  With integer=True the value must be an
    integer; otherwise an int must fit a float.  A bool or a str always
    fails, and NaN fails every comparison.  The error names the setting,
    its range and the value, unless a message is given.
    """
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (integer or not isinstance(value, numbers.Integral)
                 or abs(value) <= sys.float_info.max)
            and (lo <= value if lo_closed else lo < value)
            and (value <= hi if hi_closed else value < hi)):
        return
    ends = ([f"{'>=' if lo_closed else '>'} {lo:g}"] * (lo > -math.inf)
            + [f"{'<=' if hi_closed else '<'} {hi:g}"] * (hi < math.inf))
    kind = ["an integer"] if integer else ["finite"] * (len(ends) < 2)
    try:
        got = f"{value}" if isinstance(value, numbers.Number) else repr(value)
    except ValueError:  # an int past sys.get_int_max_str_digits() digits
        got = f"a value too long to print ({type(value).__name__})"
    raise ValidationError(
        message or f"{name} must be {' and '.join(ends + kind)}, got {got}")


def _check_band(freq, fps) -> None:
    """Raise ValidationError unless 0 < freq < fps / 2, in generator and
    detector alike."""
    if not (0 < freq < fps / 2):
        raise ValidationError(f"vib_freq {freq} Hz must lie in (0, fps/2) = "
                              f"(0, {fps / 2}) Hz, below the Nyquist limit")


class FormatError(VibelineError, ValueError):
    """A binary file does not parse (bad magic, malformed header)."""


class SizeMismatchError(FormatError):
    """Header promises more payload than the file actually contains."""


class BoundsError(VibelineError, IndexError):
    """A pixel coordinate lies outside the image."""


class GeometryError(VibelineError):
    """A line or segment does not intersect the image rectangle."""


class NoDetectionError(VibelineError):
    """An all-zero channel (or similar degenerate input) has no argmax."""


class NoTipError(NoDetectionError):
    """The along-line profile has no above-threshold run."""
