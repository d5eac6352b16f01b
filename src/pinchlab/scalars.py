"""Scalar helpers shared by the rational and float arithmetic modes.

A value is "rational" when it is a Fraction or an int; everything else is
treated as a float.  Mixed-mode tensor operations are rejected at the tensor
level, but scalar formulas below are mode-agnostic: feeding Fractions in
gives exact Fractions out, feeding floats gives floats.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

MODES = (RATIONAL, FLOAT)

GAP_RTOL = 1e-10   # float-mode inequality slack, relative to max(1, |sides|)


class ArithmeticModeError(TypeError):
    """Raised on mixed rational/float tensor operations or unknown modes."""


def check_mode(mode):
    if mode not in MODES:
        raise ArithmeticModeError(f"unknown arithmetic mode {mode!r}")
    return mode


def mode_of(array):
    """The arithmetic of an array: RATIONAL for an object array (Fractions),
    FLOAT for float64; any other dtype raises ArithmeticModeError."""
    if array.dtype not in (object, np.float64):
        raise ArithmeticModeError(f"no arithmetic mode holds dtype {array.dtype}")
    return RATIONAL if array.dtype == object else FLOAT


def is_rational(x) -> bool:
    return isinstance(x, (Fraction, int))


def parse_scalar(text):
    """Parse a CLI scalar: "p/q" or a decimal string, converted exactly.

    Decimal strings are decimal rationals, so the conversion is exact
    ("0.125" -> 1/8, never a rounded binary float).  Every scalar also
    enters a float lane, so one beyond the float range is refused.
    """
    text = str(text).strip()
    try:
        value = Fraction(text)
        float(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"cannot parse scalar {text!r}: {exc}") from exc
    return value


def exact_div(num, den):
    """num/den, staying exact when num is rational (den is a plain int)."""
    if is_rational(num):
        return Fraction(num, den) if isinstance(num, int) else num / den
    return num / den


def scalar_to_json(x):
    """Render a scalar for report emission: rationals as "p/q" strings, and
    None (a value the source has no use for) as null."""
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    return float(x)


# The exact integer lanes.  A kernel bounds the magnitude of every
# intermediate it will form before computing anything, then runs in int64
# when the bound fits and in Python ints (object arrays, exact at any size,
# still vectorized) when it does not; a kernel in stages bounds each stage
# apart and runs each in its own lane.
INT64_LANE, PYTHON_INT_LANE = "int64", "python-int"
INT64_MAX = 2 ** 63 - 1


def exact_lane(bound):
    """The lane for a kernel whose intermediates never exceed bound in
    magnitude: INT64_LANE when bound fits in int64, else PYTHON_INT_LANE."""
    return INT64_LANE if bound <= INT64_MAX else PYTHON_INT_LANE


def lane_array(values, lane):
    """Integer values as an array of the lane.  Every input but an object
    array goes through int64 first, so that no float (say, a 0/1 matrix
    built in float64) reaches the Python-int lane, where it would make the
    arithmetic inexact.  An object array holds a Python-int lane's results
    already and is returned as it is for that lane."""
    values = np.asarray(values)
    if values.dtype == object and lane == PYTHON_INT_LANE:
        return values
    values = values.astype(np.int64, copy=False)
    return values if lane == INT64_LANE else values.astype(object)
