from fractions import Fraction

import numpy as np
import pytest

from pinchlab.scalars import (
    ArithmeticModeError,
    FLOAT,
    RATIONAL,
    check_mode,
    exact_div,
    is_rational,
    mode_of,
    parse_scalar,
    scalar_to_json,
)
from reference import join_modes


def test_parse_scalar_fraction_string():
    assert parse_scalar("1/24") == Fraction(1, 24)
    assert parse_scalar("-1/10") == Fraction(-1, 10)


def test_parse_scalar_decimal_is_exact():
    # decimal strings are decimal rationals, not binary floats
    assert parse_scalar("0.125") == Fraction(1, 8)
    assert parse_scalar("0.1") == Fraction(1, 10)
    assert parse_scalar("0.1") != 0.1


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2"])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_exact_div_modes():
    assert exact_div(1, 3) == Fraction(1, 3)
    assert exact_div(Fraction(2, 5), 4) == Fraction(1, 10)
    assert exact_div(1.0, 4) == 0.25
    assert isinstance(exact_div(1.0, 4), float)


def test_is_rational():
    assert is_rational(3) and is_rational(Fraction(1, 2))
    assert not is_rational(0.5)


def test_mode_checks():
    assert check_mode(RATIONAL) == RATIONAL
    with pytest.raises(ArithmeticModeError):
        check_mode("symbolic")
    assert join_modes(FLOAT, FLOAT) == FLOAT
    with pytest.raises(ArithmeticModeError):
        join_modes(FLOAT, RATIONAL)


def test_scalar_to_json():
    assert scalar_to_json(Fraction(1, 24)) == "1/24"
    assert scalar_to_json(Fraction(4, 2)) == "2"
    assert scalar_to_json(7) == "7"
    assert scalar_to_json(0.5) == 0.5
    assert scalar_to_json(True) is True


def test_mode_of_reads_the_dtype():
    assert mode_of(np.array([Fraction(1, 3)], dtype=object)) == RATIONAL
    assert mode_of(np.zeros(2)) == FLOAT
    for dtype in (np.int64, np.float32, np.complex128):
        with pytest.raises(ArithmeticModeError, match=np.dtype(dtype).name):
            mode_of(np.zeros(2, dtype=dtype))
