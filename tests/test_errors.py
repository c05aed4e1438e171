"""The argument checkers in errors."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve import RepresentationKind, zeta_direct_partial
from zetasieve.errors import MAX_HEIGHT, InputError, check_int, check_point, check_real
from zetasieve.representations import partial_sum_table


class _Float(float):
    """A float that check_real's fast path, for exact floats, does not take."""


class _Complex(complex):
    """A complex that check_point's fast path, for exact complexes, does not
    take."""


def _outcome(value, minimum, strict):
    try:
        return "accepted", check_real(value, "x", minimum, strict).hex()
    except InputError as exc:
        return "refused", str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.floats(),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.booleans(),
)
@example(0.0, 0.0, False)
@example(0.0, 0.0, True)
@example(-0.0, 0.0, True)
@example(math.inf, None, False)
@example(math.nan, None, False)
@example(-1e-300, 0.0, False)
def test_fast_path_accepts_and_refuses_what_the_full_checks_do(value, minimum, strict):
    assert _outcome(value, minimum, strict) == _outcome(_Float(value), minimum, strict)


def _point_outcome(z):
    try:
        got = check_point(z)
    except InputError as exc:
        return "refused", str(exc)
    return "accepted", type(got), got.real.hex(), got.imag.hex()


@settings(max_examples=400, deadline=None)
@given(st.complex_numbers(allow_nan=True, allow_infinity=True))
@example(complex(0.0, -0.0))
@example(complex(-0.0, 0.0))
@example(complex(math.inf, 0.0))
@example(complex(0.0, math.nan))
@example(complex(-math.inf, math.nan))
@example(complex(0.0, 2.0**28))
@example(complex(0.0, -math.nextafter(2.0**28, math.inf)))
def test_point_fast_path_accepts_and_refuses_what_the_full_checks_do(z):
    assert _point_outcome(z) == _point_outcome(_Complex(z))


def test_the_height_limit_is_exact():
    assert MAX_HEIGHT == 2.0**28
    above = math.nextafter(MAX_HEIGHT, math.inf)
    for sign in (1.0, -1.0):
        for make in (complex, _Complex):
            assert check_point(make(0.5, sign * MAX_HEIGHT)).imag == sign * MAX_HEIGHT
            z = complex(0.5, sign * above)
            message = f"z = {z!r} is above the height limit"
            with pytest.raises(InputError, match=re.escape(message)):
                check_point(make(z))
    # Real parts have no such limit.
    assert check_point(complex(1.7e308, 0.0)).real == 1.7e308


@pytest.mark.parametrize(
    "value", [10**400, -(10**400), Fraction(10**400)], ids=["int", "-int", "fraction"]
)
def test_numbers_too_large_for_a_float_are_refused(value):
    # float() and complex() raise OverflowError on them, not ValueError.
    with pytest.raises(InputError, match="x must be finite, got one too large"):
        check_real(value, "x")
    for check in (check_point, lambda z: zeta_direct_partial(z, 6)):
        with pytest.raises(InputError, match="non-finite argument, too large"):
            check(value)


@pytest.mark.parametrize(
    "value, digits",
    [(10**5000, 5001), (10**5000 - 1, 5000), (-(10**5000), 5001), (2**20000, 6021)],
    ids=["power-of-ten", "nines", "negative", "power-of-two"],
)
def test_integers_too_long_to_print_are_refused_by_their_digit_count(value, digits):
    # str() of an int past 4300 digits raises ValueError; the message gives
    # the digit count instead of the value.
    message = f"n must be in [2, 10], got an integer of {digits} digits"
    with pytest.raises(InputError, match=re.escape(message)):
        check_int(value, "n", 2, 10)
    with pytest.raises(InputError, match=f"n must be >= 2, got an integer of {digits}"):
        check_int(-abs(value), "n", 2)
    with pytest.raises(InputError, match=f"got an integer of {digits} digits"):
        zeta_direct_partial(2, abs(value))
    with pytest.raises(InputError, match=f"truncation must be .* {digits} digits"):
        partial_sum_table(RepresentationKind.DIRECT, 2, 10, [abs(value)])


@pytest.mark.parametrize(
    "value", [Fraction(10**5000), Fraction(10**5000, 3), [10**5000]],
    ids=["whole", "third", "list"],
)
def test_values_holding_integers_too_long_to_print_are_refused_by_type(value):
    # repr() of each raises ValueError past 4300 digits; the message names
    # the type instead.
    shown = f"got a {type(value).__name__} too long to print"
    with pytest.raises(InputError, match=f"n must be an integer, {shown}"):
        check_int(value, "n", 2)
    if not isinstance(value, list):
        with pytest.raises(InputError, match=f"n must be an integer, {shown}"):
            zeta_direct_partial(2, value)
    else:  # a Fraction is a number too large for a float
        with pytest.raises(InputError, match=f"x must be a real number, {shown}"):
            check_real(value, "x")
        with pytest.raises(InputError, match=f"expected a number, {shown}"):
            check_point(value)


def test_integers_short_enough_print_in_full():
    with pytest.raises(InputError, match=re.escape(f"got {10**99}")):
        check_int(10**99, "n", 2, 10)
