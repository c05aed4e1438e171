"""The argument checkers in errors."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve.errors import MAX_HEIGHT, InputError, check_point, check_real


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
