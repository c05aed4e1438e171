"""The argument checkers in errors."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve.errors import InputError, check_real


class _Float(float):
    """A float that check_real's fast path, for exact floats, does not take."""


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
