"""Exact Bernoulli numbers.

Sign convention B_1 = -1/2, forced by the Laurent expansion of 1/(e**x - 1)
that the series representation is built on.  Values are exact rationals;
float conversion is a separate, explicit step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import check_int

__all__ = ["BernoulliTable", "bernoulli_table", "DEFAULT_MAX_INDEX"]

DEFAULT_MAX_INDEX = 200


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable table of B_0 .. B_max_index as exact rationals."""

    max_index: int
    values: tuple[Fraction, ...]

    def __getitem__(self, index: int) -> Fraction:
        return self.values[check_int(index, "Bernoulli index", 0, self.max_index)]

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def bernoulli_table(max_index, *, maximum: int = DEFAULT_MAX_INDEX) -> BernoulliTable:
    """B_0 .. B_max_index via the binomial recurrence, exactly.

    sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1, solved for B_m.  With exact
    rationals the recurrence is stable (no cancellation concern applies to
    Fraction arithmetic).
    """
    max_index = check_int(max_index, "max_index", 0, maximum)
    values = [Fraction(1)]
    for m in range(1, max_index + 1):
        acc = Fraction(0)
        for j in range(m):
            if values[j]:
                acc += comb(m + 1, j) * values[j]
        values.append(-acc / (m + 1))
    return BernoulliTable(max_index=max_index, values=tuple(values))
