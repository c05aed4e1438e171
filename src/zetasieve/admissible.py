"""Admissible bases: the integers that are not perfect powers.

Every representation in this package sums over the bases r with
2 <= r <= n that cannot be written as b**k with k >= 2.  Regrouping the
remaining integers as powers of these bases is exactly what collapses the
Dirichlet series into a finite sum of geometric-series tails, so the
classification here must be exact; everything is integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import check_int

__all__ = [
    "PowerDecomposition",
    "AdmissibleSet",
    "decompose_power",
    "admissible_up_to",
]

# Supported integer width for decompose_power; desk-scale truncations sit far
# below this, but exactness must not silently degrade above it.
MAX_VALUE = 2**64 - 1

# Sieve-backed enumeration keeps an O(n) bool array; cap where that is sane.
MAX_LIMIT = 10**8


@dataclass(frozen=True)
class PowerDecomposition:
    """Canonical factorization value = base**exponent with maximal exponent.

    The exponent being maximal forces the base itself not to be a perfect
    power (a base b = c**j would give the larger exponent j*exponent), so
    exponent == 1 is exactly the admissibility test.
    """

    value: int
    base: int
    exponent: int


@dataclass(frozen=True)
class AdmissibleSet:
    """Ascending admissible bases r <= limit and their count l."""

    limit: int
    members: tuple[int, ...]
    term_count: int


def _int_kth_root(m: int, k: int) -> int:
    """Largest integer x with x**k <= m."""
    if k == 1:
        return m
    if k == 2:
        return math.isqrt(m)
    # The float seed can be off by one in either direction near exact powers;
    # correct it with exact integer comparisons.
    x = int(round(m ** (1.0 / k)))
    if x < 1:
        x = 1
    while x > 1 and x**k > m:
        x -= 1
    while (x + 1) ** k <= m:
        x += 1
    return x


def decompose_power(m) -> PowerDecomposition:
    """Write m as base**exponent with the maximal exponent.

    exponent == 1 iff m is admissible (not a perfect power).
    """
    m = check_int(m, "m", 2, MAX_VALUE)
    # Largest conceivable exponent is log2(m); scanning downward returns the
    # maximal one first, which also guarantees the base is not itself a power.
    for k in range(m.bit_length() - 1, 1, -1):
        b = _int_kth_root(m, k)
        if b >= 2 and b**k == m:
            return PowerDecomposition(value=m, base=b, exponent=k)
    return PowerDecomposition(value=m, base=m, exponent=1)


@lru_cache(maxsize=32)
def _power_sieve(n: int) -> np.ndarray:
    """Read-only bool array; index m is True iff m is a perfect power."""
    sieve = np.zeros(n + 1, dtype=bool)
    b = 2
    while b * b <= n:
        p = b * b
        while p <= n:
            sieve[p] = True
            p *= b
        b += 1
    sieve.setflags(write=False)
    return sieve


@lru_cache(maxsize=32)
def admissible_up_to(n) -> AdmissibleSet:
    """All admissible bases r with 2 <= r <= n, ascending, plus the count l."""
    n = check_int(n, "n", 2, MAX_LIMIT)
    sieve = _power_sieve(n)
    members = tuple(int(r) for r in np.flatnonzero(~sieve[2:]) + 2)
    return AdmissibleSet(limit=n, members=members, term_count=len(members))
