"""Admissible bases: the integers that are not perfect powers.

Every representation in this package sums over the bases r with
2 <= r <= n that cannot be written as b**k with k >= 2.  Regrouping the
remaining integers as powers of these bases is exactly what collapses the
Dirichlet series into a finite sum of geometric-series tails, so the
classification here must be exact; everything is integer arithmetic.
The float arrays of log r and (-1)**(r-1) that the evaluators sum over are
kept here too, in one store with the bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import check_int

__all__ = [
    "PowerDecomposition",
    "AdmissibleSet",
    "decompose_power",
    "admissible_up_to",
    "base_logs_and_signs",
]

# Supported integer width for decompose_power; desk-scale truncations sit far
# below this, but exactness must not silently degrade above it.
MAX_VALUE = 2**64 - 1

# The process keeps the base data once, at the largest n asked for: an int64
# array of 8 bytes per base, plus 16 bytes per base of logs and signs once
# something is evaluated there.  Growing to this cap also holds an O(n) bool
# sieve until the bases are read off it, about 0.9 GB with the bases; reading
# .members costs several GB of Python ints.
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


@dataclass(frozen=True, init=False, eq=False)
class AdmissibleSet:
    """Ascending admissible bases r <= limit and their count l.

    ``bases`` holds the bases as a read-only int64 array, which is what the
    evaluators sum over; ``members`` gives them as a tuple of Python ints,
    built on first read.  ``members`` may be given as any sequence of
    integers; a caller's writeable array is copied, never frozen in place.
    """

    limit: int
    bases: np.ndarray
    term_count: int

    def __init__(self, limit: int, members, term_count: int):
        bases = np.asarray(members, dtype=np.int64)
        if bases.flags.writeable:
            bases = bases.copy() if bases is members else bases
            bases.setflags(write=False)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "term_count", term_count)

    @cached_property
    def members(self) -> tuple[int, ...]:
        # tolist() makes the Python ints about 5x faster than int(r) per r.
        return tuple(self.bases.tolist())

    def __eq__(self, other):
        if not isinstance(other, AdmissibleSet):
            return NotImplemented
        return (
            self.limit == other.limit
            and self.term_count == other.term_count
            and np.array_equal(self.bases, other.bases)
        )

    def __hash__(self):
        return hash((self.limit, self.term_count))


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


def _power_sieve(n: int) -> np.ndarray:
    """Bool array; index m is True iff m is a perfect power."""
    sieve = np.zeros(n + 1, dtype=bool)
    b = 2
    while b * b <= n:
        p = b * b
        while p <= n:
            sieve[p] = True
            p *= b
        b += 1
    return sieve


class _PrefixStore:
    """The admissible bases up to the largest n asked for so far, with the
    log r and (-1)**(r-1) arrays every evaluator sums over.

    Every smaller n reads read-only prefix views of these arrays, so the
    process keeps one copy of the base data instead of one per n.  The
    store only grows: a larger n rebuilds the bases at that n, dropping
    the sieve once they are read off it, and the logs and signs are built
    on first use.  Each state is swapped in as one tuple, so a reader never
    sees arrays of two sizes.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        bases = np.empty(0, dtype=np.int64)
        bases.setflags(write=False)
        self._state = (1, bases, None)

    def _covering(self, n: int):
        """The state (limit, bases, logs and signs or None), grown to n."""
        state = self._state
        if n > state[0]:
            bases = np.flatnonzero(~_power_sieve(n)[2:]).astype(np.int64, copy=False)
            bases += 2
            bases.setflags(write=False)
            state = self._state = (n, bases, None)
            # The cached sets view the arrays just replaced; dropping them
            # lets those arrays be freed.
            admissible_up_to.cache_clear()
        return state

    def admissible_up_to(self, n: int) -> AdmissibleSet:
        _, bases, _ = self._covering(n)
        count = int(np.searchsorted(bases, n, side="right"))
        return AdmissibleSet(limit=n, members=bases[:count], term_count=count)

    def logs_and_signs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        limit, bases, floats = self._covering(n)
        if floats is None:
            logs = np.log(bases)
            # (-1)**(r-1): odd bases keep their sign, even bases flip.
            signs = np.where(bases % 2 == 1, 1.0, -1.0)
            logs.setflags(write=False)
            signs.setflags(write=False)
            floats = (logs, signs)
            self._state = (limit, bases, floats)
        count = int(np.searchsorted(bases, n, side="right"))
        return floats[0][:count], floats[1][:count]


_STORE = _PrefixStore()


@lru_cache(maxsize=32)
def admissible_up_to(n) -> AdmissibleSet:
    """All admissible bases r with 2 <= r <= n, ascending, plus the count l.

    ``bases`` is a read-only prefix view of one store kept at the largest n
    asked for so far, so a cached set holds no copy of its own.
    """
    return _STORE.admissible_up_to(check_int(n, "n", 2, MAX_LIMIT))


def base_logs_and_signs(n) -> tuple[np.ndarray, np.ndarray]:
    """log r and (-1)**(r-1) for the admissible bases r <= n, as read-only
    float64 prefix views of the same store as ``admissible_up_to(n).bases``.

    Callers take them per evaluation rather than keeping them, so a larger
    n can free the smaller arrays.
    """
    return _STORE.logs_and_signs(check_int(n, "n", 2, MAX_LIMIT))
