"""Admissible bases: the integers that are not perfect powers.

Every representation in this package sums over the bases r with
2 <= r <= n that cannot be written as b**k with k >= 2.  Regrouping the
remaining integers as powers of these bases is exactly what collapses the
Dirichlet series into a finite sum of geometric-series tails, so the
classification here must be exact; everything is integer arithmetic.
The arrays of log r and (-1)**(r-1) that the evaluators sum over are kept
here too, in one store.  The store holds the bases themselves only as the
perfect powers they skip, about sqrt(n) of them: the count of bases up to
n is n - 1 less the powers up to n, and each base follows from its index.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

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

# The process keeps the base data once: the perfect powers up to the
# largest n asked for (about sqrt(n) of them), and 9 bytes per base of
# float64 logs and int8 signs up to the largest n evaluated at, about
# 0.9 GB at this cap.  Arrays are built a block of integers at a time, with
# no sieve or other transient that grows with n.  Reading a set's .bases
# adds 8 bytes per base of that set, and .members several GB of Python ints.
MAX_LIMIT = 10**8

# The bases are built this many integers at a time.
_BLOCK = 2**13


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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, init=False)
class AdmissibleSet:
    """Ascending admissible bases r <= limit and their count l.

    A set is the store's view of the perfect powers up to ``limit``, so
    ``admissible_up_to`` is the only way to get one, and two sets are equal,
    and hash alike, exactly when their limits are.  ``powers`` holds those
    perfect powers as a read-only int64 array: the bases are the integers
    in [2, limit] that are not among them.  ``bases`` holds the bases as a
    read-only int64 array, built from the powers a block at a time on first
    read; ``members`` gives them as a tuple of Python ints, made anew on
    each read, so no set keeps one.
    """

    limit: int
    term_count: int = field(compare=False)

    def __init__(self, *args, **kwargs):
        raise TypeError(
            "AdmissibleSet has no public constructor; use admissible_up_to(n)"
        )

    @classmethod
    def _in_store(cls, limit: int, powers: np.ndarray) -> AdmissibleSet:
        """The set up to limit, with powers, the store's perfect powers up
        to limit."""
        aset = cls.__new__(cls)
        object.__setattr__(aset, "limit", limit)
        object.__setattr__(aset, "term_count", limit - 1 - len(powers))
        object.__setattr__(aset, "powers", powers)
        return aset

    @cached_property
    def bases(self) -> np.ndarray:
        bases = np.empty(self.term_count, dtype=np.int64)
        for i, r in _base_blocks(self.powers, self.limit):
            bases[i : i + len(r)] = r
        return _frozen(bases)

    @property
    def members(self) -> tuple[int, ...]:
        # tolist() makes the Python ints about 5x faster than int(r) per r.
        return tuple(self.bases.tolist())

    def __repr__(self):
        return (
            f"AdmissibleSet(limit={self.limit!r}, term_count={self.term_count!r},"
            f" powers={self.powers!r})"
        )


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


def _perfect_powers(n: int) -> np.ndarray:
    """The perfect powers b**k <= n with b, k >= 2, ascending, each once.

    A set of Python ints, about sqrt(n) of them: np.unique would import
    numpy.ma, which costs every process half a MiB.
    """
    powers = set()
    for k in range(2, n.bit_length()):  # 2**k <= n
        powers.update(b**k for b in range(2, _int_kth_root(n, k) + 1))
    return np.array(sorted(powers), dtype=np.int64)


def _base_blocks(powers: np.ndarray, n: int):
    """(i, r) for each block of _BLOCK integers up to n: r holds the
    admissible bases in the block as int64, and i is the index of r[0]
    among all the bases."""
    below = 0  # the powers below the block
    for a in range(2, n + 1, _BLOCK):
        b = min(a + _BLOCK, n + 1)
        above = int(np.searchsorted(powers, b))
        keep = np.ones(b - a, dtype=bool)
        keep[powers[below:above] - a] = False
        r = np.flatnonzero(keep)
        r += a
        yield a - 2 - below, r
        below = above


def _logs_and_signs(powers: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """log r as float64 and (-1)**(r-1) as int8 for the admissible bases
    r <= n, with powers the perfect powers up to n."""
    count = n - 1 - len(powers)
    logs = np.empty(count)
    signs = np.empty(count, dtype=np.int8)
    for i, r in _base_blocks(powers, n):
        # Each step is in place or a plain cast, which takes no buffer of
        # its own.
        block = logs[i : i + len(r)]
        block[:] = r
        np.log(block, out=block)
        # (-1)**(r-1): 1 for odd bases, -1 for even ones.
        r &= 1
        r *= 2
        r -= 1
        signs[i : i + len(r)] = r
    return _frozen(logs), _frozen(signs)


class _State(NamedTuple):
    limit: int
    powers: np.ndarray  # the perfect powers up to limit
    floats: tuple[np.ndarray, np.ndarray] | None  # logs and signs, once built
    float_limit: int = 1  # the n <= limit the logs and signs reach


class _PrefixStore:
    """The perfect powers up to the largest n asked for so far, with the
    log r and (-1)**(r-1) arrays every evaluator sums over, up to the
    largest n they were asked for.

    Every smaller n reads read-only prefix views of these arrays, so the
    process keeps one copy of the base data instead of one per n.  The
    store only grows: a larger n drops the arrays built at the smaller one,
    and the logs and signs are built a block at a time when asked for at an
    n they do not reach, never past that n.  Each
    state is swapped in whole, so a reader never sees arrays of two sizes,
    and one thread at a time makes a new one, so no thread drops the
    arrays another built or takes the store back to a smaller n.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        self._state = _State(1, _frozen(np.empty(0, dtype=np.int64)), None)

    def _covering(self, n: int, floats: bool = False) -> _State:
        """The state, grown to n, with its logs and signs reaching n if
        floats."""
        state = self._state
        if n > state.limit or (floats and n > state.float_limit):
            with self._lock:
                state = self._state
                if n > state.limit:
                    state = self._state = _State(n, _frozen(_perfect_powers(n)), None)
                    # The cached sets view the arrays just replaced;
                    # dropping them lets those arrays be freed.
                    admissible_up_to.cache_clear()
                if floats and n > state.float_limit:
                    powers = state.powers[: np.searchsorted(state.powers, n, "right")]
                    logs_signs = _logs_and_signs(powers, n)
                    state = self._state = state._replace(
                        floats=logs_signs, float_limit=n
                    )
        return state

    def admissible_up_to(self, n: int) -> AdmissibleSet:
        powers = self._covering(n).powers
        return AdmissibleSet._in_store(n, powers[: np.searchsorted(powers, n, "right")])

    def logs_and_signs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        state = self._covering(n, floats=True)
        count = n - 1 - int(np.searchsorted(state.powers, n, side="right"))
        return state.floats[0][:count], state.floats[1][:count]


_STORE = _PrefixStore()


def admissible_up_to(n) -> AdmissibleSet:
    """All admissible bases r with 2 <= r <= n, ascending, plus the count l.

    The set holds a read-only prefix view of the perfect powers kept at the
    largest n asked for so far, so it is cheap to make; its ``bases`` are
    built from them only when read.  This is the only way to get a set.
    The last 32 sets are cached by their checked n, so any n is checked
    before it is hashed; cache_info and cache_clear are the cache's.
    """
    return _cached_set(check_int(n, "n", 2, MAX_LIMIT))


@lru_cache(maxsize=32)
def _cached_set(n: int) -> AdmissibleSet:
    return _STORE.admissible_up_to(n)


admissible_up_to.cache_info = _cached_set.cache_info
admissible_up_to.cache_clear = _cached_set.cache_clear


def base_logs_and_signs(n) -> tuple[np.ndarray, np.ndarray]:
    """log r as float64 and (-1)**(r-1) as int8 for the admissible bases
    r <= n, as read-only prefix views of the one store.

    Callers take them per evaluation rather than keeping them, so a larger
    n can free the smaller arrays.
    """
    return _STORE.logs_and_signs(check_int(n, "n", 2, MAX_LIMIT))
