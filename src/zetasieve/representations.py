"""Evaluators for the admissible-base partial sums of zeta.

All representations share the same skeleton: a constant plus a sum over the
admissible bases r <= n of a term built from r**z.  The five concrete forms
are

    direct        1 + sum 1/(r**z - 1)
    coth          (2-l)/2 + (1/2) sum coth(z*log(r)/2)
    alternating   (1 - 2**(1-z))**(-1) * (1 + sum (-1)**(r-1)/(r**z - 1))
    alt-coth      same prefactor, constant 1 (l even) or 1/2 (l odd),
                  plus (1/2) sum (-1)**(r-1) coth(z*log(r)/2)
    bernoulli     1 + sum_{m=-1}^{M} z**m B_{m+1} P_m / (m+1)!  where
                  P_m = sum (log r)**m, valid for |z|*log(r_max) < 2*pi

The coth forms follow from 1/(e**x - 1) + 1/2 = coth(x/2)/2 term by term,
so they agree with their direct counterparts to rounding whenever the
constants match.  Every term is singular on the lattice z = 2*pi*i*k/log(r);
evaluations are gated on the distance to that lattice rather than left to
blow up, which is what the root finder relies on.

Terms are evaluated overflow-safe on both half planes: for Re(z) >= 0 use
w = r**(-z) (|w| <= 1) and 1/(r**z - 1) = w/(1 - w); for Re(z) < 0 use
v = r**z directly.  Every sum over one truncation's bases runs in blocks
of at most _LEAF terms, each computed by numpy ufuncs into a per-call
buffer, so no temporary grows with n.  numpy's pairwise sum splits an array
at a point that depends only on its length; _tree_sum walks the same tree
down to the blocks and adds their np.sum on the way back up, so a blocked
sum has the bits of np.sum over the whole array.  That sum is deterministic
and commutes with conjugation, which the conjugate-symmetry guarantee
depends on.  Above one block, a complex sum's caller walks the left half
of numpy's top split while one helper thread walks the right half, each
with buffers of its own; numpy's loops release the interpreter lock, so
the halves run on two cores, and the sum is still left + right.  Prefix
sums carry the running sum from block to block, as np.cumsum does over the
whole array, and stay on the caller's thread, since each block needs the
one before; so do the Bernoulli power sums, whose many short float
products ran slower in two halves than in one.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .admissible import MAX_LIMIT, admissible_up_to, base_logs_and_signs
from .bernoulli import DEFAULT_MAX_INDEX, bernoulli_table
from .errors import (
    ConvergenceDomainError,
    DomainError,
    InputError,
    PoleProximityError,
    SingularPrefactorError,
    check_int,
    check_point,
    check_real,
)

__all__ = [
    "TWO_PI",
    "POLE_GATE",
    "RepresentationKind",
    "EvalResult",
    "zeta_direct_partial",
    "zeta_coth_partial",
    "zeta_alt_partial",
    "zeta_alt_coth_partial",
    "zeta_bernoulli_partial",
    "remainder_bound",
    "euler_even_zeta",
    "special_value",
    "derivative_partial",
    "pole_distance",
    "nearest_pole",
]

TWO_PI = 2.0 * math.pi

# Evaluations closer than this to a term pole raise instead of returning a
# huge value; Newton, the verification contours and the sides of a search
# rectangle use the same gate.
POLE_GATE = 1e-6

# The eta prefactor is treated as singular below this magnitude.
PREFACTOR_GATE = 1e-12

# Sums over the bases run in blocks of at most this many terms; two complex
# blocks take 512 KiB, which stays in a 2 MiB L2 cache.
_LEAF = 2**14


def _leaf_length(count: int, real: bool = False) -> int:
    """The longest block _tree_sum hands a leaf over `count` elements.

    numpy adds a range of up to 128 floats (64 complex) in one unrolled
    loop without splitting it, so no leaf is cut shorter than that.
    """
    return min(count, max(_LEAF, 128 if real else 64))


def _split(count: int, real: bool) -> int:
    """Where numpy's pairwise sum splits `count` complex (or, with real,
    float64) elements: c complex at (c - c % 8) // 2, c floats at h - h % 8
    with h = c // 2."""
    if real:
        return count // 2 - count // 2 % 8
    return (count - count % 8) // 2


def _new_helper() -> None:
    global _HELPER
    _HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="zetasieve")


# The one helper thread that takes the right half of every sum longer than
# a leaf.  The executor starts its thread on the first submit, so importing
# starts none.  It only ever runs a serial walk and never submits work, so
# it cannot wait on itself; callers on many threads queue on it.  A forked
# child inherits an executor whose thread does not exist there, so the
# child builds its own.
_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _in_halves(left, right):
    """(left(), right()), right() running on the helper thread meanwhile,
    in a copy of the caller's context (so np.errstate reaches it)."""
    try:
        future = _HELPER.submit(contextvars.copy_context().run, right)
    except RuntimeError:  # the interpreter is exiting and starts no thread
        return left(), right()
    try:
        done = left()
    finally:
        other = future.result()
    return done, other


def _tree_sum(count: int, leaf, real: bool = False):
    """np.sum of a complex (or, with real, float64) array of `count`
    elements, from leaf(start, stop) = np.sum of the elements in
    [start, stop).  A leaf may return an array of such sums, one per
    array summed; they add elementwise.

    numpy's pairwise sum splits a range at a point that depends only on its
    length (_split).  This walks the same splits down to leaves of at most
    _leaf_length elements and adds left + right on the way back up, so it
    returns the bits of np.sum over the whole array.
    """
    longest = _leaf_length(count, real)

    def walk(start: int, c: int):
        if c <= longest:
            return leaf(start, start + c)
        split = _split(c, real)
        return walk(start, split) + walk(start + split, c - split)

    return walk(0, count)


def _tree_sum_in_halves(count: int, make_leaf):
    """_tree_sum of a complex array, with the two halves of the top split
    walked at once, the right one on the helper thread.  make_leaf()
    returns a fresh leaf, with buffers of its own, for each half.

    The right half's subtree is numpy's tree over its own length, so each
    half is a _tree_sum and the total is still left + right.
    """
    if count <= _leaf_length(count):
        return _tree_sum(count, make_leaf())
    split = _split(count, real=False)

    def walk_right():
        leaf = make_leaf()
        return _tree_sum(count - split, lambda i, j: leaf(split + i, split + j))

    left, right = _in_halves(lambda: _tree_sum(split, make_leaf()), walk_right)
    return left + right


class RepresentationKind(Enum):
    DIRECT = "direct"
    COTH = "coth"
    ALTERNATING = "alt"
    ALTERNATING_COTH = "alt-coth"
    BERNOULLI_SERIES = "bernoulli"


@dataclass(frozen=True)
class EvalResult:
    """Value of one representation at z, truncated at n.

    tail_bound is present exactly when Re(z) > 1 (the only region where the
    closed-form remainder bound applies).
    """

    value: complex
    truncation: int
    term_count: int
    tail_bound: float | None


def _base_data(n):
    """(bases, logs, signs) of the admissible set at n: read-only int64
    bases and float64 log r and (-1)**(r-1), each a prefix view of the one
    store kept at the largest n asked for."""
    return (admissible_up_to(n).bases, *base_logs_and_signs(n))


def nearest_pole(z, n) -> tuple[float, int, int]:
    """(distance, base, lattice index) of the closest term pole.

    Poles sit at z = 2*pi*i*k/log(r) for each admissible r <= n and integer
    k; k = 0 is the pole at the origin shared by every term.
    """
    z = check_point(z)
    bases, logs, _ = _base_data(n)
    count = len(logs)
    length = _leaf_length(count)

    def scan(start: int, stop: int) -> tuple[float, int, int]:
        spacing, k, dist = (np.empty(length) for _ in range(3))
        best = (math.inf, 0, 0)
        for lo in range(start, stop, length):
            hi = min(lo + length, stop)
            s, kb, d = (a[: hi - lo] for a in (spacing, k, dist))
            np.divide(TWO_PI, logs[lo:hi], out=s)
            np.rint(np.divide(z.imag, s, out=kb), out=kb)
            np.subtract(z.imag, np.multiply(kb, s, out=d), out=d)
            np.hypot(z.real, d, out=d)
            i = int(np.argmin(d))
            # Strict <, so the first minimum wins, as np.argmin's does.
            if d[i] < best[0]:
                best = (float(d[i]), int(bases[lo + i]), int(kb[i]))
        return best

    if count <= length:
        return scan(0, count)
    split = _split(count, real=False)
    left, right = _in_halves(lambda: scan(0, split), lambda: scan(split, count))
    # The left half wins ties, as above.
    return right if right[0] < left[0] else left


def pole_distance(z, n) -> float:
    """Distance from z to the nearest pole of any term with base r <= n."""
    return nearest_pole(z, n)[0]


def pole_gate(z: complex, n) -> None:
    """Raise PoleProximityError when z lies within POLE_GATE of a term pole.

    Every pole lies on Re z = 0, so |Re z| > POLE_GATE clears them all
    without scanning the lattice; only points in the strip pay for the scan.
    """
    if abs(z.real) > POLE_GATE:
        return
    dist, base, k = nearest_pole(z, n)
    if dist <= POLE_GATE:
        raise PoleProximityError(z, base, k, dist)


def _kernel(z: complex, logs, out, spare, squares=None):
    """1/(r**z - 1) per base into out or, given a third buffer squares, the
    derivative's r**z/(r**z - 1)**2; spare is a second buffer of the same
    length."""
    derivative = squares is not None
    if z.real >= 0.0:
        num = np.exp(np.multiply(-z, logs, out=out), out=out)
        den = np.subtract(1.0, num, out=spare)
    else:
        v = np.exp(np.multiply(z, logs, out=out), out=out)
        num = v if derivative else 1.0
        den = np.subtract(v, 1.0, out=spare)
    if derivative:
        # den**2 on an array; not in place, where one element rounds
        # differently.
        den = np.square(den, out=squares)
    return np.divide(num, den, out=out)


_ALTERNATING = (
    RepresentationKind.ALTERNATING,
    RepresentationKind.ALTERNATING_COTH,
)
_COTH = (RepresentationKind.COTH, RepresentationKind.ALTERNATING_COTH)
_TERM_SUM_KINDS = (RepresentationKind.DIRECT, *_COTH, *_ALTERNATING)


def _terms(kind, z: complex, logs, signs, out, spare):
    """The kind's per-base terms, s_r/(r**z - 1) or s_r*coth(z*log(r)/2),
    into out; spare is a second buffer of the same length."""
    if kind in _COTH:
        t = np.tanh(np.multiply(0.5 * z, logs, out=out), out=out)
        np.divide(1.0, t, out=t)
    else:
        t = _kernel(z, logs, out, spare)
    return np.multiply(t, signs, out=t) if kind in _ALTERNATING else t


def _term_sum(kind, z: complex, logs, signs) -> complex:
    """The sum of the kind's terms over the bases, block by block."""

    def make_leaf():
        length = _leaf_length(len(logs))
        out, spare = (np.empty(length, complex) for _ in range(2))

        def leaf(start, stop):
            k = stop - start
            return _terms(
                kind, z, logs[start:stop], signs[start:stop], out[:k], spare[:k]
            ).sum()

        return leaf

    return complex(_tree_sum_in_halves(len(logs), make_leaf))


def _prefix_sums(kind, z: complex, logs, signs, counts) -> list[complex]:
    """np.cumsum of the kind's terms read at count - 1, for each count.

    Block by block: each block's first term takes the previous block's last
    partial sum before the block's own np.cumsum, which is the running sum
    np.cumsum takes over the whole array.  Blocks past the largest count
    are never built.
    """
    ends = np.asarray(counts, dtype=np.int64) - 1
    order = np.argsort(ends)
    ends_sorted = ends[order]
    values = np.empty(len(ends), complex)
    total = int(ends_sorted[-1]) + 1 if len(ends) else 0
    length = _leaf_length(total)
    out, spare = (np.empty(length, complex) for _ in range(2))
    for start in range(0, total, length):
        stop = min(start + length, total)
        k = stop - start
        t = _terms(
            kind, z, logs[start:stop], signs[start:stop], out[:k], spare[:k]
        )
        if start:
            t[0] += carry
        np.cumsum(t, out=t)
        carry = t[-1]
        lo, hi = np.searchsorted(ends_sorted, (start, stop)).tolist()
        values[order[lo:hi]] = t[ends_sorted[lo:hi] - start]
    return values.tolist()


def _value(kind, acc: complex, l: int, p: complex) -> complex:
    """The kind's constant and prefactor applied to its term sum acc."""
    if kind is RepresentationKind.DIRECT:
        return 1.0 + acc
    if kind is RepresentationKind.COTH:
        return (2.0 - l) / 2.0 + 0.5 * acc
    if kind is RepresentationKind.ALTERNATING:
        return (1.0 + acc) / p
    constant = 1.0 if l % 2 == 0 else 0.5
    return (constant + 0.5 * acc) / p


def _eta_prefactor(z: complex) -> complex:
    """1 - 2**(1-z), validated away from z = 1 and the rest of its zeros."""
    if z.real <= 0.0:
        raise DomainError(
            f"alternating representations require Re(z) > 0, got {z}"
        )
    p = 1.0 - 2.0 ** (1.0 - z)
    if abs(p) < PREFACTOR_GATE:
        raise SingularPrefactorError(
            f"1 - 2**(1-z) = {p} at z = {z} is below the gate"
            f" {PREFACTOR_GATE}; z sits on (or at a lattice image of) the"
            " eta-factor zero at z = 1"
        )
    return p


def _prepare(kind, z, n):
    """Check the point, n, the prefactor (1.0 for plain kinds) and the pole
    gate, in that order; (z, bases, logs, signs, prefactor)."""
    z = check_point(z)
    bases, logs, signs = _base_data(n)
    p = _eta_prefactor(z) if kind in _ALTERNATING else 1.0
    pole_gate(z, n)
    return z, bases, logs, signs, p


def remainder_bound(n, sigma) -> float:
    """n**(1-sigma)/(sigma-1), an upper bound for sum_{m>n} m**(-sigma).

    Integral-test bound; it dominates the true truncation error of the
    direct form because every skipped integer exceeds n.
    """
    n = check_int(n, "n", 1)
    sigma = check_real(sigma, "sigma")
    if sigma <= 1.0:
        raise DomainError(f"remainder bound needs sigma > 1, got {sigma}")
    return float(n) ** (1.0 - sigma) / (sigma - 1.0)


def _tail_or_none(z: complex, n: int, scale: float = 1.0) -> float | None:
    if z.real > 1.0:
        return remainder_bound(n, z.real) * scale
    return None


def _evaluate(kind, z, n) -> EvalResult:
    """A term-sum form at one truncation: checks, kernel, constant, tail."""
    z, _, logs, signs, p = _prepare(kind, z, n)
    l = len(logs)
    value = _value(kind, _term_sum(kind, z, logs, signs), l, p)
    tail = _tail_or_none(z, int(n), 1.0 / abs(p))
    return EvalResult(value, int(n), l, tail)


def partial_sum_table(kind, z, n_max, ns, M=None) -> list[EvalResult]:
    """A form at every truncation in ns, from one pass over the bases up to
    n_max.  Every n in ns must lie in [2, n_max].

    The term-sum forms run the checks and the pole gate once, at n_max;
    each row then reads its prefix of np.cumsum over the terms, built block
    by block up to the largest row.
    The Bernoulli form of order M runs its disk test and pole gate row by
    row, as its evaluator would, and reads each row's power sums off rows
    built once at n_max, so every row equals zeta_bernoulli_partial at its
    n exactly.  M is read by the Bernoulli form only.
    """
    if kind is RepresentationKind.BERNOULLI_SERIES:
        return _bernoulli_table(z, n_max, ns, M)
    if kind not in _TERM_SUM_KINDS:
        raise InputError(f"no cumulative form for {kind!r}")
    z, bases, logs, signs, p = _prepare(kind, z, n_max)
    ns = [check_int(n, "truncation", 2, n_max) for n in ns]
    counts = np.searchsorted(bases, ns, "right").tolist()
    partial = _prefix_sums(kind, z, logs, signs, counts)
    rows = []
    for n, count, acc in zip(ns, counts, partial):
        value = _value(kind, acc, count, p)
        tail = _tail_or_none(z, n, 1.0 / abs(p))
        rows.append(EvalResult(value, n, count, tail))
    return rows


def _bernoulli_table(z, n_max, ns, M) -> list[EvalResult]:
    z = check_point(z)
    M = check_int(M, "M", 0)
    bases, logs, _ = _base_data(n_max)
    ns = [check_int(n, "truncation", 2, n_max) for n in ns]
    counts = np.searchsorted(bases, ns, "right").tolist()
    coeffs = ()  # stays empty only when there are no rows to sum
    for n, count in zip(ns, counts):
        _bernoulli_checks(z, n, bases[:count], logs[:count])
        # Refuses an M out of range after the first row's checks, as the
        # evaluator would; later rows read the cached coefficients.
        coeffs = _laurent_coefficients(M)
    return [
        EvalResult(_bernoulli_value(z, poly), n, count, _tail_or_none(z, n))
        for n, count, poly in zip(ns, counts, _power_sums(logs, counts, coeffs))
    ]


def zeta_direct_partial(z, n) -> EvalResult:
    """1 + sum over admissible r <= n of 1/(r**z - 1)."""
    return _evaluate(RepresentationKind.DIRECT, z, n)


def zeta_coth_partial(z, n) -> EvalResult:
    """(2-l)/2 + (1/2) sum coth(z*log(r)/2); identical to the direct form."""
    return _evaluate(RepresentationKind.COTH, z, n)


def zeta_alt_partial(z, n) -> EvalResult:
    """Eta-accelerated form: (1-2**(1-z))**(-1) (1 + sum (-1)**(r-1)/(r**z-1)).

    The tail bound carries the prefactor: the skipped eta terms all have
    index > n, so their sum is bounded by the same integral bound, divided
    by |1 - 2**(1-z)|.
    """
    return _evaluate(RepresentationKind.ALTERNATING, z, n)


def zeta_alt_coth_partial(z, n) -> EvalResult:
    """Alternating coth form with the printed branch constant.

    The constant is 1 when the term count l is even and 1/2 when l is odd.
    (The branch rule matches the plain alternating form exactly when the
    parity balance of the admissible set cooperates, which it does at every
    truncation this package pins in its fixtures; see the tests.)
    """
    return _evaluate(RepresentationKind.ALTERNATING_COTH, z, n)


def zeta_bernoulli_partial(z, n, M) -> EvalResult:
    """Laurent/Bernoulli series: 1 + sum_{m=-1}^{M} z**m B_{m+1} P_m/(m+1)!.

    P_m = sum (log r)**m over the admissible bases (P_{-1} sums 1/log r).
    Valid on |z|*log(r_max) < 2*pi, the common convergence disk of the
    per-term Laurent expansions; outside it the series diverges and the
    call is rejected with the disk radius in the message.

    The power sums depend on n alone, so the series is 1 + P_{-1}/z plus a
    polynomial in z: its real coefficients are built once per (n, M) and
    cached, and each call evaluates it by Horner's rule.
    """
    z = check_point(z)
    M = check_int(M, "M", 0)
    n = check_int(n, "n", 2, MAX_LIMIT)
    bases, logs, _ = _base_data(n)
    _bernoulli_checks(z, n, bases, logs)
    value = _bernoulli_value(z, _bernoulli_polynomial(n, M))
    return EvalResult(value, n, len(logs), _tail_or_none(z, n))


def _bernoulli_checks(z: complex, n: int, bases, logs) -> None:
    """The Bernoulli form's disk test, then its pole gate, at n."""
    log_max = float(logs[-1])
    if abs(z) * log_max >= TWO_PI:
        raise ConvergenceDomainError(z, TWO_PI / log_max, int(bases[-1]))
    pole_gate(z, n)


@lru_cache(maxsize=32)
def _laurent_coefficients(M: int) -> tuple[float, ...]:
    """B_{m+1}/(m+1)! for m = 0..M, each floated once from the exact rational."""
    table = bernoulli_table(M + 1)
    return tuple(
        float(table[m + 1] / math.factorial(m + 1)) for m in range(M + 1)
    )


@lru_cache(maxsize=32)
def _bernoulli_polynomial(n: int, M: int) -> tuple[float, ...]:
    """(P_{-1}, c_0 P_0, ..., c_M P_M) at the checked n and M.

    One walk over the bases in blocks sums every order at once.  Each leaf
    builds its block's powers as _power_sums builds them on the whole row,
    so every P_m has the bits of _power_sums' pairwise sum.
    """
    _, logs, _ = _base_data(n)
    coeffs = _laurent_coefficients(M)
    length = _leaf_length(len(logs), real=True)
    buffers = (np.empty(length), np.empty(length))

    def leaf(start, stop):
        block = logs[start:stop]
        scratch = [b[: stop - start] for b in buffers]
        sums = np.zeros(len(coeffs) + 1)  # sums[m + 1] is P_m; P_0 unused
        sums[0] = np.divide(1.0, block, out=scratch[0]).sum()
        power = block
        for m in range(1, len(coeffs)):
            if m > 1:  # never in place: each product into the other buffer
                power = np.multiply(power, block, out=scratch[m % 2])
            if coeffs[m] != 0.0:
                sums[m + 1] = power.sum()
        return sums

    sums = _tree_sum(len(logs), leaf, real=True).tolist()
    return (
        sums[0],
        coeffs[0] * len(logs),
        *(c * s if c != 0.0 else 0.0 for c, s in zip(coeffs[1:], sums[2:])),
    )


def _power_sums(logs, counts, coeffs) -> list[tuple[float, ...]]:
    """(P_{-1}, c_0 P_0, ..., c_M P_M) over the first `count` bases, for
    each count in counts; c_m = coeffs[m] and P_0 = count.

    Each P_m is one pairwise sum over a prefix slice of a row built
    elementwise, and such a slice sums exactly as a fresh array of its
    length would: a table row read at n equals the evaluator at n.
    """
    inverse = 1.0 / logs
    columns = [
        [float(inverse[:count].sum()) for count in counts],
        [coeffs[0] * count for count in counts],
    ]
    power = logs
    for m in range(1, len(coeffs)):
        if m > 1:
            power = power * logs  # at most log(MAX_LIMIT)**199 ~ 1e252
        c = coeffs[m]
        columns.append(
            [c * float(power[:count].sum()) for count in counts]
            if c != 0.0
            else [0.0] * len(counts)
        )
    return list(zip(*columns))


def _bernoulli_value(z: complex, poly) -> complex:
    """1 + P_{-1}/z + sum_m a_m z**m by Horner, from poly = (P_{-1}, a_0, ...).

    Real coefficients keep the value exactly conjugate-symmetric in z.
    """
    acc = 0j
    for a in reversed(poly[1:]):
        acc = acc * z + a
    return 1.0 + poly[0] / z + acc


def euler_even_zeta(m, *, maximum: int = DEFAULT_MAX_INDEX) -> float:
    """Euler's closed form zeta(2m) = (-1)**(m+1) B_{2m} (2*pi)**(2m) / (2*(2m)!)."""
    maximum = check_int(maximum, "maximum", 0)
    m = check_int(m, "m", 1, maximum // 2)
    b = bernoulli_table(2 * m, maximum=maximum)[2 * m]
    rational = (-1) ** (m + 1) * b / (2 * math.factorial(2 * m))
    return float(rational) * TWO_PI ** (2 * m)


_SPECIAL_KINDS = {
    "any": lambda m: m,
    "even": lambda m: 2 * m,
    "odd": lambda m: 2 * m + 1,
}


def special_value(kind, m, n) -> EvalResult:
    """Direct partial sum at the integer argument m, 2m, or 2m+1 (>= 2)."""
    if kind not in _SPECIAL_KINDS:
        raise InputError(
            f"kind must be one of {sorted(_SPECIAL_KINDS)}, got {kind!r}"
        )
    m = check_int(m, "m", 2 if kind == "any" else 1)
    return zeta_direct_partial(complex(_SPECIAL_KINDS[kind](m)), n)


def derivative_partial(kind, z, n) -> complex:
    """d/dz of the direct partial sum or of the alternating numerator.

    Each term differentiates to -log(r) * r**z / (r**z - 1)**2, carrying
    the representation's sign; the alternating variant differentiates the
    numerator only (the constant-plus-sum part, without the eta prefactor),
    which is the function whose zeros the root finder hunts.
    """
    if kind is RepresentationKind.DIRECT:
        use_signs = False
    elif kind is RepresentationKind.ALTERNATING:
        use_signs = True
    else:
        raise InputError(
            "derivative_partial supports DIRECT and ALTERNATING kinds,"
            f" got {kind!r}"
        )
    z = check_point(z)
    _, logs, signs = _base_data(n)
    pole_gate(z, n)

    def make_leaf():
        length = _leaf_length(len(logs))
        out, spare, squares = (np.empty(length, complex) for _ in range(3))

        def leaf(start, stop):
            k = stop - start
            block = logs[start:stop]
            terms = _kernel(z, block, out[:k], spare[:k], squares[:k])
            if use_signs:
                # spare is free once _kernel has squared into squares.
                block = np.multiply(block, signs[start:stop], out=spare[:k].real)
            return np.multiply(block, terms, out=terms).sum()

        return leaf

    return complex(-_tree_sum_in_halves(len(logs), make_leaf))
