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
of at most _LEAF terms, each computed by numpy ufuncs into buffers that a
leaf factory makes per call and that are freed on return, so no temporary
grows with n.  numpy's pairwise sum splits an array at a point that depends
only on its length; _tree_sum, the one walker over the bases, walks the
same tree down to the blocks and adds their np.sum on the way back up (the
nearest pole takes the first minimum instead), so a blocked sum has the
bits of np.sum over the whole array.  That sum is deterministic and
commutes with conjugation, which the conjugate-symmetry guarantee depends
on.  Work above one block is shared with one helper thread through
_in_order: the caller takes the first job and any other job nobody has
started, so it waits only for a job the helper is running, never for the
helper to wake.  A complex sum hands it the two halves of numpy's top
split, each walked with a leaf of its own, and the sum is still
left + right.  The prefix sums, np.cumsum over the whole array taken
block by block, hand it the terms of successive blocks, which need no
running sum, and the caller alone carries the running sum through them in
block order.  numpy's loops release the interpreter lock, so both run on
two cores.  The Bernoulli power sums, whose many short float products ran
slower in two halves than in one, stay on the caller's thread.
"""

from __future__ import annotations

import contextvars
import math
import operator
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from queue import SimpleQueue

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

# _in_order starts no job this many places or more past the one its caller
# waits for, so the prefix sums' blocks need only this many buffer pairs.
_AHEAD = 3


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


class _Jobs:
    """Jobs 0..k-1 shared by their caller and the helper thread.

    Whoever is free claims the next job nobody has started (the caller
    starts with job 0); the helper runs its jobs in a copy of the caller's
    context and leaves each result, or the exception it raised, in done.
    No job is claimed _AHEAD or more places past the one the caller is
    waiting for, so a caller that reuses _AHEAD sets of buffers, job j
    using set j % _AHEAD, never has two running jobs on one set.
    """

    def __init__(self, jobs):
        self.jobs = jobs
        self.context = contextvars.copy_context()
        self.lock = threading.Lock()
        self.done = [None] * len(jobs)  # (raised, value) of a job run ahead
        self.running = [None] * len(jobs)  # locked while the helper runs it
        self.next = 1
        self.wanted = 0
        self.parked = False  # the helper left at the window; offer it again

    def claim(self, helper: bool):
        """(j, job) for the next job nobody has started, or None."""
        with self.lock:
            j = self.next
            if j >= len(self.jobs) or j >= self.wanted + _AHEAD:
                if helper:
                    self.parked = j < len(self.jobs)
                return None
            self.next = j + 1
            if helper:
                self.running[j] = threading.Lock()
                self.running[j].acquire()
            return j, self.jobs[j]

    def help(self) -> None:
        """The helper's side: run jobs until none is left to start."""
        while (claimed := self.claim(helper=True)) is not None:
            j, job = claimed
            try:
                self.done[j] = False, self.context.run(job)
            except BaseException as exc:  # raised again on the caller
                self.done[j] = True, exc
            self.running[j].release()

    def result(self, i: int):
        """Job i's result, to the caller that took every job before it."""
        with self.lock:
            self.wanted = i
            parked, self.parked = self.parked, False
        if parked:
            _HELPER.offer(self)
        # Run jobs nobody has started until job i is done or running on the
        # helper and the window holds no other.
        while self.done[i] is None and (claimed := self.claim(helper=False)):
            j, job = claimed
            if j == i:
                return job()
            try:
                self.done[j] = False, job()
            except Exception as exc:  # raised in its turn
                self.done[j] = True, exc
        if self.running[i] is not None:
            with self.running[i]:  # wait for the helper to finish job i
                pass
        (raised, value), self.done[i] = self.done[i], None
        if raised:
            raise value
        return value

    def close(self) -> None:
        """Start no more jobs and drop them."""
        with self.lock:
            self.jobs = ()


class _Helper:
    """The one helper thread, which runs the jobs offered to it.  Its
    daemon thread starts on the first offer, so importing starts none; it
    never offers work itself, so it cannot wait on itself."""

    def __init__(self):
        self.offers = SimpleQueue()
        self.lock = threading.Lock()
        self.thread = None

    def offer(self, jobs: _Jobs) -> None:
        if self.thread is None:
            with self.lock:
                if self.thread is None:
                    thread = threading.Thread(
                        target=self.serve, name="zetasieve-helper", daemon=True
                    )
                    try:
                        thread.start()
                    except RuntimeError:  # at interpreter exit: no helper
                        return
                    self.thread = thread
        self.offers.put(jobs)

    def serve(self) -> None:
        while True:
            self.offers.get().help()


def _new_helper() -> None:
    global _HELPER
    _HELPER = _Helper()


# A forked child inherits a helper whose thread does not exist there, so
# the child builds its own.
_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def _in_order(jobs):
    """Yield job() for each of jobs, in order, on the caller's thread.

    Meanwhile the helper thread runs jobs nobody has started, in a copy of
    the caller's context (so np.errstate reaches it).  The caller runs any
    job it needs that nobody has started, so it waits only for a job the
    helper is running: a helper that is busy with another caller, slow to
    wake or gone at interpreter exit holds nobody up.  A job that raises
    raises on the caller in its turn.
    """
    if len(jobs) < 2:
        yield from (job() for job in jobs)
        return
    shared = _Jobs(jobs)
    _HELPER.offer(shared)
    try:
        yield jobs[0]()
        for i in range(1, len(jobs)):
            yield shared.result(i)
    finally:
        shared.close()


def _tree_sum(count: int, make_leaf, real: bool = False, combine=operator.add):
    """np.sum of a complex (or, with real, float64) array of `count`
    elements, from leaves: make_leaf(length) returns a leaf with buffers of
    its own for blocks of up to `length` elements, and leaf(start, stop)
    returns np.sum of [start, stop), or an array of such sums that add
    elementwise.  combine, if given, merges leaf results in place of +.

    numpy's pairwise sum splits a range at a point that depends only on its
    length (_split).  This walks the same splits down to leaves of at most
    _leaf_length elements and combines left and right on the way back up,
    so it returns the bits of np.sum over the whole array.  Above one leaf,
    the two halves of a complex sum's top split go to _in_order, so the
    helper thread may walk the right half; that subtree is numpy's tree
    over its own length.  Each leaf is passed
    down, not captured by the recursive walk, so no reference cycle keeps
    its buffers after the call.
    """
    longest = _leaf_length(count, real)

    def walk(leaf, start: int, c: int):
        if c <= longest:
            return leaf(start, start + c)
        split = _split(c, real)
        return combine(
            walk(leaf, start, split), walk(leaf, start + split, c - split)
        )

    if real or count <= longest:
        return walk(make_leaf(longest), 0, count)
    split = _split(count, real)
    left, right = _in_order(
        (
            lambda: walk(make_leaf(longest), 0, split),
            lambda: walk(make_leaf(longest), split, count - split),
        )
    )
    return combine(left, right)


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
    """(powers, logs, signs) at n: the perfect powers up to n as int64,
    from which the count and every base follow (_counts, _base_at), and the
    float64 log r and int8 (-1)**(r-1) of the admissible bases r <= n, each
    a read-only prefix view of the one store kept at the largest n asked
    for.  The int64 bases themselves are never built here."""
    return (admissible_up_to(n).powers, *base_logs_and_signs(n))


def _counts(powers, ns) -> list[int]:
    """The number of admissible bases up to each n in ns, from the perfect
    powers up to the largest of them."""
    ns = np.asarray(ns, dtype=np.int64)
    return (ns - 1 - np.searchsorted(powers, ns, "right")).tolist()


def _base_at(powers, i: int) -> int:
    """The admissible base at index i, from the perfect powers up to it.

    The j-th power lies below the base exactly when the powers[j] - 2 - j
    bases below that power number at most i, so the base is i + 2 plus
    the count of j with powers[j] - j <= i + 2.
    """
    shifted = powers - np.arange(len(powers))
    return i + 2 + int(np.searchsorted(shifted, i + 2, "right"))


def nearest_pole(z, n) -> tuple[float, int, int]:
    """(distance, base, lattice index) of the closest term pole.

    Poles sit at z = 2*pi*i*k/log(r) for each admissible r <= n and integer
    k; k = 0 is the pole at the origin shared by every term.
    """
    z = check_point(z)
    powers, logs, _ = _base_data(n)

    def make_leaf(length):
        spacing, k, dist = (np.empty(length) for _ in range(3))

        def leaf(start: int, stop: int) -> tuple[float, int | None, int]:
            """(distance, base index, lattice index) of the block's nearest
            pole."""
            s, kb, d = (a[: stop - start] for a in (spacing, k, dist))
            np.divide(TWO_PI, logs[start:stop], out=s)
            np.rint(np.divide(z.imag, s, out=kb), out=kb)
            np.subtract(z.imag, np.multiply(kb, s, out=d), out=d)
            np.hypot(z.real, d, out=d)
            i = int(np.argmin(d))
            if not d[i] < math.inf:  # Im z / s overflowed: no finite k
                return math.inf, None, 0
            return float(d[i]), start + i, int(kb[i])

        return leaf

    # The left side wins ties, as the first minimum does in np.argmin.
    nearer = lambda a, b: b if b[0] < a[0] else a
    dist, i, k = _tree_sum(len(logs), make_leaf, combine=nearer)
    return dist, 0 if i is None else _base_at(powers, i), k


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


def check_height(z: complex, n, log_max: float, what) -> None:
    """Refuse the points w with |Re w| <= |Re z| and |Im w| <= |Im z|,
    named by what(), when Re z is not finite or Im z * log_max overflows,
    log_max being the log of the largest base r <= n.  There the imaginary
    part of w * log r is not finite and every term built from it is nan; a
    real part that overflows only sends r**w to 0 or infinity.
    """
    if not (math.isfinite(z.real) and math.isfinite(z.imag * log_max)):
        raise InputError(
            f"{what()} is out of range for n = {n}: z * log r overflows there"
            " for the largest base r <= n"
        )


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


def _buffers(kind, length: int, derivative: bool = False) -> list[np.ndarray]:
    """_terms' buffers for blocks of up to `length` bases: out, then spare
    unless the kind is a coth kind, which writes none, then squares for a
    derivative."""
    count = 1 if kind in _COTH else 2 + derivative
    return [np.empty(length, complex) for _ in range(count)]


def _terms(kind, z: complex, logs, signs, out, spare=None, squares=None):
    """The kind's per-base terms, s_r/(r**z - 1) or s_r*coth(z*log(r)/2),
    into out or, given a third buffer squares, the derivative's
    s_r*log(r)*r**z/(r**z - 1)**2; spare is a second buffer of the same
    length, which the coth kinds do not use.  The int8 signs enter each
    product as exactly +-1."""
    if kind in _COTH:
        t = np.tanh(np.multiply(0.5 * z, logs, out=out), out=out)
        np.divide(1.0, t, out=t)
    else:
        t = _kernel(z, logs, out, spare, squares)
    if squares is None:
        return np.multiply(t, signs, out=t) if kind in _ALTERNATING else t
    if kind in _ALTERNATING:  # spare is free once _kernel squared into squares
        logs = np.multiply(logs, signs, out=spare.real)
    return np.multiply(logs, t, out=t)


def _term_sum(kind, z: complex, logs, signs, derivative=False) -> complex:
    """The sum of the kind's terms, or of their derivative's, over the
    bases, block by block."""

    def make_leaf(length):
        buffers = _buffers(kind, length, derivative)

        def leaf(i, j):
            views = (b[: j - i] for b in buffers)
            return _terms(kind, z, logs[i:j], signs[i:j], *views).sum()

        return leaf

    return complex(_tree_sum(len(logs), make_leaf))


def _prefix_sums(kind, z: complex, logs, signs, counts) -> list[complex]:
    """np.cumsum of the kind's terms read at count - 1, for each count.

    Block by block: each block's first term takes the previous block's last
    partial sum before the block's own np.cumsum, which is the running sum
    np.cumsum takes over the whole array.  Only that carry needs the block
    before, so the caller and the helper compute the terms of successive
    blocks, each into one of _AHEAD sets of buffers, while the caller alone
    carries the running sum through them in order.  Blocks past the
    largest count are never built.
    """
    ends = np.asarray(counts, dtype=np.int64) - 1
    order = np.argsort(ends)
    ends_sorted = ends[order]
    values = np.empty(len(ends), complex)
    total = int(ends_sorted[-1]) + 1 if len(ends) else 0
    length = _leaf_length(total)
    starts = range(0, total, length)
    sets = [_buffers(kind, length) for _ in starts[:_AHEAD]]

    def block(start: int):
        stop = min(start + length, total)
        views = (b[: stop - start] for b in sets[start // length % _AHEAD])
        return _terms(kind, z, logs[start:stop], signs[start:stop], *views)

    for start, t in zip(starts, _in_order([partial(block, s) for s in starts])):
        if start:
            t[0] += carry
        np.cumsum(t, out=t)
        carry = t[-1]
        lo, hi = np.searchsorted(ends_sorted, (start, start + len(t))).tolist()
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
    """Check the point, n, its height, the prefactor (1.0 for plain kinds)
    and the pole gate, in that order; (z, powers, logs, signs, prefactor)."""
    z, powers, logs, signs = _checked_point(z, n)
    p = _eta_prefactor(z) if kind in _ALTERNATING else 1.0
    pole_gate(z, n)
    return z, powers, logs, signs, p


def _checked_point(z, n):
    """The point, checked as a number and for its height at n, with the
    base data at n: (z, powers, logs, signs)."""
    z = check_point(z)
    powers, logs, signs = _base_data(n)
    check_height(z, n, float(logs[-1]), lambda: f"z = {z}")
    return z, powers, logs, signs


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
    built once up to the largest row, so every row equals
    zeta_bernoulli_partial at its n exactly.  M is read by the Bernoulli
    form only.
    """
    if kind is RepresentationKind.BERNOULLI_SERIES:
        return _bernoulli_table(z, n_max, ns, M)
    if kind not in _TERM_SUM_KINDS:
        raise InputError(f"no cumulative form for {kind!r}")
    z, powers, logs, signs, p = _prepare(kind, z, n_max)
    ns = [check_int(n, "truncation", 2, n_max) for n in ns]
    counts = _counts(powers, ns)
    partial = _prefix_sums(kind, z, logs, signs, counts)
    sigma, scale = z.real, 1.0 / abs(p)
    rows = []
    for n, count, acc in zip(ns, counts, partial):
        tail = None
        if sigma > 1.0:  # remainder_bound(n, sigma) * scale, checked above
            tail = float(n) ** (1.0 - sigma) / (sigma - 1.0) * scale
        rows.append(EvalResult(_value(kind, acc, count, p), n, count, tail))
    return rows


def _bernoulli_table(z, n_max, ns, M) -> list[EvalResult]:
    z = check_point(z)
    M = check_int(M, "M", 0)
    powers, logs, _ = _base_data(n_max)
    ns = [check_int(n, "truncation", 2, n_max) for n in ns]
    counts = _counts(powers, ns)
    coeffs = ()  # stays empty only when there are no rows to sum
    for n, count in zip(ns, counts):
        _bernoulli_checks(z, n, powers, logs[:count])
        # Refuses an M out of range after the first row's checks, as the
        # evaluator would; later rows read the cached coefficients.
        coeffs = _laurent_coefficients(M)
    top = max(counts, default=0)
    sums = _power_sums(logs[:top], counts, coeffs, np.empty((2, top)))
    return [
        EvalResult(_bernoulli_value(z, poly), n, count, _tail_or_none(z, n))
        for n, count, poly in zip(ns, counts, _polynomials(sums, counts, coeffs))
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
    Term by term the plain alternating form regroups to the constant
    1 - s/2 instead, with s the number of odd members minus the number of
    even ones, and the two constants agree only when s is 0 or 1.  At any
    other truncation, n = 2 the first, this form differs from
    zeta_alt_partial by |s - l mod 2|/2 over |1 - 2**(1-z)|: at z = 1.3+7i,
    at 1326 of n = 2..3000.  See the README's note on the alt-coth branch
    constant.
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
    powers, logs, _ = _base_data(n)
    _bernoulli_checks(z, n, powers, logs)
    value = _bernoulli_value(z, _bernoulli_polynomial(n, M))
    return EvalResult(value, n, len(logs), _tail_or_none(z, n))


def _bernoulli_checks(z: complex, n: int, powers, logs) -> None:
    """The Bernoulli form's disk test, then its pole gate, at n, where logs
    are the bases' up to n and powers the perfect powers up to n or
    beyond."""
    log_max = float(logs[-1])
    if abs(z) * log_max >= TWO_PI:
        base = _base_at(powers, len(logs) - 1)
        raise ConvergenceDomainError(z, TWO_PI / log_max, base)
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

    One walk over the bases in blocks sums every order at once; each leaf
    is one block's _power_sums, so every P_m has the bits of the pairwise
    sum over the whole row.
    """
    _, logs, _ = _base_data(n)
    coeffs = _laurent_coefficients(M)

    def make_leaf(length):
        buffers = np.empty((2, length))
        return lambda i, j: _power_sums(logs[i:j], [j - i], coeffs, buffers)

    sums = _tree_sum(len(logs), make_leaf, real=True)
    return _polynomials(sums, [len(logs)], coeffs)[0]


def _power_sums(logs, prefixes, coeffs, buffers):
    """P_m over logs[:p] for each prefix length p: row m + 1, column i holds
    P_m over the first prefixes[i] elements, for m = -1 and each m >= 1
    with coeffs[m] != 0; the other rows are zero.

    The powers of log r are built elementwise in the two rows of buffers,
    each product into the other row, never in place.  A prefix slice sums
    exactly as a fresh array of its length would, so a table row read at n
    equals the evaluator at n.
    """
    zeros = [0.0] * len(prefixes)
    power = np.divide(1.0, logs, out=buffers[0, : len(logs)])
    sums = [power[:p].sum() for p in prefixes] + zeros
    power = logs
    for m in range(1, len(coeffs)):
        if m > 1:  # at most log(MAX_LIMIT)**199 ~ 1e252
            power = np.multiply(power, logs, out=buffers[m % 2, : len(logs)])
        sums += [power[:p].sum() for p in prefixes] if coeffs[m] != 0.0 else zeros
    return np.array(sums).reshape(len(coeffs) + 1, len(prefixes))


def _polynomials(sums, counts, coeffs) -> list[tuple[float, ...]]:
    """(P_{-1}, c_0 P_0, ..., c_M P_M) for each column of _power_sums' sums
    and its count, with c_m = coeffs[m] and P_0 = count."""
    return [
        (s[0], coeffs[0] * count)
        + tuple(c * p if c != 0.0 else 0.0 for c, p in zip(coeffs[1:], s[2:]))
        for s, count in zip(sums.T.tolist(), counts)
    ]


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
    if kind not in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
        raise InputError(
            "derivative_partial supports DIRECT and ALTERNATING kinds,"
            f" got {kind!r}"
        )
    z, _, logs, signs = _checked_point(z, n)
    pole_gate(z, n)
    return -_term_sum(kind, z, logs, signs, derivative=True)
