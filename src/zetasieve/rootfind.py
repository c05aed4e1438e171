"""Zeros of the partial-sum targets.

A target is the scalar function whose roots the experiments hunt: a constant
plus the (optionally sign-alternating) sum of 1/(r**z - 1) over the
admissible bases r <= n.  For the alternating family this is the numerator
of the representation; the eta prefactor never vanishes, so the numerator
carries all the zeros.

The pipeline is grid-seeded Newton refinement, deterministic deduplication,
conjugate canonicalization, and an argument-principle verification on a
pole-free circle around each candidate.  Newton is written once, on arrays
(_newton): seeds step in rounds, each round evaluating the point each live
seed waits on, and each seed's outcome has the bits of a scalar
loop over it alone, which tests/test_rootfind.py keeps as the oracle.
Seeds that converge at one point, bit for bit, polish from it once.
newton_refine is a batch of one seed; find_zeros runs the batch over its
seeds and hands each outcome back through one newton_refine call per seed.
It accepts a thread count but does not use threads.

One kernel (_array_kernel) evaluates every point of a target: Newton's
rounds, value_at, value_and_derivative_at and find_zeros's residuals,
each call's points at once and its terms in blocks, so its temporaries
are bounded by a few _BATCH elements whatever n.  It gives f and f' with
the bits of a plain loop over the terms in Python complex numbers
(reference_value_and_derivative in tests/test_rootfind.py, the oracle).
A target gates its own sum, as the evaluators do: the kernel refuses a
point within POLE_GATE of a term pole, and value_at and
value_and_derivative_at put each point through check_point first and
raise the gate's PoleProximityError.

A target takes n up to MAX_LIMIT, as the evaluators do, a search at most
MAX_SEEDS seeds, and a contour at most MAX_SAMPLES samples.  A point above
the height limit |Im z| <= MAX_HEIGHT is refused, and so is a search
rectangle's escape box, Newton's box or a contour's bounding box that
reaches above it, so a search never meets a refused point.  A verification
contour is evaluated in one (terms x samples) pass (values_at); it agrees
with value_at to rounding, and only the winding count drawn from it is
used.  Everything about the pole lattice goes through the representations
module (pole_gate, clear_of_poles, nearest_pole, pole_distance), so the
lattice is written down once, and one gate, POLE_GATE, serves them all.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .admissible import MAX_LIMIT, admissible_up_to, base_logs_and_signs
from .errors import (
    MAX_HEIGHT,
    ContourError,
    InputError,
    PoleProximityError,
    ResolutionError,
    check_int,
    check_point,
    check_real,
)
from .representations import (
    POLE_GATE,
    TWO_PI,
    RepresentationKind,
    clear_of_poles,
    nearest_pole,
    pole_distance,
    pole_gate,
)

__all__ = [
    "Target",
    "make_target",
    "PRESETS",
    "SearchRegion",
    "RootRecord",
    "NewtonFailure",
    "newton_refine",
    "winding_count",
    "find_zeros",
]


@dataclass(frozen=True)
class Target:
    """Partial-sum descriptor: kind, truncation n and additive constant.

    n is at most MAX_LIMIT, as in the evaluators.  Each evaluation reads
    log r and s_r = (-1)**(r-1) for ALTERNATING, 1 for DIRECT, for the
    admissible bases r <= n from the store the evaluators sum over.
    """

    kind: RepresentationKind
    n: int
    constant: float

    def __post_init__(self):
        if self.kind not in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
            raise InputError(
                f"targets exist for DIRECT and ALTERNATING kinds, got {self.kind!r}"
            )
        constant = check_real(self.constant, "constant")
        n = admissible_up_to(check_int(self.n, "n", 2, MAX_LIMIT)).limit
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "n", n)

    def describe(self) -> str:
        return f"{self.kind.value} n={self.n} constant={self.constant:g}"

    def value_and_derivative_at(self, z) -> tuple[complex, complex]:
        """f(z) and f'(z); refuses what check_point and the pole gate refuse."""
        return _pairs_at(self, [check_point(z)])[0]

    def value_at(self, z) -> complex:
        return _pairs_at(self, [check_point(z)])[0][0]

    def values_at(self, points) -> np.ndarray:
        """value_at at each point of an array of numbers, equal to rounding.

        The same sum, in one numpy pass over (terms x points) arrays, the
        terms in blocks of at most _BATCH elements, each point's terms added
        one after another from the constant (_add_rows).  Right of Re z = 0
        a term is s*w/(1 - w) with w = exp(-z*log r), left of it s/(v - 1)
        with v = exp(z*log r), as in value_and_derivative_at.  Integers are
        read as floats.  Points that check_point refuses are refused, and so
        are bools, strings and other objects, a list's checked one by one
        (numpy reads a bool among numbers as 1); the pole gate is winding_count's.
        """
        array = np.asarray(points)
        if array.dtype.kind not in "iufc":
            raise InputError(f"expected an array of numbers, got {array.dtype}")
        if not isinstance(points, np.ndarray):
            for z in np.asarray(points, dtype=object).flat:
                check_point(z)
        points = array.astype(np.result_type(array, 1.0), copy=False)
        ok = np.isfinite(points.real) & (np.abs(points.imag) <= MAX_HEIGHT)
        if not ok.all():
            check_point(complex(points[~ok].flat[0]))  # raises InputError
        flat = points.ravel()
        right = flat.real >= 0.0
        left = not right.all()  # with every point on the right, no np.where
        u = np.where(right, -flat, flat) if left else -flat
        value = np.full(flat.shape, complex(self.constant))
        logs, signs = base_logs_and_signs(self.n)
        direct = self.kind is RepresentationKind.DIRECT
        step = max(1, _BATCH // max(1, len(flat)))  # terms per block
        for t in range(0, len(logs), step):
            s = 1.0 if direct else signs[t : t + step, None].astype(float)
            e = np.exp(u * logs[t : t + step, None])
            top = np.where(right, s * e, -s) if left else s * e
            value = _add_rows(value, top / (1.0 - e))
        return value.reshape(points.shape)


def make_target(kind, n, constant: float = 1.0) -> Target:
    return Target(kind, n, constant)


# The eight test equations, with each one's printed constant: the third
# alternating equation uses 1/2 (odd term count branch), the others 1.
PRESETS: dict[str, Target] = {
    "paper-direct-2": make_target(RepresentationKind.DIRECT, 2),
    "paper-direct-3": make_target(RepresentationKind.DIRECT, 3),
    "paper-direct-5": make_target(RepresentationKind.DIRECT, 5),
    "paper-direct-6": make_target(RepresentationKind.DIRECT, 6),
    "paper-alt-2": make_target(RepresentationKind.ALTERNATING, 2),
    "paper-alt-3": make_target(RepresentationKind.ALTERNATING, 3),
    "paper-alt-5": make_target(RepresentationKind.ALTERNATING, 5, 0.5),
    "paper-alt-6": make_target(RepresentationKind.ALTERNATING, 6),
}


_BOUNDS = ("re_min", "re_max", "im_min", "im_max")


def _checked_bounds(bounds) -> tuple[float, float, float, float]:
    """(re_min, re_max, im_min, im_max) as finite floats, min < max per axis."""
    try:
        re_min, re_max, im_min, im_max = bounds
    except (TypeError, ValueError):
        raise InputError(
            f"expected four bounds (re_min, re_max, im_min, im_max), got {bounds!r}"
        ) from None
    re_min = check_real(re_min, "re_min")
    re_max = check_real(re_max, "re_max")
    im_min = check_real(im_min, "im_min")
    im_max = check_real(im_max, "im_max")
    if not re_min < re_max:
        raise InputError("re_min must be < re_max")
    if not im_min < im_max:
        raise InputError("im_min must be < im_max")
    return re_min, re_max, im_min, im_max


# Seeds per search, grid_re * grid_im, at most: a search holds every seed
# and its Newton outcome at once, some hundreds of bytes each.
MAX_SEEDS = 10**6


def _escape_box(re_min, re_max, im_min, im_max):
    """Newton's escape fence for a search over a rectangle: the rectangle
    widened by half its size, at least 1, on every side."""
    margin_re = max(1.0, 0.5 * (re_max - re_min))
    margin_im = max(1.0, 0.5 * (im_max - im_min))
    return (
        re_min - margin_re,
        re_max + margin_re,
        im_min - margin_im,
        im_max + margin_im,
    )


def _too_large(region) -> InputError:
    return InputError(
        f"region ({region.re_min!r}, {region.re_max!r}, {region.im_min!r},"
        f" {region.im_max!r}) is too large: with a {region.grid_re}x"
        f"{region.grid_im} grid, its grid cells, nudged sides or escape box"
        " would overflow or reach above the height limit |Im z| <= 2**28"
    )


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the z plane plus the per-axis seed counts, at least 2
    each and at most MAX_SEEDS in all.

    A search may move sides of the rectangle out by a grid cell, two moves
    at most, and fences Newton in the escape box around the result; a
    rectangle for which any of these could overflow, or reach above
    MAX_HEIGHT, is refused.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_re: int = 40
    grid_im: int = 40

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        for name, value in zip(_BOUNDS, _checked_bounds(bounds)):
            object.__setattr__(self, name, value)
        for name in ("grid_re", "grid_im"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 2))
        if self.grid_re * self.grid_im > MAX_SEEDS:
            raise InputError(
                f"a {self.grid_re}x{self.grid_im} grid asks for"
                f" {self.grid_re * self.grid_im} seeds, more than {MAX_SEEDS}"
            )
        cell_re = (self.re_max - self.re_min) / (self.grid_re - 1)
        cell_im = (self.im_max - self.im_min) / (self.grid_im - 1)
        box = _escape_box(  # around the widest region _nudged can make
            self.re_min - 2.0 * cell_re,
            self.re_max + 2.0 * cell_re,
            self.im_min - 2.0 * cell_im,
            self.im_max + 2.0 * cell_im,
        )
        if not (all(map(math.isfinite, box)) and max(-box[2], box[3]) <= MAX_HEIGHT):
            raise _too_large(self)

    def contains(self, z: complex) -> bool:
        return (
            self.re_min <= z.real <= self.re_max
            and self.im_min <= z.imag <= self.im_max
        )


@dataclass
class RootRecord:
    """A located zero: position, residual, verification, conjugate link.

    winding is the argument-principle count on the verification circle
    (1 for a certified simple zero; larger counts flag multiplicity).
    """

    location: complex
    residual: float
    verified: bool
    conjugate_of: int | None
    winding: int | None = None


@dataclass(frozen=True)
class NewtonFailure:
    """Why a seed did not produce a root."""

    reason: str  # "pole" | "stagnation" | "escape" | "max-iter"
    last: complex
    iterations: int


# Newton steps per seed before it is given up as "max-iter".
_MAX_ITER = 60

# The running search's target, tol and box, the very objects find_zeros
# checked, and its Newton outcomes by the id of their seed, which the search
# holds; outside a search, objects no caller holds.
_SEARCH = contextvars.ContextVar("_SEARCH", default=(object(), object(), object(), {}))


def newton_refine(
    target: Target,
    seed,
    tol: float = 1e-10,
    *,
    box: tuple[float, float, float, float] | None = None,
):
    """Newton iteration from seed; RootRecord on success, NewtonFailure else.

    Success requires both |f(z)| <= tol and the last step below tol, within
    60 steps.  A point within POLE_GATE of a term pole ends the run as a
    "pole" failure.  The box (re_min, re_max, im_min, im_max) is the escape
    fence; by default it extends 25 units around the seed, wide enough that
    a genuine basin is never cut, while unbounded drifts (targets with no
    zeros at all) are cut off quickly, and stops at |Im z| = MAX_HEIGHT.
    A box given that reaches above that height limit is refused
    (InputError), as a seed above it is.

    A call is a batch of one seed (_newton), which pays a kernel call and
    a round's numpy calls per step, about 150 us: at n = 6 a seed that
    converges in 14 rounds takes about 2.1 ms and one that escapes on its
    first step 0.18 ms (1.05 and 0.10 ms with a scalar loop for the
    kernel), at n = 1000 a root about 2.3 ms.  No workload calls it
    directly.  Inside find_zeros, a call with the search's own target,
    tol, box and seed objects returns the outcome the search's batch
    holds; any other call, even with equal arguments, is checked and
    refined alone.
    """
    own_target, own_tol, own_box, held = _SEARCH.get()
    if target is own_target and tol is own_tol and box is own_box and id(seed) in held:
        return held[id(seed)]
    target = _checked_target(target)
    z = check_point(seed)
    tol = check_real(tol, "tol", 0.0, strict=True)
    if box is None:
        lo, hi = max(z.imag - 25.0, -MAX_HEIGHT), min(z.imag + 25.0, MAX_HEIGHT)
        box = (z.real - 25.0, z.real + 25.0, lo, hi)
    else:
        box = _checked_bounds(box)
        if max(-box[2], box[3]) > MAX_HEIGHT:
            raise InputError(f"box {box!r} reaches above the height limit 2**28")
    return _newton(target, [z], tol, box)[0]


def _checked_target(target) -> Target:
    if not isinstance(target, Target):
        raise InputError(f"expected a Target (see make_target), got {target!r}")
    return target


def _newton(target, seeds, tol, box) -> list:
    """newton_refine's outcome from each seed, all seeds stepped at once.

    Each round evaluates the point every live seed waits on (_array_kernel),
    then steps each seed on arrays, with CPython's z - f/f' (_quot) and abs
    (hypot), to its next point or outcome.  At an iterate, a refused point
    is a "pole"; after a step below tol, |f| <= tol starts the polish, else
    Newton steps on from the pair in hand.  A step: |f'| < 1e-14 is
    "stagnation", a new point outside the box an "escape", and the cap's
    step ends there as "max-iter" unless it is below tol.  A step that
    leaves z as it is, bit for bit, would repeat with the same pair up to
    the cap, so it starts the polish if below tol at |f| <= tol and is
    "max-iter" else.  The polish takes at most two more steps, each only if
    |f'| >= 1e-14, it moves z within the box and |f| does not grow; a
    refused point ends it.  The root is the last point taken, with |f|
    there as its residual.

    Seeds that converge at one point, bit for bit, polish alike: the polish
    reads only (z, f, f'), its step count and the box.  The first seed to
    converge there polishes; a later one leaves the batch (is folded) and
    at the end gets a RootRecord of its own, equal to the first one's.
    """
    lo_re, hi_re, lo_im, hi_im = box
    evaluate = _array_kernel(target)
    outcomes = [None] * len(seeds)
    first = {}  # a converged point's bits -> the seed that polishes from it
    folded = []  # (seed, the seed whose root it takes)
    seed = np.arange(len(seeds))
    zr = np.array([z.real for z in seeds])
    zi = np.array([z.imag for z in seeds])
    steps = np.zeros(len(seeds), dtype=int)
    below = np.zeros(len(seeds), dtype=bool)  # the step to z was below tol
    polished = np.full(len(seeds), -1)  # polish steps taken; -1 before it
    kept = np.zeros((6, len(seeds)))  # the polish's z, f and f', parts as rows

    def inside(re, im):
        return (lo_re <= re) & (re <= hi_re) & (lo_im <= im) & (im <= hi_im)

    def fail(reason, where, re, im, count):
        if np.count_nonzero(where):  # cheaper than where.any()
            count = np.broadcast_to(count, where.shape)[where].tolist()
            for i, r, m, c in zip(*(v[where].tolist() for v in (seed, re, im)), count):
                outcomes[i] = NewtonFailure(reason, complex(r, m), c)

    with np.errstate(all="ignore"):  # the branch _quot drops; refused points
        while len(seed):
            refused, fr, fi, dr, di = evaluate(zr, zi)
            size = np.hypot(fr, fi)
            polishing = polished >= 0
            taken, done = np.zeros((2, len(seed)), dtype=bool)
            if np.count_nonzero(polishing):
                taken = polishing & ~refused & (size <= np.hypot(kept[2], kept[3]))
                done = polishing & ~taken
            main = ~polishing & ~refused
            converged = main & below & (size <= tol)
            capped = main & below & ~converged & (steps >= _MAX_ITER)
            step = main & ~converged & ~capped
            stagnant = step & (np.hypot(dr, di) < 1e-14)
            step &= ~stagnant
            sr, si = _quot(fr, fi, dr, di)
            nr, ni = zr - sr, zi - si
            steps = steps + step
            escaped = step & ~inside(nr, ni)
            step &= ~escaped
            small = np.hypot(sr, si) < tol
            moved = step & ~_same(nr, ni, zr, zi)
            converged |= step & ~moved & small & (size <= tol)
            capped |= step & ~moved & ~converged
            onward = moved & (small | (steps < _MAX_ITER))
            fail("pole", ~polishing & refused, zr, zi, steps)
            fail("stagnation", stagnant, zr, zi, steps)
            fail("escape", escaped, nr, ni, steps)
            fail("max-iter", capped, zr, zi, _MAX_ITER)
            fail("max-iter", moved & ~onward, nr, ni, _MAX_ITER)
            if np.count_nonzero(converged):
                at = converged.nonzero()[0]
                keys = zip(zr.view(np.uint64)[at].tolist(), zi.view(np.uint64)[at].tolist())
                for j, i, key in zip(at.tolist(), seed[at].tolist(), keys):
                    if first.setdefault(key, i) != i:
                        folded.append((i, first[key]))
                        converged[j] = False
            polish = taken | converged  # the seeds that take a polish step, if it moves
            if np.count_nonzero(polish):
                at = polish.nonzero()[0]
                polished = np.where(converged, 0, polished + taken)
                kept[:, at] = np.array((zr, zi, fr, fi, dr, di))[:, at]
                xr, xi, gr, gi, er, ei = kept[:, at]
                qr, qi = _quot(gr, gi, er, ei)
                pr, pi = xr - qr, xi - qi
                stop = (polished[at] == 2) | (np.hypot(er, ei) < 1e-14)
                go = ~(stop | _same(pr, pi, xr, xi)) & inside(pr, pi)
                done[at], polish[at] = ~go, go
                nr[polish], ni[polish] = pr[go], pi[go]
            for i, (r, m, a, b) in zip(seed[done].tolist(), kept[:4, done].T.tolist()):
                outcomes[i] = RootRecord(complex(r, m), abs(complex(a, b)), False, None)
            live = onward | polish
            zr, zi, seed, steps, below, polished = (
                v[live] for v in (nr, ni, seed, steps, small, polished)
            )
            kept = kept[:, live]
    for i, j in folded:
        outcomes[i] = RootRecord(outcomes[j].location, outcomes[j].residual, False, None)
    return outcomes


def _same(ar, ai, br, bi):
    """Where a and b are the same point bit for bit, signed zeros apart."""
    same = ar.view(np.uint64) == br.view(np.uint64)
    return same & (ai.view(np.uint64) == bi.view(np.uint64))


# Elements of one (terms x points) array in the kernel, at most: the kernel
# holds a few tens of such float64 arrays at once, a few MiB, whatever n.
# It takes a call's points in one block and splits the terms, and a search
# steps at most _BATCH seeds at a time.
_BATCH = 2**14

_REACH, _LOW = 24.0, 2.0**-1030  # the kernel's guard (see there)


def _prod(ar, ai, br, bi):
    """a*b on real and imaginary parts, as CPython's complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _quot(ar, ai, br, bi):
    """a/b on real and imaginary parts, as CPython's complex quotient:
    scaled by whichever part of b is larger in magnitude.  Both branches
    are computed and one kept per element."""
    big = abs(br) >= abs(bi)
    ratio = bi / br
    denom = br + bi * ratio
    re, im = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    return np.where(big, re, re2), np.where(big, im, im2)


def _add_rows(total, rows):
    """total + rows[0] + rows[1] + ..., added one row after another; a row
    has total's shape, the points along its last axis.

    Both ways give the same bits.  Where the rows are no more than the
    points (small n, as on zeros-strip), a loop adds each row across all
    points at once: np.add.accumulate, whose inner loop runs along one
    point's rows, made zeros-strip about 4% slower end to end.  Where the
    rows outnumber the points (n in the thousands, on no benchmark
    workload), accumulate runs each point's chain in C: the loop's Python
    step per row made a 4x4 search at n = 17000 twice as slow as a scalar
    loop.  (Both measured when the kernel took a pass per half-plane.)
    """
    if len(rows) <= total.shape[-1]:
        for row in rows:
            total = total + row
        return total
    return np.add.accumulate(np.concatenate((total[None], rows)), axis=0)[-1]


def _array_kernel(target):
    """pairs(zr, zi) -> (refused, fr, fi, dr, di): at each point zr + i*zi
    that check_point passed, f and f' with the plain complex loop's bits, or
    refused where the pole gate refuses the point.  A point in the gate
    strip (clear_of_poles false) goes through pole_gate one by one; the
    others pass without a scan.

    The loop's complex products and quotients are written out on float64
    (terms x points) arrays as CPython's complex arithmetic computes them
    (numpy's complex * and / round differently), and exp is numpy's
    complex exp, which is libm's cexp and has the bits of Python's.  Those
    bits rest on the build: CPython's complex product compiled without
    fused multiply-add, and numpy's complex exp calling libm's cexp.  They
    are verified for CPython 3.11.7 and numpy 2.4.6 on x86-64; elsewhere
    test_the_array_kernel_gives_the_scalar_kernels_bits in
    tests/test_rootfind.py checks them.

    One pass takes the points the gate passes, both half-planes at once.
    With u = -z where Re z >= 0 (-0.0 included), z elsewhere, and
    e = exp(u*lg), a term is s*e/(1 - e) on the right and s/(e - 1) on the
    left, and its slope slg*e/d**2 over either denominator d, with
    slg = s*lg; np.where picks the left's numerator and d, and a pass with
    no point on the left has none.  d*d (_prod) and the quotients (_quot)
    are the loop's complex operations on float64 (terms x points) arrays.
    The four sums are one (4, points) array adding the terms, as
    (terms, 4, points), in turn from the constant.

    The loop's u*lg, s*e and slg*e are complex products with the zero
    imaginary parts of lg, s and slg.  A call whose points all lie inside
    the guard POLE_GATE < |x| <= _REACH/log n, |y| >= _LOW (z = x + iy)
    drops those products by zero: it writes u*lg straight into the complex
    array exp runs in, and s*e and slg*e as real products (for DIRECT, s*e
    is e).  A call with any other point keeps every product whole (_prod).
    Dropping is exact while no part of u*lg or of e is zero or non-finite:
    each dropped product is then a signed zero, and x - 0 = x + 0 = x for
    x != 0.  Inside the guard both parts of u*lg are nonzero, and with
    a + ib = u*lg, cexp gives exp(a)*cos b and exp(a)*sin b, and
    -24 <= a < 0.  |cos b| and |sin b| are at least 2/pi times b's distance
    from the nearest multiple of pi/2 where they vanish; no double lies
    within 4.68e-19 of a nonzero multiple (Muller, Elementary Functions:
    6381956970095103 * 2**797), and |b| >= |y| log 2 > 6e-311.  So each
    part of e exceeds exp(-24) * (2/pi) * 6e-311, 290 times the least
    subnormal, and with |s| = 1 and |slg| >= log 2 > 1/2 so do those of
    s*e and slg*e.  |e| < 1 keeps d from zero: every pair is finite.
    """
    logs, signs = base_logs_and_signs(target.n)  # views; read a block at a time
    direct = target.kind is RepresentationKind.DIRECT
    reach = _REACH / math.log(target.n)

    def pairs(zr, zi):
        clear = clear_of_poles(zr)
        refused = np.zeros(len(zr), dtype=bool)
        for j in np.flatnonzero(~clear).tolist():
            try:
                pole_gate(complex(zr[j], zi[j]), target.n)
            except PoleProximityError:
                refused[j] = True
        inside = clear & (abs(zr) <= reach) & (abs(zi) >= _LOW)
        whole = not (inside | refused).all()
        at = np.flatnonzero(~refused)
        out = np.zeros((4, len(zr)))
        if len(at):
            right = zr[at] >= 0.0
            left = not right.all()
            flip = np.where(right, -1.0, 1.0) if left else -1.0  # u = -z on the right
            ur, ui = flip * zr[at], flip * zi[at]
            step = max(1, _BATCH // len(at))  # terms per block
            sums = np.repeat([[target.constant], [0.0], [0.0], [0.0]], len(at), axis=1)
            with np.errstate(all="ignore"):  # the branch _quot drops; underflow
                for t in range(0, len(logs), step):
                    lg = logs[t : t + step, None]
                    s = 1.0 if direct else signs[t : t + step, None].astype(float)
                    slg = lg if direct else s * lg
                    e = np.empty((len(lg), len(at)), dtype=complex)
                    if whole:
                        e.real, e.imag = _prod(ur, ui, lg, 0.0)
                    else:
                        np.multiply(ur, lg, out=e.real)
                        np.multiply(ui, lg, out=e.imag)
                    er, ei = np.exp(e, out=e).real, e.imag  # libm's cexp
                    if whole:
                        vr, vi = _prod(s, 0.0, er, ei)
                    else:
                        vr, vi = (er, ei) if direct else (s * er, s * ei)
                    dr, di = 1.0 - er, 0.0 - ei
                    if left:  # s/(e - 1), with e.imag - 0.0 as e.imag
                        dr, di = np.where(right, dr, er - 1.0), np.where(right, di, ei)
                        vr, vi = np.where(right, vr, s), np.where(right, vi, 0.0)
                    slope = _quot(
                        *(_prod(slg, 0.0, er, ei) if whole else (slg * er, slg * ei)),
                        *_prod(dr, di, dr, di),
                    )
                    rows = np.stack((*_quot(vr, vi, dr, di), *slope), axis=1)
                    sums = _add_rows(sums, rows)
            sums[2:] = -sums[2:]
            out[:, at] = sums
        return refused, *out

    return pairs


def _pairs_at(target, points) -> list[tuple[complex, complex]]:
    """(f, f') at each of a list of points check_point passed, from one
    kernel call; the first point the kernel refuses raises the pole gate's
    PoleProximityError."""
    zr = np.array([z.real for z in points])
    zi = np.array([z.imag for z in points])
    refused, *parts = _array_kernel(target)(zr, zi)
    for z in itertools.compress(points, refused.tolist()):
        pole_gate(z, target.n)  # raises PoleProximityError
    fr, fi, dr, di = (v.tolist() for v in parts)
    return [(complex(a, b), complex(c, d)) for a, b, c, d in zip(fr, fi, dr, di)]


# Contour samples per winding count, at most: the contour is evaluated as
# arrays of samples + 1 points, some tens of bytes each.  _verify goes up to
# 4096.
MAX_SAMPLES = 2**20


@functools.lru_cache(maxsize=8)  # 16 MiB each at MAX_SAMPLES; _verify uses 5
def _unit_circle(samples):
    """exp(i*theta) at samples + 1 angles from 0 to 2*pi, read-only."""
    circle = np.exp(1j * np.linspace(0.0, TWO_PI, samples + 1))
    circle.flags.writeable = False
    return circle


def winding_count(
    target: Target,
    center,
    radius: float,
    samples: int = 256,
) -> int:
    """Winding number of the target around 0 along a circle.

    Valid as a zero count only when the disc is pole-free.  A pole inside
    the disc, or within POLE_GATE of the circle anywhere along it (not only
    at the samples), raises ContourError; one nearest_pole call on the
    center decides both.  Phase steps above pi/2, and a circle so small
    that adjacent samples coincide, are refused (ResolutionError) rather
    than unwrapped optimistically.  samples is at most MAX_SAMPLES.  A
    circle whose bounding box overflows, or reaches above the height limit
    |Im z| <= MAX_HEIGHT, is refused (InputError).
    """
    target = _checked_target(target)
    center = check_point(center)
    radius = check_real(radius, "radius", 0.0, strict=True)
    samples = check_int(samples, "samples", 8, MAX_SAMPLES)
    try:
        check_point(complex(abs(center.real) + radius, abs(center.imag) + radius))
    except InputError:
        raise InputError(
            f"the circle of radius {radius} around {center} overflows or"
            " reaches above the height limit |Im z| <= 2**28"
        ) from None

    # With no pole inside the disc, the pole nearest the center is also the
    # one nearest the circle, so this one test covers both refusals exactly.
    dist, base, k = nearest_pole(center, target.n)
    if dist <= radius + POLE_GATE:
        raise ContourError(
            f"pole 2*pi*i*{k}/log({base}) lies {dist:.3e} from {center}:"
            f" inside the contour of radius {radius} or within"
            f" {POLE_GATE:g} of it"
        )

    pts = center + radius * _unit_circle(samples)
    if np.any(pts[1:] == pts[:-1]):
        raise ResolutionError(f"radius {radius} too small: adjacent samples coincide")
    values = target.values_at(pts)
    if np.any(values == 0):
        raise ResolutionError("exact zero on the contour; perturb the radius")
    steps = np.angle(values[1:] / values[:-1])
    worst = float(np.max(np.abs(steps)))
    if worst > math.pi / 2.0:
        raise ResolutionError(
            f"largest phase step {worst:.3f} exceeds pi/2 at {samples}"
            " samples; increase samples"
        )
    total = float(steps.sum()) / TWO_PI
    count = round(total)
    if abs(total - count) > 0.25:
        raise ResolutionError(
            f"accumulated phase {total:.3f} turns is not close to an integer"
        )
    return int(count)


def _nudged(region: SearchRegion, target: Target) -> SearchRegion:
    """Shift the side nearest a term pole one grid cell outward while a pole
    lies within POLE_GATE of a side, at most twice.

    Every pole lies on Re z = 0.  A horizontal side is as far from the
    poles as its point nearest the axis.  A vertical side at x = c spans
    the heights within half its height h of its midpoint m, so it lies
    hypot(c, max(0, d - h)) from them, with d the distance from i*m to the
    nearest pole.  A tie goes to the side name first in alphabetical order.

    A moved region is checked again as a SearchRegion, more widely than the
    search over it needs; if that check fails, the region given is refused.
    """
    given = region
    cell_re = (region.re_max - region.re_min) / (region.grid_re - 1)
    cell_im = (region.im_max - region.im_min) / (region.grid_im - 1)
    shift = {
        "re_min": -cell_re, "re_max": cell_re, "im_min": -cell_im, "im_max": cell_im
    }
    for _ in range(2):
        foot = min(max(0.0, region.re_min), region.re_max)
        half = 0.5 * (region.im_max - region.im_min)
        mid = 0.5 * (region.im_max + region.im_min)
        gap = max(0.0, nearest_pole(complex(0.0, mid), target.n)[0] - half)
        dist, side = min(
            (nearest_pole(complex(foot, region.im_min), target.n)[0], "im_min"),
            (nearest_pole(complex(foot, region.im_max), target.n)[0], "im_max"),
            (math.hypot(region.re_min, gap), "re_min"),
            (math.hypot(region.re_max, gap), "re_max"),
        )
        if dist > POLE_GATE:
            break
        try:
            region = replace(region, **{side: getattr(region, side) + shift[side]})
        except InputError:
            raise _too_large(given) from None
    return region


def find_zeros(
    target: Target,
    region: SearchRegion,
    tol: float = 1e-10,
    *,
    threads: int = 1,
) -> list[RootRecord]:
    """All roots of the target inside the region, verified and sorted.

    Deterministic for a given (target, region, tol): seeds are refined
    all at once, each to the outcome newton_refine gives it alone, then
    taken in seed order through one newton_refine call each, deduplicated
    at radius 10*tol,
    canonicalized into exact conjugate pairs, sorted by (im, re), and each
    verified by a winding count on a pole-free circle.  Unverifiable
    candidates are kept with verified=False rather than dropped.  threads
    (an integer >= 1) changes neither the result nor the speed.

    A side of the region that lies within POLE_GATE of a term pole is first
    moved one grid cell outward (at most two sides), so the search, and
    the roots it keeps, may cover one more cell on such a side.

    A root within 10*tol of the real axis is moved onto it, unless the
    pole gate refuses the point there; then it keeps Newton's location.
    """
    target = _checked_target(target)
    if not isinstance(region, SearchRegion):
        raise InputError(f"expected a SearchRegion, got {region!r}")
    tol = check_real(tol, "tol", 0.0, strict=True)
    check_int(threads, "threads", 1)
    region = _nudged(region, target)

    res = np.linspace(region.re_min, region.re_max, region.grid_re)
    ims = np.linspace(region.im_min, region.im_max, region.grid_im)
    seeds = [complex(a, b) for b in ims for a in res]
    box = _escape_box(region.re_min, region.re_max, region.im_min, region.im_max)
    held = {}
    results = []
    token = _SEARCH.set((target, tol, box, held))
    try:
        for lo in range(0, len(seeds), _BATCH):
            block = seeds[lo : lo + _BATCH]
            held.clear()
            held.update(zip(map(id, block), _newton(target, block, tol, box)))
            results += [newton_refine(target, seed, tol=tol, box=box) for seed in block]
    finally:
        _SEARCH.reset(token)

    # Seed-order deduplication; keep the lowest residual per cluster.
    dedupe_radius = 10.0 * tol
    roots: list[RootRecord] = []
    for outcome in results:
        if not isinstance(outcome, RootRecord):
            continue
        if not region.contains(outcome.location):
            continue
        for i, kept in enumerate(roots):
            if abs(outcome.location - kept.location) <= dedupe_radius:
                if outcome.residual < kept.residual:
                    roots[i] = outcome
                break
        else:
            roots.append(outcome)

    for rec in roots:
        if abs(rec.location.imag) <= dedupe_radius:
            snapped = complex(rec.location.real, 0.0)
            if pole_distance(snapped, target.n) > POLE_GATE:  # else keep Newton's
                rec.location = snapped

    _canonicalize_conjugates(roots, dedupe_radius)
    for rec, (f, _) in zip(roots, _pairs_at(target, [r.location for r in roots])):
        rec.residual = abs(f)
    roots.sort(key=lambda r: (r.location.imag, r.location.real))

    # The first index per location; 0.0 and -0.0 are one key, as under ==.
    first = {rec.location: i for i, rec in reversed(list(enumerate(roots)))}
    for rec in roots:
        if rec.location.imag != 0.0:
            rec.conjugate_of = first.get(rec.location.conjugate())

    _verify(target, roots, tol)
    return roots


def _canonicalize_conjugates(roots: list[RootRecord], radius: float) -> None:
    """Average near-conjugate pairs into exact mirror locations."""
    upper = [r for r in roots if r.location.imag > 0.0]
    lower = [r for r in roots if r.location.imag < 0.0]
    taken: set[int] = set()
    for rec in upper:
        best_j = -1
        best_d = radius
        mirror = rec.location.conjugate()
        for j, other in enumerate(lower):
            if j in taken:
                continue
            d = abs(other.location - mirror)
            if d <= best_d:
                best_d = d
                best_j = j
        if best_j >= 0:
            taken.add(best_j)
            other = lower[best_j]
            re = 0.5 * (rec.location.real + other.location.real)
            im = 0.5 * (rec.location.imag - other.location.imag)
            rec.location = complex(re, im)
            other.location = complex(re, -im)


def _verify(target, roots, tol) -> None:
    locations = [r.location for r in roots]
    for i, rec in enumerate(roots):
        neighbor = min(
            (abs(rec.location - other) for j, other in enumerate(locations) if j != i),
            default=math.inf,
        )
        base_radius = 0.5 * min(
            pole_distance(rec.location, target.n), neighbor, 1.0
        )
        count = None
        for shrink in (1.0, 0.5, 0.25):
            radius = base_radius * shrink
            if radius <= POLE_GATE:
                continue
            samples = 256
            while samples <= 4096 and count is None:
                try:
                    count = winding_count(target, rec.location, radius, samples)
                except ResolutionError:
                    samples *= 2
                except ContourError:
                    break
            if count is not None:
                break
        rec.winding = count
        rec.verified = count == 1 and rec.residual <= tol
