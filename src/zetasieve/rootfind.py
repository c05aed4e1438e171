"""Zeros of the partial-sum targets.

A target is the scalar function whose roots the experiments hunt: a constant
plus the (optionally sign-alternating) sum of 1/(r**z - 1) over the
admissible bases r <= n.  For the alternating family this is the numerator
of the representation; the eta prefactor never vanishes, so the numerator
carries all the zeros.

The pipeline is grid-seeded Newton refinement, deterministic deduplication,
conjugate canonicalization, and an argument-principle verification on a
pole-free circle around each candidate.  Seeds are refined in one loop,
in seed order: Newton is scalar per seed, pure-Python cmath bound by the
interpreter lock, so find_zeros accepts a thread count but does not use
threads.  Newton evaluates f and f' once per iterate, and the pair of the
last iterate carries into the polish steps and the reported residual.

Target evaluation at one point is a scalar cmath loop over the target's
terms, one (log r, sign, sign*log r) triple per base built with the
target (value_at, and value_and_derivative_at, which gives the value and
the derivative from one exp per base): at the handful of terms a search
uses, one point costs less than half of what the same sums cost in numpy.
Newton is most of a search's time, so its loop does little besides the
arithmetic: it unpacks the box and binds the evaluation once per seed and
calls the pole gate directly, and the evaluation keeps the plain loop's
operations in their order, so every float keeps its bits.  The triples,
the constant and the 1 in 1 - w and v - 1 are complex numbers, so every
operation in the loop is complex by complex: CPython 3.11 would promote a
float operand to complex(x, 0.0) on each mixed operation, then run the
same complex routine, so the bits are the same and the promotions are
saved.  A target takes n up to MAX_TARGET_N, a search at most MAX_SEEDS
seeds, and a contour at most MAX_SAMPLES samples.  Newton's seed and a
contour's disc are refused, as an evaluator's point is, where Im z * log r
overflows for the target's largest base (check_height).  A verification
contour is evaluated as one array (values_at), one term at a time, from
the terms; it agrees with value_at to rounding, and only the winding count
drawn from it is used.  The vectorized evaluators in the representations
module are the tool for large n.  Everything about the pole lattice --
Newton's gate, the clearance of a verification circle, the radius it may
take, the sides of a search rectangle that a pole touches -- goes through
the representations module (pole_gate, nearest_pole, pole_distance), so
the lattice is written down once, and one gate, POLE_GATE, serves them all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .admissible import admissible_up_to, base_logs_and_signs
from .errors import (
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
    check_height,
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


# Largest n a target takes: it holds 168 bytes of Python objects per base,
# about 170 MB at this cap.
MAX_TARGET_N = 10**6


@dataclass(frozen=True)
class Target:
    """Partial-sum descriptor: kind, truncation, and additive constant.

    The rest follows from these and is built with the target, read-only and
    out of repr and equality: terms, one (log r, s_r, s_r*log r) triple per
    admissible base r <= n, with log r read from the store the evaluators
    sum over and s_r = (-1)**(r-1) for ALTERNATING, 1 for DIRECT, and
    start, the constant, all as complex numbers for the scalar loop.
    n is at most MAX_TARGET_N.
    """

    kind: RepresentationKind
    n: int
    constant: float
    terms: tuple[tuple[complex, complex, complex], ...] = field(
        init=False, repr=False, compare=False
    )
    start: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
            raise InputError(
                f"targets exist for DIRECT and ALTERNATING kinds, got {self.kind!r}"
            )
        constant = check_real(self.constant, "constant")
        n = admissible_up_to(check_int(self.n, "n", 2, MAX_TARGET_N)).limit
        logs, signs = base_logs_and_signs(n)
        if self.kind is RepresentationKind.DIRECT:
            signs = np.ones_like(signs)
        terms = tuple(
            (complex(lg), complex(s), complex(s * lg))
            for lg, s in zip(logs.tolist(), signs.tolist())
        )
        # Through object.__setattr__, not vars(self): a __dict__ once made
        # slows every attribute read in the scalar loop by a few percent.
        for name, value in dict(
            n=n, constant=constant, terms=terms, start=complex(constant)
        ).items():
            object.__setattr__(self, name, value)

    def describe(self) -> str:
        return f"{self.kind.value} n={self.n} constant={self.constant:g}"

    def value_and_derivative_at(self, z: complex) -> tuple[complex, complex]:
        """f(z) and f'(z) from one cmath.exp per base."""
        exp = cmath.exp
        value = self.start
        slope = 0j
        if z.real >= 0.0:
            nz = -z
            for lg, s, slg in self.terms:
                w = exp(nz * lg)
                d = (1 + 0j) - w
                value += s * w / d
                slope += slg * w / (d * d)
        else:
            for lg, s, slg in self.terms:
                v = exp(z * lg)
                d = v - (1 + 0j)
                value += s / d
                slope += slg * v / (d * d)
        return value, -slope

    def value_at(self, z: complex) -> complex:
        return self.value_and_derivative_at(z)[0]

    def values_at(self, points: np.ndarray) -> np.ndarray:
        """value_at at each point of a complex array, equal to rounding.

        The same sum, one numpy pass per term in order.  Right of Re z = 0
        a term is s*w/(1 - w) with w = exp(-z*log r), left of it s/(v - 1)
        with v = exp(z*log r), as in value_and_derivative_at.
        """
        right = points.real >= 0.0
        u = np.where(right, -points, points)
        value = np.full(points.shape, self.start)
        for lg, s, _ in self.terms:
            e = np.exp(u * lg.real)
            value += np.where(right, s.real * e, -s.real) / (1.0 - e)
        return value


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
        " would overflow"
    )


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the z plane plus the per-axis seed counts, at least 2
    each and at most MAX_SEEDS in all.

    A search may move sides of the rectangle out by a grid cell, two moves
    at most, and fences Newton in the escape box around the result; a
    rectangle for which any of these could overflow is refused.
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
        if not all(map(math.isfinite, box)):
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
    zeros at all) are cut off quickly.  A seed where Im z * log r
    overflows for the target's largest base is refused (InputError).  The
    box is not checked: at heights near that overflow a Newton step lies
    far below the spacing of the floats, so the iterates keep the seed's
    height.
    """
    target = _checked_target(target)
    z = check_point(seed)
    tol = check_real(tol, "tol", 0.0, strict=True)
    # z=z: a closure would make the loop's z a cell variable.
    check_height(z, target.n, _log_max(target), lambda z=z: f"the seed {z}")
    if box is None:
        box = (z.real - 25.0, z.real + 25.0, z.imag - 25.0, z.imag + 25.0)
    else:
        box = _checked_bounds(box)
    re_min, re_max, im_min, im_max = box
    evaluate = target.value_and_derivative_at
    n = target.n
    iterations = 0
    pair = None  # (f, f') at z, once evaluated
    while iterations < _MAX_ITER:
        if pair is None:
            try:
                pole_gate(z, n)
            except PoleProximityError:
                return NewtonFailure("pole", z, iterations)
            pair = evaluate(z)
        fz, dz = pair
        if abs(dz) < 1e-14:
            return NewtonFailure("stagnation", z, iterations)
        step = fz / dz
        z_next = z - step
        iterations += 1
        if not (re_min <= z_next.real <= re_max and im_min <= z_next.imag <= im_max):
            return NewtonFailure("escape", z_next, iterations)
        if z_next != z or not _identical(z_next, z):  # != alone is faster
            z, pair = z_next, None
        if abs(step) < tol:
            if pair is None:
                try:
                    pole_gate(z, n)
                except PoleProximityError:
                    return NewtonFailure("pole", z, iterations)
                pair = evaluate(z)
            if abs(pair[0]) <= tol:
                z, fz = _polish(target, z, pair, box)
                return RootRecord(
                    location=z,
                    residual=abs(fz),
                    verified=False,
                    conjugate_of=None,
                )
            # Tiny step at a large residual is a near-stationary point, not
            # convergence; keep iterating (from the pair already in hand)
            # until a definite outcome.
    return NewtonFailure("max-iter", z, _MAX_ITER)


def _identical(a: complex, b: complex) -> bool:
    """Whether a and b are the same point bit for bit.

    == alone would equate 0.0 with -0.0, and the sign of a zero part
    survives into a RootRecord's location.
    """
    return (
        a == b
        and math.copysign(1.0, a.real) == math.copysign(1.0, b.real)
        and math.copysign(1.0, a.imag) == math.copysign(1.0, b.imag)
    )


def _checked_target(target) -> Target:
    if not isinstance(target, Target):
        raise InputError(f"expected a Target (see make_target), got {target!r}")
    return target


def _log_max(target: Target) -> float:
    """log r of the target's largest base."""
    return target.terms[-1][0].real


def _polish(target, z, pair, box):
    """A couple of extra Newton steps to push the residual to rounding.

    pair is (f, f') at z.  Returns the final z and f(z).
    """
    re_min, re_max, im_min, im_max = box
    evaluate = target.value_and_derivative_at
    fz, dz = pair
    for _ in range(2):
        if abs(dz) < 1e-14:
            break
        z_next = z - fz / dz
        if _identical(z_next, z):  # the step is below rounding: done
            break
        if not (re_min <= z_next.real <= re_max and im_min <= z_next.imag <= im_max):
            break
        try:
            pole_gate(z_next, target.n)
        except PoleProximityError:
            break
        pair = evaluate(z_next)
        if not abs(pair[0]) <= abs(fz):
            break
        z, (fz, dz) = z_next, pair
    return z, fz


# Contour samples per winding count, at most: the contour is evaluated as
# arrays of samples + 1 points, some tens of bytes each.  _verify goes up to
# 4096.
MAX_SAMPLES = 2**20


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
    center decides both.  Phase steps above pi/2 are refused
    (ResolutionError) rather than unwrapped optimistically.  samples is
    at most MAX_SAMPLES.  A circle whose bounding box overflows, or reaches
    heights where Im z * log r does for the target's largest base, is
    refused (InputError).
    """
    target = _checked_target(target)
    center = check_point(center)
    radius = check_real(radius, "radius", 0.0, strict=True)
    samples = check_int(samples, "samples", 8, MAX_SAMPLES)
    corner = complex(abs(center.real) + radius, abs(center.imag) + radius)
    check_height(
        corner, target.n, _log_max(target),
        lambda: f"the circle of radius {radius} around {center}",
    )

    # With no pole inside the disc, the pole nearest the center is also the
    # one nearest the circle, so this one test covers both refusals exactly.
    dist, base, k = nearest_pole(center, target.n)
    if dist <= radius + POLE_GATE:
        raise ContourError(
            f"pole 2*pi*i*{k}/log({base}) lies {dist:.3e} from {center}:"
            f" inside the contour of radius {radius} or within"
            f" {POLE_GATE:g} of it"
        )

    theta = np.linspace(0.0, TWO_PI, samples + 1)
    pts = center + radius * np.exp(1j * theta)
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
        if math.isinf(mid):  # the sum overflows, but then halving is exact
            mid = 0.5 * region.im_max + 0.5 * region.im_min
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
    one after another in seed order, deduplicated at radius 10*tol,
    canonicalized into exact conjugate pairs, sorted by (im, re), and each
    verified by a winding count on a pole-free circle.  Unverifiable
    candidates are kept with verified=False rather than dropped.  threads
    (an integer >= 1) changes neither the result nor the speed.

    A side of the region that lies within POLE_GATE of a term pole is first
    moved one grid cell outward (at most two sides), so the search, and
    the roots it keeps, may cover one more cell on such a side.
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
    results = [newton_refine(target, seed, tol=tol, box=box) for seed in seeds]

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
            rec.location = complex(rec.location.real, 0.0)

    _canonicalize_conjugates(roots, dedupe_radius)
    for rec in roots:
        rec.residual = abs(target.value_at(rec.location))
    roots.sort(key=lambda r: (r.location.imag, r.location.real))

    for i, rec in enumerate(roots):
        if rec.location.imag != 0.0:
            mirror = rec.location.conjugate()
            for j, other in enumerate(roots):
                if j != i and other.location == mirror:
                    rec.conjugate_of = j
                    break

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
