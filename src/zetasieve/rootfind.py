"""Zeros of the partial-sum targets.

A target is the scalar function whose roots the experiments hunt: a constant
plus the (optionally sign-alternating) sum of 1/(r**z - 1) over the
admissible bases r <= n.  For the alternating family this is the numerator
of the representation; the eta prefactor never vanishes, so the numerator
carries all the zeros.

The pipeline is grid-seeded Newton refinement, deterministic deduplication,
conjugate canonicalization, and an argument-principle verification on a
pole-free circle around each candidate.  Seeds are refined in one loop,
in seed order: the search is pure-Python cmath, bound by the interpreter
lock, so find_zeros accepts a thread count but does not use threads.

Target evaluation stays a scalar cmath loop over the member list that
gives the value and the derivative from one exp per base: at the handful of
terms a search uses, one point costs less than half of what the same sums
cost in numpy.  The vectorized evaluators in the representations module are
the tool for large n.  Everything about the pole lattice -- Newton's gate,
the clearance of a verification circle, the radius it may take -- goes
through the representations module (pole_gate, nearest_pole,
pole_distance), so the lattice is written down once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .admissible import admissible_up_to
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
    """Partial-sum descriptor: kind, truncation, and additive constant."""

    kind: RepresentationKind
    n: int
    constant: float
    members: tuple[int, ...]
    logs: tuple[float, ...]
    signs: tuple[float, ...]

    def describe(self) -> str:
        return f"{self.kind.value} n={self.n} constant={self.constant:g}"

    def value_and_derivative_at(self, z: complex) -> tuple[complex, complex]:
        """f(z) and f'(z) from one cmath.exp per base."""
        value = complex(self.constant)
        slope = 0j
        if z.real >= 0.0:
            for lg, s in zip(self.logs, self.signs):
                w = cmath.exp(-z * lg)
                d = 1.0 - w
                value += s * w / d
                slope += s * lg * w / (d * d)
        else:
            for lg, s in zip(self.logs, self.signs):
                v = cmath.exp(z * lg)
                d = v - 1.0
                value += s / d
                slope += s * lg * v / (d * d)
        return value, -slope

    def value_at(self, z: complex) -> complex:
        return self.value_and_derivative_at(z)[0]


def make_target(kind, n, constant: float = 1.0) -> Target:
    if kind not in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
        raise InputError(
            f"targets exist for DIRECT and ALTERNATING kinds, got {kind!r}"
        )
    constant = check_real(constant, "constant")
    members = admissible_up_to(n).members
    logs = tuple(math.log(r) for r in members)
    if kind is RepresentationKind.ALTERNATING:
        signs = tuple(1.0 if r % 2 else -1.0 for r in members)
    else:
        signs = (1.0,) * len(members)
    return Target(
        kind=kind,
        n=int(n),
        constant=constant,
        members=members,
        logs=logs,
        signs=signs,
    )


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


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the z plane plus the per-axis seed counts."""

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


def newton_refine(
    target: Target,
    seed,
    tol: float = 1e-10,
    max_iter: int = 60,
    *,
    box: tuple[float, float, float, float] | None = None,
    gate: float = POLE_GATE,
):
    """Newton iteration from seed; RootRecord on success, NewtonFailure else.

    Success requires both |f(z)| <= tol and the last step below tol.  The
    box (re_min, re_max, im_min, im_max) is the escape fence; by default it
    extends 25 units around the seed, wide enough that a genuine basin is
    never cut, while unbounded drifts (targets with no zeros at all) are
    cut off quickly.
    """
    z = check_point(seed)
    tol = check_real(tol, "tol", 0.0, strict=True)
    max_iter = check_int(max_iter, "max_iter", 1)
    gate = check_real(gate, "gate", 0.0)
    if box is None:
        box = (z.real - 25.0, z.real + 25.0, z.imag - 25.0, z.imag + 25.0)
    else:
        box = _checked_bounds(box)
    iterations = 0
    while iterations < max_iter:
        if _near_pole(target, z, gate):
            return NewtonFailure("pole", z, iterations)
        fz, dz = target.value_and_derivative_at(z)
        if abs(dz) < 1e-14:
            return NewtonFailure("stagnation", z, iterations)
        step = fz / dz
        z_next = z - step
        iterations += 1
        if not (
            box[0] <= z_next.real <= box[1] and box[2] <= z_next.imag <= box[3]
        ):
            return NewtonFailure("escape", z_next, iterations)
        z = z_next
        if abs(step) < tol:
            if _near_pole(target, z, gate):
                return NewtonFailure("pole", z, iterations)
            if abs(target.value_at(z)) <= tol:
                z = _polish(target, z, box, gate)
                return RootRecord(
                    location=z,
                    residual=abs(target.value_at(z)),
                    verified=False,
                    conjugate_of=None,
                )
            # Tiny step at a large residual is a near-stationary point, not
            # convergence; keep iterating until a definite outcome.
    return NewtonFailure("max-iter", z, max_iter)


def _near_pole(target, z, gate) -> bool:
    """Whether the representations pole gate refuses z."""
    try:
        pole_gate(z, target.n, gate)
    except PoleProximityError:
        return True
    return False


def _polish(target, z, box, gate):
    """A couple of extra Newton steps to push the residual to rounding."""
    for _ in range(2):
        fz, dz = target.value_and_derivative_at(z)
        if abs(dz) < 1e-14:
            break
        z_next = z - fz / dz
        if not (
            box[0] <= z_next.real <= box[1] and box[2] <= z_next.imag <= box[3]
        ):
            break
        if _near_pole(target, z_next, gate):
            break
        if abs(target.value_at(z_next)) <= abs(fz):
            z = z_next
        else:
            break
    return z


def winding_count(
    target: Target,
    center,
    radius: float,
    samples: int = 256,
    *,
    gate: float = POLE_GATE,
) -> int:
    """Winding number of the target around 0 along a circle.

    Valid as a zero count only when the disc is pole-free.  A pole inside
    the disc, or within gate of the circle anywhere along it (not only at
    the samples), raises ContourError; one nearest_pole call on the center
    decides both.  Phase steps above pi/2 are refused (ResolutionError)
    rather than unwrapped optimistically.
    """
    center = check_point(center)
    radius = check_real(radius, "radius", 0.0, strict=True)
    samples = check_int(samples, "samples", 8)
    gate = check_real(gate, "gate", 0.0)

    # With no pole inside the disc, the pole nearest the center is also the
    # one nearest the circle, so this one test covers both refusals exactly.
    dist, base, k = nearest_pole(center, target.n)
    if dist <= radius + gate:
        raise ContourError(
            f"pole 2*pi*i*{k}/log({base}) lies {dist:.3e} from {center}:"
            f" inside the contour of radius {radius} or within {gate:g} of it"
        )

    theta = np.linspace(0.0, TWO_PI, samples + 1)
    pts = center + radius * np.exp(1j * theta)
    values = np.array([target.value_at(complex(p)) for p in pts])
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


def _boundary_distance(x: float, y: float, region: SearchRegion) -> tuple[float, str]:
    """Distance from a point to the rectangle boundary, and the nearest side."""
    inside_x = region.re_min <= x <= region.re_max
    inside_y = region.im_min <= y <= region.im_max
    gaps = (
        (abs(x - region.re_min), "re_min"),
        (abs(region.re_max - x), "re_max"),
        (abs(y - region.im_min), "im_min"),
        (abs(region.im_max - y), "im_max"),
    )
    if inside_x and inside_y:
        return min(gaps)
    dx = max(region.re_min - x, 0.0, x - region.re_max)
    dy = max(region.im_min - y, 0.0, y - region.im_max)
    side = min(
        (g for g in gaps),
        key=lambda g: g[0],
    )[1]
    return math.hypot(dx, dy), side


def _nudged(region: SearchRegion, target: Target, gate: float) -> SearchRegion:
    """Shift any rectangle side that a lattice pole touches, one cell outward."""
    cell_re = (region.re_max - region.re_min) / (region.grid_re - 1)
    cell_im = (region.im_max - region.im_min) / (region.grid_im - 1)
    for _ in range(2):
        worst: tuple[float, str] | None = None
        for lg in target.logs:
            spacing = TWO_PI / lg
            k_lo = math.floor(region.im_min / spacing) - 1
            k_hi = math.ceil(region.im_max / spacing) + 1
            for k in range(k_lo, k_hi + 1):
                d, side = _boundary_distance(0.0, k * spacing, region)
                if d <= gate and (worst is None or d < worst[0]):
                    worst = (d, side)
        if worst is None:
            return region
        side = worst[1]
        shift = {
            "re_min": {"re_min": region.re_min - cell_re},
            "re_max": {"re_max": region.re_max + cell_re},
            "im_min": {"im_min": region.im_min - cell_im},
            "im_max": {"im_max": region.im_max + cell_im},
        }[side]
        region = replace(region, **shift)
    return region


def find_zeros(
    target: Target,
    region: SearchRegion,
    tol: float = 1e-10,
    *,
    threads: int = 1,
    gate: float = POLE_GATE,
) -> list[RootRecord]:
    """All roots of the target inside the region, verified and sorted.

    Deterministic for a given (target, region, tol): seeds are refined
    one after another in seed order, deduplicated at radius 10*tol,
    canonicalized into exact conjugate pairs, sorted by (im, re), and each
    verified by a winding count on a pole-free circle.  Unverifiable
    candidates are kept with verified=False rather than dropped.  threads
    (an integer >= 1) changes neither the result nor the speed.
    """
    tol = check_real(tol, "tol", 0.0, strict=True)
    check_int(threads, "threads", 1)
    gate = check_real(gate, "gate", 0.0)
    region = _nudged(region, target, gate)

    res = np.linspace(region.re_min, region.re_max, region.grid_re)
    ims = np.linspace(region.im_min, region.im_max, region.grid_im)
    seeds = [complex(a, b) for b in ims for a in res]
    margin_re = max(1.0, 0.5 * (region.re_max - region.re_min))
    margin_im = max(1.0, 0.5 * (region.im_max - region.im_min))
    box = (
        region.re_min - margin_re,
        region.re_max + margin_re,
        region.im_min - margin_im,
        region.im_max + margin_im,
    )
    results = [
        newton_refine(target, seed, tol=tol, max_iter=60, box=box, gate=gate)
        for seed in seeds
    ]

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

    _verify(target, roots, tol, gate)
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


def _verify(target, roots, tol, gate) -> None:
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
            if radius <= gate:
                continue
            samples = 256
            while samples <= 4096 and count is None:
                try:
                    count = winding_count(
                        target, rec.location, radius, samples, gate=gate
                    )
                except ResolutionError:
                    samples *= 2
                except ContourError:
                    break
            if count is not None:
                break
        rec.winding = count
        rec.verified = count == 1 and rec.residual <= tol
