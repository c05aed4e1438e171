"""Exception hierarchy and the argument checkers.

Two families matter to callers: bad arguments (:class:`InputError`, the CLI
maps these to exit code 2) and mathematically out-of-domain requests
(:class:`DomainError` and subclasses, exit code 3).

Public entry points check each argument with one of three checkers, which
raise InputError: ``check_int`` (rejects bools, non-integers such as 6.0 or
"6", and values out of range; accepts numpy integers), ``check_real``
(rejects bools, strings, complex values, inf, nan and values below the
minimum) and ``check_point`` (rejects bools, numpy's bools, strings,
non-numbers, inf, nan and points with |Im z| above MAX_HEIGHT).
"""

from __future__ import annotations

import math
import numbers
import operator

__all__ = [
    "MAX_HEIGHT",
    "ZetaSieveError",
    "InputError",
    "DomainError",
    "PoleError",
    "PoleProximityError",
    "SingularPrefactorError",
    "ConvergenceDomainError",
    "ContourError",
    "ResolutionError",
]

# The largest |Im z| a point may have.  The terms' phases Im z * log r are
# float64 products: at this height the spacing of the floats near Im z is
# 6e-8, below POLE_GATE/16, and the direct and alternating sums at n = 1e3
# and 2e4 were within 1.0e-7 relative of 200-bit ones; at 2**32 they were
# 1.4e-6 off, and at 1e16 the direct sum is off by 0.15.
MAX_HEIGHT = 2.0**28


class ZetaSieveError(Exception):
    """Base class for every error raised by this package."""


class InputError(ZetaSieveError, ValueError):
    """Malformed or out-of-range argument (wrong type, n < 2, ...)."""


class DomainError(ZetaSieveError):
    """Mathematically valid input outside the operation's domain."""


class PoleError(DomainError):
    """Evaluation requested at (or too near) a pole."""


class PoleProximityError(PoleError):
    """Within the gate distance of a term pole 2*pi*i*k / log(r).

    Carries the offending base and lattice index so root-finding can reason
    about which term blew up.
    """

    def __init__(self, z: complex, base: int, lattice_index: int, distance: float):
        self.z = z
        self.base = base
        self.lattice_index = lattice_index
        self.distance = distance
        super().__init__(
            f"z = {z} lies {distance:.3e} from the pole 2*pi*i*{lattice_index}"
            f"/log({base}); evaluation is gated"
        )


class SingularPrefactorError(DomainError):
    """The eta prefactor 1/(1 - 2**(1-z)) is singular or out of domain."""


class ConvergenceDomainError(DomainError):
    """Argument outside the Laurent convergence disk |z|*log(r_max) < 2*pi."""

    def __init__(self, z: complex, radius: float, r_max: int):
        self.z = z
        self.radius = radius
        self.r_max = r_max
        super().__init__(
            f"|z| = {abs(z):.6g} is outside the convergence disk of the"
            f" Bernoulli series: need |z| < 2*pi/log({r_max}) = {radius:.6g}"
        )


class ContourError(DomainError):
    """A verification contour passes through or encloses a term pole."""


class ResolutionError(DomainError):
    """Phase sampling along a contour is too coarse to unwrap safely."""


def check_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """value as an int in [minimum, maximum]; no maximum when it is None."""
    if isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise InputError(f"{name} must be {bound}, got {value}")
    return value


def check_real(
    value, name: str, minimum: float | None = None, strict: bool = False
) -> float:
    """value as a finite float, >= minimum (> minimum when strict)."""
    # Fast path for the common case, an exact float that passes; every
    # other value takes the full checks below.
    if (
        type(value) is float
        and math.isfinite(value)
        and (minimum is None or (value > minimum if strict else value >= minimum))
    ):
        return value
    # float and int come first only because the ABC check alone is slow.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise InputError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    if minimum is not None and (value <= minimum if strict else value < minimum):
        relation = ">" if strict else ">="
        raise InputError(f"{name} must be {relation} {minimum}, got {value!r}")
    return value


def check_point(z) -> complex:
    """z as a finite complex with |Im z| <= MAX_HEIGHT; InputError for
    bools, strings, non-numbers, inf, nan and points above the limit."""
    # Fast path for the common case, an exact finite complex within the
    # limit; every other value takes the full checks below.
    if type(z) is complex and math.isfinite(z.real) and abs(z.imag) <= MAX_HEIGHT:
        return z
    # complex() would parse "2" and read numpy's bools, not Numbers, as 0 or
    # 1; complex, float and int come first only as the ABC check is slow.
    if isinstance(z, bool) or not isinstance(z, (complex, float, int, numbers.Number)):
        raise InputError(f"expected a number, got {z!r}")
    try:
        z = complex(z)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a complex number, got {z!r}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InputError(f"non-finite argument {z!r}")
    if abs(z.imag) > MAX_HEIGHT:
        raise InputError(
            f"z = {z!r} is above the height limit |Im z| <= 2**28: float64"
            " phases Im z * log r lose their accuracy there"
        )
    return z
