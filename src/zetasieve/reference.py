"""Independent reference evaluator for zeta on Re(z) > 0.

This is deliberately a different algorithm from everything else in the
package, so it can serve as an oracle for the representation evaluators.
It sums the alternating (eta) series

    eta(z) = sum_{k>=0} (-1)**k (k+1)**(-z),    zeta(z) = eta(z) / (1 - 2**(1-z)),

accelerated with the Cohen / Rodriguez Villegas / Zagier Chebyshev scheme
("Convergence acceleration of alternating series", Exp. Math. 9 (2000)).

Error control
-------------
With N stages the acceleration error for real z is below (3 + sqrt(8))**(-N),
about 10**(-0.766*N).  For complex z the derivation picks up a factor that
grows like exp(pi*|Im z|/2), so the stage count is chosen as

    N = ceil((target_digits*ln(10) + (pi/2)*|Im z| + 5) / ln(3 + sqrt(8)))

with target_digits = 13, floored at 24 stages and capped at 320 (the
Chebyshev weight (3+sqrt(8))**N must stay inside double range; 5.83**320 is
about 1e245).  Within the cap, i.e. |Im z| up to about 337, the result is
good to well below the 1e-10 the package promises (1e-13 at |Im z| = 300);
beyond it DomainError is raised, since a capped sum is off by 7e-4 at
0.5+600i.
The prefactor division loses accuracy near the eta zeros 1 + 2*pi*i*k/log 2,
so a guard rejects arguments too close to them.

Before the first value is handed out the evaluator validates itself against
three classical constants and a stage-count consistency check; a failure
raises rather than returning silently wrong oracle values.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError, check_point

__all__ = ["reference_zeta"]

_LN10 = math.log(10.0)
_GAIN = math.log(3.0 + 2.0 * math.sqrt(2.0))  # per-stage digits*ln(10)
_TARGET_DIGITS = 13.0
_MIN_STAGES = 24
_MAX_STAGES = 320
_PREFACTOR_GUARD = 1e-8


def _stages(z: complex) -> int:
    need = (_TARGET_DIGITS * _LN10 + 0.5 * math.pi * abs(z.imag) + 5.0) / _GAIN
    if need > _MAX_STAGES:
        raise DomainError(
            f"z = {z} needs more than the cap of {_MAX_STAGES} stages;"
            " the reference evaluator is not accurate there"
        )
    return max(_MIN_STAGES, math.ceil(need))


def _eta(z: complex, stages: int) -> complex:
    """Accelerated eta(z); see module docstring for the error bound.

    The Chebyshev weights c_k generated below already carry the series'
    alternating sign, so the terms are the plain (k+1)**(-z).
    """
    q = 3.0 + 2.0 * math.sqrt(2.0)
    d = (q**stages + q**-stages) / 2.0
    b = -1.0
    c = -d
    acc = 0j
    for k in range(stages):
        c = b - c
        acc += c * cmath.exp(-z * math.log(k + 1.0))
        b *= (k + stages) * (k - stages) / ((k + 0.5) * (k + 1.0))
    return acc / d


def _zeta_raw(z: complex, stages: int) -> complex:
    p = 1.0 - 2.0 ** complex(1.0 - z.real, -z.imag)
    if abs(p) < _PREFACTOR_GUARD:
        raise DomainError(
            f"z = {z} is within {_PREFACTOR_GUARD} of an eta zero"
            " 1 + 2*pi*i*k/log 2; the reference evaluator loses accuracy there"
        )
    return _eta(z, stages) / p


_validated = False


def _self_check() -> None:
    """One-time validation against classical constants; raises on failure."""
    global _validated
    if _validated:
        return
    checks = [
        (2.0 + 0j, math.pi**2 / 6.0),
        (3.0 + 0j, 1.2020569031595942854),  # Apery's constant
        (0.5 + 0j, -1.4603545088095868129),
    ]
    for z, want in checks:
        got = _zeta_raw(z, _stages(z))
        if abs(got - want) > 1e-12:
            raise AssertionError(
                f"reference zeta self-check failed at z={z}: {got} vs {want}"
            )
    # Two stage counts must agree with each other; catches a broken
    # acceleration loop independently of the pinned constants.
    probe = 0.5 + 7j
    n = _stages(probe)
    if abs(_zeta_raw(probe, n) - _zeta_raw(probe, n + 12)) > 1e-11:
        raise AssertionError("reference zeta stage-consistency check failed")
    _validated = True


def reference_zeta(z) -> complex:
    """zeta(z) for Re(z) > 0, z != 1, independent of the representations.

    Good to well below 1e-10 absolute away from the pole and from the eta
    zeros (guarded), for |Im z| up to about 337 (DomainError beyond);
    validates itself on first use.
    """
    z = check_point(z)
    if z.real <= 0.0:
        raise DomainError(f"reference evaluator requires Re(z) > 0, got {z}")
    if abs(z - 1.0) < 1e-12:
        raise PoleError("zeta has its pole at z = 1")
    _self_check()
    return _zeta_raw(z, _stages(z))
