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
v = r**z directly.  Sums run vectorized over numpy arrays; numpy's pairwise
reduction is deterministic and commutes with conjugation, which the
conjugate-symmetry guarantee depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .admissible import admissible_up_to
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
# huge value; root-finding contours use the same gate.
POLE_GATE = 1e-6

# The eta prefactor is treated as singular below this magnitude.
PREFACTOR_GATE = 1e-12


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


@lru_cache(maxsize=32)
def _base_data(n):
    """(bases, logs, signs) for the set at n: the set's read-only int64
    bases, and read-only float64 arrays of log r and (-1)**(r-1)."""
    bases = admissible_up_to(n).bases
    logs = np.log(bases)
    # (-1)**(r-1): odd bases keep their sign, even bases flip.
    signs = np.where(bases % 2 == 1, 1.0, -1.0)
    for a in (logs, signs):
        a.setflags(write=False)
    return bases, logs, signs


def nearest_pole(z, n) -> tuple[float, int, int]:
    """(distance, base, lattice index) of the closest term pole.

    Poles sit at z = 2*pi*i*k/log(r) for each admissible r <= n and integer
    k; k = 0 is the pole at the origin shared by every term.
    """
    z = check_point(z)
    bases, logs, _ = _base_data(n)
    spacing = TWO_PI / logs
    k = np.rint(z.imag / spacing)
    dist = np.hypot(z.real, z.imag - k * spacing)
    i = int(np.argmin(dist))
    return float(dist[i]), int(bases[i]), int(k[i])


def pole_distance(z, n) -> float:
    """Distance from z to the nearest pole of any term with base r <= n."""
    return nearest_pole(z, n)[0]


def pole_gate(z: complex, n, gate: float) -> None:
    """Raise PoleProximityError when z lies within gate of a term pole.

    Every pole lies on Re z = 0, so |Re z| > gate clears them all without
    scanning the lattice; only points in the strip pay for the scan.
    """
    if abs(z.real) > gate:
        return
    dist, base, k = nearest_pole(z, n)
    if dist <= gate:
        raise PoleProximityError(z, base, k, dist)


def _kernel(z: complex, logs: np.ndarray, derivative: bool = False):
    """1/(r**z - 1), or with derivative r**z/(r**z - 1)**2, per base."""
    if z.real >= 0.0:
        num = np.exp(-z * logs)
        den = 1.0 - num
    else:
        v = np.exp(z * logs)
        num = v if derivative else 1.0
        den = v - 1.0
    return num / den**2 if derivative else num / den


_ALTERNATING = (
    RepresentationKind.ALTERNATING,
    RepresentationKind.ALTERNATING_COTH,
)
_COTH = (RepresentationKind.COTH, RepresentationKind.ALTERNATING_COTH)
_TERM_SUM_KINDS = (RepresentationKind.DIRECT, *_COTH, *_ALTERNATING)


def _terms(kind, z: complex, logs: np.ndarray, signs: np.ndarray):
    """The kind's per-base terms: s_r/(r**z - 1) or s_r*coth(z*log(r)/2)."""
    if kind in _COTH:
        t = 1.0 / np.tanh(0.5 * z * logs)
    else:
        t = _kernel(z, logs)
    return t * signs if kind in _ALTERNATING else t


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


def _prepare(kind, z, n, gate: float):
    """Point, n, prefactor (1.0 for plain kinds) and gate, in that order."""
    z = check_point(z)
    bases, logs, signs = _base_data(n)
    p = _eta_prefactor(z) if kind in _ALTERNATING else 1.0
    pole_gate(z, n, check_real(gate, "gate", 0.0))
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


def _evaluate(kind, z, n, gate: float) -> EvalResult:
    """A term-sum form at one truncation: checks, kernel, constant, tail."""
    z, _, logs, signs, p = _prepare(kind, z, n, gate)
    l = len(logs)
    value = _value(kind, complex(_terms(kind, z, logs, signs).sum()), l, p)
    tail = _tail_or_none(z, int(n), 1.0 / abs(p))
    return EvalResult(value, int(n), l, tail)


def partial_sum_table(kind, z, n_max, ns) -> list[EvalResult]:
    """A term-sum form at every truncation in ns, from one cumulative pass.

    The checks and the pole gate run once, at n_max; each row then reads
    its prefix of np.cumsum over the terms up to n_max.  Every n in ns
    must lie in [2, n_max].
    """
    if kind not in _TERM_SUM_KINDS:
        raise InputError(f"no cumulative form for {kind!r}")
    z, bases, logs, signs, p = _prepare(kind, z, n_max, POLE_GATE)
    partial = np.cumsum(_terms(kind, z, logs, signs))
    ns = [check_int(n, "truncation", 2, n_max) for n in ns]
    rows = []
    for n, count in zip(ns, np.searchsorted(bases, ns, "right").tolist()):
        value = _value(kind, complex(partial[count - 1]), count, p)
        tail = _tail_or_none(z, n, 1.0 / abs(p))
        rows.append(EvalResult(value, n, count, tail))
    return rows


def zeta_direct_partial(z, n, *, gate: float = POLE_GATE) -> EvalResult:
    """1 + sum over admissible r <= n of 1/(r**z - 1)."""
    return _evaluate(RepresentationKind.DIRECT, z, n, gate)


def zeta_coth_partial(z, n, *, gate: float = POLE_GATE) -> EvalResult:
    """(2-l)/2 + (1/2) sum coth(z*log(r)/2); identical to the direct form."""
    return _evaluate(RepresentationKind.COTH, z, n, gate)


def zeta_alt_partial(z, n, *, gate: float = POLE_GATE) -> EvalResult:
    """Eta-accelerated form: (1-2**(1-z))**(-1) (1 + sum (-1)**(r-1)/(r**z-1)).

    The tail bound carries the prefactor: the skipped eta terms all have
    index > n, so their sum is bounded by the same integral bound, divided
    by |1 - 2**(1-z)|.
    """
    return _evaluate(RepresentationKind.ALTERNATING, z, n, gate)


def zeta_alt_coth_partial(z, n, *, gate: float = POLE_GATE) -> EvalResult:
    """Alternating coth form with the printed branch constant.

    The constant is 1 when the term count l is even and 1/2 when l is odd.
    (The branch rule matches the plain alternating form exactly when the
    parity balance of the admissible set cooperates, which it does at every
    truncation this package pins in its fixtures; see the tests.)
    """
    return _evaluate(RepresentationKind.ALTERNATING_COTH, z, n, gate)


def zeta_bernoulli_partial(
    z, n, M, *, gate: float = POLE_GATE
) -> EvalResult:
    """Laurent/Bernoulli series: 1 + sum_{m=-1}^{M} z**m B_{m+1} P_m/(m+1)!.

    P_m = sum (log r)**m over the admissible bases (P_{-1} sums 1/log r).
    Valid on |z|*log(r_max) < 2*pi, the common convergence disk of the
    per-term Laurent expansions; outside it the series diverges and the
    call is rejected with the disk radius in the message.
    """
    z = check_point(z)
    M = check_int(M, "M", 0)
    bases, logs, _ = _base_data(n)
    r_max = int(bases[-1])
    log_max = float(logs[-1])
    if abs(z) * log_max >= TWO_PI:
        raise ConvergenceDomainError(z, TWO_PI / log_max, r_max)
    pole_gate(z, n, check_real(gate, "gate", 0.0))

    coeffs = _laurent_coefficients(M)
    x = z * logs  # |x| < 2*pi elementwise, so powers cannot overflow
    powers = np.ones(len(logs), dtype=np.complex128)
    acc = 0j
    for m in range(M + 1):
        if m > 0:
            powers = powers * x
        if coeffs[m] != 0.0:
            acc += coeffs[m] * complex(powers.sum())
    value = 1.0 + complex(np.sum(1.0 / logs)) / z + acc
    return EvalResult(value, int(n), len(logs), _tail_or_none(z, int(n)))


@lru_cache(maxsize=32)
def _laurent_coefficients(M: int) -> tuple[float, ...]:
    """B_{m+1}/(m+1)! for m = 0..M, each floated once from the exact rational."""
    table = bernoulli_table(M + 1)
    return tuple(
        float(table[m + 1] / math.factorial(m + 1)) for m in range(M + 1)
    )


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


def derivative_partial(kind, z, n, *, gate: float = POLE_GATE) -> complex:
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
    pole_gate(z, n, check_real(gate, "gate", 0.0))
    weights = logs * signs if use_signs else logs
    return complex(-(weights * _kernel(z, logs, derivative=True)).sum())
