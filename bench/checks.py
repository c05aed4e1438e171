"""Independent reference quantities and tolerances for the output checks.

Nothing here calls into zetasieve: the admissible set, its parity balance,
the term magnitudes and the truncation bounds are recomputed from scratch,
so a defect in the package cannot hide itself by also corrupting the
yardstick it is measured with.

Every tolerance is fixed before any result is looked at.  It is built from
float64 rounding (EPS) and the magnitudes of the terms being summed, with a
safety factor of 16 over the first-order error bound.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(np.float64).eps)
SAFETY = 16.0
TWO_PI = 2.0 * math.pi

# The reference oracle promises "well below 1e-10" on the points used here
# (|Im z| <= 50); comparisons against it are allowed that much on top of
# the mathematical bound.
REFERENCE_ALLOWANCE = 1e-10


def perfect_powers(n: int) -> np.ndarray:
    """Sorted perfect powers b**k (b >= 2, k >= 2) up to n."""
    found = set()
    b = 2
    while b * b <= n:
        p = b * b
        while p <= n:
            found.add(p)
            p *= b
        b += 1
    return np.array(sorted(found), dtype=np.int64)


def is_perfect_power(m: int) -> bool:
    for k in range(2, m.bit_length() + 1):
        root = round(m ** (1.0 / k))
        if any(c >= 2 and c**k == m for c in (root - 1, root, root + 1)):
            return True
    return False


def admissible_bases(n: int) -> np.ndarray:
    """The integers 2..n that are not perfect powers, ascending, as int64."""
    bases = np.arange(2, n + 1, dtype=np.int64)
    keep = np.ones(len(bases), dtype=bool)
    keep[perfect_powers(n) - 2] = False
    return bases[keep]


def branch_constants(ns):
    """(printed, exact) alt-coth constants at truncation(s) ns.

    printed: 1 when the term count l is even, 1/2 when it is odd.
    exact: 1 - s/2 with s = #odd - #even admissible bases.
    """
    ns = np.asarray(ns, dtype=np.int64)
    pp = perfect_powers(int(ns.max()))
    odd_pp = np.searchsorted(pp[pp % 2 == 1], ns, side="right")
    even_pp = np.searchsorted(pp[pp % 2 == 0], ns, side="right")
    odd = (ns - 1) - ns // 2 - odd_pp
    even = ns // 2 - even_pp
    printed = np.where((odd + even) % 2 == 0, 1.0, 0.5)
    return printed, 1.0 - (odd - even) / 2.0


def eta_prefactor(z: complex) -> complex:
    return 1.0 - 2.0 ** (1.0 - z)


def tail_bound(n: int, sigma: float) -> float:
    """sum_{m > n} m**(-sigma) <= n**(1 - sigma)/(sigma - 1), for sigma > 1."""
    return float(n) ** (1.0 - sigma) / (sigma - 1.0)


def _terms(z: complex, logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, x): d_r = 1/(r**z - 1) evaluated overflow-safe, x_r = z log r."""
    x = z * logs
    if z.real >= 0.0:
        w = np.exp(-x)
        d = w / (1.0 - w)
    else:
        d = 1.0 / (np.exp(x) - 1.0)
    return d, x


def numerator(z: complex, n: int, alternating: bool) -> complex:
    """1 + sum over admissible r <= n of s_r/(r**z - 1), s_r = (-1)**(r-1)
    when alternating and 1 otherwise: the root finder's target function."""
    bases = admissible_bases(n)
    d, _ = _terms(z, np.log(bases.astype(np.float64)))
    if alternating:
        d = np.where(bases % 2 == 1, d, -d)
    return 1.0 + complex(d.sum())


def kernel_tolerance(z: complex, logs: np.ndarray) -> float:
    """Rounding bound for one evaluation of c + sum s_r/(r**z - 1).

    Covers both the 1/(r**z - 1) form and the coth form, summed pairwise.
    The argument x = z log r carries a rounding error of about EPS*|x|,
    which the term derivative -d(1 + d) magnifies near the poles; each term
    then adds a few EPS of its own magnitude (|coth| <= 1 + 2|d|), and the
    pairwise sum adds EPS*log2(l) times the sum of magnitudes.
    """
    d, x = _terms(z, logs)
    ad = np.abs(d)
    per_term = (np.abs(x) + 4.0) * ad * np.abs(1.0 + d) + 4.0 * (ad + 1.0)
    l = len(logs)
    summed = (math.log2(l) + 4.0) * float(3.0 * ad.sum() + l)
    return SAFETY * EPS * (float(per_term.sum()) + summed)


def cumulative_tolerance(z: complex, logs: np.ndarray) -> float:
    """Bound on the gap between a running (sequential) sum and a pairwise one.

    A sequential sum of l terms is off by at most about l*EPS times the sum
    of magnitudes, on top of the per-term bound of kernel_tolerance.
    """
    d, _ = _terms(z, logs)
    l = len(logs)
    magnitude = float(3.0 * np.abs(d).sum() + l)
    return kernel_tolerance(z, logs) + SAFETY * EPS * (l + 8.0) * magnitude


def laurent_tolerance(z: complex, logs: np.ndarray, order: int) -> float:
    """Bound on |Bernoulli series of order M - direct form| at one point.

    The series keeps B_j x**(j-1)/j! for j <= M + 1 per term of
    1/(e**x - 1); since |B_j|/j! <= 2 zeta(j)/(2 pi)**j and the odd B_j
    vanish, the dropped part is at most
    2 zeta(M+2)/(2 pi) * rho**(M+1) / (1 - rho**2), rho = |x|/(2 pi).
    Rounding adds EPS times (order + log2 l) times the sum of the series'
    term magnitudes 1/|x| + 1/2 + (2 zeta(2)/(2 pi)) rho/(1 - rho).
    """
    rho = np.abs(z) * logs / TWO_PI
    zeta_bound = 1.0 + 3.0 * 2.0 ** -(order + 2)  # zeta(j) - 1 <= 3 * 2**-j
    remainder = float(
        np.sum(2.0 * zeta_bound / TWO_PI * rho ** (order + 1) / (1.0 - rho * rho))
    )
    series = float(
        np.sum(
            1.0 / (np.abs(z) * logs)
            + 0.5
            + (math.pi / 6.0) * rho / (1.0 - rho)
        )
    )
    rounding = SAFETY * EPS * (order + math.log2(len(logs)) + 8.0) * series
    return remainder * (1.0 + 1e-9) + rounding + kernel_tolerance(z, logs)


def conjugate_exact(value: complex, mirror: complex) -> bool:
    """mirror is exactly conj(value): same real part, negated imaginary."""
    return mirror.real == value.real and mirror.imag == -value.imag
