"""Representation evaluators: exact fixtures, identities, and bounds."""

import cmath
import gc
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve import admissible, representations
from zetasieve import (
    ConvergenceDomainError,
    DomainError,
    EvalResult,
    InputError,
    PoleProximityError,
    RepresentationKind,
    SearchRegion,
    SingularPrefactorError,
    ZetaSieveError,
    admissible_up_to,
    bernoulli_table,
    decompose_power,
    derivative_partial,
    euler_even_zeta,
    find_zeros,
    make_target,
    nearest_pole,
    pole_distance,
    reference_zeta,
    remainder_bound,
    special_value,
    zeta_alt_coth_partial,
    zeta_alt_partial,
    zeta_bernoulli_partial,
    zeta_coth_partial,
    zeta_direct_partial,
)

ZETA_2 = math.pi**2 / 6.0
SRC = Path(__file__).resolve().parents[1] / "src"


def alt_coth_constant_matches(n):
    """Whether the even/odd branch constant equals the regrouped constant.

    Termwise, sum (-1)**(r-1)/(r**z - 1) regroups to a coth sum plus the
    constant 1 - s/2 with s = (#odd members) - (#even members).  The branch
    rule replaces that with 1 (l even) or 1/2 (l odd), which agrees only
    when s happens to equal l mod 2; truncations where it does not are
    excluded from the identity tests.
    """
    members = admissible_up_to(n).members
    s = sum(1 if r % 2 else -1 for r in members)
    branch = 1.0 if len(members) % 2 == 0 else 0.5
    return branch == 1.0 - s / 2.0


def identity_rounding_bound(z, n):
    """A bound on |direct - coth| at z and n from rounding alone.

    With x = z log r and d = 1/(e**x - 1), a term of either form is d or
    (1 + 2d)/2.  Rounding x moves it by about EPS |x| times its derivative
    d(1 + d); forming it adds a few EPS of its magnitude, at most 1 + 2|d|
    for coth; and the pairwise sums and the constants 1 and (2 - l)/2 add
    EPS (log2 l + a few) times the sum of the term magnitudes.  A safety
    factor of 16 covers the constants dropped.
    """
    eps = np.finfo(float).eps
    logs = np.log(np.array(admissible_up_to(n).members, dtype=float))
    x = z * logs
    if z.real >= 0.0:
        w = np.exp(-x)
        d = w / (1.0 - w)
    else:
        d = 1.0 / (np.exp(x) - 1.0)
    ad = np.abs(d)
    per_term = (np.abs(x) + 4.0) * ad * np.abs(1.0 + d) + 4.0 * (ad + 1.0)
    sums = (math.log2(len(logs)) + 4.0) * (3.0 * ad.sum() + len(logs))
    return 16.0 * eps * (per_term.sum() + sums)


VALID_ALT_N = [n for n in range(2, 201) if alt_coth_constant_matches(n)]

EVALUATORS = {
    "direct": zeta_direct_partial,
    "coth": zeta_coth_partial,
    "alt": zeta_alt_partial,
    "alt-coth": zeta_alt_coth_partial,
}


class TestExactFixtures:
    def test_direct_small_rational(self):
        # 1 + 1/3 + 1/8 + 1/24 + 1/35 at z = 2, n = 6
        got = zeta_direct_partial(2.0, 6)
        want = 1 + Fraction(1, 3) + Fraction(1, 8) + Fraction(1, 24) + Fraction(1, 35)
        assert want == Fraction(107, 70)
        assert abs(got.value - float(want)) <= 1e-15
        assert got.term_count == 4
        assert got.truncation == 6

    def test_coth_single_term(self):
        # (2-1)/2 + coth(log 2)/2 = 1/2 + (5/3)/2 = 4/3 at z = 2, n = 2
        got = zeta_coth_partial(2.0, 2)
        assert abs(got.value - 4.0 / 3.0) <= 1e-15

    def test_alternating_small_rational(self):
        # 2 * (1 - 1/3 + 1/8 + 1/24 - 1/35) at z = 2, n = 6
        got = zeta_alt_partial(2.0, 6)
        assert abs(got.value - 169.0 / 105.0) <= 1e-15
        coth = zeta_alt_coth_partial(2.0, 6)
        assert abs(coth.value - 169.0 / 105.0) <= 1e-12

    def test_direct_regroups_the_geometric_tails(self):
        # Each admissible term 1/(r**z - 1) is the full geometric series
        # sum_{j>=1} r**(-jz); cross-check against the expanded double sum.
        z = 2.0
        for n in (6, 12, 50):
            members = admissible_up_to(n).members
            expanded = 1.0
            for r in members:
                j = 1
                while r ** (-j * z) >= 1e-18:
                    expanded += r ** (-j * z)
                    j += 1
            got = zeta_direct_partial(z, n).value
            assert abs(got - expanded) <= 1e-13, f"n={n}"

    def test_direct_converges_to_basel(self):
        got = zeta_direct_partial(2.0, 10**4)
        assert abs(got.value - ZETA_2) <= got.tail_bound
        assert abs(got.value - ZETA_2) <= 2e-4

    def test_alternating_converges_on_the_strip(self):
        got = zeta_alt_partial(0.75, 10**5)
        assert abs(got.value - reference_zeta(0.75)) <= 0.05


class TestFamilyIdentities:
    def test_coth_matches_direct_at_fixed_points(self):
        for z in (2.0, complex(3, 4), complex(0.5, 2.0), complex(-1.5, 1.0)):
            for n in (2, 6, 40):
                a = zeta_direct_partial(z, n).value
                b = zeta_coth_partial(z, n).value
                assert abs(a - b) <= 1e-11 * (1 + abs(a)), f"z={z} n={n}"

    def test_alt_coth_matches_alt_at_fixed_points(self):
        for z in (2.0, complex(1.5, 2.0), complex(0.5, 3.0)):
            for n in (5, 6, 40, 50, 200):
                assert alt_coth_constant_matches(n)
                a = zeta_alt_partial(z, n).value
                b = zeta_alt_coth_partial(z, n).value
                assert abs(a - b) <= 1e-11 * (1 + abs(a)), f"z={z} n={n}"

    def test_identities_at_random_points(self):
        rng = random.Random(20260814)
        checked = 0
        while checked < 200:
            z = complex(rng.uniform(0.01, 10.0), rng.uniform(-10.0, 10.0))
            if abs(z) > 10.0 or pole_distance(z, 200) <= 0.1:
                continue
            if abs(1.0 - 2.0 ** (1.0 - z)) <= 1e-6:
                continue
            n_plain = rng.choice((2, 5, 6, 12, 40, 50, 120, 200))
            a = zeta_direct_partial(z, n_plain).value
            b = zeta_coth_partial(z, n_plain).value
            assert abs(a - b) <= 1e-11 * (1 + abs(a)), f"z={z} n={n_plain}"
            n_alt = rng.choice(VALID_ALT_N)
            a = zeta_alt_partial(z, n_alt).value
            b = zeta_alt_coth_partial(z, n_alt).value
            assert abs(a - b) <= 1e-11 * (1 + abs(a)), f"z={z} n={n_alt}"
            checked += 1

    @settings(max_examples=300, deadline=None)
    @given(
        re=st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0)),
        im=st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0])),
        n=st.integers(2, 3000),
    )
    @example(1.3, 7.0, 2)
    @example(0.5, 14.134725, 3000)
    @example(-2.5, 0.0, 100)
    @example(1e-5, 2 * math.pi / math.log(2), 17)
    def test_coth_equals_direct_within_rounding(self, re, im, n):
        # coth(x/2)/2 = 1/(e**x - 1) + 1/2 term by term, so the two forms
        # differ by rounding alone, which the bound below covers.
        z = complex(re, im)
        try:
            a = zeta_direct_partial(z, n).value
        except ZetaSieveError as exc:
            with pytest.raises(type(exc)):
                zeta_coth_partial(z, n)
            return
        b = zeta_coth_partial(z, n).value
        assert abs(a - b) <= identity_rounding_bound(z, n), (z, n, abs(a - b))

    def test_branch_constant_mismatch_is_real(self):
        # The excluded truncations genuinely violate the identity, they are
        # not an artifact of the sampler.
        assert not alt_coth_constant_matches(2)
        z = complex(2.0, 1.0)
        a = zeta_alt_partial(z, 2).value
        b = zeta_alt_coth_partial(z, 2).value
        assert abs(a - b) > 1e-3


# Unit roundoff of float64.
UNIT = 2.0**-53

# Nonzero real parts, from subnormal to where exp(-z*log r) underflows in
# every term: at Re z = +-0.0, z and -z both lie right of Re z = 0, where
# each takes its own exp and the two need not be conjugate to the last bit.
NONZERO_REAL = st.tuples(
    st.sampled_from((1.0, -1.0)),
    st.one_of(st.floats(5e-324, 1e-5), st.floats(1e-5, 3.0), st.floats(3.0, 40.0)),
).map(lambda pair: pair[0] * pair[1])


class TestReflection:
    """1/(r**z - 1) + 1/(r**-z - 1) = -1 for each base, so a form's value
    at z and at -z add to 2 - l, l the term count."""

    @settings(max_examples=150, deadline=None)
    @given(
        form=st.sampled_from(["direct", "coth"]),
        re=NONZERO_REAL,
        im=st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0])),
        n=st.integers(2, 300),
    )
    @example("direct", 0.5, 14.134725, 300)
    @example("coth", -1e-300, 3.0, 12)
    @example("direct", 40.0, -0.0, 2)
    def test_values_at_z_and_minus_z_add_to_2_minus_l(self, form, re, im, n):
        # Within (l + 8) unit roundoffs of the constants and terms added:
        # each term is within a few of its exact value, and a sum of l + 1
        # numbers adds at most l more.
        z = complex(re, im)
        evaluate = EVALUATORS[form]
        try:
            total = evaluate(z, n).value + evaluate(-z, n).value
        except PoleProximityError:
            return
        logs = base_data(n)[1]
        l = len(logs)
        if form == "direct":
            constant = 1.0
            terms = [1.0 / (np.exp(w * logs) - 1.0) for w in (z, -z)]
        else:
            constant = (2.0 - l) / 2.0
            terms = [0.5 / np.tanh(0.5 * w * logs) for w in (z, -z)]
        size = 2.0 * abs(constant) + sum(np.abs(t).sum() for t in terms)
        assert abs(total - (2.0 - l)) <= (l + 8) * UNIT * size, (z, n)


class TestConjugateSymmetry:
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda z: zeta_direct_partial(z, 12).value,
            lambda z: zeta_coth_partial(z, 12).value,
            lambda z: zeta_alt_partial(z, 12).value,
            lambda z: zeta_alt_coth_partial(z, 12).value,
            lambda z: zeta_bernoulli_partial(z, 6, 20).value,
        ],
    )
    def test_exactly_conjugate_equivariant(self, evaluate):
        for z in (complex(2.0, 1.3), complex(0.5, 2.0), complex(1.25, -0.75)):
            assert evaluate(z.conjugate()) == evaluate(z).conjugate()

    @settings(max_examples=80, deadline=None)
    @given(
        form=st.sampled_from(["direct", "coth", "alt", "alt-coth", "bernoulli"]),
        re=st.floats(-3.0, 3.0),
        im=st.floats(-40.0, 40.0),
        n=st.integers(2, 3000),
        M=st.integers(0, 60),
    )
    def test_every_evaluator_commutes_with_conjugation(self, form, re, im, n, M):
        z = complex(re, im)
        if form == "bernoulli":
            # Pull z inside the convergence disk, keeping its direction.
            radius = 2 * math.pi / math.log(admissible_up_to(n).members[-1])
            if abs(z) >= radius:
                z *= 0.99 * radius / abs(z)
            evaluate = lambda w: zeta_bernoulli_partial(w, n, M)
        else:
            evaluate = lambda w: EVALUATORS[form](w, n)
        try:
            want = evaluate(z).value.conjugate()
        except ZetaSieveError as exc:
            with pytest.raises(type(exc)):
                evaluate(z.conjugate())
            return
        assert evaluate(z.conjugate()).value == want


class TestRemainderBound:
    def test_closed_form_values(self):
        assert remainder_bound(10, 2.0) == 0.1
        assert remainder_bound(100, 3.0) == 5e-5

    def test_dominates_brute_force_tails(self):
        # True tail sum_{m>n} m**(-sigma), truncated at 10**7 (the omitted
        # remainder only makes the true tail larger by an amount already
        # covered by the bound's slack at these sigmas).
        cutoff = 10**7
        for sigma in (1.5, 2.0, 3.0):
            m = np.arange(11, cutoff + 1, dtype=np.float64)
            terms = m**-sigma
            for n in (10, 100, 1000):
                tail = float(terms[m > n].sum())
                bound = remainder_bound(n, sigma)
                assert tail <= bound, f"sigma={sigma} n={n}"
                # Tight to within one term plus the part beyond the cutoff.
                slack = float(n) ** -sigma + cutoff ** (1.0 - sigma) / (sigma - 1.0)
                assert bound <= tail + slack

    def test_tail_bound_fields(self):
        assert zeta_direct_partial(2.0, 6).tail_bound == remainder_bound(6, 2.0)
        assert zeta_direct_partial(0.5, 6).tail_bound is None
        assert zeta_direct_partial(complex(1.0, 2.0), 6).tail_bound is None

    def test_alternating_tail_carries_the_prefactor(self):
        z = complex(2.0, 1.0)
        p = abs(1.0 - 2.0 ** (1.0 - z))
        got = zeta_alt_partial(z, 10).tail_bound
        assert got == pytest.approx(remainder_bound(10, 2.0) / p, rel=1e-15)

    def test_bounds_hold_for_the_evaluators(self):
        for sigma in (1.5, 2.0, 3.0):
            want = reference_zeta(sigma)
            for n in (10, 100, 1000):
                r = zeta_direct_partial(float(sigma), n)
                assert abs(r.value - want) <= r.tail_bound
                a = zeta_alt_partial(float(sigma), n)
                assert abs(a.value - want) <= a.tail_bound

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            remainder_bound(10, 1.0)
        with pytest.raises(DomainError):
            remainder_bound(10, 0.5)
        with pytest.raises(InputError):
            remainder_bound(0, 2.0)
        with pytest.raises(InputError):
            remainder_bound(2.5, 2.0)
        with pytest.raises(InputError):
            remainder_bound(10, "2.5")


class TestBernoulliSeries:
    def test_lowest_order_closed_form(self):
        # M = 0 keeps only the 1/z and constant terms:
        # 1 + P_{-1}/z + B_1 * l, with l = 4 members below 6.
        members = (2, 3, 5, 6)
        p_minus = sum(1.0 / math.log(r) for r in members)
        got = zeta_bernoulli_partial(0.5, 6, 0)
        assert abs(got.value - (1.0 + 2.0 * p_minus - 2.0)) <= 1e-14

    def test_matches_direct_inside_the_disk(self):
        got = zeta_bernoulli_partial(0.5, 6, 40).value
        want = zeta_direct_partial(0.5, 6).value
        assert abs(got - want) <= 1e-10

    def test_error_is_monotone_in_order(self):
        z = 0.5
        want = zeta_direct_partial(z, 6).value
        errs = [
            abs(zeta_bernoulli_partial(z, 6, M).value - want)
            for M in (5, 10, 20, 40)
        ]
        floor = 10 * np.finfo(float).eps * (1 + abs(want))
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= max(prev, floor)

    def test_complex_argument_inside_the_disk(self):
        z = complex(0.4, 0.8)
        got = zeta_bernoulli_partial(z, 12, 60).value
        want = zeta_direct_partial(z, 12).value
        assert abs(got - want) <= 1e-10 * (1 + abs(want))

    def test_rejects_outside_the_disk(self):
        with pytest.raises(ConvergenceDomainError) as info:
            zeta_bernoulli_partial(2.0, 600, 10)
        assert info.value.radius == pytest.approx(2 * math.pi / math.log(600))
        assert info.value.r_max == 600
        assert "2*pi/log(600)" in str(info.value)

    def test_disk_boundary_is_sharp(self):
        radius = 2 * math.pi / math.log(6)
        zeta_bernoulli_partial(radius * 0.999, 6, 5)
        with pytest.raises(ConvergenceDomainError):
            zeta_bernoulli_partial(radius * 1.001, 6, 5)

    def test_rejects_bad_order(self):
        kind = RepresentationKind.BERNOULLI_SERIES
        forms = (
            zeta_bernoulli_partial,
            lambda z, n, M: representations.partial_sum_table(kind, z, n, [n], M)[0],
        )
        for evaluate in forms:
            with pytest.raises(InputError, match=r"M must be in \[0, 199\], got -1"):
                evaluate(0.5, 6, -1)
            with pytest.raises(InputError, match="M must be an integer"):
                evaluate(0.5, 6, 2.5)
            # The order is checked by name before the disk test.
            for z in (0.5, 50.0):
                with pytest.raises(InputError, match=r"M must be in \[0, 199\], got 200"):
                    evaluate(z, 6, 200)
            with pytest.raises(ConvergenceDomainError):
                evaluate(50.0, 6, 199)
        assert forms[1](0.5, 6, 199) == forms[0](0.5, 6, 199)

    def test_matches_a_40_digit_laurent_series(self):
        # The same truncated series, 1 + sum_{m=-1}^{M} z**m B_{m+1} P_m /
        # (m+1)!, summed at 40 digits by mpmath over bases found here by
        # brute force: nothing below comes from the package but the value.
        def is_power(m):
            return any(
                c >= 2 and c**k == m
                for k in range(2, m.bit_length() + 1)
                for b in [round(m ** (1.0 / k))]
                for c in (b - 1, b, b + 1)
            )

        with mpmath.workdps(40):
            bases = [r for r in range(2, 601) if not is_power(r)]
            sums = []  # sums[i][m + 1]: P_m over bases[: i + 1]
            running = [mpmath.mpf(0)] * 62
            for r in bases:
                log_r = mpmath.log(r)
                running = [p + log_r**m for p, m in zip(running, range(-1, 61))]
                sums.append(running)
            coeffs = [
                mpmath.bernoulli(m + 1) / mpmath.factorial(m + 1) for m in range(61)
            ]

        rng = random.Random(2026)
        errors = []
        for _ in range(300):
            n, M = rng.randrange(2, 601), rng.randrange(5, 61)
            count = sum(1 for r in bases if r <= n)
            radius = 2 * math.pi / math.log(bases[count - 1])
            z = 0.95 * radius * math.sqrt(rng.random()) * cmath.exp(
                1j * rng.uniform(0.0, 2 * math.pi)
            )
            if abs(z) < 1e-3:
                continue
            got = zeta_bernoulli_partial(z, n, M).value
            with mpmath.workdps(40):
                w, P = mpmath.mpc(z), sums[count - 1]
                want = 1 + P[0] / w + mpmath.fsum(
                    coeffs[m] * P[m + 1] * w**m for m in range(M + 1)
                )
                errors.append(float(abs(mpmath.mpc(got) - want) / abs(want)))
        assert len(errors) > 250
        assert max(errors) <= 1e-13

    def test_coefficients_are_built_once_per_order(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return bernoulli_table(*args, **kwargs)

        monkeypatch.setattr(representations, "bernoulli_table", counted)
        first = zeta_bernoulli_partial(0.5, 6, 23)
        second = zeta_bernoulli_partial(complex(0.3, 0.1), 12, 23)
        assert len(calls) <= 1
        assert first == zeta_bernoulli_partial(0.5, 6, 23)
        assert second == zeta_bernoulli_partial(complex(0.3, 0.1), 12, 23)


class TestPrefixStore:
    """Base data for every n is a prefix of one store at the largest n asked
    for, and reading it there gives the same bits as building it cold."""

    LARGE = 250_000

    @staticmethod
    def forget():
        admissible_up_to.cache_clear()
        admissible._STORE.clear()
        representations._bernoulli_polynomial.cache_clear()

    @staticmethod
    def store_array(name="powers"):
        """The array that owns the memory of the store's perfect powers (or
        of its logs)."""
        state = admissible._STORE._state
        array = state.floats[0] if name == "logs" else getattr(state, name)
        return array if array.base is None else array.base

    @staticmethod
    def outputs(n):
        aset = admissible_up_to(n)
        logs, signs = admissible.base_logs_and_signs(n)
        z = complex(0.7, 3.1)
        inside = 0.5 * 2 * math.pi / math.log(aset.members[-1]) * cmath.exp(0.4j)
        ns = list(range(2, n + 1, max(1, n // 17)))
        values = [f(z, n) for f in EVALUATORS.values()]
        values.append(zeta_bernoulli_partial(inside, n, 30))
        values.append(derivative_partial(RepresentationKind.DIRECT, z, n))
        values.append(nearest_pole(complex(1e-9, 7.0), n))
        for kind in RepresentationKind:
            w = inside if kind is RepresentationKind.BERNOULLI_SERIES else z
            values.append(representations.partial_sum_table(kind, w, n, ns, 30))
        return aset, logs.tobytes(), signs.tobytes(), repr(values)

    @pytest.mark.parametrize("n", [2, 3, 97, 1000, 20_000])
    def test_results_do_not_depend_on_what_was_built_before(self, n):
        self.forget()
        cold = self.outputs(n)
        self.forget()
        self.outputs(7)  # the store then grows past arrays it has built
        self.outputs(self.LARGE)
        assert self.outputs(n) == cold

    def test_smaller_sets_are_views_of_the_largest(self):
        self.forget()
        large = base_data(self.LARGE)
        large_powers = admissible_up_to(self.LARGE).powers
        for n in (2, 97, 20_000, self.LARGE - 1):
            small = base_data(n)
            # Each set builds its own bases; the logs and signs are views.
            assert admissible_up_to(n).bases is small[0]
            assert small[0].tolist() == large[0][: len(small[0])].tolist()
            for a, whole in zip(small[1:], large[1:]):
                assert np.shares_memory(a, whole)
            for a in small:
                assert not a.flags.writeable
                assert len(a) == admissible_up_to(n).term_count
            powers = admissible_up_to(n).powers
            assert np.shares_memory(powers, large_powers) or not len(powers)
            assert not powers.flags.writeable
            assert len(powers) == n - 1 - admissible_up_to(n).term_count

    def test_growth_drops_sets_that_view_the_old_arrays(self):
        self.forget()
        small = [2, 97, 20_000]
        old = [weakref.ref(admissible_up_to(n).bases) for n in small]
        admissible.base_logs_and_signs(small[-1])
        old += [weakref.ref(self.store_array(a)) for a in ("powers", "logs")]
        base_data(self.LARGE)
        gc.collect()
        assert [ref() for ref in old] == [None] * len(old)
        for n in (*small, self.LARGE):
            assert admissible_up_to(n).powers.base is self.store_array()
            assert admissible.base_logs_and_signs(n)[0].base is self.store_array("logs")


class TestStore:
    """The store keeps 9 bytes per base, builds every array a block of
    integers at a time, and builds the int64 bases only when they are
    read."""

    N = 300_000
    BLOCK = admissible._BLOCK

    @staticmethod
    def all_paths(n):
        """Every evaluator path at n, the pole gate and a disk refusal
        included."""
        z, w = complex(0.5, 14.0), complex(0.05, 0.02)
        for f in EVALUATORS.values():
            f(z, n)
        zeta_direct_partial(complex(-0.5, 3.0), n)
        zeta_bernoulli_partial(w, n, 30)
        with pytest.raises(ConvergenceDomainError):
            zeta_bernoulli_partial(5.0, n, 30)
        for kind in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
            derivative_partial(kind, z, n)
        nearest_pole(complex(1e-7, 14.0), n)
        with pytest.raises(PoleProximityError):
            zeta_direct_partial(complex(0.0, 2 * math.pi / math.log(6)), n)
        for kind in RepresentationKind:
            u = w if kind is RepresentationKind.BERNOULLI_SERIES else z
            representations.partial_sum_table(kind, u, n, [2, n // 3, n], 30)

    def test_an_evaluation_keeps_nine_bytes_per_base_and_no_bases(self, monkeypatch):
        TestPrefixStore.forget()
        gc.collect()
        tracemalloc.start()
        try:
            zeta_direct_partial(complex(0.5, 14.0), self.N)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        aset = admissible_up_to(self.N)
        # A few KiB of Python objects (the cached set, the lru_cache entry)
        # on top of the arrays.
        assert held <= 9 * aset.term_count + aset.powers.nbytes + (16 << 10)

        def unread(aset):
            raise AssertionError(f"an evaluator read the bases up to {aset.limit}")

        monkeypatch.setattr(admissible.AdmissibleSet, "bases", property(unread))
        self.all_paths(self.N)
        self.all_paths(1_000)

    @pytest.mark.parametrize(
        "call",
        ["make_target(RepresentationKind.DIRECT, 7)", "zeta_direct_partial(2.0, 7)"],
    )
    def test_floats_are_built_only_as_far_as_asked(self, call):
        # The sieve at 1e7 leaves a fresh process near 30 MiB; logs and
        # signs built at the store's limit, 1e7, would add about 86 MiB.
        # The peak is VmHWM: ru_maxrss would keep the forking parent's.
        code = (
            "from zetasieve import *\n"
            "admissible_up_to(10**7)\n"
            f"{call}\n"
            "status = open('/proc/self/status').read()\n"
            "print(status.split('VmHWM:')[1].split()[0])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 40 << 10  # KiB

    def test_a_growth_during_a_build_is_kept(self, monkeypatch):
        TestPrefixStore.forget()
        build = admissible._logs_and_signs
        grower = threading.Thread(target=admissible.base_logs_and_signs, args=(50_000,))

        def build_while_another_thread_grows(powers, n):
            if n == 20_000:
                grower.start()
                grower.join(0.2)  # it waits for this build to be kept
            return build(powers, n)

        monkeypatch.setattr(admissible, "_logs_and_signs", build_while_another_thread_grows)
        logs, _ = admissible.base_logs_and_signs(20_000)
        grower.join(60)
        assert not grower.is_alive()
        state = admissible._STORE._state
        assert state.limit == 50_000 and state.floats is not None
        assert logs.tobytes() == admissible.base_logs_and_signs(20_000)[0].tobytes()

    @pytest.mark.parametrize(
        "read",
        [admissible.base_logs_and_signs, lambda n: admissible_up_to(n).bases],
        ids=["logs-and-signs", "bases"],
    )
    def test_growth_takes_no_temporary_above_a_block(self, read):
        TestPrefixStore.forget()
        read(20_000)
        gc.collect()
        tracemalloc.start()
        try:
            read(self.N)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each block of integers takes a bool mask and an int64 array of
        # its bases; the next block's are made before the last one's go.
        assert peak - kept <= 2 * 9 * self.BLOCK

    @pytest.mark.parametrize(
        "n",
        [2, 3, 4, 5, 4_097, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 2, 1_000_001],
        ids=lambda n: f"n={n}",
    )
    @pytest.mark.parametrize("grown", [False, True], ids=["at-n", "prefix"])
    def test_logs_and_signs_are_those_of_the_bases(self, n, grown):
        # Block edges fall after BLOCK + 1 and 2 * BLOCK + 1; 4 097,
        # BLOCK + 1 and 1 000 001 lie just above a perfect power.
        TestPrefixStore.forget()
        if grown:
            admissible.base_logs_and_signs(n + 3 * self.BLOCK)
        logs, signs = admissible.base_logs_and_signs(n)
        aset = admissible_up_to(n)
        powers = set()
        for b in range(2, math.isqrt(n) + 1):
            power = b * b
            while power <= n:
                powers.add(power)
                power *= b
        want = np.setdiff1d(np.arange(2, n + 1), sorted(powers))
        assert aset.bases.tolist() == want.tolist()
        assert aset.powers.tolist() == sorted(powers)
        assert aset.term_count == len(logs) == len(signs) == len(want)
        assert logs.tobytes() == np.log(aset.bases).tobytes()
        assert signs.dtype == np.int8
        assert signs.tolist() == np.where(want % 2 == 1, 1, -1).tolist()

    @pytest.mark.parametrize("n", [1_000, 50_000])
    def test_int8_signs_give_the_bits_of_float_signs(self, monkeypatch, n):
        logs, signs = admissible.base_logs_and_signs(n)
        assert signs.dtype == np.int8
        floats = signs.astype(float)
        floats.setflags(write=False)
        points = [
            complex(2.0, 1.0),
            complex(0.5, -14.0),
            complex(-0.7, 3.3),
            complex(2.0, 0.0),
            complex(0.5, -0.0),
            complex(-1.5, 0.0),
        ]
        ns = [2, n // 3, n // 3 + 1, n]

        def outputs():
            values = []
            for z in points:
                for kind in TERM_KINDS:
                    if z.real <= 0.0 and kind in ALT_KINDS:
                        continue
                    values.append(representations._evaluate(kind, z, n).value)
                    rows = representations.partial_sum_table(kind, z, n, ns)
                    values += [r.value for r in rows]
                for kind in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
                    values.append(derivative_partial(kind, z, n))
            return bits(values)

        with_int8 = outputs()
        monkeypatch.setattr(
            representations, "base_logs_and_signs", lambda m: (logs, floats)
        )
        assert outputs() == with_int8

    @pytest.mark.parametrize("n", [9, 1_024, 1_025, 2 * BLOCK])
    def test_disk_refusals_name_the_largest_base(self, n):
        r_max = max(m for m in range(n - 3, n + 1) if decompose_power(m).exponent == 1)
        with pytest.raises(ConvergenceDomainError) as info:
            zeta_bernoulli_partial(5.0, n, 10)
        assert info.value.r_max == r_max
        with pytest.raises(ConvergenceDomainError) as info:
            representations.partial_sum_table(
                RepresentationKind.BERNOULLI_SERIES, 5.0, n + 100, [n], 10
            )
        assert info.value.r_max == r_max


class TestSpecialValues:
    def test_euler_closed_forms(self):
        assert euler_even_zeta(1) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        assert euler_even_zeta(2) == pytest.approx(math.pi**4 / 90, rel=1e-15)
        assert euler_even_zeta(3) == pytest.approx(math.pi**6 / 945, rel=1e-15)

    def test_euler_matches_reference(self):
        for m in range(1, 7):
            assert abs(euler_even_zeta(m) - reference_zeta(2 * m)) <= 1e-9

    def test_partial_sum_routing(self):
        assert special_value("any", 2, 6).value == zeta_direct_partial(2.0, 6).value
        assert special_value("even", 1, 6).value == zeta_direct_partial(2.0, 6).value
        assert special_value("odd", 1, 6).value == zeta_direct_partial(3.0, 6).value

    def test_even_partial_approaches_euler(self):
        got = special_value("even", 1, 10**4)
        assert abs(got.value - euler_even_zeta(1)) <= got.tail_bound

    def test_odd_partial_approaches_apery(self):
        got = special_value("odd", 1, 10**4)
        assert abs(got.value - reference_zeta(3.0)) <= got.tail_bound

    def test_rejects_arguments_below_two(self):
        with pytest.raises(InputError):
            special_value("any", 1, 6)
        with pytest.raises(InputError):
            special_value("median", 2, 6)
        with pytest.raises(InputError):
            euler_even_zeta(0)
        with pytest.raises(InputError):
            euler_even_zeta(101)

    @pytest.mark.parametrize("kind", ["any", "even", "odd"])
    def test_an_argument_too_large_for_a_float_is_refused(self, kind):
        # complex(10**400) raises OverflowError; the argument is checked
        # as every point is.
        with pytest.raises(InputError, match="too large for a float"):
            special_value(kind, 10**400, 10)
        assert special_value(kind, 10**300, 10).value == 1.0

    def test_the_cap_is_fixed(self):
        # m up to DEFAULT_MAX_INDEX // 2 = 100, and no keyword lifts it.
        assert euler_even_zeta(100) == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(TypeError):
            euler_even_zeta(150, maximum=400)


class TestDerivative:
    def test_single_term_closed_form(self):
        # d/dz [1/(2**z - 1)] at z = 2 is -log(2) * 4/9
        got = derivative_partial(RepresentationKind.DIRECT, 2.0, 2)
        assert abs(got - (-math.log(2) * 4.0 / 9.0)) <= 1e-15

    def test_alternating_signs_flip_even_bases(self):
        got = derivative_partial(RepresentationKind.ALTERNATING, 2.0, 3)
        want = math.log(2) * 4.0 / 9.0 - math.log(3) * 9.0 / 64.0
        assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize(
        "kind", [RepresentationKind.DIRECT, RepresentationKind.ALTERNATING]
    )
    def test_matches_finite_differences(self, kind):
        h = 1e-6
        for n in (6, 12):
            target = make_target(kind, n)
            for z in (1.3, complex(2, 1), complex(0.7, -2), complex(-1.5, 0.4)):
                z = complex(z)
                fd = (target.value_at(z + h) - target.value_at(z - h)) / (2 * h)
                got = derivative_partial(kind, z, n)
                assert abs(got - fd) <= 1e-6 * (1 + abs(got)), f"z={z} n={n}"
                fused = target.value_and_derivative_at(z)[1]
                assert abs(fused - got) <= 1e-14, f"z={z} n={n}"

    def test_rejects_other_kinds(self):
        with pytest.raises(InputError):
            derivative_partial(RepresentationKind.COTH, 2.0, 6)


class TestPoleLattice:
    def test_origin_is_the_shared_pole(self):
        assert pole_distance(0j, 2) == 0.0
        assert pole_distance(0j, 12) == 0.0

    def test_exact_lattice_point(self):
        z = complex(0.0, 2 * math.pi / math.log(2))
        assert pole_distance(z, 5) == 0.0
        dist, base, k = nearest_pole(z, 5)
        assert (base, k) == (2, 1)

    def test_point_between_poles(self):
        # From z = 1 the nearest lattice points are the origin (distance 1)
        # and 2*pi*i/log 2 (further); the minimum is 1.
        assert pole_distance(complex(1.0, 0.0), 2) == 1.0

    def test_poles_are_purely_imaginary(self):
        rng = random.Random(7)
        for _ in range(50):
            z = complex(rng.uniform(0.5, 3.0) * rng.choice((1, -1)), rng.uniform(-9, 9))
            assert pole_distance(z, 20) >= abs(z.real)

    def test_gate_raises_with_context(self):
        with pytest.raises(PoleProximityError) as info:
            zeta_direct_partial(complex(1e-8, 0.0), 12)
        assert info.value.base == 2
        assert info.value.lattice_index == 0
        assert info.value.distance <= 1e-6
        z = complex(0.0, 2 * math.pi / math.log(3))
        with pytest.raises(PoleProximityError) as info:
            zeta_coth_partial(z, 12)
        assert info.value.base == 3
        assert info.value.lattice_index == 1

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(2, 60),
        pick=st.integers(0, 10**6),
        k=st.integers(-4, 4),
        edge=st.sampled_from(["inside", "below", "at", "above"]),
        re_scale=st.floats(-2.0, 2.0),
        im_scale=st.floats(-2.0, 2.0),
        side=st.sampled_from([1.0, -1.0]),
    )
    @example(12, 0, 0, "at", 0.0, 0.0, 1.0)
    @example(12, 0, 0, "below", 0.0, 0.0, -1.0)
    @example(12, 0, 0, "above", 0.0, 0.0, 1.0)
    def test_gate_raises_exactly_within_the_gate(
        self, n, pick, k, edge, re_scale, im_scale, side
    ):
        # The gate skips the lattice scan when |Re z| > gate; it must still
        # raise exactly when the nearest pole is within the gate, including
        # for |Re z| one ulp either side of the gate.
        gate = representations.POLE_GATE
        members = admissible_up_to(n).members
        r = members[pick % len(members)]
        re = {
            "inside": re_scale * gate,
            "below": side * math.nextafter(gate, 0.0),
            "at": side * gate,
            "above": side * math.nextafter(gate, math.inf),
        }[edge]
        z = complex(re, 2 * math.pi * k / math.log(r) + im_scale * gate)
        near = nearest_pole(z, n)[0] <= gate
        try:
            zeta_direct_partial(z, n)
        except PoleProximityError:
            assert near
        else:
            assert not near


class TestAlternatingDomain:
    def test_prefactor_zero_at_one(self):
        with pytest.raises(SingularPrefactorError):
            zeta_alt_partial(1.0, 6)

    def test_prefactor_zero_off_axis(self):
        z = complex(1.0, 2 * math.pi / math.log(2))
        with pytest.raises(SingularPrefactorError):
            zeta_alt_coth_partial(z, 6)

    def test_left_half_plane_rejected(self):
        with pytest.raises(DomainError):
            zeta_alt_partial(complex(-2.0, 1.0), 6)


class TestInputChecking:
    @pytest.mark.parametrize(
        "bad",
        [
            float("nan"), complex(0, float("inf")), True, np.True_, np.False_,
            [1], "2", "2+0j",
        ],
    )
    def test_rejects_non_numeric_points(self, bad):
        with pytest.raises(InputError):
            zeta_direct_partial(bad, 6)

    @staticmethod
    def point_evaluators():
        """Every public entry that takes a point and n, Bernoulli aside."""
        return [
            zeta_direct_partial,
            zeta_coth_partial,
            zeta_alt_partial,
            zeta_alt_coth_partial,
            nearest_pole,
            lambda z, n: derivative_partial(RepresentationKind.DIRECT, z, n),
            lambda z, n: derivative_partial(RepresentationKind.ALTERNATING, z, n),
            lambda z, n: representations.partial_sum_table(
                RepresentationKind.DIRECT, z, n, [2, n]
            ),
        ]

    @pytest.mark.parametrize(
        "z", [0.5 + 1.05e308j, 0.5 - 1.5e308j, 0.5 + 1e308j, 0.5 + 1e16j]
    )
    def test_heights_above_the_limit_are_refused(self, z):
        # Above |Im z| = 2**28 the float64 phases Im z * log r are noise long
        # before they overflow: at 1e16 the direct sum at n = 1000 is off by
        # 15% of its value (mpmath, 200 bits), and at 1e308 every term is
        # nan.  Refused, not answered.
        evaluators = self.point_evaluators()
        evaluators.append(lambda z, n: zeta_bernoulli_partial(z, n, 10))
        for evaluate in evaluators:
            message = re.escape(f"z = {z!r} is above the height limit")
            for n in (2, 6):
                with pytest.raises(InputError, match=message):
                    evaluate(z, n)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_height_limit_is_exact(self, sign):
        top = complex(0.5, sign * 2.0**28)
        above = complex(0.5, sign * math.nextafter(2.0**28, math.inf))
        for evaluate in self.point_evaluators():
            evaluate(top, 6)
            with pytest.raises(InputError, match="height limit"):
                evaluate(above, 6)
        with pytest.raises(ConvergenceDomainError):
            zeta_bernoulli_partial(top, 6, 10)
        with pytest.raises(InputError, match="height limit"):
            zeta_bernoulli_partial(above, 6, 10)

    @pytest.mark.parametrize("kind", list(RepresentationKind))
    def test_every_form_reads_its_rows_alike(self, kind):
        def table(ns, z=2 + 0.5j):
            return representations.partial_sum_table(kind, z, 18, ns, 7)

        assert table([]) == [] and table(()) == []
        with pytest.raises(InputError, match="expected a number"):
            table([], "2")  # an empty table still checks its arguments
        for bad in (5, None, Fraction(10**5000)):  # its repr() raises ValueError
            with pytest.raises(InputError, match="iterable of truncations"):
                table(bad)
        ns = [17, 2, 9, 17, 5, 12]
        by_n = {row.truncation: row for row in table(sorted(set(ns)))}
        rows = table(ns)
        assert rows == [by_n[n] for n in ns]
        assert bits([r.value for r in rows]) == bits([by_n[n].value for n in ns])
        tails = [r.tail_bound for r in rows]
        assert [t.hex() for t in tails] == [by_n[n].tail_bound.hex() for n in ns]

    @pytest.mark.parametrize("z", [2 + 0.5j, 0.7 + 0.3j], ids=["tail", "no-tail"])
    @pytest.mark.parametrize("kind", list(RepresentationKind))
    def test_rows_are_the_columns_zipped(self, kind, z):
        # Unsorted, with repeats: the columns keep the order given, and
        # each row is its column entries, to the bit.
        ns = [17, 2, 9, 17, 5, 12, 2]
        columns = representations.partial_sum_columns(kind, z, 18, ns, 7)
        truncations, counts, values, tails = columns
        assert truncations == ns and all(type(n) is int for n in truncations)
        assert counts == [admissible_up_to(n).term_count for n in ns]
        assert all(type(c) is int for c in counts)
        assert all(type(v) is complex for v in values)
        assert all(t is None for t in tails) == (z.real <= 1.0)
        rows = representations.partial_sum_table(kind, z, 18, ns, 7)
        assert rows == [EvalResult(*fields) for fields in zip(values, ns, counts, tails)]
        assert bits([r.value for r in rows]) == bits(values)
        assert representations.partial_sum_columns(kind, z, 18, [], 7) == ([], [], [], [])

    def test_result_metadata(self):
        r = zeta_alt_coth_partial(complex(2, 1), 20)
        assert r.truncation == 20
        assert r.term_count == 15
        assert isinstance(r.value, complex)


TERM_KINDS = [
    RepresentationKind.DIRECT,
    RepresentationKind.COTH,
    RepresentationKind.ALTERNATING,
    RepresentationKind.ALTERNATING_COTH,
]
COTH_KINDS = TERM_KINDS[1::2]
ALT_KINDS = TERM_KINDS[2:]


def base_data(n):
    """(bases, logs, signs) at n: the int64 bases, which the evaluators
    never read, and the logs and signs they sum over."""
    return (admissible_up_to(n).bases, *admissible.base_logs_and_signs(n))


# One-shot forms of the blocked sums: whole-array terms, then one .sum(),
# np.cumsum or np.argmin, as the package computed them before it summed in
# blocks.  The blocked sums must keep every bit of these.
def one_shot_terms(kind, z, logs, signs):
    if kind in COTH_KINDS:
        t = 1.0 / np.tanh(0.5 * z * logs)
    elif z.real >= 0.0:
        num = np.exp(-z * logs)
        t = num / (1.0 - num)
    else:
        t = 1.0 / (np.exp(z * logs) - 1.0)
    return t * signs if kind in ALT_KINDS else t


def one_shot_value(kind, z, acc, count):
    p = representations._eta_prefactor(z) if kind in ALT_KINDS else 1.0
    return representations._values(kind, [complex(acc)], [count], p)[0]


def one_shot_derivative(kind, z, logs, signs):
    if z.real >= 0.0:
        num = np.exp(-z * logs)
        den = 1.0 - num
    else:
        num = np.exp(z * logs)
        den = num - 1.0
    weights = logs * signs if kind is RepresentationKind.ALTERNATING else logs
    return complex(-(weights * (num / den**2)).sum())


def one_shot_nearest_pole(z, bases, logs):
    spacing = 2 * math.pi / logs
    k = np.rint(z.imag / spacing)
    dist = np.hypot(z.real, z.imag - k * spacing)
    i = int(np.argmin(dist))
    return float(dist[i]), int(bases[i]), int(k[i])


def one_shot_bernoulli(logs, M):
    coeffs = representations._laurent_coefficients(M)
    sums = [float((1.0 / logs).sum()), coeffs[0] * len(logs)]
    power = logs
    for m in range(1, M + 1):
        if m > 1:
            power = power * logs
        sums.append(coeffs[m] * float(power.sum()) if coeffs[m] != 0.0 else 0.0)
    return tuple(sums)


def bits(values):
    return np.array(values, dtype=complex).tobytes()


def table_and_cumsum_bits(kind, z, n, ns):
    """partial_sum_table's values, and the rows of np.cumsum over the
    whole array of terms, as bytes."""
    bases, logs, signs = base_data(n)
    rows = representations.partial_sum_table(kind, z, n, ns)
    partial = np.cumsum(one_shot_terms(kind, z, logs, signs))
    counts = np.searchsorted(bases, ns, "right")
    want = [one_shot_value(kind, z, partial[c - 1], c) for c in counts]
    return bits([r.value for r in rows]), bits(want)


class TestHeightLimit:
    """Up to |Im z| = 2**28 the float64 evaluators hold their accuracy;
    above it they refuse rather than answer with noise."""

    @staticmethod
    def exact(kind, z, n):
        """The partial sum at 60 digits, and its scale: 1 + sum |term|,
        over |prefactor| for the alternating form."""
        with mpmath.workdps(60):
            w = mpmath.mpc(z.real, z.imag)
            terms = [
                (-1) ** (r - 1) / (mpmath.mpf(r) ** w - 1)
                if kind == "alt" else 1 / (mpmath.mpf(r) ** w - 1)
                for r in admissible_up_to(n).members
            ]
            p = 1 - mpmath.mpf(2) ** (1 - w) if kind == "alt" else mpmath.mpf(1)
            value = (1 + mpmath.fsum(terms)) / p
            scale = (1 + mpmath.fsum(abs(t) for t in terms)) / abs(p)
            return complex(value), float(scale)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from(["direct", "alt"]),
        sigma=st.floats(0.25, 3.0),
        height=st.floats(0.0, 2.0**29),
        n=st.integers(2, 2000),
    )
    @example(kind="direct", sigma=0.5, height=2.0**28, n=2000)
    @example(kind="alt", sigma=2.0, height=-(2.0**28), n=2000)
    @example(kind="direct", sigma=0.5, height=1e16, n=1000)
    @example(kind="alt", sigma=0.5, height=math.nextafter(2.0**28, 0.0) + 1.0, n=2)
    @example(kind="alt", sigma=1.0, height=0.0, n=2)
    def test_answers_are_accurate_or_refused(self, kind, sigma, height, n):
        z = complex(sigma, height)
        evaluate = EVALUATORS[kind]
        if abs(height) > 2.0**28:
            with pytest.raises(InputError, match="height limit"):
                evaluate(z, n)
            return
        # At z = 1 the eta prefactor vanishes, and the exact value with it.
        if kind == "alt" and abs(1.0 - 2.0 ** (1.0 - z)) < representations.PREFACTOR_GATE:
            with pytest.raises(SingularPrefactorError):
                evaluate(z, n)
            return
        value, scale = self.exact(kind, z, n)
        assert abs(evaluate(z, n).value - value) <= 1e-6 * scale


class TestBlockedSums:
    """Sums taken block by block keep the bits of the one-shot sums."""

    POINTS = [
        complex(2.0, 1.0),
        complex(0.3, 14.1),
        complex(0.5, -40.0),
        complex(-0.7, 3.3),
        complex(-1.5, -0.2),
    ]

    def check_all(self, n):
        bases, logs, signs = base_data(n)
        l = len(logs)
        for z in self.POINTS:
            for kind in TERM_KINDS:
                if z.real <= 0.0 and kind in ALT_KINDS:
                    continue
                got = representations._evaluate(kind, z, n).value
                terms = one_shot_terms(kind, z, logs, signs)
                want = one_shot_value(kind, z, terms.sum(), l)
                assert bits(got) == bits(want), (kind, z, n)
                # Unsorted and repeated truncations.
                ns = [n, 2, n // 3 + 1, 2, n, 17 if n >= 17 else 2, n // 2 + 5]
                ns = [max(2, min(m, n)) for m in ns]
                rows, want_rows = table_and_cumsum_bits(kind, z, n, ns)
                assert rows == want_rows, (kind, z)
            for kind in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
                got = derivative_partial(kind, z, n)
                assert bits(got) == bits(one_shot_derivative(kind, z, logs, signs))
            strip = complex(1e-4, z.imag)
            assert nearest_pole(strip, n) == one_shot_nearest_pole(strip, bases, logs)
        # Every base ties at k = 0 below the first pole off the axis; the
        # first one wins, across every leaf.
        tie = complex(0.3, 1e-3)
        assert nearest_pole(tie, n) == one_shot_nearest_pole(tie, bases, logs)
        assert nearest_pole(tie, n)[1:] == (2, 0)
        for M in (0, 7, 40):
            representations._bernoulli_polynomial.cache_clear()
            got = representations._bernoulli_polynomial(n, M)
            want = one_shot_bernoulli(logs, M)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("leaf", [8, 64, 1000])
    @pytest.mark.parametrize("n", [2, 150, 4_321, 50_000])
    def test_small_leaves(self, monkeypatch, leaf, n):
        monkeypatch.setattr(representations, "_LEAF", leaf)
        self.check_all(n)

    def test_default_leaf_with_several_leaves(self):
        n = 50_000
        assert len(representations._base_data(n)[1]) > 2 * representations._LEAF
        self.check_all(n)

    def test_second_leaf_holds_the_nearest_pole(self, monkeypatch):
        monkeypatch.setattr(representations, "_LEAF", 64)
        bases, logs, _ = base_data(5_000)
        r = int(bases[300])
        z = complex(1e-7, 2 * math.pi / math.log(r) + 1e-7)
        assert nearest_pole(z, 5_000) == one_shot_nearest_pole(z, bases, logs)
        assert nearest_pole(z, 5_000)[1:] == (r, 1)

    def test_tie_across_the_split_goes_to_the_left_half(self, monkeypatch):
        monkeypatch.setattr(representations, "_LEAF", 64)
        n = 1_000
        bases, logs, _ = base_data(n)
        split = representations._split(len(logs), real=False)
        # Halfway between the k = 1 poles of the bases either side of the
        # split, with a real part so large that hypot rounds the offsets of
        # the poles near there away: a run of bases from the left half into
        # the right one ties at exactly Re z.
        a, b = (math.pi / math.log(r) for r in bases[split - 1 : split + 1])
        z = complex(1e6, a + b)
        spacing = 2 * math.pi / logs
        dist = np.hypot(z.real, z.imag - np.rint(z.imag / spacing) * spacing)
        ties = np.flatnonzero(dist == dist.min())
        assert ties[0] < split <= ties[-1]
        assert nearest_pole(z, n) == one_shot_nearest_pole(z, bases, logs)
        assert nearest_pole(z, n)[1] == bases[ties[0]]

    @pytest.mark.parametrize("half", ["left", "right"])
    def test_tie_across_a_lower_node_goes_to_its_left_side(
        self, monkeypatch, half
    ):
        monkeypatch.setattr(representations, "_LEAF", 64)
        n = 1_000
        bases, logs, _ = base_data(n)
        split = representations._split(len(logs), real=False)
        if half == "left":
            lo, hi = 0, split
        else:
            lo, hi = split, len(logs)
        node = lo + representations._split(hi - lo, real=False)
        # As above, at the node where that half splits next.
        a, b = (math.pi / math.log(r) for r in bases[node - 1 : node + 1])
        z = complex(1e6, a + b)
        spacing = 2 * math.pi / logs
        dist = np.hypot(z.real, z.imag - np.rint(z.imag / spacing) * spacing)
        ties = np.flatnonzero(dist == dist.min())
        assert lo <= ties[0] < node <= ties[-1] < hi
        assert nearest_pole(z, n) == one_shot_nearest_pole(z, bases, logs)
        assert nearest_pole(z, n)[1] == bases[ties[0]]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_walk_holds_up_to_the_height_limit(self, monkeypatch, sign):
        # Every lattice index is finite up to |Im z| = 2**28, so every leaf
        # has a finite nearest pole; above it the point is refused.
        monkeypatch.setattr(representations, "_LEAF", 64)
        n = 5_000
        bases, logs, _ = base_data(n)
        z = complex(1e-7, sign * 2.0**28)
        assert nearest_pole(z, n) == one_shot_nearest_pole(z, bases, logs)
        with pytest.raises(InputError, match="height limit"):
            nearest_pole(complex(1e-7, sign * 1.7e308), n)

    @settings(max_examples=120, deadline=None)
    @given(
        leaf=st.sampled_from([8, 64, 1000, 2**14]),
        boundary=st.sampled_from([0, 8, 64, 128, 1, 2, 3]),
        offset=st.integers(-9, 9),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tree_sum_is_np_sum(self, leaf, boundary, offset, real, seed):
        # Lengths just either side of 8, 64 and 128 elements and of one,
        # two and three leaves.
        count = max(0, (boundary if boundary >= 8 else boundary * leaf) + offset)
        rng = np.random.default_rng(seed)
        def draw():
            return rng.standard_normal(count) * 10.0 ** rng.integers(-8, 8, count)

        a = draw() if real else draw() + 1j * draw()
        want = np.array(a.sum()).tobytes()
        spans = []

        def make_leaf(length):
            def leaf(i, j):
                assert j - i <= length
                spans.append((i, j, threading.get_ident()))
                return a[i:j].sum()

            return leaf

        old, representations._LEAF = representations._LEAF, leaf
        try:
            got = representations._tree_sum(count, make_leaf, real)
            halves = not real and count > representations._leaf_length(count)
        finally:
            representations._LEAF = old
        assert np.array(got).tobytes() == want
        # The leaves tile [0, count); the caller takes the first, and above
        # one leaf the helper thread may take the right half of a complex
        # sum.
        assert not spans or spans[0][2] == threading.get_ident()
        spans.sort()
        assert [i for i, _, _ in spans] == [0] + [j for _, j, _ in spans[:-1]]
        assert spans[-1][1] == count
        assert len({ident for _, _, ident in spans}) <= 1 + halves

    def test_a_helper_that_starts_first_takes_the_right_half(self):
        # The caller's first leaf waits until a leaf has started on another
        # thread, which can then only be the helper on the right half.
        count = 3 * representations._LEAF
        split = representations._split(count, real=False)
        caller, started, spans = threading.get_ident(), threading.Event(), []

        def make_leaf(length):
            def leaf(i, j):
                if threading.get_ident() != caller:
                    started.set()
                elif i == 0:
                    started.wait(TestHelperThread.TIMEOUT)
                spans.append((i, threading.current_thread().name))
                return np.complex128(j - i)

            return leaf

        assert representations._tree_sum(count, make_leaf) == count
        assert {name for i, name in spans if i < split} == {
            threading.current_thread().name
        }
        assert {name for i, name in spans if i >= split} == {"zetasieve-helper"}


    @pytest.mark.parametrize("M", [7, 40, 199])
    @pytest.mark.parametrize("per_group", [1, 2, None], ids=["one", "two", "default"])
    def test_power_sums_are_np_sum_per_row(self, monkeypatch, per_group, M):
        # Every summed order in every group, at prefixes on numpy's 8- and
        # 128-element edges, has the bits of np.sum over its own row.
        _, logs, _ = representations._base_data(20_000)
        length = len(logs)
        orders = [-1, *range(1, M + 1, 2)]
        if per_group is not None:
            monkeypatch.setattr(representations, "_GROUP_BYTES", 8 * length * per_group)
        fit = representations._GROUP_BYTES // (8 * length)
        rows = representations._power_rows(M, length)
        assert rows.shape == (min(fit, len(orders)) + 1, length)
        prefixes = [*range(1, 10), 63, 64, 65, 127, 128, 129, 1000, length]
        got = representations._power_sums(logs, prefixes, M, rows)
        powers, power = {-1: 1.0 / logs}, logs
        for m in range(1, M + 1):
            if m > 1:
                power = power * logs
            powers[m] = power
        want = [[np.sum(powers[m][:p]) for m in orders] for p in prefixes]
        assert got.tobytes() == np.array(want).tobytes()


class TestHelperThread:
    """Above one leaf the right half of a sum, and blocks of a table's
    terms, may run on one helper thread; the results keep the bits of a
    serial run."""

    N = 50_000  # more than two default leaves of bases
    TIMEOUT = 60.0

    @staticmethod
    def outputs(n):
        z, w = complex(0.5, 14.0), complex(0.05, 0.02)
        values = [f(z, n).value for f in EVALUATORS.values()]
        table = representations.partial_sum_table(
            RepresentationKind.COTH, z, n, [n, 2, n // 3, n // 2]
        )
        values += [r.value for r in table]
        representations._bernoulli_polynomial.cache_clear()
        values.append(zeta_bernoulli_partial(w, n, 40).value)
        for kind in (RepresentationKind.DIRECT, RepresentationKind.ALTERNATING):
            values.append(derivative_partial(kind, z, n))
        return bits(values), nearest_pole(complex(1e-7, 14.0), n)

    def test_large_sums_use_the_helper_and_small_ones_do_not(self, monkeypatch):
        n = self.N
        assert len(representations._base_data(n)[1]) > 2 * representations._LEAF
        z = complex(0.5, 14.0)
        large = [lambda f=f: f(z, n) for f in EVALUATORS.values()] + [
            lambda: derivative_partial(RepresentationKind.DIRECT, z, n),
            lambda: derivative_partial(RepresentationKind.ALTERNATING, z, n),
            lambda: nearest_pole(complex(1e-7, 14.0), n),
        ]
        large += [
            lambda k=kind: representations.partial_sum_table(k, 2 + 2j, n, [2, n])
            for kind in TERM_KINDS
        ]
        serial = self.outputs(n)
        monkeypatch.setattr(representations, "_HELPER", None)
        for call in large:
            with pytest.raises(AttributeError):
                call()
        # One leaf or block, the Bernoulli sums and a zero search never
        # touch it.
        self.outputs(1_000)
        representations._bernoulli_polynomial.cache_clear()
        zeta_bernoulli_partial(complex(0.05, 0.02), n, 40)
        representations.partial_sum_table(
            RepresentationKind.BERNOULLI_SERIES, 0.05 + 0.02j, n, [2, n], 40
        )
        for kind in TERM_KINDS:
            representations.partial_sum_table(kind, 2 + 2j, n, [2, 1_000])
        target = make_target(RepresentationKind.DIRECT, 8)
        assert find_zeros(target, SearchRegion(0.0, 1.5, 0.0, 12.0, 8, 8))
        monkeypatch.undo()
        assert self.outputs(n) == serial

    def test_concurrent_callers_get_the_serial_bits(self):
        serial = self.outputs(self.N)
        results, errors = [], []

        def run():
            try:
                for _ in range(3):
                    results.append(self.outputs(self.N))
            except BaseException as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + self.TIMEOUT
            for t in threads:
                t.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert results == [serial] * 12
        helpers = [t for t in threading.enumerate() if t.name.startswith("zetasieve")]
        assert len(helpers) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_gets_a_helper_of_its_own(self):
        serial = self.outputs(self.N)  # the parent's helper thread is running
        pid = os.fork()
        if pid == 0:  # the child: report by exit code only
            try:
                os._exit(0 if self.outputs(self.N) == serial else 1)
            finally:
                os._exit(2)
        deadline = time.monotonic() + self.TIMEOUT
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done, "the child hung on the helper it inherited"
        assert os.waitstatus_to_exitcode(status) == 0

    def test_sums_still_run_at_interpreter_exit(self):
        # At exit the helper refuses new work; an atexit handler's sums run
        # both halves on its own thread instead.
        code = (
            "import atexit, zetasieve\n"
            "def value():\n"
            f"    v = zetasieve.zeta_direct_partial(0.5 + 14j, {self.N}).value\n"
            "    print(v.real.hex(), v.imag.hex())\n"
            "atexit.register(value)\n"
            "value()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=self.TIMEOUT,
        )
        assert done.returncode == 0, done.stderr
        first, second = done.stdout.splitlines()
        assert first == second

    def test_both_halves_see_the_callers_errstate(self):
        # As above, the caller's first leaf waits for the helper to start.
        caller, started, seen = threading.get_ident(), threading.Event(), []

        def make_leaf(length):
            def leaf(start, stop):
                if threading.get_ident() != caller:
                    started.set()
                elif start == 0:
                    started.wait(self.TIMEOUT)
                seen.append((threading.get_ident(), np.geterr()))
                return np.complex128(stop - start)

            return leaf

        count = 3 * representations._LEAF
        with np.errstate(over="raise", under="warn", invalid="ignore"):
            want = np.geterr()
            total = representations._tree_sum(count, make_leaf)
        assert total == count
        assert len({ident for ident, _ in seen}) == 2
        assert all(state == want for _, state in seen)
        assert np.geterr() != want

    @staticmethod
    def take_turns(monkeypatch, n):
        """Make the terms of each block of a table at n wait until the next
        block has started, so the caller and the helper take turns; returns
        the (block, thread name, raised) log and the events to set after."""
        logs = representations._base_data(n)[1]
        blocks = -(-len(logs) // representations._LEAF)
        started = [threading.Event() for _ in range(blocks + 1)]
        started[blocks].set()
        log, terms = [], representations._terms

        def turn(kind, z, block_logs, *rest):
            b = (block_logs.ctypes.data - logs.ctypes.data) // 8
            b //= representations._LEAF
            started[b].set()
            started[b + 1].wait(TestHelperThread.TIMEOUT)
            name = threading.current_thread().name
            try:
                t = terms(kind, z, block_logs, *rest)
            except FloatingPointError:
                log.append((b, name, True))
                raise
            log.append((b, name, False))
            return t

        monkeypatch.setattr(representations, "_terms", turn)
        return log, started

    @pytest.mark.parametrize("kind", TERM_KINDS)
    def test_blocks_taken_in_turns_keep_the_bits(self, monkeypatch, kind):
        n = 120_000  # eight blocks
        ns = [n, 2, 16_391, 16_392, 50_000, n - 1, 2, 77_777]
        log, started = self.take_turns(monkeypatch, n)
        try:
            got, want = table_and_cumsum_bits(kind, complex(1.5, 14.0), n, ns)
        finally:
            for event in started:
                event.set()
        assert got == want
        helper = [b for b, name, _ in log if name == "zetasieve-helper"]
        assert sorted(b for b, _, _ in log) == list(range(8))
        assert sorted(helper) == [1, 3, 5, 7]

    def test_an_error_on_the_helper_reaches_the_caller(self, monkeypatch):
        # exp first underflows in block 9 of 19, which the helper takes.
        n, z = 300_000, complex(59.0, 0.0)
        ns = list(range(600, n + 1, 600))
        kind = RepresentationKind.DIRECT
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError) as free:
                representations.partial_sum_table(kind, z, n, ns)
            log, started = self.take_turns(monkeypatch, n)
            try:
                with pytest.raises(FloatingPointError) as turns:
                    representations.partial_sum_table(kind, z, n, ns)
            finally:
                for event in started:
                    event.set()
        assert str(turns.value) == str(free.value) == "underflow encountered in exp"
        first = min((b, name) for b, name, raised in log if raised)
        assert first == (9, "zetasieve-helper")
        assert all(not raised for b, _, raised in log if b < 9)

    def test_no_job_starts_three_past_the_one_the_caller_holds(self):
        # The prefix sums reuse three buffer pairs, job j the pair j % 3.
        started, third = [], threading.Event()

        def job(i):
            started.append(i)
            if i == 2:
                third.set()
            return i

        results = representations._in_order([lambda i=i: job(i) for i in range(8)])
        assert next(results) == 0
        assert third.wait(self.TIMEOUT)  # only the helper can have started it
        time.sleep(0.2)
        assert sorted(started) == [0, 1, 2]
        assert list(results) == list(range(1, 8))

    def test_a_stalled_helper_holds_no_table_up(self):
        held, release = threading.Event(), threading.Event()

        def stall():  # the helper's job: the holder thread waits in hold
            held.set()
            release.wait(self.TIMEOUT)

        def hold():
            held.wait(self.TIMEOUT)

        holder = threading.Thread(
            target=lambda: list(representations._in_order([hold, stall]))
        )
        result = []
        table = threading.Thread(
            target=lambda: result.append(
                table_and_cumsum_bits(
                    RepresentationKind.ALTERNATING, 2 + 1j, 120_000, [2, 120_000]
                )
            )
        )
        holder.start()
        try:
            assert held.wait(self.TIMEOUT)
            table.start()
            table.join(self.TIMEOUT)
            assert not table.is_alive()
        finally:
            release.set()
            holder.join(self.TIMEOUT)
        assert not holder.is_alive()
        [(got, want)] = result
        assert got == want

    @staticmethod
    def drain():
        """Wait until the helper has popped every job offered so far."""
        drained = threading.Event()
        representations._HELPER.offer(representations._Job(drained.set, lambda f: f()))
        assert drained.wait(TestHelperThread.TIMEOUT)

    @staticmethod
    def counted(count, delays=None):
        """count jobs that log (index, thread name) and sleep delays[i]."""
        ran = []

        def job(i):
            ran.append((i, threading.current_thread().name))
            if delays and delays[i]:
                time.sleep(delays[i])
            return i

        return [lambda i=i: job(i) for i in range(count)], ran

    @pytest.mark.parametrize("count", [2, representations._AHEAD, 9])
    def test_every_job_runs_once_whichever_thread_takes_it(self, count):
        rng, names = random.Random(count), set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(150):
                delays = [rng.choice((0.0, 0.0, 1e-5, 2e-4)) for _ in range(count)]
                jobs, ran = self.counted(count, delays)
                assert list(representations._in_order(jobs)) == list(range(count))
                self.drain()  # a job it pops now must not run again
                assert sorted(i for i, _ in ran) == list(range(count))
                names.update(name for _, name in ran)
        finally:
            sys.setswitchinterval(interval)
        assert "zetasieve-helper" in names

    def test_jobs_the_caller_finished_or_left_never_run_again(self):
        # The helper is held on another caller's job while this caller runs
        # every job of its own, and leaves a second set after its first
        # job; the helper pops the jobs of both only afterwards.
        held, release = threading.Event(), threading.Event()

        def stall():
            held.set()
            release.wait(self.TIMEOUT)

        holder = threading.Thread(
            target=lambda: list(representations._in_order([held.wait, stall]))
        )
        holder.start()
        try:
            assert held.wait(self.TIMEOUT)
            jobs, ran = self.counted(9)
            assert list(representations._in_order(jobs)) == list(range(9))
            left, ran_left = self.counted(9)
            results = representations._in_order(left)
            assert next(results) == 0
            results.close()
        finally:
            release.set()
            holder.join(self.TIMEOUT)
        self.drain()
        caller = threading.current_thread().name
        assert ran == [(i, caller) for i in range(9)]
        assert ran_left == [(0, caller)]

    def test_one_job_never_touches_the_helper(self, monkeypatch):
        monkeypatch.setattr(representations, "_HELPER", None)
        jobs, ran = self.counted(1)
        assert list(representations._in_order(jobs)) == [0]
        assert list(representations._in_order([])) == []
        assert ran == [(0, threading.current_thread().name)]

    def test_importing_starts_no_thread_and_no_executor(self):
        code = (
            "import sys, threading, zetasieve\n"
            "print(threading.active_count(),"
            " sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=self.TIMEOUT,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "[]"]


class TestMemoryBound:
    """No call's temporaries grow with n: at n = 3e5 each one peaks far
    below the 4.8 MB of a single complex array over its bases."""

    N = 300_000
    LIMIT = 2 << 20

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "call",
        [
            lambda n: zeta_direct_partial(complex(2.0, 1.0), n),
            lambda n: zeta_coth_partial(complex(0.5, 14.0), n),
            lambda n: zeta_alt_partial(complex(0.5, 14.0), n),
            lambda n: zeta_alt_coth_partial(complex(2.0, 1.0), n),
            lambda n: zeta_direct_partial(complex(-0.5, 3.0), n),
            lambda n: derivative_partial(RepresentationKind.DIRECT, 0.5 + 14j, n),
            lambda n: derivative_partial(RepresentationKind.ALTERNATING, 2 + 1j, n),
            lambda n: nearest_pole(complex(1e-7, 14.0), n),
            lambda n: representations.partial_sum_table(
                RepresentationKind.COTH, complex(2.0, 1.0), n, range(600, n + 1, 600)
            ),
            lambda n: zeta_bernoulli_partial(complex(0.25, 0.1), n, 40),
        ],
        ids=[
            "direct", "coth", "alt", "alt-coth", "direct-left", "derivative",
            "derivative-alt", "nearest-pole", "table-500-rows", "bernoulli-first",
        ],
    )
    def test_peak_traced_memory(self, call):
        representations._base_data(self.N)  # the store is the caller's
        zeta_bernoulli_partial(0.1, 6, 40)  # warms the Laurent coefficients
        representations._bernoulli_polynomial.cache_clear()
        assert self.peak(lambda: call(self.N)) < self.LIMIT

    def test_bernoulli_table_keeps_two_rows_of_the_largest(self):
        # A row over 3e5 bases is larger than a group's budget, so a group
        # holds one order, beside the spare: two rows of 2.4 MB, and no third.
        n = self.N
        representations._base_data(n)  # the store is the caller's
        zeta_bernoulli_partial(0.1, 6, 40)  # warms the Laurent coefficients
        call = lambda: representations.partial_sum_table(
            RepresentationKind.BERNOULLI_SERIES, complex(0.3, 0.2), n,
            range(3000, n + 1, 3000), 40,
        )
        assert self.peak(call) <= 5 << 20

    @pytest.mark.parametrize("kind", COTH_KINDS)
    def test_coth_tables_take_one_buffer_per_block(self, kind):
        # Three blocks in flight, each with one buffer: the coth kinds
        # write no spare.  Half a MiB covers the rows and their results.
        n = self.N
        admissible.base_logs_and_signs(n)  # the store is the caller's
        call = lambda: representations.partial_sum_table(
            kind, complex(2.0, 1.0), n, range(600, n + 1, 600)
        )
        assert self.peak(call) < 3 * 16 * representations._LEAF + (1 << 19)

    def test_large_sums_leave_no_buffers_behind(self):
        # With the cycle collector off, buffers held by a reference cycle
        # would stay allocated after each call returns.
        n = 200_000
        calls = [
            lambda: zeta_direct_partial(complex(0.5, 14.0), n),
            lambda: derivative_partial(RepresentationKind.ALTERNATING, 2 + 1j, n),
            lambda: nearest_pole(complex(1e-7, 14.0), n),
        ]
        for call in calls:  # the store and the helper thread are the caller's
            call()
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(20):
                for call in calls:
                    call()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert held < 1 << 20
