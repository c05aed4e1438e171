"""Representation evaluators: exact fixtures, identities, and bounds."""

import cmath
import gc
import math
import os
import random
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
    InputError,
    PoleProximityError,
    RepresentationKind,
    SearchRegion,
    SingularPrefactorError,
    ZetaSieveError,
    admissible_up_to,
    bernoulli_table,
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

    def test_branch_constant_mismatch_is_real(self):
        # The excluded truncations genuinely violate the identity, they are
        # not an artifact of the sampler.
        assert not alt_coth_constant_matches(2)
        z = complex(2.0, 1.0)
        a = zeta_alt_partial(z, 2).value
        b = zeta_alt_coth_partial(z, 2).value
        assert abs(a - b) > 1e-3


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
        with pytest.raises(InputError):
            zeta_bernoulli_partial(0.5, 6, -1)
        with pytest.raises(InputError):
            zeta_bernoulli_partial(0.5, 6, 2.5)

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
    def store_array():
        """The array that owns the memory of the store's bases."""
        bases = admissible._STORE._state[1]
        return bases if bases.base is None else bases.base

    @staticmethod
    def outputs(n):
        aset = admissible_up_to(n)
        _, logs, signs = representations._base_data(n)
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
        large = representations._base_data(self.LARGE)
        for n in (2, 97, 20_000, self.LARGE - 1):
            small = representations._base_data(n)
            assert admissible_up_to(n).bases is small[0]
            for a, whole in zip(small, large):
                assert np.shares_memory(a, whole)
                assert not a.flags.writeable
                assert len(a) == admissible_up_to(n).term_count

    def test_growth_drops_sets_that_view_the_old_arrays(self):
        self.forget()
        small = [2, 97, 20_000]
        for n in small:
            admissible_up_to(n)
        old = weakref.ref(self.store_array())
        admissible_up_to(self.LARGE)
        gc.collect()
        assert old() is None
        for n in (*small, self.LARGE):
            assert admissible_up_to(n).bases.base is self.store_array()


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

    @pytest.mark.parametrize("maximum", ["x", -1, 2.5, True, None])
    def test_rejects_bad_maximum(self, maximum):
        with pytest.raises(InputError, match="maximum"):
            euler_even_zeta(1, maximum=maximum)

    def test_maximum_lifts_the_cap(self):
        assert euler_even_zeta(150, maximum=400) == pytest.approx(1.0, abs=1e-13)


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
        "bad", [float("nan"), complex(0, float("inf")), True, [1], "2", "2+0j"]
    )
    def test_rejects_non_numeric_points(self, bad):
        with pytest.raises(InputError):
            zeta_direct_partial(bad, 6)

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
    return representations._value(kind, complex(acc), count, p)


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
        bases, logs, signs = representations._base_data(n)
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
                partial = np.cumsum(terms)
                counts = np.searchsorted(bases, ns, "right")
                rows = representations.partial_sum_table(kind, z, n, ns)
                want_rows = [
                    one_shot_value(kind, z, partial[c - 1], c) for c in counts
                ]
                assert bits([r.value for r in rows]) == bits(want_rows), (kind, z)
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
        bases, logs, _ = representations._base_data(5_000)
        r = int(bases[300])
        z = complex(1e-7, 2 * math.pi / math.log(r) + 1e-7)
        assert nearest_pole(z, 5_000) == one_shot_nearest_pole(z, bases, logs)
        assert nearest_pole(z, 5_000)[1:] == (r, 1)

    def test_tie_across_the_split_goes_to_the_left_half(self, monkeypatch):
        monkeypatch.setattr(representations, "_LEAF", 64)
        n = 1_000
        bases, logs, _ = representations._base_data(n)
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

        def make_leaf():
            def leaf(i, j):
                spans.append((i, j))
                return a[i:j].sum()

            return leaf

        old, representations._LEAF = representations._LEAF, leaf
        try:
            got = representations._tree_sum(count, make_leaf(), real)
            if not real:
                halves = representations._tree_sum_in_halves(count, make_leaf)
        finally:
            representations._LEAF = old
        assert np.array(got).tobytes() == want
        if not real:
            assert np.array(halves).tobytes() == want
            # The same leaves, whichever thread took each half.
            half = len(spans) // 2
            assert sorted(spans[:half]) == sorted(spans[half:])


class TestHelperThread:
    """Above one leaf the right half of a sum runs on one helper thread; the
    results keep the bits of a serial run."""

    N = 50_000  # more than two default leaves of bases
    TIMEOUT = 60.0

    @staticmethod
    def outputs(n):
        z, w = complex(0.5, 14.0), complex(0.05, 0.02)
        values = [f(z, n).value for f in EVALUATORS.values()]
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
        serial = self.outputs(n)
        monkeypatch.setattr(representations, "_HELPER", None)
        for call in large:
            with pytest.raises(AttributeError):
                call()
        # One leaf, the Bernoulli and prefix sums and a zero search never
        # touch it.
        self.outputs(1_000)
        representations._bernoulli_polynomial.cache_clear()
        zeta_bernoulli_partial(complex(0.05, 0.02), n, 40)
        for kind in RepresentationKind:
            w = 0.05 + 0.02j if kind is RepresentationKind.BERNOULLI_SERIES else 2 + 2j
            representations.partial_sum_table(kind, w, n, [2, n], 40)
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
        seen = []

        def make_leaf():
            def leaf(start, stop):
                seen.append((threading.get_ident(), np.geterr()))
                return np.complex128(stop - start)

            return leaf

        count = 3 * representations._LEAF
        with np.errstate(over="raise", under="warn", invalid="ignore"):
            want = np.geterr()
            total = representations._tree_sum_in_halves(count, make_leaf)
        assert total == count
        assert len({ident for ident, _ in seen}) == 2
        assert all(state == want for _, state in seen)
        assert np.geterr() != want


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
