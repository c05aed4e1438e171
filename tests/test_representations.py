"""Representation evaluators: exact fixtures, identities, and bounds."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve import representations
from zetasieve import (
    ConvergenceDomainError,
    DomainError,
    InputError,
    PoleProximityError,
    RepresentationKind,
    SingularPrefactorError,
    admissible_up_to,
    bernoulli_table,
    derivative_partial,
    euler_even_zeta,
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
        gate_exp=st.floats(-8.0, -2.0),
        edge=st.sampled_from(["inside", "below", "at", "above"]),
        re_scale=st.floats(-2.0, 2.0),
        im_scale=st.floats(-2.0, 2.0),
        side=st.sampled_from([1.0, -1.0]),
    )
    @example(12, 0, 0, -6.0, "at", 0.0, 0.0, 1.0)
    @example(12, 0, 0, -6.0, "below", 0.0, 0.0, -1.0)
    @example(12, 0, 0, -6.0, "above", 0.0, 0.0, 1.0)
    def test_gate_raises_exactly_within_the_gate(
        self, n, pick, k, gate_exp, edge, re_scale, im_scale, side
    ):
        # The gate skips the lattice scan when |Re z| > gate; it must still
        # raise exactly when the nearest pole is within the gate, including
        # for |Re z| one ulp either side of the gate.
        gate = 10.0**gate_exp
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
            zeta_direct_partial(z, n, gate=gate)
        except PoleProximityError:
            assert near
        else:
            assert not near

    def test_gate_width_is_configurable(self):
        z = complex(1e-4, 0.0)
        zeta_direct_partial(z, 6)  # outside the default gate
        with pytest.raises(PoleProximityError):
            zeta_direct_partial(z, 6, gate=1e-3)


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

    @pytest.mark.parametrize("gate", [float("nan"), -1.0, float("inf"), "1e-6"])
    def test_rejects_bad_gates(self, gate):
        # nan and -1 would switch the pole gate off rather than fail.
        z = complex(1e-9, 0.0)
        calls = [
            lambda: zeta_direct_partial(z, 6, gate=gate),
            lambda: zeta_coth_partial(z, 6, gate=gate),
            lambda: zeta_alt_partial(z, 6, gate=gate),
            lambda: zeta_alt_coth_partial(z, 6, gate=gate),
            lambda: zeta_bernoulli_partial(z, 6, 10, gate=gate),
            lambda: derivative_partial(RepresentationKind.DIRECT, z, 6, gate=gate),
        ]
        for call in calls:
            with pytest.raises(InputError):
                call()

    def test_result_metadata(self):
        r = zeta_alt_coth_partial(complex(2, 1), 20)
        assert r.truncation == 20
        assert r.term_count == 15
        assert isinstance(r.value, complex)
