"""Newton refinement, winding counts, and the region search."""

import cmath
import math
import random
from dataclasses import FrozenInstanceError, fields, replace

import mpmath
import numpy as np
import pytest
import roots_frozen as frozen
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetasieve import (
    ContourError,
    InputError,
    NewtonFailure,
    PRESETS,
    RepresentationKind,
    ResolutionError,
    RootRecord,
    SearchRegion,
    Target,
    find_zeros,
    make_target,
    newton_refine,
    winding_count,
)
from zetasieve.admissible import admissible_up_to, base_logs_and_signs
from zetasieve.rootfind import MAX_SAMPLES, MAX_SEEDS, MAX_TARGET_N, _nudged

DIRECT = RepresentationKind.DIRECT
ALT = RepresentationKind.ALTERNATING

LATTICE_2 = 2 * math.pi / math.log(2)


def lattice_index(z):
    return round(z.imag / LATTICE_2)


def bits(z):
    """z's two floats exactly, signed zeros included."""
    return z.real.hex(), z.imag.hex()


def fingerprint(roots):
    """Everything find_zeros returns, floats exactly."""
    return [
        (*bits(r.location), r.residual.hex(), r.verified, r.conjugate_of, r.winding)
        for r in roots
    ]


def assert_matches_frozen(roots, expected_pairs, reals=(), tol=1e-9):
    """Roots must be exactly the frozen pairs (plus mirror images) and reals."""
    want = sorted(
        [complex(r, 0.0) for r in reals]
        + [z for p in expected_pairs for z in (p, p.conjugate())],
        key=lambda z: (z.imag, z.real),
    )
    assert len(roots) == len(want)
    for rec, w in zip(roots, want):
        assert abs(rec.location - w) <= tol, f"{rec.location} vs {w}"


def store_floats(kind, n):
    """log r and the term sign s_r per admissible base r <= n, as Python
    floats read from the store: s_r = (-1)**(r-1) for ALT, 1 for DIRECT."""
    logs, signs = base_logs_and_signs(n)
    if kind is DIRECT:
        return logs.tolist(), [1.0] * len(logs)
    return logs.tolist(), [float(s) for s in signs.tolist()]


def reference_value_and_derivative(target, z):
    """Target.value_and_derivative_at as first written, zipping the store's
    logs and signs on each call: the bits any faster form of the loop must
    keep."""
    logs, signs = store_floats(target.kind, target.n)
    value = complex(target.constant)
    slope = 0j
    if z.real >= 0.0:
        for lg, s in zip(logs, signs):
            w = cmath.exp(-z * lg)
            d = 1.0 - w
            value += s * w / d
            slope += s * lg * w / (d * d)
    else:
        for lg, s in zip(logs, signs):
            v = cmath.exp(z * lg)
            d = v - 1.0
            value += s / d
            slope += s * lg * v / (d * d)
    return value, -slope


def outcome_bits(evaluate, z):
    """(f, f') at z as hex text, or the class of what the call raised."""
    try:
        return [bits(w) for w in evaluate(z)]
    except ArithmeticError as exc:
        return type(exc).__name__


class TestTarget:
    def test_presets_cover_the_eight_equations(self):
        assert set(PRESETS) == {
            "paper-direct-2",
            "paper-direct-3",
            "paper-direct-5",
            "paper-direct-6",
            "paper-alt-2",
            "paper-alt-3",
            "paper-alt-5",
            "paper-alt-6",
        }
        assert PRESETS["paper-alt-5"].constant == 0.5
        assert all(
            t.constant == 1.0 for k, t in PRESETS.items() if k != "paper-alt-5"
        )
        t = PRESETS["paper-direct-3"]
        assert (t.kind, t.n) == (DIRECT, 3)
        assert [lg.real for lg, _, _ in t.terms] == [math.log(2), math.log(3)]

    def test_value_matches_direct_evaluator(self):
        from zetasieve import zeta_direct_partial

        t = make_target(DIRECT, 6)
        for z in (2.0 + 0j, complex(0.5, 2), complex(-1.5, 1)):
            assert abs(t.value_at(z) - zeta_direct_partial(z, 6).value) <= 1e-14

    def test_values_at_agrees_with_value_at(self):
        # The contour path (values_at) sums the same terms in numpy, whose
        # complex division rounds some quotients differently from CPython's:
        # the values agree to rounding, not bit for bit.  Both sides of
        # Re z = 0, the axes with either zero sign, and points far enough
        # out for exp to underflow.
        rng = random.Random(20)
        edges = [
            complex(1.5, 0.0),
            complex(-1.5, -0.0),
            complex(0.0, 2.0),
            complex(-0.0, -2.0),
            complex(800.0, 3.0),
            complex(-800.0, -3.0),
        ]
        for kind in (DIRECT, ALT):
            for n in (2, 3, 5, 12, 47, 150, 300):
                t = make_target(kind, n, rng.choice((1.0, 0.5, 0.0)))
                points = edges + [
                    complex(rng.uniform(-4, 4), rng.uniform(-30, 30))
                    for _ in range(120)
                ]
                batch = t.values_at(np.array(points))
                scalar = np.array([t.value_at(z) for z in points])
                scale = np.maximum(np.abs(scalar), 1.0)
                assert np.all(np.abs(batch - scalar) <= 1e-13 * scale), (kind, n)

    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.sampled_from([DIRECT, ALT]),
        n=st.integers(2, 60),
        constant=st.sampled_from([1.0, 0.5, 0.0, -0.0]),
        re=st.one_of(
            st.floats(-4.0, 4.0), st.floats(-420.0, 420.0), st.sampled_from([0.0, -0.0])
        ),
        im=st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0])),
    )
    @example(DIRECT, 2, 1.0, 0.0, 0.0)  # both raise at the pole z = 0
    @example(ALT, 60, 1.0, 400.0, -0.0)  # exp underflows on the real axis
    @example(ALT, 47, 0.0, -400.0, 0.0)
    @example(DIRECT, 7, 0.5, -0.0, 3.0)
    @example(ALT, 12, -0.0, -1.5, -0.0)
    @example(DIRECT, 31, 1.0, 745.5, 2.0)
    def test_value_and_derivative_keep_the_reference_bits(
        self, kind, n, constant, re, im
    ):
        t = make_target(kind, n, constant)
        z = complex(re, im)
        want = outcome_bits(lambda w: reference_value_and_derivative(t, w), z)
        assert outcome_bits(t.value_and_derivative_at, z) == want
        if not isinstance(want, str):
            assert bits(t.value_at(z)) == want[0]

    def test_terms_are_built_once_from_the_stores_logs_and_signs(self):
        # Exact complex numbers with a +0.0 imaginary part, so that the
        # scalar loop does no float/complex promotion; == alone would let
        # floats pass.
        def exact(w, x):
            return (
                type(w) is complex
                and w.real.hex() == x.hex()
                and bits(w)[1] == (0.0).hex()
            )

        for kind, constant in ((ALT, 1.0), (DIRECT, 0.5), (ALT, -0.0)):
            t = make_target(kind, 47, constant)
            assert len(t.terms) == admissible_up_to(47).term_count
            for (lg, s, slg), lg0, s0 in zip(t.terms, *store_floats(kind, 47)):
                assert exact(lg, lg0) and exact(s, s0) and exact(slg, s0 * lg0)
            assert exact(t.start, constant)
            assert t == make_target(kind, 47, constant)
            assert "terms" not in repr(t) and "start" not in repr(t)

    def test_alternating_signs(self):
        # Bases 2, 3, 5, 6: s_r = (-1)**(r-1).
        t = make_target(ALT, 6)
        assert [bits(s) for _, s, _ in t.terms] == [
            bits(complex(s)) for s in (-1.0, 1.0, 1.0, -1.0)
        ]

    @pytest.mark.parametrize("kind", [DIRECT, ALT])
    def test_term_logs_are_the_stores_bit_for_bit(self, kind):
        # math.log and np.log first disagree at r = 9170; a target reads
        # the store's float, as the evaluators do.
        t = make_target(kind, 10**4)
        logs = base_logs_and_signs(10**4)[0]
        assert len(t.terms) == len(logs)
        assert [lg.real.hex() for lg, _, _ in t.terms] == [x.hex() for x in logs.tolist()]

    def test_target_holds_only_its_terms_and_start(self):
        assert [f.name for f in fields(Target)] == [
            "kind", "n", "constant", "terms", "start"
        ]
        t = make_target(ALT, 12)
        for name in ("members", "logs", "signs"):
            assert not hasattr(t, name)

    def test_n_above_the_cap_is_refused_before_any_base_data(self, monkeypatch):
        def unread(n):
            raise AssertionError(f"base data read at n = {n}")

        monkeypatch.setattr("zetasieve.rootfind.admissible_up_to", unread)
        monkeypatch.setattr("zetasieve.rootfind.base_logs_and_signs", unread)
        for kind in (DIRECT, ALT):
            with pytest.raises(InputError, match=f"n must be in \\[2, {MAX_TARGET_N}\\]"):
                make_target(kind, MAX_TARGET_N + 1)

    def test_rejects_unsupported_kinds(self):
        with pytest.raises(InputError):
            make_target(RepresentationKind.COTH, 6)
        for constant in (float("inf"), True, "2"):
            with pytest.raises(InputError):
                make_target(DIRECT, 6, constant)

    def test_target_takes_only_kind_n_and_constant(self):
        # A caller's base list could disagree with n.
        with pytest.raises(TypeError):
            Target(DIRECT, 6, 1.0, (2, 3, 5, 6))
        for name, value in (
            ("members", (2, 3, 5, 6)),
            ("logs", (math.log(2),)),
            ("signs", (1.0, 1.0)),
            ("terms", ()),
            ("start", 1 + 0j),
        ):
            with pytest.raises(TypeError):
                Target(kind=DIRECT, n=6, constant=1.0, **{name: value})
        t = Target(ALT, np.int64(6), 1)
        assert t == make_target(ALT, 6) and hash(t) == hash(make_target(ALT, 6))
        assert type(t.n) is int and type(t.constant) is float
        assert len(t.terms) == 4
        assert repr(t) == (
            "Target(kind=<RepresentationKind.ALTERNATING: 'alt'>,"
            " n=6, constant=1.0)"
        )
        with pytest.raises(FrozenInstanceError):
            t.terms = ()

    @pytest.mark.parametrize(
        "kind, n, constant",
        [
            (RepresentationKind.COTH, 6, 1.0),
            (RepresentationKind.BERNOULLI_SERIES, 6, 1.0),
            ("direct", 6, 1.0),
            (DIRECT, 1, 1.0),
            (DIRECT, 6.0, 1.0),
            (DIRECT, True, 1.0),
            (ALT, 10**9, 1.0),
            (DIRECT, 6, float("inf")),
            (DIRECT, 6, True),
            (ALT, 6, "2"),
        ],
    )
    def test_target_refuses_what_make_target_refuses(self, kind, n, constant):
        with pytest.raises(InputError) as made:
            make_target(kind, n, constant)
        with pytest.raises(InputError) as direct:
            Target(kind, n, constant)
        assert str(direct.value) == str(made.value)

    @pytest.mark.parametrize("kind", [DIRECT, ALT])
    def test_replace_builds_the_target_at_the_new_n(self, kind):
        t = replace(make_target(kind, 6, 0.5), n=7)
        want = make_target(kind, 7, 0.5)
        assert t == want and t.describe() == want.describe()
        assert len(t.terms) == len(want.terms) == 5
        assert [[bits(w) for w in term] for term in t.terms] == [
            [bits(w) for w in term] for term in want.terms
        ]
        with pytest.raises(InputError):
            replace(t, n=1)


class TestNewtonRefine:
    def test_converges_to_the_imaginary_pair(self):
        t = make_target(DIRECT, 3)
        rec = newton_refine(t, complex(0.1, 3.4))
        assert isinstance(rec, RootRecord)
        assert abs(rec.location - complex(0, frozen.DIRECT_3_IM)) <= 1e-8
        assert rec.residual <= 1e-10

    def test_lattice_zero_hit_exactly(self):
        t = make_target(ALT, 2)
        rec = newton_refine(t, 0.9)
        assert abs(rec.location - 1.0) <= 1e-12
        assert rec.location.imag == 0.0

    def test_seed_on_a_pole_fails_fast(self):
        t = make_target(DIRECT, 3)
        out = newton_refine(t, 0j)
        assert isinstance(out, NewtonFailure)
        assert out.reason == "pole"
        assert out.iterations == 0

    def test_zero_free_target_reports_failure(self):
        # 1 + 1/(2**z - 1) never vanishes at finite z; every seed must
        # come back as a failure, not a fake root.
        t = make_target(DIRECT, 2)
        for seed in (complex(1, 1), complex(-2, 3), complex(0.3, -7)):
            out = newton_refine(t, seed)
            assert isinstance(out, NewtonFailure)

    def test_flat_derivative_is_stagnation(self):
        t = make_target(DIRECT, 2)
        out = newton_refine(t, complex(48.0, 0.3))
        assert isinstance(out, NewtonFailure)
        assert out.reason == "stagnation"

    def test_box_escape_is_reported(self):
        t = make_target(DIRECT, 2)
        out = newton_refine(t, complex(-4.0, 0.0), box=(-5, 5, -10, 10))
        assert isinstance(out, NewtonFailure)
        assert out.reason == "escape"
        assert out.iterations == 1

    def test_a_seed_where_z_log_r_overflows_is_refused(self):
        # |Im z| * log 6 overflows above about 1.003e308; the scalar loop
        # would raise ValueError from cmath there.
        t = make_target(DIRECT, 6)
        for seed, box in (
            (0.5 + 1.5e308j, None),
            (0.5 - 1.5e308j, None),
            (0.5 + 1.5e308j, (0.0, 1.0, 1e300, 1.6e308)),
        ):
            with pytest.raises(InputError, match="the seed .* n = 6"):
                newton_refine(t, seed, box=box)
        # log 2 * 1.5e308 is finite: the run ends as any other.
        out = newton_refine(make_target(DIRECT, 2), 0.5 + 1.5e308j)
        assert isinstance(out, NewtonFailure)

    def test_rejects_bad_arguments(self):
        t = make_target(DIRECT, 3)
        with pytest.raises(InputError):
            newton_refine(t, float("nan"))
        bad = [
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": "1e-10"},
            {"box": (float("nan"),) * 4},
            {"box": (1, 2)},
            {"box": (-5.0, 5.0, 10.0, -10.0)},
            {"box": (-5.0, 5.0, "-10", 10.0)},
            {"box": (-math.inf, math.inf, -math.inf, math.inf)},
        ]
        for kwargs in bad:
            with pytest.raises(InputError):
                newton_refine(t, complex(0.1, 3.4), **kwargs)
        for target in ("t", None, PRESETS):
            with pytest.raises(InputError):
                newton_refine(target, 0.5 + 1j)

    def test_each_point_is_evaluated_once(self, monkeypatch):
        seen = []
        for name in ("value_at", "value_and_derivative_at"):
            original = getattr(Target, name)

            def counted(self, z, original=original):
                seen.append(z)
                return original(self, z)

            monkeypatch.setattr(Target, name, counted)
        # Seeds next to known roots.  Each Newton iterate is evaluated once
        # and never twice in a row; only the two polish steps, which at
        # rounding level can step back onto an earlier point, may repeat one.
        cases = [
            (PRESETS["paper-direct-6"], frozen.DIRECT_6),
            (PRESETS["paper-alt-6"], [*frozen.ALT_6_PAIRS, frozen.ALT_6_REAL]),
            (PRESETS["paper-direct-3"], [complex(0, frozen.DIRECT_3_IM)]),
        ]
        for t, roots in cases:
            for root in roots:
                for offset in (0.05, -0.03j, complex(0.1, 0.1), complex(-0.2, 0.05)):
                    seen.clear()
                    out = newton_refine(t, root + offset)
                    assert isinstance(out, RootRecord), (t.describe(), root, offset)
                    assert all(a != b for a, b in zip(seen, seen[1:])), seen
                    assert len(seen) - len(set(seen)) <= 2, seen
                    assert out.location in seen
                    assert out.residual == abs(t.value_at(out.location))


class TestWindingCount:
    def test_one_around_a_simple_zero(self):
        t = make_target(DIRECT, 3)
        rec = newton_refine(t, complex(0.1, 3.4))
        assert winding_count(t, rec.location, 0.3) == 1

    def test_one_at_the_reported_center(self):
        t = make_target(DIRECT, 3)
        assert winding_count(t, complex(0.0, 3.50671), 0.2) == 1

    def test_batched_contour_gives_the_scalar_outcomes(self, monkeypatch):
        # Counts and refusals on seeded circles are the same whether the
        # contour is one array or one value_at call per sample.
        rng = random.Random(31)
        cases = []
        for i in range(150):
            t = make_target((DIRECT, ALT)[i % 2], rng.randrange(2, 120))
            center = complex(rng.uniform(-2, 2), rng.uniform(-20, 20))
            radius = rng.choice((0.01, 0.1, 0.3, 1.0))
            cases.append((t, center, radius, rng.choice((8, 64, 256))))

        def outcomes():
            out = []
            for t, center, radius, samples in cases:
                try:
                    out.append(winding_count(t, center, radius, samples))
                except (ContourError, ResolutionError) as exc:
                    out.append(f"{type(exc).__name__}: {exc}")
            return out

        batched = outcomes()
        assert sum(isinstance(o, int) for o in batched) > 50

        def scalar_values(self, points):
            return np.array([self.value_at(complex(z)) for z in points])

        monkeypatch.setattr(Target, "values_at", scalar_values)
        assert outcomes() == batched

    def test_zero_on_a_zero_free_circle(self):
        t = make_target(DIRECT, 3)
        assert winding_count(t, complex(2.0, 0.0), 0.3) == 0

    def test_pole_inside_is_refused(self):
        t = make_target(ALT, 2)
        with pytest.raises(ContourError):
            winding_count(t, complex(0.05, 0.0), 0.2)

    def test_contour_too_close_to_a_pole_is_refused(self):
        t = make_target(ALT, 2)
        with pytest.raises(ContourError):
            winding_count(t, complex(0.0, LATTICE_2 + 1e-7), 1e-7 * 0.5)
        # A circle passing 5e-7 from the origin pole, with the closest
        # approach halfway between two of its 256 samples: every sample
        # clears the gate, but the circle itself does not.
        theta = 2 * math.pi * 64.5 / 256
        center = -(0.3 + 5e-7) * complex(math.cos(theta), math.sin(theta))
        with pytest.raises(ContourError):
            winding_count(make_target(DIRECT, 3), center, 0.3)

    def test_undersampled_fast_phase_is_refused_not_guessed(self):
        # Circle passing 0.02 from the origin pole: adjacent samples
        # straddle the closest approach and the phase jumps by more than
        # pi/2 at 256 samples.  More samples resolve it to a clean zero.
        t = make_target(ALT, 2)
        center, radius = complex(0.02, 4.0), 3.98
        with pytest.raises(ResolutionError):
            winding_count(t, center, radius)
        assert winding_count(t, center, radius, samples=1024) == 0

    def test_samples_above_the_cap_are_refused_before_any_array(self):
        # 10**12 samples would ask numpy for terabytes before any check.
        assert 4096 <= MAX_SAMPLES < 10**8
        t = make_target(DIRECT, 6)
        for samples in (MAX_SAMPLES + 1, 10**8, 10**12):
            with pytest.raises(InputError, match="samples"):
                winding_count(t, 0.5 + 3j, 0.1, samples=samples)
        assert winding_count(t, 0.5 + 3j, 0.1, samples=MAX_SAMPLES) == 0

    def test_a_circle_that_overflows_is_refused(self):
        # Above the height where Im z * log 6 overflows, and a circle whose
        # samples would overflow to inf on the real axis.
        t = make_target(DIRECT, 6)
        for center, radius in (
            (0.5 + 1.5e308j, 0.1),
            (0.5 - 1.5e308j, 0.1),
            (0.5 + 1.0e308j, 0.01e308),
            (1.7e308, 1e307),
            (-1.7e308, 1e307),
        ):
            with pytest.raises(InputError, match="circle of radius"):
                winding_count(t, center, radius)

    def test_rejects_bad_arguments(self):
        t = make_target(DIRECT, 3)
        for radius in (-0.1, True, float("inf")):
            with pytest.raises(InputError):
                winding_count(t, complex(0, 3.5), radius)
        with pytest.raises(InputError):
            winding_count(t, complex(0, 3.5), 0.2, samples=4)
        for target in (None, "t"):
            with pytest.raises(InputError):
                winding_count(target, 1 + 1j, 0.1)


class TestSearchRegion:
    def test_validation(self):
        with pytest.raises(InputError):
            SearchRegion(1.0, 1.0, -1.0, 1.0)
        with pytest.raises(InputError):
            SearchRegion(-1.0, 1.0, 2.0, -2.0)
        with pytest.raises(InputError):
            SearchRegion(-1.0, 1.0, -1.0, 1.0, grid_re=1)
        with pytest.raises(InputError):
            SearchRegion(-1.0, float("inf"), -1.0, 1.0)
        with pytest.raises(InputError):
            SearchRegion(False, True, 0, 1)

    def test_grid_above_the_seed_cap_is_refused(self):
        assert MAX_SEEDS == 10**6
        region = SearchRegion(0.0, 1.0, 0.0, 1.0, 1000, 1000)
        assert (region.grid_re, region.grid_im) == (1000, 1000)
        for grid in ((1001, 1000), (2, 500_001), (30000, 30000)):
            with pytest.raises(InputError, match="seeds"):
                SearchRegion(0.0, 1.0, 0.0, 1.0, *grid)

    @pytest.mark.parametrize(
        "bounds, grid",
        [
            ((-1e308, 1e308, 0.0, 1.0), 2),  # the cell overflows
            ((-1.5e308, 0.0, 0.0, 1.0), 2),  # a nudged side overflows
            ((0.0, 1.0, -1.7e308, 1.7e308), 40),  # the escape box overflows
            ((0.0, 1.0, 1e308, 1.7e308), 40),
        ],
    )
    def test_rectangle_whose_search_would_overflow_is_refused(self, bounds, grid):
        with pytest.raises(InputError, match=r"region \(.*\) is too large"):
            SearchRegion(*bounds, grid_re=grid, grid_im=grid)

    def test_region_refused_only_once_nudged_is_named_as_given(self):
        # The region passes, but the side on the axis is moved out by a
        # 2.5e307 cell, and the moved region does not.
        region = SearchRegion(-2.5e307, 0.0, 0.0, 1.0, 2, 2)
        with pytest.raises(InputError, match=r"region \(-2\.5e\+307, 0\.0, 0\.0"):
            find_zeros(make_target(DIRECT, 6), region)

    def test_huge_but_finite_rectangles_are_searched(self):
        # The sum of the two heights overflows; the search must not.
        t = make_target(DIRECT, 6)
        for bounds in ((0.0, 1.0, 0.9e308, 0.95e308), (0.0, 1.0, -0.95e308, -0.9e308)):
            assert find_zeros(t, SearchRegion(*bounds, grid_re=3, grid_im=3)) == []
        SearchRegion(-1e307, 1e307, -1e307, 1e307)

    def test_contains_is_boundary_inclusive(self):
        region = SearchRegion(-1.0, 1.0, -2.0, 2.0)
        assert region.contains(complex(1.0, 2.0))
        assert not region.contains(complex(1.0001, 0.0))

    def test_pole_on_the_boundary_is_nudged_outward(self):
        t = make_target(DIRECT, 2)
        region = SearchRegion(-1.0, 1.0, -LATTICE_2, LATTICE_2)
        nudged = _nudged(region, t)
        assert nudged.im_min < -LATTICE_2
        assert nudged.im_max > LATTICE_2
        assert (nudged.re_min, nudged.re_max) == (-1.0, 1.0)
        # and the search itself completes on the original region
        assert find_zeros(t, region) == []

    @pytest.mark.parametrize("n", [6, 12])
    def test_strip_moves_only_its_side_on_the_axis(self, n):
        region = SearchRegion(0.0, 1.5, 5.0, 17.0)
        for kind in (DIRECT, ALT):
            nudged = _nudged(region, make_target(kind, n))
            assert nudged == replace(region, re_min=-1.5 / 39)

    def test_origin_at_a_corner_moves_im_min_then_re_min(self, monkeypatch):
        moved = []

        def recording(region, **change):
            moved.extend(change)
            return replace(region, **change)

        monkeypatch.setattr("zetasieve.rootfind.replace", recording)
        region = SearchRegion(0.0, 1.5, 0.0, 12.0)
        nudged = _nudged(region, make_target(DIRECT, 2))
        assert moved == ["im_min", "re_min"]
        assert nudged == replace(region, re_min=-1.5 / 39, im_min=-12.0 / 39)

    def test_pole_within_the_gate_of_im_max_moves_only_im_max(self):
        # The pole 2*pi*i/log 2 sits 5e-7 above the top side.
        region = SearchRegion(-1.0, 1.0, 1.0, LATTICE_2 - 5e-7)
        nudged = _nudged(region, make_target(DIRECT, 2))
        cell = (region.im_max - region.im_min) / 39
        assert nudged == replace(region, im_max=region.im_max + cell)

    def test_region_no_pole_touches_comes_back_unchanged(self):
        t = make_target(ALT, 12)
        for region in (
            SearchRegion(0.5, 1.5, 1.0, 2.0),
            SearchRegion(-1.0, 1.0, 0.5, 1.5),
            SearchRegion(-2.0, -1e-3, -6.0, 6.0),
        ):
            assert _nudged(region, t) == region


class TestFindZeros:
    def test_zero_free_target_returns_empty(self):
        t = make_target(DIRECT, 2)
        assert find_zeros(t, SearchRegion(-5, 5, -10, 10)) == []

    def test_a_search_above_the_overflow_height_is_refused(self):
        region = SearchRegion(0.0, 1.0, 1.5e308, 1.50000001e308, 2, 2)
        with pytest.raises(InputError, match="n = 6"):
            find_zeros(make_target(DIRECT, 6), region)

    def test_direct_3_exactly_the_imaginary_pair(self):
        roots = find_zeros(make_target(DIRECT, 3), SearchRegion(-2, 2, -6, 6))
        assert len(roots) == 2
        for rec in roots:
            assert abs(rec.location.real) <= 1e-12
            assert abs(abs(rec.location.imag) - frozen.DIRECT_3_IM) <= 1e-12
            assert rec.verified and rec.winding == 1

    def test_direct_5_full_inventory(self):
        roots = find_zeros(make_target(DIRECT, 5), SearchRegion(-2, 2, -6, 6))
        assert_matches_frozen(roots, frozen.DIRECT_5)
        assert all(r.verified and r.residual <= 1e-10 for r in roots)

    def test_direct_6_full_inventory(self):
        roots = find_zeros(make_target(DIRECT, 6), SearchRegion(-2, 2, -6, 6))
        assert_matches_frozen(roots, frozen.DIRECT_6)
        assert all(r.verified and r.residual <= 1e-10 for r in roots)

    def test_alt_3_has_exactly_one_real_root(self):
        roots = find_zeros(make_target(ALT, 3), SearchRegion(-2, 2, -6, 6))
        assert_matches_frozen(roots, [frozen.ALT_3_PAIR], reals=[frozen.ALT_3_REAL])
        reals = [r for r in roots if r.location.imag == 0.0]
        assert len(reals) == 1
        assert abs(reals[0].location.real - frozen.ALT_3_REAL) <= 1e-9

    def test_alt_5_purely_imaginary_pairs(self):
        roots = find_zeros(
            make_target(ALT, 5, 0.5), SearchRegion(-2, 2, -6, 6)
        )
        pairs = [complex(0.0, im) for im in frozen.ALT_5_IMS]
        assert_matches_frozen(roots, pairs)

    def test_alt_6_inventory(self):
        roots = find_zeros(make_target(ALT, 6), SearchRegion(-2, 2, -6, 6))
        assert_matches_frozen(
            roots, frozen.ALT_6_PAIRS, reals=[frozen.ALT_6_REAL]
        )

    def test_alt_2_roots_lie_on_the_lattice(self):
        # Wide strip: every returned root must sit on 1 + 2*pi*i*k/log 2.
        # The default grid's seed rows straddle the k = 0 basin here, so
        # completeness is asserted only for |k| >= 1; a denser grid below
        # recovers the full set including the real root.
        t = make_target(ALT, 2)
        roots = find_zeros(t, SearchRegion(-1, 3, -40, 40))
        ks = sorted(lattice_index(r.location) for r in roots)
        assert ks == [k for k in range(-4, 5) if k != 0]
        for rec in roots:
            lattice = complex(1.0, lattice_index(rec.location) * LATTICE_2)
            assert abs(rec.location - lattice) <= 1e-8
            assert rec.verified

    def test_alt_2_dense_grid_recovers_the_real_root(self):
        t = make_target(ALT, 2)
        roots = find_zeros(t, SearchRegion(-1, 3, -40, 40, grid_im=161))
        ks = sorted(lattice_index(r.location) for r in roots)
        assert ks == list(range(-4, 5))
        assert any(r.location == 1.0 for r in roots)

    def test_conjugate_closure_and_links(self):
        roots = find_zeros(make_target(DIRECT, 6), SearchRegion(-2, 2, -6, 6))
        for i, rec in enumerate(roots):
            if rec.location.imag == 0.0:
                assert rec.conjugate_of is None
                continue
            j = rec.conjugate_of
            assert j is not None
            assert roots[j].location == rec.location.conjugate()
            assert roots[j].conjugate_of == i

    def test_sorted_by_imaginary_then_real(self):
        roots = find_zeros(make_target(ALT, 6), SearchRegion(-2, 2, -6, 6))
        keys = [(r.location.imag, r.location.real) for r in roots]
        assert keys == sorted(keys)

    def test_residuals_are_recomputed_at_final_locations(self):
        t = make_target(DIRECT, 5)
        roots = find_zeros(t, SearchRegion(-2, 2, -6, 6))
        for rec in roots:
            assert rec.residual == abs(t.value_at(rec.location))

    def test_thread_count_does_not_change_the_answer(self):
        t = make_target(ALT, 6)
        region = SearchRegion(-2, 2, -6, 6)
        solo = find_zeros(t, region, threads=1)
        pooled = find_zeros(t, region, threads=4)
        assert solo == pooled

    def test_rejects_bad_arguments(self):
        t = make_target(DIRECT, 3)
        region = SearchRegion(-1, 1, -1, 1)
        bad = [
            {"tol": -1e-10},
            {"tol": float("nan")},
            {"tol": "1e-10"},
            {"threads": 0},
        ]
        for kwargs in bad:
            with pytest.raises(InputError):
                find_zeros(t, region, **kwargs)
        for target, where in ((t, "x"), (t, (-1, 1, -1, 1)), (None, region)):
            with pytest.raises(InputError):
                find_zeros(target, where)

    def test_batched_contours_leave_every_result_unchanged(self, monkeypatch):
        region = SearchRegion(-2, 2, -6, 6)
        targets = (PRESETS["paper-direct-6"], PRESETS["paper-alt-6"])
        batched = [fingerprint(find_zeros(t, region)) for t in targets]

        def scalar_values(self, points):
            return np.array([self.value_at(complex(z)) for z in points])

        monkeypatch.setattr(Target, "values_at", scalar_values)
        assert [fingerprint(find_zeros(t, region)) for t in targets] == batched


class TestAltThreeErratum:
    """The alt n=3 real root, solved without the package."""

    def test_frozen_root_and_corrected_target(self):
        def numerator(x):
            return 1 - 1 / (2**x - 1) + 1 / (3**x - 1)

        with mpmath.workdps(40):
            root = mpmath.findroot(numerator, mpmath.mpf("0.5"))
            assert abs(numerator(root)) <= mpmath.mpf(10) ** -35
            root = float(root)
        assert frozen.ALT_3_REAL == root
        assert frozen.REPORTED["alt-3"] == complex(round(root, 6), 0.0)
        assert abs(frozen.ERRATA["alt-3"].real - root) > 1e-4
