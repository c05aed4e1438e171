"""Newton refinement, winding counts, and the region search."""

import cmath
import contextvars
import functools
import math
import random
import sys
import warnings
from contextlib import nullcontext
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import mpmath
import numpy as np
import pytest
import roots_frozen as frozen
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from zetasieve import (
    ContourError,
    InputError,
    NewtonFailure,
    PoleProximityError,
    PRESETS,
    RepresentationKind,
    ResolutionError,
    RootRecord,
    SearchRegion,
    Target,
    find_zeros,
    make_target,
    newton_refine,
    pole_distance,
    winding_count,
    zeta_direct_partial,
)
from zetasieve import rootfind
from zetasieve.admissible import MAX_LIMIT, admissible_up_to, base_logs_and_signs
from zetasieve.errors import MAX_HEIGHT
from zetasieve.representations import POLE_GATE, pole_gate
from zetasieve.rootfind import MAX_SAMPLES, MAX_SEEDS, _nudged

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


@functools.lru_cache(maxsize=64)
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


def reference_pair(target, z):
    """The oracle for every target evaluation: the pole gate's refusal, or
    reference_value_and_derivative's (f, f')."""
    pole_gate(z, target.n)
    return reference_value_and_derivative(target, z)


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
        assert store_floats(t.kind, t.n)[0] == [math.log(2), math.log(3)]

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

    @pytest.mark.parametrize("batch", [rootfind._BATCH, 7])
    def test_values_at_keeps_the_bits_of_a_pass_per_term(self, batch):
        # One (terms x points) pass adds each point's terms in order from
        # start, as a numpy pass per term does, on both sides of Re z = 0,
        # on the axes and where exp underflows.  With _BATCH = 7 the sums
        # carry across blocks, and a block of more terms than points is
        # added by np.add.accumulate.
        def per_term(t, points):
            right = points.real >= 0.0
            u = np.where(right, -points, points)
            value = np.full(points.shape, complex(t.constant))
            for lg, s in zip(*store_floats(t.kind, t.n)):
                e = np.exp(u * lg)
                value += np.where(right, s * e, -s) / (1.0 - e)
            return value

        edges = [1.5 + 0j, complex(-0.0, -2.0), complex(-800.0, 3.0), 800.0 + 0j]
        rng = random.Random(41)
        with mock.patch.object(rootfind, "_BATCH", batch):
            for kind in (DIRECT, ALT):
                for n, size in ((2, 7), (12, 257), (300, 3), (300, 257), (3000, 1025)):
                    t = make_target(kind, n, rng.choice((1.0, 0.5, -0.0)))
                    center = complex(rng.uniform(-2, 2), rng.uniform(-30, 30))
                    theta = np.linspace(0.0, 2.0 * math.pi, size)
                    points = center + rng.choice((0.1, 3.0)) * np.exp(1j * theta)
                    for z in (points, np.array(edges[: size])):
                        got = t.values_at(z)
                        assert got.tobytes() == per_term(t, z).tobytes(), (kind, n)

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
    @example(DIRECT, 2, 1.0, 0.0, 0.0)  # the target refuses the pole z = 0
    @example(DIRECT, 6, 0.5, 0.0, LATTICE_2)  # and the pole 2*pi*i/log 2
    @example(ALT, 3, 1.0, 5e-7, 0.0)  # and points within the gate of one
    @example(ALT, 60, 1.0, 400.0, -0.0)  # exp underflows on the real axis
    @example(ALT, 47, 0.0, -400.0, 0.0)
    @example(DIRECT, 7, 0.5, -0.0, 3.0)
    @example(ALT, 12, -0.0, -1.5, -0.0)
    @example(DIRECT, 31, 1.0, 745.5, 2.0)
    def test_value_and_derivative_keep_the_reference_bits(
        self, kind, n, constant, re, im
    ):
        # Within POLE_GATE of a term pole the target refuses the point, as
        # the evaluators do; everywhere else it keeps the reference bits.
        t = make_target(kind, n, constant)
        z = complex(re, im)
        if pole_distance(z, n) <= POLE_GATE:
            for evaluate in (t.value_and_derivative_at, t.value_at):
                with pytest.raises(PoleProximityError):
                    evaluate(z)
            return
        want = outcome_bits(lambda w: reference_value_and_derivative(t, w), z)
        assert outcome_bits(t.value_and_derivative_at, z) == want
        if not isinstance(want, str):
            assert bits(t.value_at(z)) == want[0]

    @pytest.mark.parametrize("method", ["value_at", "value_and_derivative_at"])
    def test_a_pole_is_refused_as_the_evaluators_refuse_it(self, method):
        # Ungated, the sum divides by zero at z = 0 and returns about
        # -1.5 - 1.55e15i at the pole 2*pi*i/log 2.
        t = PRESETS["paper-direct-6"]
        for z in (0j, complex(0.0, LATTICE_2), complex(-5e-7, LATTICE_2)):
            with pytest.raises(PoleProximityError):
                zeta_direct_partial(z, 6)
            with pytest.raises(PoleProximityError):
                getattr(t, method)(z)

    @pytest.mark.parametrize("method", ["value_at", "value_and_derivative_at"])
    def test_a_point_check_point_refuses_is_refused(self, method):
        t = PRESETS["paper-alt-6"]
        for z in (
            0.5 + 3e8j,
            complex(0.5, -math.nextafter(MAX_HEIGHT, math.inf)),
            complex(math.nan, 1.0),
            float("nan"),
            complex(math.inf, 0.0),
            "2",
            True,
            None,
        ):
            with pytest.raises(InputError):
                getattr(t, method)(z)
        assert getattr(t, method)(complex(0.5, MAX_HEIGHT)) is not None
        assert getattr(t, method)(2) == getattr(t, method)(2 + 0j)

    def test_values_at_refuses_what_check_point_refuses(self):
        t = make_target(ALT, 12)
        good = [0.5 + 1j, -2.0 - 3j, complex(0.5, MAX_HEIGHT), -0.5 - MAX_HEIGHT * 1j]
        assert np.all(np.isfinite(t.values_at(np.array(good))))
        above = math.nextafter(MAX_HEIGHT, math.inf)
        for bad, match in (
            (complex(math.nan, 0.0), "non-finite"),
            (complex(0.5, math.nan), "non-finite"),
            (complex(-math.inf, 1.0), "non-finite"),
            (0.5 + 3e8j, "height limit"),
            (complex(0.5, -above), "height limit"),
        ):
            with pytest.raises(InputError, match=match):
                t.values_at(np.array([*good, bad, 1.0 + 2j]))
        for bad in (np.array(["2"]), ["2"], np.array([True]), [0.5 + 1j, None], None):
            with pytest.raises(InputError, match="array of numbers"):
                t.values_at(bad)
        # numpy reads a bool among numbers as 0 or 1; a list's points are
        # checked one by one.
        for bad in ([0.5 + 1j, True], [0.5 + 1j, np.True_], [[0.5 + 1j], [np.False_]]):
            with pytest.raises(InputError, match="expected a number"):
                t.values_at(bad)
        # Lists, scalars and integer arrays are arrays of numbers.
        want = t.values_at(np.array([0.5 + 1j, -2.0 - 3j]))
        assert t.values_at([0.5 + 1j, -2.0 - 3j]).tobytes() == want.tobytes()
        assert t.values_at(0.5 + 1j).tobytes() == want[:1].tobytes()
        floats = t.values_at(np.array([2.0, 3.0]))
        assert t.values_at(np.array([2, 3], np.uint8)).tobytes() == floats.tobytes()
        want = [t.value_at(2), t.value_at(3)]
        assert floats.tolist() == pytest.approx(want, rel=1e-15)

    def test_the_kernel_reads_the_stores_logs_and_signs(self, monkeypatch):
        # Each evaluation reads the store at the target's n, and adds the
        # terms of the store's logs and signs to the constant, its sign
        # kept, bit for bit as the reference loop over them does.
        read = []

        def reading(n):
            read.append(n)
            return base_logs_and_signs(n)

        monkeypatch.setattr(rootfind, "base_logs_and_signs", reading)
        z = complex(0.3, 14.1)
        for kind, constant in ((ALT, 1.0), (DIRECT, 0.5), (ALT, -0.0)):
            t = make_target(kind, 47, constant)
            assert t.constant.hex() == constant.hex()
            assert t == make_target(kind, 47, constant)
            read.clear()
            got = outcome_bits(t.value_and_derivative_at, z)
            t.values_at(np.array([z]))
            assert read == [47, 47]
            assert got == outcome_bits(lambda w: reference_value_and_derivative(t, w), z)

    def test_alternating_signs(self):
        # Bases 2, 3, 5, 6: s_r = (-1)**(r-1).
        t = make_target(ALT, 6)
        assert store_floats(ALT, 6)[1] == [-1.0, 1.0, 1.0, -1.0]
        want = 1.0 - 1.0 / 3.0 + 1.0 / 8.0 + 1.0 / 24.0 - 1.0 / 35.0
        assert abs(t.value_at(2.0) - want) <= 1e-15

    @pytest.mark.parametrize("kind", [DIRECT, ALT])
    def test_term_logs_are_the_stores_bit_for_bit(self, kind):
        # math.log and np.log first disagree at r = 9170; a target reads
        # the store's float, as the evaluators do.
        t = make_target(kind, 10**4)
        z = complex(0.5, 14.1)
        want = outcome_bits(lambda w: reference_value_and_derivative(t, w), z)
        assert outcome_bits(t.value_and_derivative_at, z) == want

    def test_target_holds_only_kind_n_and_constant(self):
        assert [f.name for f in fields(Target)] == ["kind", "n", "constant"]
        t = make_target(ALT, 12)
        for name in ("members", "logs", "signs", "terms", "start"):
            assert not hasattr(t, name)

    def test_n_above_the_cap_is_refused_before_any_base_data(self, monkeypatch):
        def unread(n):
            raise AssertionError(f"base data read at n = {n}")

        monkeypatch.setattr("zetasieve.rootfind.admissible_up_to", unread)
        monkeypatch.setattr("zetasieve.rootfind.base_logs_and_signs", unread)
        for kind in (DIRECT, ALT):
            with pytest.raises(InputError, match=f"n must be in \\[2, {MAX_LIMIT}\\]"):
                make_target(kind, MAX_LIMIT + 1)

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
        assert repr(t) == (
            "Target(kind=<RepresentationKind.ALTERNATING: 'alt'>,"
            " n=6, constant=1.0)"
        )
        with pytest.raises(FrozenInstanceError):
            t.n = 7

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
        z = complex(0.3, 14.1)
        assert outcome_bits(t.value_and_derivative_at, z) == outcome_bits(
            lambda w: reference_value_and_derivative(want, w), z
        )
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

    def test_a_seed_above_the_height_limit_is_refused(self):
        # Far above |Im z| = 2**28 the phases Im z * log r are noise (at
        # n = 2 as at 6), and near 1e308 they overflow.
        for n in (2, 6):
            t = make_target(DIRECT, n)
            for seed, box in (
                (0.5 + 1.5e308j, None),
                (0.5 - 1.5e308j, None),
                (0.5 + 1e16j, (0.0, 1.0, 1e15, 1e17)),
            ):
                with pytest.raises(InputError, match="above the height limit"):
                    newton_refine(t, seed, box=box)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_height_limit_is_exact(self, sign):
        t = make_target(DIRECT, 6)
        top = sign * 2.0**28
        above = sign * math.nextafter(2.0**28, math.inf)
        assert newton_refine(t, complex(0.5, top)) is not None
        with pytest.raises(InputError, match="height limit"):
            newton_refine(t, complex(0.5, above))
        # A box given that reaches the limit is taken, one past it is not.
        seed = complex(0.5, sign * (2.0**28 - 10.0))
        newton_refine(t, seed, box=(0.0, 1.0, *sorted((top, sign * 1e8))))
        with pytest.raises(InputError, match="box .* height limit"):
            newton_refine(t, seed, box=(0.0, 1.0, *sorted((above, sign * 1e8))))

    def test_the_default_box_stops_at_the_height_limit(self):
        # 25 units around the seed, cut at |Im z| = 2**28, where a box given
        # 25 units around it would be refused.
        t = make_target(DIRECT, 2)
        for im in (2.0**28 - 1.0, -(2.0**28 - 1.0), 2.0**28):
            seed = complex(0.5, im)
            lo, hi = max(im - 25.0, -(2.0**28)), min(im + 25.0, 2.0**28)
            box = (-24.5, 25.5, lo, hi)
            assert newton_refine(t, seed) == newton_refine(t, seed, box=box)
            with pytest.raises(InputError, match="height limit"):
                newton_refine(t, seed, box=(-24.5, 25.5, im - 25.0, im + 25.0))

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
        # Newton and value_at reach the sum through the one kernel, so the
        # points its calls are given are the evaluations.
        seen = []
        kernel = rootfind._array_kernel

        def counted(target):
            pairs = kernel(target)

            def counting(zr, zi):
                seen.extend(map(complex, zr.tolist(), zi.tolist()))
                return pairs(zr, zi)

            return counting

        monkeypatch.setattr(rootfind, "_array_kernel", counted)
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

    def test_a_circle_too_small_to_resolve_is_refused(self):
        # Around a simple root, a circle of radius 1e-300 has every sample
        # equal to the center: each phase step is 0, and the count would
        # read 0.
        t = PRESETS["paper-direct-6"]
        root = 0.6312141096784283 + 2.546634208615131j
        assert winding_count(t, root, 1e-3) == 1
        for radius in (1e-300, 1e-17, 1e-16):
            with pytest.raises(ResolutionError):
                winding_count(t, root, radius)

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

    def test_a_circle_that_overflows_or_leaves_the_height_limit_is_refused(self):
        # A center above |Im z| = 2**28 is refused as any point is; a circle
        # that reaches above it, or whose samples would overflow to inf on
        # the real axis, is refused as a circle.
        t = make_target(DIRECT, 6)
        for center in (0.5 + 1.5e308j, 0.5 - 1.5e308j, 0.5 + 1e16j):
            with pytest.raises(InputError, match="z = .* above the height limit"):
                winding_count(t, center, 0.1)
        for center, radius in (
            (0.5 + 1.0e8j, 1e9),
            (complex(0.5, -(2.0**28 - 0.05)), 0.1),
            (1.7e308, 1e307),
            (-1.7e308, 1e307),
        ):
            with pytest.raises(InputError, match="circle of radius"):
                winding_count(t, center, radius)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_height_limit_is_exact(self, sign):
        # The circle's top (or bottom) at 2**28 is taken, one float past it
        # not.
        t = make_target(DIRECT, 6)
        center = complex(0.5, sign * (2.0**28 - 0.25))
        assert winding_count(t, center, 0.25) == 0
        with pytest.raises(InputError, match="circle of radius"):
            winding_count(t, center, 0.25 + 2.0**-24)

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

    def test_rectangles_above_the_height_limit_are_refused(self):
        # Up there the phases are noise (see the evaluators' height tests),
        # so a search must not return roots found in them.
        for bounds in (
            (0.0, 1.0, 0.9e308, 0.95e308),
            (0.0, 1.0, -0.95e308, -0.9e308),
            (0.0, 1.0, 1.5e308, 1.50000001e308),
            (-1e307, 1e307, -1e307, 1e307),
        ):
            with pytest.raises(InputError, match=r"too large.* 2\*\*28"):
                SearchRegion(*bounds, grid_re=3, grid_im=3)
        # Wide along the real axis is still fine.
        SearchRegion(-1e307, 1e307, -1e6, 1e6)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_height_limit_is_exact(self, sign):
        # With a 3x3 grid over a side of 1, a nudged side moves out by 1 and
        # the escape box by 1.5 more: im_max = 2**28 - 2.5 takes the box up
        # to 2**28 exactly; one float more takes it past.
        t = make_target(DIRECT, 6)
        for top, taken in ((2.0**28 - 2.5, True), (2.0**28 - 2.5 + 2.0**-24, False)):
            lo, hi = sorted((sign * top, sign * (top - 1.0)))
            if taken:
                region = SearchRegion(0.0, 1.0, lo, hi, 3, 3)
                assert find_zeros(t, region) == []
            else:
                with pytest.raises(InputError, match="too large"):
                    SearchRegion(0.0, 1.0, lo, hi, 3, 3)

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

    @pytest.mark.parametrize(
        "target, tol",
        [
            (PRESETS["paper-alt-5"], 0.1),
            (PRESETS["paper-alt-5"], 0.5),
            (make_target(ALT, 6, 0.0), 0.5),
        ],
    )
    def test_a_root_is_not_snapped_onto_a_pole(self, target, tol):
        # Newton finds roots on the imaginary axis within 10*tol of the
        # real axis; snapped onto it they would sit on the pole at 0, so
        # they keep Newton's location.
        roots = find_zeros(target, AXES, tol=tol)
        near = [rec for rec in roots if abs(rec.location.imag) <= 10 * tol]
        assert near
        for rec in near:
            assert rec.location.imag != 0.0
            assert pole_distance(rec.location, target.n) > POLE_GATE
            assert rec.residual == abs(target.value_at(rec.location))


def newton_bits(outcome):
    """A newton_refine outcome exactly: a root's location and residual, a
    failure's reason, iteration count and last point."""
    if isinstance(outcome, RootRecord):
        return "root", bits(outcome.location), outcome.residual.hex()
    return outcome.reason, outcome.iterations, bits(outcome.last)


class Evaluations:
    """Counts the kernel's calls."""

    def __init__(self, monkeypatch):
        self.count = 0
        kernel = rootfind._array_kernel

        def counted(target):
            pairs = kernel(target)

            def counting(zr, zi):
                self.count += 1
                return pairs(zr, zi)

            return counting

        monkeypatch.setattr(rootfind, "_array_kernel", counted)


def search_calls(monkeypatch, target, region):
    """Each newton_refine call find_zeros makes, as (seed, tol, box, outcome
    bits, kernel calls the call made)."""
    evaluations = Evaluations(monkeypatch)
    calls = []
    refine = rootfind.newton_refine

    def recorded(t, seed, tol=1e-10, *, box=None):
        assert t is target
        before = evaluations.count
        out = refine(t, seed, tol, box=box)
        calls.append((seed, tol, box, newton_bits(out), evaluations.count - before))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(rootfind, "newton_refine", recorded)
        find_zeros(target, region)
    return calls


def refined_alone(target, seed, tol, box):
    """newton_refine's outcome bits outside any search, in a fresh context."""
    out = contextvars.Context().run(newton_refine, target, seed, tol, box=box)
    return newton_bits(out)


# A 9x9 grid over a rectangle symmetric about both axes: seeds on Re z = 0
# and on Im z = 0, with either sign of zero reaching their iterates.
AXES = SearchRegion(-1, 1, -3, 3, 9, 9)


# The benchmark's strip: the default 40x40 grid on a 1.5 x 12 rectangle
# right of the imaginary axis, whose Re z = 0 side a search moves out.
STRIP = SearchRegion(0.0, 1.5, 10.0, 22.0)

# A 25x25 grid over AXES's rectangle: seeds on both axes, and enough of
# them that even n = 2's one term is worth a round on the array kernel.
AXES_25 = replace(AXES, grid_re=25, grid_im=25)

# Small grids at n where the array kernel splits the terms into blocks
# and carries its sums from one to the next: n = 1000 (36 seeds, blocks of
# 455 terms) and n = 17000 (more terms than rootfind._BATCH).
LARGE_N = [
    (make_target(kind, n), SearchRegion(0.0, 1.0, 10.0, 13.0, grid, grid))
    for kind in (DIRECT, ALT)
    for n, grid in ((1000, 6), (17000, 3))
]


def same_point(a, b):
    """Whether a and b are one point bit for bit, signed zeros apart."""
    return bits(a) == bits(b)


def reference_newton(target, seed, tol, box, evaluate=None, polish=None):
    """newton_refine as a scalar loop over one seed, as it was written
    before the batch: the oracle whose outcomes the batch must give bit for
    bit.  Each point is evaluated by the oracle (reference_pair), or by
    evaluate, and the polish is reference_polish, or polish, given."""
    lo_re, hi_re, lo_im, hi_im = box
    evaluate = evaluate or functools.partial(reference_pair, target)
    polish = polish or reference_polish
    z = seed
    iterations = 0
    pair = None  # (f, f') at z, once evaluated
    try:
        while iterations < 60:
            if pair is None:
                pair = evaluate(z)
            fz, dz = pair
            if abs(dz) < 1e-14:
                return NewtonFailure("stagnation", z, iterations)
            step = fz / dz
            z_next = z - step
            iterations += 1
            if not (lo_re <= z_next.real <= hi_re and lo_im <= z_next.imag <= hi_im):
                return NewtonFailure("escape", z_next, iterations)
            if not same_point(z_next, z):
                z, pair = z_next, None
            if abs(step) < tol:
                if pair is None:
                    pair = evaluate(z)
                if abs(pair[0]) <= tol:
                    z, fz = polish(evaluate, z, pair, box)
                    return RootRecord(z, abs(fz), verified=False, conjugate_of=None)
                # A tiny step at a large residual: iterate on from the pair
                # in hand.
    except PoleProximityError:
        return NewtonFailure("pole", z, iterations)
    return NewtonFailure("max-iter", z, 60)


def reference_polish(evaluate, z, pair, box):
    """Two more Newton steps at most, each kept only if |f| does not grow."""
    lo_re, hi_re, lo_im, hi_im = box
    fz, dz = pair
    try:
        for _ in range(2):
            if abs(dz) < 1e-14:
                break
            z_next = z - fz / dz
            if same_point(z_next, z):
                break
            if not (lo_re <= z_next.real <= hi_re and lo_im <= z_next.imag <= hi_im):
                break
            pair = evaluate(z_next)
            if not abs(pair[0]) <= abs(fz):
                break
            z, (fz, dz) = z_next, pair
    except PoleProximityError:
        pass
    return z, fz


def solo_runs(target, seeds, tol, box):
    """Each seed's run alone, by the scalar loop: (the bits of the points it
    evaluates, in order; how many of them its polish evaluates; the bits of
    the point its polish starts from, None if it fails)."""
    runs = []
    for seed in seeds:
        points, start = [], []

        def evaluate(z):
            points.append(bits(z))
            return reference_pair(target, z)

        def polish(evaluate, z, pair, box):
            start.append((bits(z), len(points)))
            return reference_polish(evaluate, z, pair, box)

        reference_newton(target, seed, tol, box, evaluate=evaluate, polish=polish)
        at, before = start[0] if start else (None, len(points))
        runs.append((points, len(points) - before, at))
    return runs


def folded_seeds(runs):
    """The seeds one batch folds: those that converge at a point, bit for
    bit, where another seed converged in an earlier round, or in the same
    round with a lower index.  A seed converges in the round that evaluates
    the point its polish starts from."""
    first = {}
    for i, (points, polish, at) in enumerate(runs):
        if at is not None:
            first.setdefault(at, []).append((len(points) - polish, i))
    return sorted(i for group in first.values() for _, i in sorted(group)[1:])


def batch_rounds(runs, folded):
    """The sorted bits of the points one batch evaluates in each round: each
    seed's points alone, a folded seed's up to the point it converges at."""
    points = [
        p[: len(p) - polish] if i in folded else p
        for i, (p, polish, _) in enumerate(runs)
    ]
    rounds = max(map(len, points), default=0)
    return [sorted(p[r] for p in points if len(p) > r) for r in range(rounds)]


class Rounds:
    """The sorted bits of the points each of _newton's kernel calls is
    given: the batch's rounds."""

    def __init__(self, monkeypatch):
        self.seen = []
        kernel, newton = rootfind._array_kernel, rootfind._newton

        def recorded(target):
            pairs = kernel(target)

            def recording(zr, zi):
                self.seen.append(sorted(map(bits, map(complex, zr.tolist(), zi.tolist()))))
                return pairs(zr, zi)

            return recording

        def watched(*args):
            with monkeypatch.context() as patch:
                patch.setattr(rootfind, "_array_kernel", recorded)
                return newton(*args)

        monkeypatch.setattr(rootfind, "_newton", watched)


@functools.lru_cache(maxsize=None)
def cached_target(kind, n, constant):
    return make_target(kind, n, constant)


def lattice_height(k, r=2):
    return 2 * math.pi * k / math.log(r)


# Seeds: mostly ordinary points, and special ones, whose parts may be a
# zero of either sign (seeds on the axes), inside the gate strip
# |Re z| <= POLE_GATE, subnormal, far right where |f'| < 1e-14, or at
# lattice heights.
ORDINARY_SEEDS = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-40.0, 40.0))
SPECIAL_SEEDS = st.builds(
    complex,
    st.one_of(
        st.floats(-3.0, 3.0),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e-310)),
        st.floats(-POLE_GATE, POLE_GATE),
        st.floats(40.0, 60.0),
    ),
    st.one_of(
        st.floats(-40.0, 40.0),
        st.sampled_from((0.0, -0.0, 5e-324, lattice_height(1), -lattice_height(3))),
        st.floats(-1e-300, 1e-300),
    ),
)
SEEDS = st.one_of(ORDINARY_SEEDS, ORDINARY_SEEDS, SPECIAL_SEEDS)


@st.composite
def boxes(draw, seeds):
    """A box (re_min, re_max, im_min, im_max): around the seeds, by margins
    from a little inside them to far out, or anywhere."""
    if draw(st.booleans()):
        ends = st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2, unique=True)
        re, im = sorted(draw(ends)), sorted(draw(ends))
        box = (30.0 * re[0], 30.0 * re[1], 80.0 * im[0], 80.0 * im[1])
    else:
        margin = st.floats(-0.5, 30.0)
        re = [z.real for z in seeds]
        im = [z.imag for z in seeds]
        box = (
            min(re) - draw(margin), max(re) + draw(margin),
            min(im) - draw(margin), max(im) + draw(margin),
        )
    assume(box[0] < box[1] and box[2] < box[3])
    return box


# Tolerances from 1e-14 to 0.5, even in their logarithm.
TOLS = st.floats(-14.0, math.log10(0.5)).map(lambda e: 10.0**e)


# Roots near Im z = 1000 at n = 6, where a step below one ulp leaves the
# point as it is, and a box around them.
STUCK = [complex(0.2265775093501481, 1000.2715108939617),
         complex(0.4970109674648444, 1001.9638976363392)]
AT_1000 = (-1.0, 2.0, 990.0, 1010.0)


class TestOracle:
    """The batch against a scalar Newton loop over one seed at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from((DIRECT, ALT)),
        n=st.sampled_from([*range(2, 61), 1000, 17000]),
        constant=st.sampled_from((1.0, 0.5, 0.0)),
        tol=TOLS,
        seeds_and_box=st.lists(
            SEEDS, min_size=1, max_size=6
        ).flatmap(lambda seeds: st.tuples(st.just(seeds), boxes(seeds))),
    )
    # Each outcome: stagnation far right, a pole, the stuck path spinning to
    # the cap and polishing in place (roots near Im z = 1000), and a strip
    # seed that hits the cap.
    @example(kind=DIRECT, n=2, constant=1.0, tol=1e-10, seeds_and_box=(
        [50 + 0.3j, 1e-9 + 1j * lattice_height(1)], (-5.0, 80.0, -10.0, 10.0)))
    @example(kind=DIRECT, n=6, constant=1.0, tol=1e-15, seeds_and_box=(STUCK, AT_1000))
    @example(kind=DIRECT, n=6, constant=1.0, tol=1e-13, seeds_and_box=(STUCK, AT_1000))
    @example(kind=DIRECT, n=12, constant=1.0, tol=1e-10, seeds_and_box=(
        [complex(0.868836291913215, 48.92005032235982)],
        (-1.0384615384615385, 2.5, 33.073896476205974, 57.073896476205974)))
    # One seed on the real axis, where every iterate keeps Im z = +-0.0.
    @example(kind=ALT, n=3, constant=1.0, tol=1e-10, seeds_and_box=(
        [complex(0.3, 0.0)], (-2.0, 3.0, -1.0, 1.0)))
    @example(kind=ALT, n=12, constant=0.5, tol=1e-12, seeds_and_box=(
        [complex(0.9, -0.0)], (-2.0, 3.0, -1.0, 1.0)))
    @example(kind=DIRECT, n=6, constant=1.0, tol=1e-10, seeds_and_box=(
        [complex(-0.7, -0.0)], (-3.0, 3.0, -1.0, 1.0)))
    def test_the_batch_and_a_direct_call_give_the_oracles_bits(
        self, kind, n, constant, tol, seeds_and_box
    ):
        seeds, box = seeds_and_box
        target = cached_target(kind, n, constant)
        want = [newton_bits(reference_newton(target, z, tol, box)) for z in seeds]
        for outcome in want:
            event(outcome[0])
        batch = rootfind._newton(target, seeds, tol, box)
        assert [newton_bits(out) for out in batch] == want
        direct = [newton_bits(newton_refine(target, z, tol, box=box)) for z in seeds]
        assert direct == want

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from((DIRECT, ALT)),
        n=st.integers(2, 60),
        seed=SEEDS,
    )
    def test_the_default_box_gives_the_oracles_bits(self, kind, n, seed):
        target = cached_target(kind, n, 1.0)
        box = (seed.real - 25.0, seed.real + 25.0, seed.imag - 25.0, seed.imag + 25.0)
        want = newton_bits(reference_newton(target, seed, 1e-10, box))
        assert newton_bits(newton_refine(target, seed)) == want


class TestRecall:
    """A search steps all its seeds at once, and its newton_refine calls
    return the outcomes the batch holds, so every seed's outcome keeps the
    bits it has outside a search."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_each_seed_refines_in_a_search_as_it_does_alone(self, monkeypatch, name):
        target = PRESETS[name]
        calls = search_calls(monkeypatch, target, AXES)
        assert len(calls) == AXES.grid_re * AXES.grid_im
        seeds = [call[0] for call in calls]
        assert 0.0 in [z.real for z in seeds] and 0.0 in [z.imag for z in seeds]
        for seed, tol, box, outcome, _ in calls:
            assert outcome == refined_alone(target, seed, tol, box), seed

    @pytest.mark.parametrize(
        "target, region",
        [(PRESETS["paper-direct-6"], STRIP), (make_target(ALT, 9), STRIP), *LARGE_N],
        ids=lambda x: x.describe() if isinstance(x, Target) else "",
    )
    def test_each_seed_of_a_strip_or_large_n_search_refines_as_alone(
        self, monkeypatch, target, region
    ):
        calls = search_calls(monkeypatch, target, region)
        assert len(calls) == region.grid_re * region.grid_im
        for seed, tol, box, outcome, _ in calls:
            assert outcome == refined_alone(target, seed, tol, box), seed

    def test_a_strip_search_makes_few_kernel_calls(self, monkeypatch):
        # A round evaluates all its seeds' points in one kernel call: the
        # search's calls are under 5% of its seeds' alone.
        target = PRESETS["paper-direct-6"]
        evaluations = Evaluations(monkeypatch)
        calls = search_calls(monkeypatch, target, STRIP)
        in_search = evaluations.count
        for seed, tol, box, _, _ in calls:
            refined_alone(target, seed, tol, box)
        assert in_search < 0.05 * (evaluations.count - in_search)

    def test_a_search_evaluates_no_more_points_than_its_seeds_alone(
        self, monkeypatch
    ):
        # A round evaluates the one point each live seed waits on, so no
        # seed's point is evaluated after its outcome, and a seed that
        # converges where another seed already did skips its polish: the
        # search evaluates its seeds' points alone, less the folded seeds'
        # polish evaluations.
        target = PRESETS["paper-direct-6"]
        rounds = Rounds(monkeypatch)
        calls = search_calls(monkeypatch, target, AXES)
        seeds = [call[0] for call in calls]
        tol, box = calls[0][1:3]
        runs = solo_runs(target, seeds, tol, box)
        folded = folded_seeds(runs)
        assert rounds.seen == batch_rounds(runs, folded)
        in_search = sum(map(len, rounds.seen))
        alone = sum(len(points) for points, _, _ in runs)
        saved = sum(runs[i][1] for i in folded)
        assert in_search == alone - saved < alone

    def test_a_folded_seed_gets_the_oracles_root_as_a_record_of_its_own(
        self, monkeypatch
    ):
        # Seeds on one Newton path converge at one point in different rounds:
        # the seed two steps along it first (with a copy of it, the same
        # round), then the one a step along it, then the path's seed twice.
        target, tol, box = PRESETS["paper-direct-6"], 1e-10, (-5.0, 5.0, -20.0, 20.0)
        path, polish, _ = solo_runs(target, [complex(0.4, 2.5)], tol, box)[0]
        assert len(path) - polish >= 3 and polish
        ahead = [complex(*map(float.fromhex, path[k])) for k in (1, 2)]
        seeds = [complex(0.4, 2.5), ahead[0], complex(0.4, 2.5), ahead[1], ahead[1]]
        runs = solo_runs(target, seeds, tol, box)
        assert folded_seeds(runs) == [0, 1, 2, 4]
        rounds = Rounds(monkeypatch)
        outcomes = rootfind._newton(target, seeds, tol, box)
        assert rounds.seen == batch_rounds(runs, [0, 1, 2, 4])
        for z, out in zip(seeds, outcomes):
            assert newton_bits(out) == newton_bits(reference_newton(target, z, tol, box))
        assert len(set(map(id, outcomes))) == len(seeds)

    def test_seeds_folded_in_blocks_get_the_oracles_roots(self, monkeypatch):
        # Blocks of 10 seeds: some points are converged at in one block and
        # again in another, where a seed of that block polishes anew.
        monkeypatch.setattr(rootfind, "_BATCH", 10)
        target = PRESETS["paper-direct-6"]
        refine = rootfind.newton_refine
        calls = []

        def recorded(t, seed, tol=1e-10, *, box=None):
            out = refine(t, seed, tol, box=box)
            calls.append((seed, tol, box, newton_bits(out), out))
            return out

        monkeypatch.setattr(rootfind, "newton_refine", recorded)
        find_zeros(target, AXES)
        seeds = [call[0] for call in calls]
        tol, box = calls[0][1:3]
        runs = solo_runs(target, seeds, tol, box)
        blocks = [runs[k : k + 10] for k in range(0, len(runs), 10)]
        folded = [folded_seeds(block) for block in blocks]
        assert sum(map(len, folded)) > 0
        leaders = [{at for i, (_, _, at) in enumerate(b) if at and i not in f}
                   for b, f in zip(blocks, folded)]
        assert any(a & b for a, b in zip(leaders, leaders[1:]))
        for seed, _, _, outcome, _ in calls:
            assert outcome == newton_bits(reference_newton(target, seed, tol, box))
        assert len({id(call[4]) for call in calls}) == len(calls)

    def test_a_refused_point_is_refused_for_every_seed_on_it(self):
        target = PRESETS["paper-direct-6"]
        near = complex(1e-9, LATTICE_2)
        points = [near, complex(0.5, 2.0), near, complex(1e-9, -LATTICE_2)]
        refused, *_ = rootfind._array_kernel(target)(
            np.array([z.real for z in points]), np.array([z.imag for z in points])
        )
        assert refused.tolist() == [True, False, True, True]
        box = (-5.0, 5.0, -20.0, 20.0)
        outcomes = rootfind._newton(target, points, 1e-10, box)
        for z, out in zip(points, outcomes):
            want = reference_newton(target, z, 1e-10, box)
            assert newton_bits(out) == newton_bits(want)
        assert [newton_bits(out)[:2] for out in outcomes[::2]] == [("pole", 0)] * 2

    def test_no_search_state_is_left_after_a_search(self, monkeypatch):
        before = dict(contextvars.copy_context())
        inside = []
        refine = rootfind.newton_refine

        def watched(*args, **kwargs):
            inside.append(dict(contextvars.copy_context()))
            if len(inside) == 5 and raising:
                raise KeyboardInterrupt
            return refine(*args, **kwargs)

        monkeypatch.setattr(rootfind, "newton_refine", watched)
        for raising in (False, True):
            inside.clear()
            with pytest.raises(KeyboardInterrupt) if raising else nullcontext():
                find_zeros(PRESETS["paper-alt-6"], AXES)
            assert inside and all(seen != before for seen in inside)
            assert dict(contextvars.copy_context()) == before

    def test_back_to_back_searches_each_keep_their_own_targets_results(self):
        # Constants one ulp apart: the two targets' Newton runs reach many
        # of the same converged points with pairs that differ in the last
        # bits, so outcomes that outlived a search would change the next.
        first = make_target(DIRECT, 6)
        second = make_target(DIRECT, 6, math.nextafter(1.0, 2.0))
        for a, b in ((first, second), (second, first)):
            alone = contextvars.Context().run(find_zeros, b, AXES)
            find_zeros(a, AXES)
            assert fingerprint(find_zeros(b, AXES)) == fingerprint(alone)


def oracle_bits(target, z):
    """The oracle's outcome at z: "refused" where the pole gate refuses z,
    else reference_value_and_derivative's (f, f') as hex text."""
    try:
        pole_gate(z, target.n)
    except PoleProximityError:
        return "refused"
    return [bits(w) for w in reference_value_and_derivative(target, z)]


def kernel_mismatches(target, points):
    """The points at which one kernel call over them all does not give
    the oracle's outcome (oracle_bits)."""
    zr = np.array([z.real for z in points])
    zi = np.array([z.imag for z in points])
    refused, fr, fi, dr, di = rootfind._array_kernel(target)(zr, zi)
    wrong = []
    for k, z in enumerate(points):
        pair = complex(fr[k], fi[k]), complex(dr[k], di[k])
        got = "refused" if refused[k] else [bits(w) for w in pair]
        if got != oracle_bits(target, z):
            wrong.append(z)
    return wrong


def signed(magnitudes):
    return st.tuples(st.sampled_from((1.0, -1.0)), magnitudes).map(
        lambda pair: pair[0] * pair[1]
    )


# Every point check_point admits.  Real parts: ordinary, up to where exp
# underflows in every term, on either side of the gate, and up to the
# largest double, past where z*log r overflows; imaginary parts: ordinary,
# up to the height limit, and subnormal, where the kernel's quotients meet
# zero parts; both with either sign of zero.  And points within a few
# times POLE_GATE of a term pole, on either side of the gate.
REAL_PARTS = signed(
    st.one_of(
        st.floats(0.0, 3.0),
        st.floats(1e-5, 2200.0),
        st.floats(0.5 * POLE_GATE, 2.0 * POLE_GATE),
        st.sampled_from((POLE_GATE, math.nextafter(POLE_GATE, 1.0))),
        st.floats(2200.0, sys.float_info.max),
    )
)
IMAG_PARTS = signed(
    st.one_of(
        st.floats(0.0, 40.0),
        st.floats(0.0, MAX_HEIGHT),
        st.floats(5e-324, 1e-300),
        st.floats(1e-300, 1e-20),
    )
)
NEAR_POLES = st.builds(
    lambda r, k, x, y: complex(x, 2.0 * math.pi * k / math.log(r) + y),
    st.sampled_from((2, 3, 5, 6, 7)),
    st.integers(-5, 5),
    st.floats(-3.0 * POLE_GATE, 3.0 * POLE_GATE),
    st.floats(-3.0 * POLE_GATE, 3.0 * POLE_GATE),
)

# Extreme points, as a fixed list for the warning and planted-kernel checks.
EXTREMES = [
    complex(sign_re * x, sign_im * y)
    for x in (1.0000001e-6, 1e-5, 0.3, 7.0, 800.0, 2200.0)
    for y in (5e-324, 1e-310, 1e-160, 0.7, 14.134725, 3e5, 2.0**27)
    for sign_re in (1.0, -1.0)
    for sign_im in (1.0, -1.0)
]


# Both half-planes, the gate strip and zero parts in one list: ten points
# the kernel evaluates, so at n = 12 (8 terms) one block of rows is no more
# than the points and the row loop adds it, and at n = 300 (276 terms)
# np.add.accumulate does; MIXED_TWO keeps two of them, so a block of three
# terms (_BATCH = 7) outnumbers its points.
MIXED = [
    complex(0.3, 14.1), complex(-0.4, -7.5), complex(0.0, 2.0), complex(2.0, -0.7),
    complex(-1.5, 0.9), complex(1.5, 0.0), complex(7.0, 1e-310), complex(-0.0, -3.0),
    complex(-800.0, 14.134725), complex(1e-5, 3e5), complex(-2.0, -0.0),
    complex(5e-7, 1.0), complex(0.5, 25.01), complex(-3.0, -(2.0**27)), 0j,
    complex(-1e-5, 5e-324),
]
MIXED_TWO = MIXED[:3] + MIXED[10:12]

# Points that only the scalar loop once evaluated, now the kernel's with
# every product whole: Im z = +-0.0 (at Re z = +-1100 on alt n = 2 with
# constant -0.0, the signs of zero in the result show), Re z = +-1e300 and
# past where z*log r overflows, and gate-strip points the gate clears and
# refuses.
EDGES = [
    complex(a * x, b * y)
    for x in (1100.0, 1e300, 1.7e308, 0.5)
    for y in (0.0, 0.7)
    for a in (1, -1)
    for b in (1, -1)
] + [complex(5e-7, 1.0), complex(-5e-7, -1.0), complex(1e-7, 0.0), complex(-0.0, 0.0)]


def guard_edges(n):
    """Points on the array kernel's guard at n, on both sides of it and in
    both half-planes: |Re z| at _REACH/log n and one ulp past it, |Im z| at
    _LOW and one ulp below it; with |Im z| = 0.7 and 5e-324, and Re z = 0.5
    and 1100, where at n = 2 exp underflows to 0 in both parts."""
    reach, low = rootfind._REACH / math.log(n), rootfind._LOW
    xs = (reach, math.nextafter(reach, math.inf), 0.5, 1100.0)
    ys = (low, math.nextafter(low, 0.0), 0.7, 5e-324)
    return [complex(a * x, b * y) for x in xs for y in ys for a in (1, -1) for b in (1, -1)]


def in_guard(z, n):
    """Whether the array kernel takes z at n."""
    x, y = abs(z.real), abs(z.imag)
    return POLE_GATE < x <= rootfind._REACH / math.log(n) and y >= rootfind._LOW


class TestBatch:
    """The array kernel a search's rounds evaluate with, and the batch."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from((DIRECT, ALT)),
        n=st.sampled_from((2, 3, 6, 12, 47, 300)),
        constant=st.sampled_from((1.0, 0.5, 0.0, -0.0)),
        points=st.lists(
            st.one_of(st.builds(complex, REAL_PARTS, IMAG_PARTS), NEAR_POLES),
            min_size=1,
            max_size=40,
        ),
        batch=st.sampled_from((rootfind._BATCH, 64, 7)),
    )
    @example(kind=ALT, n=12, constant=-0.0, points=EXTREMES, batch=rootfind._BATCH)
    @example(kind=ALT, n=12, constant=0.5, points=MIXED, batch=rootfind._BATCH)
    @example(kind=DIRECT, n=300, constant=-0.0, points=MIXED, batch=rootfind._BATCH)
    @example(kind=DIRECT, n=12, constant=1.0, points=MIXED, batch=7)
    @example(kind=ALT, n=300, constant=0.0, points=MIXED, batch=7)
    @example(kind=ALT, n=300, constant=1.0, points=MIXED_TWO, batch=7)
    @example(kind=ALT, n=2, constant=-0.0, points=guard_edges(2), batch=rootfind._BATCH)
    @example(kind=ALT, n=2, constant=0.0, points=guard_edges(2), batch=rootfind._BATCH)
    @example(kind=DIRECT, n=2, constant=-0.0, points=guard_edges(2), batch=rootfind._BATCH)
    @example(kind=DIRECT, n=12, constant=-0.0, points=guard_edges(12), batch=7)
    @example(kind=ALT, n=300, constant=0.0, points=guard_edges(300), batch=rootfind._BATCH)
    @example(kind=ALT, n=2, constant=-0.0, points=EDGES, batch=rootfind._BATCH)
    @example(kind=DIRECT, n=2, constant=-0.0, points=EDGES, batch=rootfind._BATCH)
    @example(kind=DIRECT, n=47, constant=0.5, points=EDGES, batch=7)
    @example(kind=ALT, n=300, constant=1.0, points=EDGES, batch=64)
    def test_the_array_kernel_gives_the_scalar_kernels_bits(
        self, kind, n, constant, points, batch
    ):
        # One call over all the points, and one over those inside the
        # guard, where the kernel drops its products by zero, give the
        # oracle's bits or its refusal at every point.  Smaller batches
        # split the terms into blocks, the running sums carried from one
        # block to the next.  At alt n = 2 with constant -0.0, a kernel
        # that dropped those products outside the guard gives other bits
        # at Re z = 1100.
        target = make_target(kind, n, constant)
        guarded = [z for z in points if in_guard(z, n)]
        with mock.patch.object(rootfind, "_BATCH", batch):
            assert kernel_mismatches(target, points) == []
            assert kernel_mismatches(target, guarded) == []

    @pytest.mark.parametrize("kind", [DIRECT, ALT])
    def test_the_array_kernel_carries_its_sums_past_one_block_of_terms(self, kind):
        target = make_target(kind, 17000, 0.5)
        assert admissible_up_to(17000).term_count > rootfind._BATCH
        points = [complex(0.3, 14.1), complex(-0.4, -7.5), complex(2.0, 1e-310)]
        assert all(in_guard(z, 17000) for z in points)
        assert kernel_mismatches(target, points) == []
        assert kernel_mismatches(target, [*points, complex(0.5, -0.0)]) == []

    @pytest.mark.parametrize("op", ["product", "quotient"])
    def test_a_kernel_on_numpys_complex_arithmetic_is_caught(self, monkeypatch, op):
        # numpy's complex * (fused multiply-add) and / (another algorithm)
        # round differently from CPython's, so the bit check must fail.
        def packed(re, im):
            z = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
            z.real, z.imag = re, im
            return z

        def numpy_op(ar, ai, br, bi):
            a, b = packed(ar, ai), packed(br, bi)
            out = a * b if op == "product" else a / b
            return out.real, out.imag

        monkeypatch.setattr(rootfind, "_prod" if op == "product" else "_quot", numpy_op)
        rng = random.Random(7)
        points = [complex(rng.uniform(-3, 3), rng.uniform(-40, 40)) for _ in range(200)]
        assert kernel_mismatches(make_target(ALT, 12), points)

    @pytest.mark.parametrize(
        "target, region",
        [(PRESETS[name], AXES_25) for name in sorted(PRESETS)]
        + [(PRESETS["paper-alt-6"], STRIP), LARGE_N[0]],
        ids=lambda x: x.describe() if isinstance(x, Target) else "",
    )
    def test_every_pair_the_batch_uses_is_the_gated_pair(
        self, monkeypatch, target, region
    ):
        # Every (f, f') a search evaluates, in its rounds and for its
        # residuals, is the oracle's bit for bit, and every point refused is
        # one the pole gate refuses.
        used = []
        kernel = rootfind._array_kernel

        def recorded(target):
            pairs = kernel(target)

            def recording(zr, zi):
                out = pairs(zr, zi)
                used.extend(zip(zr.tolist(), zi.tolist(), *(v.tolist() for v in out)))
                return out

            return recording

        monkeypatch.setattr(rootfind, "_array_kernel", recorded)
        find_zeros(target, region)
        assert used
        for zr, zi, refused, fr, fi, dr, di in used:
            z = complex(zr, zi)
            pair = complex(fr, fi), complex(dr, di)
            got = "refused" if refused else [bits(w) for w in pair]
            assert got == oracle_bits(target, z), z

    def test_a_search_steps_its_seeds_a_block_at_a_time(self, monkeypatch):
        # The batch holds one block's seeds at a time, no seed is refined
        # outside it, and each seed's outcome is still its own.
        monkeypatch.setattr(rootfind, "_BATCH", 200)
        blocks = []
        newton = rootfind._newton

        def recorded(target, seeds, tol, box):
            blocks.append(len(seeds))
            return newton(target, seeds, tol, box)

        monkeypatch.setattr(rootfind, "_newton", recorded)
        target = PRESETS["paper-direct-6"]
        calls = search_calls(monkeypatch, target, AXES_25)
        assert blocks == [200, 200, 200, 25]
        for seed, tol, box, outcome, _ in calls:
            assert outcome == refined_alone(target, seed, tol, box), seed

    def test_a_call_inside_a_search_with_other_arguments_refines_on_its_own(
        self, monkeypatch
    ):
        # Another target, an equal tol or box that is not the search's own
        # object, or a seed that is not one of its seeds: each such call
        # computes its own outcome.
        target = PRESETS["paper-direct-6"]
        other = PRESETS["paper-alt-6"]
        refine = rootfind.newton_refine
        checked = []

        def nested(t, seed, tol=1e-10, *, box=None):
            out = refine(t, seed, tol, box=box)
            if len(checked) < 12:
                variants = [
                    (other, seed, tol, box),
                    (t, seed, float(repr(tol)), box),
                    (t, seed, tol, tuple(box)[:2] + tuple(box)[2:]),
                    (t, seed + 0.125, tol, box),
                ]
                for args in variants:
                    got = newton_bits(refine(args[0], args[1], args[2], box=args[3]))
                    assert got == refined_alone(*args), args
                checked.append(seed)
            return out

        monkeypatch.setattr(rootfind, "newton_refine", nested)
        find_zeros(target, AXES)
        assert len(checked) == 12

    def test_a_bad_box_or_tol_inside_a_search_is_refused(self, monkeypatch):
        refine = rootfind.newton_refine
        refused = []

        def nested(t, seed, tol=1e-10, *, box=None):
            if not refused:
                for kwargs in (
                    {"tol": -1.0},
                    {"tol": "1e-10"},
                    {"box": (1.0, 0.0, 0.0, 1.0)},
                    {"box": (0.0, 1.0, 0.0, math.inf)},
                ):
                    kwargs = {"tol": tol, "box": box, **kwargs}
                    with pytest.raises(InputError):
                        refine(t, seed, **kwargs)
                    refused.append(kwargs)
            return refine(t, seed, tol, box=box)

        monkeypatch.setattr(rootfind, "newton_refine", nested)
        find_zeros(PRESETS["paper-direct-6"], AXES)
        assert len(refused) == 4

    def test_no_runtime_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                for kind in (DIRECT, ALT):
                    target = make_target(kind, 47)
                    assert kernel_mismatches(target, EXTREMES + EDGES) == []
                find_zeros(PRESETS["paper-alt-6"], STRIP)
                find_zeros(PRESETS["paper-direct-5"], AXES)


# Nonzero real parts, from subnormal to where r**-z underflows in every
# term: at Re z = +-0.0, z and -z both lie right of Re z = 0, where each
# takes its own exp and the two need not be conjugate to the last bit.
NONZERO_REAL = signed(
    st.one_of(st.floats(5e-324, 1e-5), st.floats(1e-5, 3.0), st.floats(3.0, 40.0))
)


class TestReflection:
    """s/(r**z - 1) + s/(r**-z - 1) = -s for each base, so a target's value
    at z and at -z add to 2c - S, S the sum of the signs s_r."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from((DIRECT, ALT)),
        n=st.integers(2, 300),
        constant=st.sampled_from((1.0, 0.5, 0.0, -0.0, -2.0)),
        re=NONZERO_REAL,
        im=st.one_of(st.floats(-60.0, 60.0), st.sampled_from((0.0, -0.0))),
    )
    @example(ALT, 2, -0.0, 1.0, -0.0)
    @example(ALT, 300, 1.0, -0.3, 14.1)
    @example(DIRECT, 12, 0.5, 5e-7, 1.0)
    @example(DIRECT, 2, 1.0, -40.0, 0.7)
    def test_values_at_z_and_minus_z_add_to_2c_minus_s(self, kind, n, constant, re, im):
        # The kernel, the only evaluator of a target left of Re z = 0, and
        # values_at.  Within (l + 8) unit roundoffs of the constants and
        # terms added: each term is within a few of its exact value, and a
        # sum of l + 1 numbers adds at most l more.
        target = make_target(kind, n, constant)
        z = complex(re, im)
        refused, fr, fi, _, _ = rootfind._array_kernel(target)(
            np.array([z.real, -z.real]), np.array([z.imag, -z.imag])
        )
        assume(not refused.any())
        logs, signs = map(np.array, store_floats(kind, n))
        l, want = len(logs), 2.0 * constant - signs.sum()
        terms = [signs / (np.exp(w * logs) - 1.0) for w in (z, -z)]
        size = 2.0 * abs(constant) + sum(np.abs(t).sum() for t in terms)
        bound = (l + 8) * 2.0**-53 * size
        assert abs(complex(fr.sum(), fi.sum()) - want) <= bound, z
        assert abs(target.values_at(np.array([z, -z])).sum() - want) <= bound, z


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
