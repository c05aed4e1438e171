"""Newton refinement, winding counts, and the region search."""

import math

import mpmath
import pytest
import roots_frozen as frozen

from zetasieve import (
    ContourError,
    InputError,
    NewtonFailure,
    PRESETS,
    RepresentationKind,
    ResolutionError,
    RootRecord,
    SearchRegion,
    find_zeros,
    make_target,
    newton_refine,
    winding_count,
)
from zetasieve.rootfind import _nudged

DIRECT = RepresentationKind.DIRECT
ALT = RepresentationKind.ALTERNATING

LATTICE_2 = 2 * math.pi / math.log(2)


def lattice_index(z):
    return round(z.imag / LATTICE_2)


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
        assert (t.kind, t.n, t.members) == (DIRECT, 3, (2, 3))

    def test_value_matches_direct_evaluator(self):
        from zetasieve import zeta_direct_partial

        t = make_target(DIRECT, 6)
        for z in (2.0 + 0j, complex(0.5, 2), complex(-1.5, 1)):
            assert abs(t.value_at(z) - zeta_direct_partial(z, 6).value) <= 1e-14

    def test_alternating_signs(self):
        t = make_target(ALT, 6)
        assert t.signs == (-1.0, 1.0, 1.0, -1.0)

    def test_rejects_unsupported_kinds(self):
        with pytest.raises(InputError):
            make_target(RepresentationKind.COTH, 6)
        for constant in (float("inf"), True, "2"):
            with pytest.raises(InputError):
                make_target(DIRECT, 6, constant)


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

    def test_rejects_bad_arguments(self):
        t = make_target(DIRECT, 3)
        with pytest.raises(InputError):
            newton_refine(t, float("nan"))
        bad = [
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": "1e-10"},
            {"max_iter": 0},
            {"max_iter": "5"},
            {"gate": float("nan")},
            {"gate": -1.0},
            {"box": (float("nan"),) * 4},
            {"box": (1, 2)},
            {"box": (-5.0, 5.0, 10.0, -10.0)},
            {"box": (-5.0, 5.0, "-10", 10.0)},
            {"box": (-math.inf, math.inf, -math.inf, math.inf)},
        ]
        for kwargs in bad:
            with pytest.raises(InputError):
                newton_refine(t, complex(0.1, 3.4), **kwargs)


class TestWindingCount:
    def test_one_around_a_simple_zero(self):
        t = make_target(DIRECT, 3)
        rec = newton_refine(t, complex(0.1, 3.4))
        assert winding_count(t, rec.location, 0.3) == 1

    def test_one_at_the_reported_center(self):
        t = make_target(DIRECT, 3)
        assert winding_count(t, complex(0.0, 3.50671), 0.2) == 1

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

    def test_rejects_bad_arguments(self):
        t = make_target(DIRECT, 3)
        for radius in (-0.1, True, float("inf")):
            with pytest.raises(InputError):
                winding_count(t, complex(0, 3.5), radius)
        with pytest.raises(InputError):
            winding_count(t, complex(0, 3.5), 0.2, samples=4)
        for gate in (float("nan"), -1.0):
            with pytest.raises(InputError):
                winding_count(t, complex(0, 3.5), 0.2, gate=gate)


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

    def test_contains_is_boundary_inclusive(self):
        region = SearchRegion(-1.0, 1.0, -2.0, 2.0)
        assert region.contains(complex(1.0, 2.0))
        assert not region.contains(complex(1.0001, 0.0))

    def test_pole_on_the_boundary_is_nudged_outward(self):
        t = make_target(DIRECT, 2)
        region = SearchRegion(-1.0, 1.0, -LATTICE_2, LATTICE_2)
        nudged = _nudged(region, t, 1e-6)
        assert nudged.im_min < -LATTICE_2
        assert nudged.im_max > LATTICE_2
        assert (nudged.re_min, nudged.re_max) == (-1.0, 1.0)
        # and the search itself completes on the original region
        assert find_zeros(t, region) == []


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
            {"gate": float("nan")},
            {"gate": -1.0},
        ]
        for kwargs in bad:
            with pytest.raises(InputError):
                find_zeros(t, region, **kwargs)


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
