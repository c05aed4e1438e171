"""Accelerated reference evaluator against mpmath and known constants."""

import cmath

import mpmath
import pytest

from zetasieve import DomainError, InputError, PoleError, reference_zeta
from zetasieve.reference import _zeta_raw

mpmath.mp.dps = 30

# Frozen high-precision targets (independent of the implementation).
ZETA_2 = 1.6449340668482264365
ZETA_3 = 1.2020569031595942854
ZETA_HALF = -1.4603545088095868129


class TestKnownConstants:
    def test_basel(self):
        assert abs(reference_zeta(2.0) - ZETA_2) <= 1e-14

    def test_apery(self):
        assert abs(reference_zeta(3.0) - ZETA_3) <= 1e-14

    def test_critical_line_foot(self):
        assert abs(reference_zeta(0.5) - ZETA_HALF) <= 1e-14


class TestAgainstMpmath:
    @pytest.mark.parametrize(
        "z",
        [
            0.75,
            1.5,
            4.0,
            complex(2, 10),
            complex(0.5, 6.0),
            complex(0.25, -3.5),
            complex(3, -7),
            complex(0.1, 0.9),
            complex(0.5, 14.1),
            complex(1.0, 2.2),
        ],
    )
    def test_complex_samples(self, z):
        want = complex(mpmath.zeta(mpmath.mpc(z)))
        got = reference_zeta(z)
        assert abs(got - want) <= 1e-11 * (1 + abs(want)), f"z={z}"

    def test_near_pole_blows_up_consistently(self):
        z = 1.0001
        want = complex(mpmath.zeta(mpmath.mpf(z)))
        got = reference_zeta(z)
        assert abs(got - want) <= 1e-8 * abs(want)

    def test_accurate_up_to_the_stage_cap_and_refused_beyond(self):
        z = complex(0.5, 300.0)
        want = complex(mpmath.zeta(mpmath.mpc(z)))
        assert abs(reference_zeta(z) - want) <= 1e-10
        # |Im z| = 600 needs more than the 320-stage cap; the capped sum is
        # off by far more than 1e-10, so the oracle must refuse, not return it.
        z = complex(0.5, 600.0)
        want = complex(mpmath.zeta(mpmath.mpc(z)))
        assert abs(_zeta_raw(z, 320) - want) > 1e-6
        for z in (z, z.conjugate()):
            with pytest.raises(DomainError):
                reference_zeta(z)

    def test_conjugate_symmetry(self):
        for z in (complex(1.5, 2.0), complex(0.5, 9.3), complex(2.25, -4.0)):
            left = reference_zeta(z.conjugate())
            right = reference_zeta(z).conjugate()
            assert left == right


class TestDomain:
    def test_a_stage_count_that_overflows_is_refused(self):
        # (pi/2) * |Im z| overflows: the refusal, not its message, decides.
        for z in (complex(0.5, 1.2e308), complex(0.5, -1.7e308)):
            with pytest.raises(DomainError, match="cap of 320 stages"):
                reference_zeta(z)

    def test_pole_at_one(self):
        with pytest.raises(PoleError):
            reference_zeta(1.0)

    @pytest.mark.parametrize("z", [0.0, -1.0, complex(-0.5, 3.0), complex(0, 2)])
    def test_left_half_plane_rejected(self, z):
        with pytest.raises(DomainError):
            reference_zeta(z)

    def test_alternating_prefactor_zero_rejected(self):
        # 1 - 2**(1-z) vanishes on the line Re z = 1 at spacing 2*pi/log 2;
        # eta/prefactor is indeterminate there.
        z = complex(1.0, 2 * cmath.pi / cmath.log(2).real)
        with pytest.raises(DomainError):
            reference_zeta(z)

    @pytest.mark.parametrize(
        "z", [float("nan"), complex(float("inf"), 0), [2], True, "2", "2+0j"]
    )
    def test_rejects_non_finite(self, z):
        with pytest.raises(InputError):
            reference_zeta(z)
