"""Perfect-power classification and the admissible sieve."""

import tracemalloc

import numpy as np
import pytest

from zetasieve import (
    AdmissibleSet,
    InputError,
    RepresentationKind,
    admissible_up_to,
    decompose_power,
    derivative_partial,
    nearest_pole,
    pole_distance,
    zeta_alt_coth_partial,
    zeta_alt_partial,
    zeta_bernoulli_partial,
    zeta_coth_partial,
    zeta_direct_partial,
)
from zetasieve import admissible


def brute_force_powers(limit):
    """Oracle: canonical (base, max exponent) for every perfect power <= limit.

    Independent double loop over b**k; deliberately avoids the package's
    sieve and root extraction.
    """
    canonical = {}
    b = 2
    while b * b <= limit:
        k = 2
        p = b * b
        while p <= limit:
            if p not in canonical or k > canonical[p][1]:
                canonical[p] = (b, k)
            k += 1
            p *= b
        b += 1
    return canonical


class TestDecomposePower:
    def test_prime_is_admissible(self):
        d = decompose_power(7)
        assert (d.value, d.base, d.exponent) == (7, 7, 1)

    def test_square_of_composite(self):
        d = decompose_power(36)
        assert (d.base, d.exponent) == (6, 2)

    def test_maximal_exponent_wins(self):
        # 64 = 8**2 = 4**3 = 2**6; canonical form takes the largest exponent
        d = decompose_power(64)
        assert (d.base, d.exponent) == (2, 6)

    def test_reconstruction_invariant(self):
        for m in (2, 9, 27, 100, 1024, 59049, 10**6):
            d = decompose_power(m)
            assert d.base**d.exponent == d.value == m

    def test_base_is_never_a_power(self):
        for m in range(2, 5000):
            d = decompose_power(m)
            assert decompose_power(d.base).exponent == 1

    def test_large_exact_powers(self):
        assert decompose_power(2**62).exponent == 62
        d = decompose_power(3**37)
        assert (d.base, d.exponent) == (3, 37)
        # Mersenne-style value near the top of the supported range; the
        # float root seed is far off here and must be corrected exactly.
        d = decompose_power(2**64 - 1)
        assert d.exponent == 1

    def test_agrees_with_brute_force_to_a_million(self):
        limit = 10**6
        oracle = brute_force_powers(limit)
        for m, (base, exponent) in oracle.items():
            d = decompose_power(m)
            assert (d.base, d.exponent) == (base, exponent), f"m={m}"
        # Non-powers: every m the oracle does not list must decompose
        # trivially.  Full check below 20000, strided sample above.
        for m in range(2, 20000):
            if m not in oracle:
                assert decompose_power(m).exponent == 1, f"m={m}"
        for m in range(20000, limit + 1, 97):
            if m not in oracle:
                assert decompose_power(m).exponent == 1, f"m={m}"

    @pytest.mark.parametrize("bad", [1, 0, -4, 2**64, 2.0, "9", None, True])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InputError):
            decompose_power(bad)


class TestAdmissibleUpTo:
    def test_denominator_list_at_12(self):
        aset = admissible_up_to(12)
        assert aset.members == (2, 3, 5, 6, 7, 10, 11, 12)
        assert aset.term_count == 8
        assert aset.limit == 12

    def test_at_20_excludes_the_four_powers(self):
        aset = admissible_up_to(20)
        assert aset.members == (2, 3, 5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20)
        assert aset.term_count == 15
        assert set(range(2, 21)) - set(aset.members) == {4, 8, 9, 16}

    def test_smallest_case(self):
        assert admissible_up_to(2) == AdmissibleSet(limit=2, members=(2,), term_count=1)

    def test_bases_are_a_read_only_int64_copy_of_members(self):
        aset = admissible_up_to(5000)
        assert aset.bases.dtype == np.int64
        assert aset.bases.tolist() == list(aset.members)
        assert all(type(r) is int for r in aset.members)
        with pytest.raises(ValueError):
            aset.bases[0] = 4
        # A caller's writeable array is copied, not frozen in place.
        given = np.array([2, 3])
        built = AdmissibleSet(limit=3, members=given, term_count=2)
        given[0] = 5
        assert built == admissible_up_to(3)

    def test_members_strictly_ascending(self):
        members = admissible_up_to(5000).members
        assert all(a < b for a, b in zip(members, members[1:]))

    def test_consistent_with_decompose(self):
        aset = admissible_up_to(3000)
        member_set = set(aset.members)
        for m in range(2, 3001):
            expected = decompose_power(m).exponent == 1
            assert (m in member_set) == expected

    @pytest.mark.parametrize("bad", [1, 0, -3, 1.5, None, True, 6.7, "6", 1e3])
    def test_rejects_bad_limits(self, bad):
        with pytest.raises(InputError):
            admissible_up_to(bad)
        # Every entry point that takes a truncation rejects it the same way,
        # rather than truncating 6.7 or 1e3 to an integer.
        z = complex(0.5, 2.0)
        calls = [
            lambda: zeta_direct_partial(z, bad),
            lambda: zeta_coth_partial(z, bad),
            lambda: zeta_alt_partial(z, bad),
            lambda: zeta_alt_coth_partial(z, bad),
            lambda: zeta_bernoulli_partial(z, bad, 10),
            lambda: derivative_partial(RepresentationKind.DIRECT, z, bad),
            lambda: nearest_pole(z, bad),
            lambda: pole_distance(z, bad),
        ]
        for call in calls:
            with pytest.raises(InputError):
                call()


class TestBasesAndPowers:
    """A set holds its bases or its perfect powers and builds the other from
    it; the two agree, and equality between sets from the store builds
    nothing."""

    @staticmethod
    def forget():
        admissible_up_to.cache_clear()
        admissible._STORE.clear()

    @pytest.mark.parametrize("limit", [12, np.int64(12)], ids=["int", "int64"])
    def test_a_set_given_members_finds_its_powers(self, limit):
        members = (2, 3, 5, 6, 7, 10, 11, 12)
        built = AdmissibleSet(limit=limit, members=members, term_count=8)
        assert built.powers.tolist() == [4, 8, 9]
        assert not built.powers.flags.writeable
        assert built == admissible_up_to(12) and admissible_up_to(12) == built

    def test_sets_from_the_store_compare_without_building_bases(self):
        self.forget()
        first = admissible_up_to(100_000)
        self.forget()
        again = admissible_up_to(100_000)
        assert first == again and first is not again
        assert first != admissible_up_to(99_999)
        assert "bases" not in vars(first) and "bases" not in vars(again)
        # A set made from members compares base by base, here unequal.
        shifted = AdmissibleSet(3, (3, 2), 2)
        assert shifted != admissible_up_to(3)

    def test_a_small_set_builds_only_its_own_bases(self):
        self.forget()
        zeta_direct_partial(complex(0.5, 14.0), 300_000)
        tracemalloc.start()
        try:
            assert admissible_up_to(6).members == (2, 3, 5, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10

    def test_repr_shows_the_powers(self):
        assert repr(admissible_up_to(12)) == (
            "AdmissibleSet(limit=12, term_count=8, powers=array([4, 8, 9]))"
        )


class TestPartitionProperty:
    def test_every_integer_has_unique_power_decomposition(self):
        # Each m in [2, 10**5] must be r**j for exactly one admissible r
        # and j >= 1; counted by enumerating all powers of all members.
        limit = 10**5
        counts = np.zeros(limit + 1, dtype=np.int64)
        members = admissible_up_to(limit).members
        arr = np.asarray(members)
        counts[arr] += 1
        for r in members:
            if r * r > limit:
                break
            p = r * r
            while p <= limit:
                counts[p] += 1
                p *= r
        assert (counts[2:] == 1).all()

    def test_parity_preserved_along_powers(self):
        # r**j has the parity of r, the fact the alternating grouping uses
        for r in admissible_up_to(500).members:
            p = r
            while p <= 10**9:
                assert p % 2 == r % 2
                p *= r
