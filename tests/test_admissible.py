"""Perfect-power classification and the admissible sieve."""

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        aset = admissible_up_to(2)
        assert (aset.limit, aset.term_count, aset.members) == (2, 1, (2,))
        assert aset.powers.tolist() == []

    def test_bases_are_a_read_only_int64_copy_of_members(self):
        aset = admissible_up_to(5000)
        assert aset.bases.dtype == np.int64
        assert aset.bases.tolist() == list(aset.members)
        assert all(type(r) is int for r in aset.members)
        with pytest.raises(ValueError):
            aset.bases[0] = 4

    def test_no_set_keeps_its_members(self):
        # A cached set holding a tuple of Python ints would keep about 46
        # bytes per base alive; members is made anew on each read.
        aset = admissible_up_to(5000)
        first = aset.members
        assert first == tuple(aset.bases.tolist())
        assert aset.members is not first
        assert not any(type(v) is tuple for v in vars(aset).values())

    def test_members_strictly_ascending(self):
        members = admissible_up_to(5000).members
        assert all(a < b for a, b in zip(members, members[1:]))

    def test_consistent_with_decompose(self):
        aset = admissible_up_to(3000)
        member_set = set(aset.members)
        for m in range(2, 3001):
            expected = decompose_power(m).exponent == 1
            assert (m in member_set) == expected

    @pytest.mark.parametrize("bad", [6.0, np.float64(6.0)], ids=["float", "float64"])
    def test_a_float_equal_to_a_cached_limit_is_refused(self, bad):
        # A cache keys an int64 limit as (np.int64(6),), which equals (6.0,)
        # and hashes alike, so an untyped cache would hand back the set at 6
        # without checking the argument.
        admissible_up_to(np.int64(6))
        with pytest.raises(InputError, match="n must be an integer"):
            admissible_up_to(bad)

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

    def test_an_unhashable_limit_is_refused_before_the_cache_hashes_it(self):
        calls = [
            lambda: zeta_direct_partial(2, [5]),
            lambda: nearest_pole(2.0, [5]),
            lambda: derivative_partial(RepresentationKind.DIRECT, 2.0, [5]),
            lambda: admissible_up_to({}),
        ]
        for call in calls:
            with pytest.raises(InputError, match="n must be an integer"):
                call()

    def test_the_cache_counts_checked_limits(self):
        admissible_up_to.cache_clear()
        assert admissible_up_to.cache_info().currsize == 0
        first = admissible_up_to(12)
        assert admissible_up_to(np.int64(12)) is first
        with pytest.raises(InputError):
            admissible_up_to(12.0)
        info = admissible_up_to.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


@functools.cache
def admissible_by_decomposition(limit):
    return tuple(m for m in range(2, limit + 1) if decompose_power(m).exponent == 1)


class TestBasesAndPowers:
    """A set is the store's view of the perfect powers up to its limit and
    builds its bases from them; sets compare by limit, which builds
    nothing."""

    @staticmethod
    def forget():
        admissible_up_to.cache_clear()
        admissible._STORE.clear()

    @pytest.mark.parametrize("limit", [12, np.int64(12)], ids=["int", "int64"])
    def test_a_set_from_the_store_holds_its_powers(self, limit):
        aset = admissible_up_to(limit)
        assert type(aset.limit) is int and aset.limit == 12
        assert aset.powers.tolist() == [4, 8, 9]
        assert not aset.powers.flags.writeable
        assert aset == admissible_up_to(12) and admissible_up_to(12) == aset

    def test_sets_from_the_store_compare_without_building_bases(self):
        self.forget()
        first = admissible_up_to(100_000)
        self.forget()
        again = admissible_up_to(100_000)
        assert first == again and first is not again
        assert first != admissible_up_to(99_999)
        assert "bases" not in vars(first) and "bases" not in vars(again)

    @pytest.mark.parametrize(
        "args, kwargs",
        [((2, (2,), 1), {}), ((), {"limit": 3, "members": (2, 3), "term_count": 2})],
    )
    def test_there_is_no_public_constructor(self, args, kwargs):
        # A set made from a caller's list could disagree with its limit.
        with pytest.raises(TypeError, match=r"admissible_up_to\(n\)"):
            AdmissibleSet(*args, **kwargs)
        with pytest.raises(dataclasses.FrozenInstanceError):
            admissible_up_to(12).limit = 13

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(st.integers(2, 1500), st.sampled_from(["cache", "store"])),
            min_size=2,
            max_size=12,
        )
    )
    def test_sets_are_equal_exactly_when_their_limits_are(self, steps):
        # The store grows in the order asked for, and "cache" or "store"
        # drops the cached sets or everything; sets made before and after a
        # growth are compared with each other.
        self.forget()
        sets = []
        for step in steps:
            if step == "cache":
                admissible_up_to.cache_clear()
            elif step == "store":
                self.forget()
            else:
                sets.append(admissible_up_to(step))
        for a in sets:
            for b in sets:
                assert (a.limit == b.limit) == (a == b) == (hash(a) == hash(b))
        for aset in sets:
            assert aset.members == admissible_by_decomposition(aset.limit)
            assert aset.term_count == len(aset.members)

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
