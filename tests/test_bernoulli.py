"""Bernoulli number table against two independent oracles."""

from fractions import Fraction

import numpy as np
import pytest

from zetasieve import InputError, bernoulli_table
from zetasieve.bernoulli import DEFAULT_MAX_INDEX


def akiyama_tanigawa(n):
    """Oracle: Bernoulli numbers by the Akiyama-Tanigawa transform.

    Produces the convention with B_1 = +1/2; the table under test uses
    B_1 = -1/2, so the caller flips index 1.
    """
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    out = []
    for m in range(n + 1):
        out.append(row[0])
        row = [(j + 1) * (row[j] - row[j + 1]) for j in range(len(row) - 1)]
    return out


def primes_up_to(n):
    sieve = [True] * (n + 1)
    sieve[0:2] = [False, False]
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    return [p for p in range(2, n + 1) if sieve[p]]


class TestExactValues:
    def test_first_three(self):
        table = bernoulli_table(2)
        assert table.values == (Fraction(1), Fraction(-1, 2), Fraction(1, 6))

    def test_sign_convention_at_index_one(self):
        assert bernoulli_table(1)[1] == Fraction(-1, 2)

    def test_odd_indices_vanish(self):
        table = bernoulli_table(61)
        for m in range(3, 62, 2):
            assert table[m] == 0

    def test_selected_even_values(self):
        table = bernoulli_table(20)
        assert table[4] == Fraction(-1, 30)
        assert table[8] == Fraction(-1, 30)
        assert table[12] == Fraction(-691, 2730)
        assert table[20] == Fraction(-174611, 330)

    def test_matches_akiyama_tanigawa(self):
        n = 40
        table = bernoulli_table(n)
        oracle = akiyama_tanigawa(n)
        for m in range(n + 1):
            expected = -oracle[m] if m == 1 else oracle[m]
            assert table[m] == expected, f"m={m}"

    def test_von_staudt_clausen_denominators(self):
        # The denominator of B_2k is exactly the product of primes p
        # with (p - 1) | 2k.
        table = bernoulli_table(60)
        primes = primes_up_to(62)
        for m in range(2, 61, 2):
            denom = 1
            for p in primes:
                if m % (p - 1) == 0:
                    denom *= p
            assert table[m].denominator == denom, f"m={m}"


class TestTableInterface:
    def test_metadata(self):
        table = bernoulli_table(10)
        assert table.max_index == 10
        assert len(table.values) == 11
        assert bernoulli_table(np.int64(5)) == bernoulli_table(5)

    def test_float_view(self):
        floats = bernoulli_table(6).as_floats()
        assert floats[2] == pytest.approx(1 / 6, rel=1e-15)
        assert floats[3] == 0.0

    def test_index_bounds(self):
        table = bernoulli_table(4)
        with pytest.raises(InputError):
            table[5]
        with pytest.raises(InputError):
            table[-1]

    @pytest.mark.parametrize("bad", [-1, 1.5, "8", None, True, 10**6])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(InputError):
            bernoulli_table(bad)

    def test_the_cap_is_fixed(self):
        assert bernoulli_table(DEFAULT_MAX_INDEX).max_index == DEFAULT_MAX_INDEX
        with pytest.raises(InputError, match=r"in \[0, 200\]"):
            bernoulli_table(DEFAULT_MAX_INDEX + 1)
        with pytest.raises(TypeError):
            bernoulli_table(2, maximum=400)

    def test_tables_are_cached(self):
        assert bernoulli_table(12) is bernoulli_table(np.int64(12))
