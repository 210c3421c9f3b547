"""Chebyshev parities, Kummer digit logic, and the hitting-class count."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etaparity.cheby import (INFINITE_VALUATION, coeff_xa_in_Sn,
                             combinatorial_count, digit_stats)

from oracles import binom_v2, chebyshev_mod2


class TestDigitStats:
    def test_six(self):
        s = digit_stats(6)
        assert (s.d, s.v, s.z, s.u) == (3, 1, 1, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_ones(self, n):
        s = digit_stats(2**n - 1)
        assert (s.u, s.v) == (n, 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_of_two(self, n):
        s = digit_stats(2**n)
        assert (s.u, s.v) == (1, n)

    def test_zero_marker(self):
        assert digit_stats(0).v == INFINITE_VALUATION

    @given(st.integers(1, 10**9))
    def test_digit_identities(self, a):
        s = digit_stats(a)
        assert s.d == s.z + s.u
        assert 2 ** (s.d - 1) <= a < 2 ** s.d


class TestChebyshevMod2:
    def test_small_polynomials(self):
        assert chebyshev_mod2(0, 8) == 0
        assert chebyshev_mod2(1, 8) == 0b10
        assert chebyshev_mod2(3, 8) == 0b1010          # x^3 + x
        assert chebyshev_mod2(4, 8) == 0b10000         # x^4
        assert chebyshev_mod2(5, 8) == 0b101010        # x^5 + x^3 + x

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 63, 100, 256])
    def test_doubling_is_squaring(self, n):
        sq = 0
        sn = chebyshev_mod2(n, n)
        for i in range(n + 1):
            if (sn >> i) & 1:
                sq |= 1 << (2 * i)
        assert chebyshev_mod2(2 * n, 2 * n) == sq

    def test_truncation_matches_full(self):
        full = chebyshev_mod2(37, 37)
        assert chebyshev_mod2(37, 10) == full & ((1 << 11) - 1)


class TestCoefficientFormula:
    def test_examples(self):
        assert coeff_xa_in_Sn(1, 5) == 1
        assert coeff_xa_in_Sn(2, 4) == 0
        for n in (1, 2, 9, 31):
            assert coeff_xa_in_Sn(n, n) == 1  # monic

    def test_against_recurrence_to_512(self):
        # one array call per n covers every a <= n
        for n in range(513):
            poly = chebyshev_mod2(n, n if n else 1)
            want = [(poly >> a) & 1 for a in range(n + 1)]
            assert coeff_xa_in_Sn(np.arange(n + 1), n).tolist() == want, n

    def test_valuation_reduction(self):
        # x^a in S̄_n iff x^(2a) in S̄_(2n); a nonzero coefficient forces
        # equal 2-adic valuations of a and n.
        for n in range(1, 130):
            for a in range(1, n + 1):
                assert coeff_xa_in_Sn(a, n) == coeff_xa_in_Sn(2 * a, 2 * n)
                if coeff_xa_in_Sn(a, n):
                    assert (a & -a) == (n & -n)


class TestKummerLogic:
    # for odd k <= n, v2(C(n, k)) = v2(n) exactly when x^k appears in
    # S̄_(2n-k), whose coefficient there is ((2n-k)/n) C(n, k)
    def test_examples(self):
        assert coeff_xa_in_Sn(5, 5)  # n = k = 5
        assert not coeff_xa_in_Sn(3, 9)  # n = 6, k = 3: v2(20) = 2 > 1
        assert coeff_xa_in_Sn(1, 9)  # n = 5, k = 1

    def test_against_big_integers(self):
        for n in range(1, 65):
            v_n = (n & -n).bit_length() - 1
            ks = np.arange(1, n + 1, 2)
            want = [binom_v2(n, int(k)) == v_n for k in ks]
            assert coeff_xa_in_Sn(ks, 2 * n - ks).tolist() == want, n


class TestCombinatorialCount:
    def test_a_one(self):
        assert combinatorial_count(1) == (2, 4, (1, 3))

    @pytest.mark.parametrize("k", range(0, 7))
    def test_powers_of_two(self, k):
        count, _, _ = combinatorial_count(2**k)
        assert count == 2

    def test_a_six(self):
        count, modulus, _ = combinatorial_count(6)
        assert (count, modulus) == (2, 16)

    def test_formula_to_64(self):
        for a in range(1, 65):
            s = digit_stats(a)
            assert combinatorial_count(a)[0] == 2 ** (s.z - s.v + 1), a

    def test_periodicity_from_recurrence(self):
        # [x^a] S̄_n depends only on n mod 2^(d(a)+1): read everything off
        # the recurrence, far past one period.
        for a in (1, 2, 3, 5, 6, 8, 11, 12, 24, 33, 40, 64):
            d = digit_stats(a).d
            period = 1 << (d + 1)
            horizon = 1 << (d + 3)
            bits = [(chebyshev_mod2(n, a) >> a) & 1 if n >= a else 0
                    for n in range(horizon + 1)]
            for n in range(a, horizon + 1 - period):
                assert bits[n] == bits[n + period], (a, n)
