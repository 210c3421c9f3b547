"""Generator constructors, eta powers, and theta-series oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaparity import genforms
from etaparity.f2series import F2Series, add, mul, substitute_qk
from etaparity.genforms import (CongruenceTheta, EtaPowerParams, c_series,
                                congruence_theta, delta_series,
                                eta_product_pnt, f_series, generator_power,
                                p_r_series, pentagonal_numbers, power_in_q,
                                prime_to_3_theta, triangular_theta)

from oracles import (mask_to_bits, naive_eta_product_mask, q_domain_eta_power,
                     series_bits, square_and_multiply)


def supp(f):
    return [int(e) for e in f.support()]


class TestEtaPowerParams:
    @pytest.mark.parametrize("r,m,b", [(1, 24, 1), (18, 4, 3), (24, 1, 1),
                                       (120, 1, 5), (9, 8, 3), (32, 3, 4)])
    def test_values(self, r, m, b):
        p = EtaPowerParams.for_power(r)
        assert (p.m_r, p.b_r) == (m, b)

    def test_invariants_up_to_256(self):
        for r in range(1, 257):
            p = EtaPowerParams.for_power(r)
            assert math.gcd(p.b_r, p.m_r) == 1
            assert 24 % p.m_r == 0
            assert p.m_r * p.r == 24 * p.b_r

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            EtaPowerParams.for_power(0)

    @pytest.mark.parametrize("r,m,b", [(1, 0, 1), (1, 24, 2), (2, 24, 2),
                                       (18, 8, 6), (48, 1, 1), (0, 1, 0),
                                       (-24, 1, -1)])
    def test_rejects_inconsistent(self, r, m, b):
        with pytest.raises(ValueError):
            EtaPowerParams(r, m, b)


class TestGenerators:
    def test_delta_supports(self):
        assert supp(delta_series(30)) == [1, 9, 25]
        assert delta_series(1).is_zero()
        assert supp(delta_series(300)) == [1, 9, 25, 49, 81, 121, 169, 225, 289]

    def test_c_supports(self):
        assert supp(c_series(130)) == [1, 25, 49, 121]
        assert supp(c_series(2)) == [1]

    def test_c_equals_delta_combination(self):
        n = 10_000
        rhs = add(delta_series(n), substitute_qk(delta_series(n // 9 + 1), 9, n))
        assert c_series(n) == rhs

    def test_f_support(self):
        assert supp(f_series(30)) == [1, 4, 16, 25]

    def test_c_from_f(self):
        n = 10_000
        f = f_series(n)
        assert add(f, square_and_multiply(f, 4, n)) == c_series(n)

    def test_delta_from_f(self):
        n = 10_000
        f = f_series(n)
        total = F2Series.zero(n)
        for e in (1, 4, 9, 12):
            total = add(total, square_and_multiply(f, e, n))
        assert total == delta_series(n)

    def test_c_cubed_is_dilated_delta(self):
        n = 10_000
        assert square_and_multiply(c_series(n), 3, n) == \
            substitute_qk(delta_series(n // 3 + 1), 3, n)


class TestPentagonal:
    def test_small_support(self):
        assert supp(eta_product_pnt(16)) == [0, 1, 2, 5, 7, 12, 15]
        assert supp(eta_product_pnt(1)) == [0]

    def test_prime_to_3_theta(self):
        # k = 1, 2, 4, 5, 7, 8: (k^2 - 1)/3 = 0, 1, 5, 8, 16, 21
        assert supp(prime_to_3_theta(22)) == [0, 1, 5, 8, 16, 21]
        assert supp(prime_to_3_theta(1)) == [0]

    def test_triangular_theta(self):
        assert supp(triangular_theta(22)) == [0, 1, 3, 6, 10, 15, 21]
        assert supp(triangular_theta(1)) == [0]
        n = 10_000
        lhs = mul(F2Series.from_support([1], n),
                  substitute_qk(triangular_theta(n // 8 + 1), 8, n), n)
        assert lhs == delta_series(n)

    def test_pentagonal_numbers(self):
        assert list(pentagonal_numbers(30)) == [1, 2, 5, 7, 12, 15, 22, 26]

    def test_pentagonal_numbers_against_enumeration(self):
        for n in range(3001):
            want, k = [], 1
            while k * (3 * k - 1) // 2 < n:
                want += [g for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2)
                         if g < n]
                k += 1
            want.sort()
            got = pentagonal_numbers(n)
            assert got.dtype == np.int64 and got.tolist() == want

    def test_against_naive_product(self):
        n = 10_000
        naive = mask_to_bits(naive_eta_product_mask(n), n)
        assert np.array_equal(series_bits(eta_product_pnt(n)), naive)

    def test_twenty_fourth_power_gives_delta(self):
        n = 10_000
        lhs = mul(F2Series.from_support([1], n),
                  square_and_multiply(eta_product_pnt(n), 24, n), n)
        assert lhs == delta_series(n)


class TestEtaPowers:
    def test_p24_is_delta(self):
        assert supp(p_r_series(24, 30)) == [1, 9, 25]

    def test_p1_is_c(self):
        assert supp(p_r_series(1, 30)) == [1, 25]

    def test_p18_progression(self):
        s = p_r_series(18, 500)
        assert np.all(s.support() % 4 == 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            p_r_series(0, 10)

    def test_matches_q_domain_power_all_r_to_256(self):
        for r in range(1, 257):
            params = EtaPowerParams.for_power(r)
            n = params.b_r + 64 * params.m_r
            got = p_r_series(r, n)
            assert got.valid_len == n
            assert np.array_equal(series_bits(got), series_bits(q_domain_eta_power(r, n))), r

    @given(st.integers(1, 400), st.integers(1, 3000))
    def test_matches_q_domain_power(self, r, n):
        got = p_r_series(r, n)
        assert got.valid_len == n
        assert np.array_equal(series_bits(got), series_bits(q_domain_eta_power(r, n)))
        if n <= EtaPowerParams.for_power(r).b_r:
            assert got.is_zero()

    def test_zero_below_b_r(self):
        # b_127 = 127: P_127 starts at q^127
        assert p_r_series(127, 127).is_zero()
        assert supp(p_r_series(127, 128)) == [127]

    def test_progression_is_compressed_series(self, monkeypatch):
        # P_18 = q^3 pnt^18(q^4) = q^3 pnt^9(q^8): 800 coefficients of P_18
        # need 100 of pnt^9, and a longer cached pnt^9 gives the same view
        monkeypatch.setattr(genforms, "_powers", {})
        want = series_bits(q_domain_eta_power(18, 800))
        for length in (100, 500):
            assert generator_power("C", 9, length).valid_len == length
            assert np.array_equal(series_bits(p_r_series(18, 800)), want)
            assert genforms._powers[("C", 9)].valid_len == length
        assert ("C", 18) not in genforms._powers
        assert generator_power("C", 9, 100).valid_len == 500

    def test_view_needs_enough_progression(self):
        with pytest.raises(ValueError):
            generator_power("delta", 3, 0)
        with pytest.raises(ValueError):
            power_in_q("delta", 3, 0)
        with pytest.raises(ValueError):
            p_r_series(18, 0)

    @pytest.mark.parametrize("gen,g", [("delta", delta_series), ("F", f_series),
                                       ("C", c_series)])
    def test_generator_powers_match_q_domain(self, gen, g):
        n = 4096
        base = g(n)
        for e in range(1, 65):
            got = power_in_q(gen, e, n)
            assert got.valid_len == n
            assert np.array_equal(series_bits(got), series_bits(square_and_multiply(base, e, n))), e
        assert power_in_q(gen, 0, n) == F2Series.one(n)

    def test_progression_support_all_r_to_256(self):
        for r in range(1, 257):
            params = EtaPowerParams.for_power(r)
            s = p_r_series(r, params.b_r + 64 * params.m_r)
            assert np.all(s.support() % params.m_r == params.b_r % params.m_r), r


GENERATOR_SERIES = {"delta": delta_series, "C": c_series, "F": f_series}


def counting_mul(monkeypatch):
    """Replace genforms.mul by a wrapper that records its operands' lengths."""
    operands = []

    def counted(f, g, n_out=None):
        operands.append((f.valid_len, g.valid_len))
        return mul(f, g, n_out)

    monkeypatch.setattr(genforms, "mul", counted)
    return operands


def odd_split(e):
    """(o, v) with e = 2^v * o and o odd, or (0, 0) for e = 0."""
    v = (e & -e).bit_length() - 1 if e else 0
    return e >> v, v


class TestGeneratorPowerCache:
    """Only h^0 and odd h^e are cached; a missing odd h^e is h^(e - 2^t)
    times one dilated factor, and an even power is read through its odd
    part with no multiply and no cache entry."""

    @settings(deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(GENERATOR_SERIES)),
                              st.integers(0, 600),
                              st.lists(st.integers(1, 4096), min_size=1, max_size=3)),
                    min_size=1, max_size=6))
    @example([("delta", 7, [300, 4096, 50]), ("delta", 3, [4096]),
              ("delta", 14, [2000])])
    @example([("C", 5, [200]), ("C", 13, [100, 3000]), ("C", 26, [4096, 10])])
    @example([("F", 0, [1, 7]), ("F", 600, [600, 601, 4096]), ("F", 1, [4096])])
    def test_requests_match_square_and_multiply(self, requests):
        # runs of requests for one (gen, e) at rising and falling n
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(genforms, "_powers", {})
            for gen, e, ns in requests:
                s = genforms.GENERATORS[gen][1]
                o, v = odd_split(e)
                for n in ns:
                    got = power_in_q(gen, e, n)
                    want = square_and_multiply(GENERATOR_SERIES[gen](n), e, n)
                    assert got.valid_len == n
                    assert np.array_equal(series_bits(got), series_bits(want)), (gen, e, n)
                    if n > e:
                        length = (n - e - 1) // s + 1
                        cached = genforms._powers[(gen, o)].valid_len
                        assert cached >= ((length - 1) >> v) + 1
            # every cached power, requested or a prefix, is h^e to its length,
            # and no even power above h^0 is kept
            for (gen, e), got in genforms._powers.items():
                assert e <= 1 or e % 2 == 1, (gen, e)
                h, n = genforms.GENERATORS[gen][0], got.valid_len
                want = F2Series.one(n) if e == 0 else square_and_multiply(h(n), e, n)
                assert np.array_equal(series_bits(got), series_bits(want)), (gen, e, n)

    @pytest.mark.parametrize("gen", sorted(GENERATOR_SERIES))
    def test_even_power_is_not_cached(self, gen, monkeypatch):
        monkeypatch.setattr(genforms, "_powers", {})
        for e in (2, 4, 14, 24, 600):
            with pytest.raises(ValueError):
                generator_power(gen, e, 100)
        assert genforms._powers == {}

    def test_one_multiply_per_new_power(self, monkeypatch):
        monkeypatch.setattr(genforms, "_powers", {})
        operands = counting_mul(monkeypatch)
        n = 1000
        generator_power("delta", 3, n)
        assert len(operands) == 1
        operands.clear()
        generator_power("delta", 7, n)  # h^3 * h(y^4)
        assert len(operands) == 1
        assert sorted(genforms._powers) == [("delta", 1), ("delta", 3), ("delta", 7)]
        # at 2n, h^1, h^3 and h^7 are rebuilt; no operand is a shorter prefix
        operands.clear()
        generator_power("delta", 7, 2 * n)
        assert len(operands) == 2
        assert all(min(lens) >= 2 * n for lens in operands)
        assert [genforms._powers[("delta", e)].valid_len for e in (1, 3, 7)] == [2 * n] * 3
        assert generator_power("delta", 7, n) == \
            square_and_multiply(triangular_theta(2 * n), 7, 2 * n)

    def test_even_power_is_a_view_of_its_odd_part(self, monkeypatch):
        # delta^14 and delta^56 read h^7 through y -> y^2 and y -> y^8, and
        # P_14 = q^7 pnt^14(q^12) reads pnt^7: no multiply, no new entry
        monkeypatch.setattr(genforms, "_powers", {})
        n = 8000
        generator_power("delta", 7, n // 8)
        generator_power("C", 7, n // 12)
        cached = dict(genforms._powers)
        operands = counting_mul(monkeypatch)
        delta = delta_series(n)
        for e in (14, 56):
            assert power_in_q("delta", e, n) == square_and_multiply(delta, e, n), e
        assert p_r_series(14, n) == q_domain_eta_power(14, n)
        assert operands == []
        assert genforms._powers == cached

    def test_cold_power_costs_its_frobenius_product(self, monkeypatch):
        # pnt^r from an empty cache takes popcount(odd part of r) - 1
        # multiplies, as the product over the bits of r does
        for r in (1, 2, 5, 11, 0b1011011 << 2, 255):
            monkeypatch.setattr(genforms, "_powers", {})
            operands = counting_mul(monkeypatch)
            p_r_series(r, 5000)
            assert len(operands) == bin(r).count("1") - 1, r


ODD = (2, frozenset({1}))
PRIME_TO_3 = (3, frozenset({1, 2}))
UNIT_MOD_6 = (6, frozenset({1, 5}))


class TestCongruenceTheta:
    def test_alpha11_shape(self):
        n = 100
        theta = congruence_theta(CongruenceTheta(3, 8, ODD, PRIME_TO_3), n)
        f = f_series(n)
        poly = F2Series.zero(n)
        for e in (11, 14, 17, 20):
            poly = add(poly, square_and_multiply(f, e, n))
        assert theta == poly

    def test_c_fifth_shape(self):
        n = 100
        theta = congruence_theta(CongruenceTheta(4, 1, UNIT_MOD_6, UNIT_MOD_6), n)
        assert theta == square_and_multiply(c_series(n), 5, n)

    def test_empty_conditions(self):
        spec = CongruenceTheta(1, 1, (2, frozenset()), ODD)
        assert congruence_theta(spec, 50).is_zero()

    def test_even_multiplicities_cancel(self):
        # 16m^2 + n^2 with unconstrained-enough conditions: 65 is hit twice
        theta = congruence_theta(CongruenceTheta(16, 1, PRIME_TO_3, UNIT_MOD_6), 100)
        assert supp(theta) == [17, 41, 89]
