"""The packed-bit series engine: examples, oracles, and algebraic laws."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaparity import f2series
from etaparity.f2series import F2Series, add, every, mul, substitute_qk
from etaparity.genforms import (c_series, delta_series, eta_product_pnt,
                                pentagonal_numbers)

from oracles import (conv_mod2, odd_square_triple_parity, series_bits,
                     series_from_bits, square_and_multiply)


def series_strategy(max_len=160, max_support=14):
    return st.integers(1, max_len).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), max_size=max_support).map(
            lambda supp: F2Series.from_support(sorted(set(supp)), n)))


def support_list(f):
    return [int(e) for e in f.support()]


class TestConstruction:
    def test_zero_and_one(self):
        z = F2Series.zero(10)
        assert z.is_zero() and z.valid_len == 10
        assert support_list(F2Series.one(5)) == [0]

    def test_from_support_bounds(self):
        with pytest.raises(ValueError):
            F2Series.from_support([10], 10)
        with pytest.raises(ValueError):
            F2Series.from_support([-1], 10)

    def test_from_support_holds_no_byte_per_coefficient(self):
        # 10^7 coefficients pack into 1.25 MB of words; staging a byte per
        # coefficient would add 10 MB
        n = 10**7
        pent = pentagonal_numbers(n)
        tracemalloc.start()
        try:
            f = F2Series.from_support(pent, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (8 * -(-n // 64) + pent.nbytes)
        assert np.array_equal(f.support(), pent)

    def test_from_support_keeps_repeats_once(self):
        assert support_list(F2Series.from_support([3, 70, 3, 0, 70], 71)) == [0, 3, 70]

    def test_coeff_guard(self):
        f = F2Series.from_support([3], 10)
        assert f.coeff(3) == 1 and f.coeff(4) == 0
        with pytest.raises(ValueError):
            f.coeff(10)
        with pytest.raises(ValueError):
            f.coeffs_at([2, 11])

    def test_prefix_equality(self):
        f = F2Series.from_support([1, 50], 60)
        g = F2Series.from_support([1], 40)
        assert f == g  # agree on the first 40 coefficients
        assert f != F2Series.from_support([2], 40)


class TestAdd:
    def test_self_inverse(self):
        f = delta_series(100)
        assert add(f, f).is_zero()
        assert add(f, f).valid_len == 100

    def test_c_from_deltas(self):
        n = 10_000
        lhs = add(delta_series(n), substitute_qk(delta_series(n // 9 + 1), 9, n))
        assert lhs == c_series(n)

    def test_xor_of_supports(self):
        f = F2Series.from_support([1, 3], 10)
        g = F2Series.from_support([3, 5], 10)
        assert support_list(add(f, g)) == [1, 5]

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_assoc_comm(self, f, g, h):
        assert add(f, g) == add(g, f)
        assert add(add(f, g), h) == add(f, add(g, h))

    @given(series_strategy(), series_strategy())
    def test_valid_len(self, f, g):
        assert add(f, g).valid_len == min(f.valid_len, g.valid_len)


def every_bit_offset_against_convolution(rng):
    """mul of a sparse f with three exponents at each bit offset, and 0 and
    n - 1, against a dense random g, both ways round."""
    n = 64 * 40 + 17
    exps = {0, n - 1}
    for b in range(64):
        exps.update((64 * rng.choice(40, size=3, replace=False) + b).tolist())
    f = F2Series.from_support(sorted(exps), n)
    gb = (rng.random(n) < 0.5).astype(np.uint8)
    g = series_from_bits(gb)
    assert f.support_size() < g.support_size()
    want = conv_mod2(series_bits(f), gb, n)
    assert np.array_equal(series_bits(mul(f, g)), want)
    assert np.array_equal(series_bits(mul(g, f)), want)


class TestMul:
    def test_identity(self):
        f = delta_series(500)
        assert mul(F2Series.one(500), f) == f

    def test_delta_squared_against_convolution(self):
        d = delta_series(100)
        prod = mul(d, d)
        oracle = conv_mod2(series_bits(d), series_bits(d), 100)
        assert np.array_equal(series_bits(prod), oracle)
        # doubled odd squares, matching the Frobenius square
        assert support_list(prod) == [2, 18, 50, 98]

    def test_c_cubed_is_dilated_delta(self):
        c = c_series(300)
        prod = mul(c, substitute_qk(c, 2, 300), 300)
        assert support_list(prod) == [3, 27, 75, 147, 243]

    def test_dense_path_against_convolution(self, rng):
        n = 2000
        fb = (rng.random(n) < 0.5).astype(np.uint8)
        gb = (rng.random(n) < 0.5).astype(np.uint8)
        f, g = series_from_bits(fb), series_from_bits(gb)
        # neither operand is sparse: the shifts run across about n/2 terms
        assert np.array_equal(series_bits(mul(f, g)), conv_mod2(fb, gb, n))

    @pytest.mark.parametrize("dense_len", [1 << 16, 1 << 11])
    def test_shifts_across_the_sparser_prefix(self, rng, monkeypatch, dense_len):
        # the pentagonal series has 1633 terms below 10^6 but only 418 below
        # 2^16; g is random on its first dense_len coefficients and zero
        # after, so at 2^11 it has fewer terms than pnt in all but more
        # than pnt below 2^16
        n = 1 << 16
        f = eta_product_pnt(10**6)
        gb = np.zeros(n, dtype=np.uint8)
        gb[:dense_len] = rng.random(dense_len) < 0.5
        g = series_from_bits(gb)
        assert f.support_size(n) == 418 < g.support_size(n)
        assert (g.support_size() < f.support_size()) == (dense_len < n)
        shifts = []
        xor_shifted = f2series._xor_shifted

        def counting(dst, src, shift):
            shifts.append(shift)
            xor_shifted(dst, src, shift)

        monkeypatch.setattr(f2series, "_xor_shifted", counting)
        prod = mul(f, g, n)
        # one word-aligned XOR per exponent of the sparser operand, taken
        # from the copy pre-shifted by the exponent's bit offset
        exps = [int(e) for e in f.support(n)]
        assert len(exps) == 418
        assert all(shift % 64 == 0 for shift in shifts)
        assert sorted(shifts) == sorted(e - e % 64 for e in exps)
        # conv_mod2 at 2^16 takes seconds; XOR the unpacked bits instead
        want = np.zeros(n, dtype=np.uint8)
        for e in f.support(n):
            want[e:] ^= gb[:n - e]
        assert np.array_equal(series_bits(prod), want)
        head = 1 << 11
        assert np.array_equal(series_bits(prod, head),
                              conv_mod2(series_bits(f, head), gb[:head], head))

    def test_every_bit_offset_against_convolution(self, rng):
        # several exponents at each of the 64 bit offsets, 0 and n - 1 among
        # them, so every pre-shifted copy and its carry from the word below
        # reach the product
        every_bit_offset_against_convolution(rng)

    def test_carry_crosses_scratch_blocks(self, rng, monkeypatch):
        # 16-word carry blocks, so the carry into the 41 words of the
        # product is ORed in three blocks
        monkeypatch.setattr(f2series, "_BLOCK", 128)
        every_bit_offset_against_convolution(rng)

    @pytest.mark.parametrize("n", [5, 37, 64])
    def test_single_word_against_convolution(self, rng, n):
        # one word, so the carry slice is empty
        f = F2Series.from_support([0, n // 2, n - 1], n)
        gb = np.ones(n, dtype=np.uint8)
        gb[rng.choice(n, size=n // 4, replace=False)] = 0
        g = series_from_bits(gb)
        assert f.support_size() < g.support_size()
        assert np.array_equal(series_bits(mul(f, g)), conv_mod2(series_bits(f), gb, n))

    def test_cuts_the_product_at_n(self):
        # the shifted top coefficient lands at n and n + 4, inside the last word
        for n in (10, 100, 1000):
            prod = mul(F2Series.from_support([n - 1], n),
                       F2Series.from_support([1, 5], n), n)
            assert prod.is_zero() and prod.valid_len == n

    @pytest.mark.parametrize("exps, valid_len", [
        # the zero series: an empty int64 array at every n
        ([], 200),
        # runs of all-zero words between nonzero ones
        ([3, 64 * 5 + 1, 64 * 5 + 63, 64 * 9, 64 * 12 + 7], 64 * 13),
        # set bits in the last word at and past every cut below valid_len
        ([1, 70, 100, 101, 127], 128),
        ([0, 63, 64, 65, 130, 149], 150),
    ])
    def test_support_skips_zero_words_and_cuts_at_n(self, exps, valid_len):
        f = F2Series.from_support(exps, valid_len)
        for n in range(valid_len + 1):
            supp = f.support(n)
            assert supp.dtype == np.int64
            assert supp.tolist() == [e for e in exps if e < n]
            assert supp.tolist() == support_list(f.truncate(n))
        with pytest.raises(ValueError):
            f.support(valid_len + 1)

    @given(series_strategy(), st.integers(0, 160))
    def test_prefix_support(self, f, n):
        n = min(n, f.valid_len)
        assert support_list(f.truncate(n)) == [int(e) for e in f.support(n)]
        assert f.support_size(n) == len(f.support(n))

    @given(series_strategy(), series_strategy())
    @settings(max_examples=60)
    def test_commutative_and_oracle(self, f, g):
        prod = mul(f, g)
        assert prod == mul(g, f)
        n = prod.valid_len
        assert np.array_equal(series_bits(prod), conv_mod2(series_bits(f, n), series_bits(g, n), n))

    @given(series_strategy(), series_strategy(), series_strategy())
    @settings(max_examples=60)
    def test_distributes_over_add(self, f, g, h):
        lhs = mul(f, add(g, h))
        rhs = add(mul(f, g), mul(f, h))
        assert lhs == rhs


class TestSquare:
    def test_monomial(self):
        q = F2Series.from_support([1], 10)
        assert support_list(substitute_qk(q, 2)) == [2]

    def test_delta(self):
        assert support_list(substitute_qk(delta_series(60), 2, 100)) == \
            [2, 18, 50, 98]

    def test_double_square_is_fourth_power(self, rng):
        supp = rng.choice(1000, size=25, replace=False)
        f = F2Series.from_support(sorted(supp), 1000)
        via_square = substitute_qk(substitute_qk(f, 2, 1000), 2, 1000)
        via_oracle = square_and_multiply(f, 4, 1000)
        via_mul = mul(mul(f, f, 1000), mul(f, f, 1000), 1000)
        assert via_square == via_oracle == via_mul

    @given(series_strategy())
    def test_square_is_self_product(self, f):
        assert substitute_qk(f, 2) == mul(f, f)

    def test_valid_len_doubles_capped(self):
        f = F2Series.from_support([1], 10)
        assert substitute_qk(f, 2).valid_len == 20
        assert substitute_qk(f, 2, 15).valid_len == 15


class TestPower:
    def test_unit_exponent(self):
        d = delta_series(50)
        assert square_and_multiply(d, 1, 50) == d

    def test_delta_cubed_against_triple_enumeration(self):
        cube = square_and_multiply(delta_series(100), 3, 100)
        assert set(support_list(cube)) == odd_square_triple_parity(100)
        assert support_list(cube) == [3, 11, 19, 43, 59, 67, 75, 83, 99]

    @given(series_strategy(max_len=80), st.integers(1, 6))
    @settings(max_examples=40)
    def test_power_is_iterated_mul(self, f, e):
        n = f.valid_len
        acc = f
        for _ in range(e - 1):
            acc = mul(acc, f, n)
        assert square_and_multiply(f, e, n) == acc


class TestSubstitute:
    def test_trivial_dilation(self):
        d = delta_series(40)
        assert substitute_qk(d, 1) == d

    def test_dilate_delta_by_9(self):
        assert support_list(substitute_qk(delta_series(40), 9, 300)) == [9, 81, 225]

    def test_valid_len_scales(self):
        f = F2Series.from_support([2], 10)
        assert substitute_qk(f, 3).valid_len == 30
        assert substitute_qk(f, 3, 12).valid_len == 12

    @given(series_strategy(max_len=60), series_strategy(max_len=60),
           st.integers(2, 5))
    @settings(max_examples=40)
    def test_multiplicative(self, f, g, k):
        lhs = substitute_qk(mul(f, g), k)
        rhs = mul(substitute_qk(f, k), substitute_qk(g, k))
        assert lhs == rhs


class TestEvery:
    @pytest.mark.parametrize("valid_len", [1, 8, 63, 64, 65, 1000, 4099])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 64, 65, 1000])
    def test_against_a_strided_slice(self, rng, monkeypatch, valid_len, k):
        # 16-byte blocks, so every result past 128 bits spans several
        monkeypatch.setattr(f2series, "_BLOCK", 16)
        values = rng.integers(0, 2, size=valid_len)
        f = series_from_bits(values)
        for n in {0, valid_len // k, (valid_len - 1) // k + 1}:
            got = every(f, k, n)
            assert got.valid_len == n
            assert np.array_equal(series_bits(got), values[::k][:n])
            assert got == series_from_bits(values[::k][:n])

    def test_clears_the_tail_of_the_last_word(self):
        # a_(2i) is set only from i = 70 on, inside the last byte and word
        # of a 70-coefficient result, so the kept bits and the tail are zero
        f = F2Series.from_support([*range(1, 200, 2), *range(140, 200, 2)], 200)
        assert every(f, 2, 70).is_zero()
        assert support_list(every(f, 2, 100)) == list(range(70, 100))

    @given(series_strategy(max_len=200), st.integers(1, 9))
    @settings(max_examples=60)
    def test_left_inverse_of_dilation(self, f, k):
        assert every(substitute_qk(f, k), k, f.valid_len) == f

    def test_rejects_reads_past_valid_len(self):
        f = F2Series.zero(100)
        every(f, 3, 34)  # reads a_99
        with pytest.raises(ValueError):
            every(f, 3, 35)
        with pytest.raises(ValueError):
            every(f, 0, 1)


class TestTruncationDiscipline:
    """Reading beyond valid_len is impossible, so truncation commutes with ops."""

    @given(series_strategy(), series_strategy(), st.integers(1, 100))
    @settings(max_examples=60)
    def test_add_mul_respect_prefixes(self, f, g, n):
        n = min(n, f.valid_len, g.valid_len)
        ft, gt = f.truncate(n), g.truncate(n)
        assert add(ft, gt) == add(f, g).truncate(n)
        assert mul(ft, gt) == mul(f, g, n)

    def test_truncate_never_extends(self):
        f = F2Series.from_support([1], 10)
        with pytest.raises(ValueError):
            f.truncate(11)
