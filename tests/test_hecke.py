"""Hecke operators on series: shift/dilation behavior, grading, duality."""

import tracemalloc

import numpy as np
import pytest

from etaparity import f2series, primes
from etaparity.f2series import F2Series, substitute_qk
from etaparity.genforms import c_series, delta_series, p_r_series
from etaparity.hecke import t_op, u_op

from oracles import series_bits, square_and_multiply


def supp(f):
    return [int(e) for e in f.support()]


class TestU:
    def test_left_inverse_of_squaring(self, rng):
        exps = rng.choice(700, size=30, replace=False)
        f = F2Series.from_support(sorted(exps), 700)
        assert u_op(substitute_qk(f, 2, 1400), 2) == f

    def test_u3_delta_enumeration(self):
        # a_n(U_3 delta) = 1 iff 3n is an odd square, i.e. n = 3k^2 with k odd
        got = u_op(delta_series(3000), 3)
        want = [3 * k * k for k in range(1, 20, 2) if 3 * k * k < got.valid_len]
        assert supp(got) == want
        assert supp(got)[:4] == [3, 27, 75, 147]

    def test_u2_kills_c(self):
        assert u_op(c_series(10_000), 2).is_zero()

    def test_valid_len(self):
        f = F2Series.zero(100)
        assert u_op(f, 7).valid_len == 14

    def test_rejects_index_one(self):
        with pytest.raises(ValueError):
            u_op(F2Series.zero(10), 1)

    def test_reads_only_the_bits_it_keeps(self):
        # unpacking all 3 * 10^6 coefficients, a byte each, traced 3.2 MB
        # for this 125 KB result
        f = p_r_series(127, 3 * 10**6)
        tracemalloc.start()
        try:
            got = u_op(f, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result = 8 * -(-got.valid_len // 64)
        assert peak <= 2 * result + f2series._BLOCK
        assert np.array_equal(series_bits(got), series_bits(f)[::3][:10**6])


class TestV:
    def test_monomial(self):
        assert supp(substitute_qk(F2Series.from_support([1], 5), 3)) == [3]

    def test_section_identity(self, rng):
        exps = rng.choice(200, size=20, replace=False)
        f = F2Series.from_support(sorted(exps), 200)
        assert u_op(substitute_qk(f, 5), 5) == f

    def test_vu_keeps_multiples(self):
        f = delta_series(1000)
        vu = substitute_qk(u_op(f, 3), 3)
        bits = series_bits(f, vu.valid_len)
        keep = np.zeros_like(bits)
        keep[::3] = bits[::3]
        assert np.array_equal(series_bits(vu), keep)


class TestT:
    def test_t3_delta_vanishes(self):
        assert t_op(delta_series(3000), 3).is_zero()

    def test_t3_delta_cubed(self):
        n = 3000
        cube = square_and_multiply(delta_series(n), 3, n)
        assert t_op(cube, 3) == delta_series(n // 3)

    def test_t3_delta_fifth_vanishes(self):
        # Grading forces T_3 on the 5-graded piece into the 7-graded piece,
        # and the expansion shows the image is zero outright.
        n = 5000
        assert t_op(square_and_multiply(delta_series(n), 5, n), 3).is_zero()

    @pytest.mark.parametrize("ell,expect_c", [(5, True), (7, False)])
    def test_t_on_c_fifth(self, ell, expect_c):
        n = 10_000
        image = t_op(square_and_multiply(c_series(n), 5, n), ell)
        if expect_c:
            assert image == c_series(n // ell)
        else:
            assert image.is_zero()

    def test_rejects_two_and_composites(self):
        f = delta_series(100)
        with pytest.raises(ValueError):
            t_op(f, 2)
        with pytest.raises(ValueError):
            t_op(f, 9)
        with pytest.raises(ValueError):
            t_op(F2Series.zero(3), 5)

    def test_valid_len(self):
        assert t_op(delta_series(100), 7).valid_len == 14

    def test_huge_index_rejected_before_sieving(self, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve asked for {bound}")

        monkeypatch.setattr(primes, "segmented_sieve", no_sieve)
        with pytest.raises(ValueError, match="too short"):
            t_op(delta_series(100), 10**9 + 7)


class TestGradingAndDuality:
    @pytest.mark.parametrize("i", [1, 3, 5, 7])
    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_level1_grading(self, i, ell):
        n = 4000
        f = square_and_multiply(delta_series(n), i, n)
        image = t_op(f, ell)
        s = image.support()
        assert not len(s) or np.all(s % 8 == (ell * i) % 8)

    @pytest.mark.parametrize("i", [5, 7])
    @pytest.mark.parametrize("ell", [5, 7, 13])
    def test_level9_grading(self, i, ell):
        n = 20_000
        f = square_and_multiply(c_series(n), i, n)
        image = t_op(f, ell)
        s = image.support()
        assert not len(s) or np.all(s % 24 == (ell * i) % 24)

    @pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 31])
    def test_first_coefficient_duality(self, ell):
        n = 2000
        f = square_and_multiply(delta_series(n), 7, n)
        assert t_op(f, ell).coeff(1) == f.coeff(ell)

    def test_commutativity_sample(self):
        n = 31_000
        f = square_and_multiply(delta_series(n), 7, n)
        assert t_op(t_op(f, 3), 5) == t_op(t_op(f, 5), 3)
