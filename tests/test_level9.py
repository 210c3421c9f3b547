"""Level-9 kernels, grading, and the six abelian forms."""

import numpy as np
import pytest

from etaparity.hecke import u_op
from etaparity.level1 import GenPoly, genpoly_pow, genpoly_series, hecke_on_genpoly
from etaparity.level9 import (_THETA_TABLE, ABELIAN_CLASSES, abelian_form,
                              abelian_theta_agrees, k9_basis_element,
                              u2_fn_expected, u3_fn_expected,
                              verify_abelian_law, verify_u2_u3_kernel)

from oracles import prime_array, series_bits, series_from_bits


class TestBasis:
    def test_first_element_is_c(self):
        assert k9_basis_element(1).exponents == frozenset({1, 4})

    def test_n_five(self):
        assert k9_basis_element(5).exponents == frozenset({5, 8})

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
    def test_rejects_shared_factor(self, n):
        with pytest.raises(ValueError):
            k9_basis_element(n)

    @pytest.mark.parametrize("n", [1, 5, 7, 11, 13, 17])
    def test_support_in_unit_classes(self, n):
        # basis elements with n >= 5 mix classes (F^5 + F^8 is C^5 plus the
        # 17-class abelian form), but every class hit is a unit mod 24
        series = genpoly_series(k9_basis_element(n), 20_000)
        units = {1, 5, 7, 11, 13, 17, 19, 23}
        assert set(np.unique(series.support() % 24)) <= units

    @pytest.mark.parametrize("n", [5, 7, 13])
    def test_graded_projections_stay_in_kernel(self, n):
        # the (Z/24Z)^x-grading: restricting the support of a kernel form
        # to one class lands back in ker U_2 and ker U_3
        from etaparity.f2series import F2Series
        size = 18_000
        series = genpoly_series(k9_basis_element(n), size)
        bits = series_bits(series)
        idx = np.arange(size)
        for i in np.unique(series.support() % 24):
            comp_bits = np.where(idx % 24 == i, bits, 0).astype(np.uint8)
            comp = series_from_bits(comp_bits)
            assert u_op(comp, 2).truncate(size // 3).is_zero()
            assert u_op(comp, 3).is_zero()

    @pytest.mark.parametrize("s", [5, 7, 11, 13])
    def test_c_powers_are_graded(self, s):
        series = genpoly_series(
            genpoly_pow(GenPoly(9, frozenset({1, 4})), s), 20_000)
        assert np.all(series.support() % 24 == s % 24)


class TestKernels:
    def test_no_violations_small(self):
        assert verify_u2_u3_kernel(7, 6000) == []

    def test_u2_recurrence_values(self):
        assert u2_fn_expected(0).exponents == frozenset({0})
        assert u2_fn_expected(1).exponents == frozenset({2})
        assert u2_fn_expected(2).exponents == frozenset({1})
        assert u2_fn_expected(3).exponents == frozenset({3})
        assert u2_fn_expected(4).exponents == frozenset({2})

    def test_u3_recurrence_values(self):
        assert u3_fn_expected(1).is_zero()
        assert u3_fn_expected(3).exponents == frozenset({1, 2, 3})
        assert u3_fn_expected(6).exponents == frozenset({2, 4, 6})

    def test_recurrences_against_series(self):
        n = 9000
        for e in range(0, 13):
            fe = genpoly_series(GenPoly(9, frozenset({e})), n)
            got2 = u_op(fe, 2)
            assert got2 == genpoly_series(u2_fn_expected(e), got2.valid_len)
            got3 = u_op(fe, 3)
            assert got3 == genpoly_series(u3_fn_expected(e), got3.valid_len)


class TestAbelianForms:
    def test_alpha11(self):
        assert abelian_form(11).exponents == frozenset({11, 14, 17, 20})
        assert _THETA_TABLE[11].a == 3 and _THETA_TABLE[11].b == 8

    def test_alpha5_is_c_fifth(self):
        assert abelian_form(5) == genpoly_pow(GenPoly(9, frozenset({1, 4})), 5)

    def test_alpha17(self):
        assert abelian_form(17).exponents == frozenset({17, 20})

    def test_theta_oracles_agree(self, monkeypatch):
        assert all(abelian_theta_agrees(i) for i in ABELIAN_CLASSES)
        monkeypatch.setitem(_THETA_TABLE, 13, _THETA_TABLE[5])
        assert not abelian_theta_agrees(13)
        assert abelian_form(13) == genpoly_pow(GenPoly(9, frozenset({1, 4})), 13)

    def test_rejects_other_classes(self):
        for i in (1, 3, 23, 12):
            with pytest.raises(ValueError):
                abelian_form(i)

    @pytest.mark.parametrize("i", [7, 13])
    def test_prime_coefficient_law(self, i):
        assert verify_abelian_law(i, genpoly_series(abelian_form(i), 10_001)) == []

    def test_law_catches_tampering(self):
        # the law must really constrain: a wrong class has many violations
        series = genpoly_series(abelian_form(5), 2001)
        primes = prime_array(5, 2000)
        bits = series.coeffs_at(primes)
        wrong = (primes % 24 == 7).astype(np.uint8)
        assert np.count_nonzero(bits != wrong) > 50


class TestHeckeActionLevel9:
    @pytest.mark.parametrize("s", [5, 7])
    @pytest.mark.parametrize("ell", [5, 7])
    def test_t_on_c_powers(self, s, ell):
        cs = genpoly_pow(GenPoly(9, frozenset({1, 4})), s)
        got = hecke_on_genpoly(cs, ell)
        if ell == s:
            assert got == GenPoly(9, frozenset({1, 4}))
        else:
            assert got.is_zero()

    def test_u2_on_genpoly(self):
        assert hecke_on_genpoly(GenPoly(9, frozenset({1})), 2) == \
            GenPoly(9, frozenset({2}))
        c5 = genpoly_pow(GenPoly(9, frozenset({1, 4})), 5)
        assert hecke_on_genpoly(c5, 2).is_zero()

    def test_t3_rejected_at_level9(self):
        with pytest.raises(ValueError):
            hecke_on_genpoly(GenPoly(9, frozenset({1, 4})), 3)
