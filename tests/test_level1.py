"""Generator-polynomial representation, Hecke action, codes, dihedral densities."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaparity import genforms, hecke, level1
from etaparity.density import DensityEstimate, wn, zn
from etaparity.f2series import F2Series, add, mul, substitute_qk
from etaparity.genforms import c_series, delta_series, power_in_q
from etaparity.hecke import t_op, u_op
from etaparity.level1 import (MODULAR_EQUATIONS, GenPoly, code_matrix,
                              dihedral_density, genpoly_pow, genpoly_series,
                              hecke_on_genpoly)

from oracles import square_and_multiply, to_genpoly


class TestGenPoly:
    def test_is_zero(self):
        assert GenPoly(1, frozenset()).is_zero()
        assert not GenPoly(1, frozenset({3, 7})).is_zero()
        assert not GenPoly(9, frozenset({0})).is_zero()

    def test_validation(self):
        with pytest.raises(ValueError):
            GenPoly(2, frozenset({1}))
        with pytest.raises(ValueError):
            GenPoly(1, frozenset({-1}))

    def test_mul_and_pow(self):
        c = GenPoly(9, frozenset({1, 4}))
        assert genpoly_pow(c, 2) == GenPoly(9, frozenset({2, 8}))
        assert genpoly_pow(c, 5).exponents == frozenset({5, 8, 17, 20})
        assert genpoly_pow(c, 0) == GenPoly(9, frozenset({0}))

    @settings(max_examples=40, deadline=None)
    @given(level=st.sampled_from((1, 9)),
           exponents=st.frozensets(st.integers(0, 12), max_size=4),
           e=st.integers(0, 9))
    def test_pow_matches_series_square_and_multiply(self, level, exponents, e):
        # exponent-set arithmetic against the product of the q-expansions
        n = 400
        p = GenPoly(level, exponents)
        assert genpoly_series(genpoly_pow(p, e), n) == \
            square_and_multiply(genpoly_series(p, n), e, n)


class TestToGenPoly:
    def test_delta_itself(self):
        assert to_genpoly(delta_series(100), 1, 4).exponents == frozenset({1})

    def test_c_in_level9(self):
        assert to_genpoly(c_series(1000), 9, 8).exponents == frozenset({1, 4})

    def test_delta_in_level9(self):
        assert to_genpoly(delta_series(1000), 9, 16).exponents == \
            frozenset({1, 4, 9, 12})

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), level=st.sampled_from((1, 9)),
           exponents=st.frozensets(st.integers(0, 20)))
    def test_roundtrip_through_series(self, data, level, exponents):
        # every exponent set reads back from exactly 2*(bound+1) coefficients
        p = GenPoly(level, exponents)
        bound = data.draw(st.integers(max(exponents, default=0), 20), label="bound")
        n = 2 * (bound + 1)
        series = genpoly_series(p, n)
        assert to_genpoly(series, level, bound) == p
        # a coefficient flipped past the bound is what the residual keeps
        j = data.draw(st.integers(bound + 1, n - 1), label="flip")
        flipped = add(series, F2Series.from_support([j], n))
        with pytest.raises(ValueError, match=rf"residual starts at q\^{j}$"):
            to_genpoly(flipped, level, bound)

    def test_unpacks_the_residual_only_to_the_bound(self, monkeypatch):
        # each round reads the lowest term below max_degree + 1; only the
        # error that words "residual starts at q^e" unpacks all of it
        support = F2Series.support
        asked = []

        def recorded(self, n=None):
            asked.append(n)
            return support(self, n)

        series = genpoly_series(GenPoly(1, frozenset({1, 3, 7})), 10_000)
        flipped = add(series, F2Series.from_support([9000], 10_000))
        monkeypatch.setattr(F2Series, "support", recorded)
        assert to_genpoly(series, 1, 7).exponents == frozenset({1, 3, 7})
        assert asked.count(8) == 3 and None not in asked
        asked.clear()
        with pytest.raises(ValueError, match=r"residual starts at q\^9000$"):
            to_genpoly(flipped, 1, 7)
        assert asked.count(8) == 4 and asked.count(None) == 1

    def test_degree_violation_diagnostic(self):
        f = F2Series.from_support([2], 20)
        with pytest.raises(ValueError, match="degree"):
            to_genpoly(f, 1, 1)

    def test_requires_enough_precision(self):
        with pytest.raises(ValueError):
            to_genpoly(F2Series.zero(5), 1, 5)
        # room past the bound for a residual to show: 2*(max_degree+1) terms
        with pytest.raises(ValueError, match="too short"):
            to_genpoly(F2Series.zero(11), 1, 5)
        assert to_genpoly(F2Series.zero(12), 1, 5).is_zero()


class TestHeckeOnGenPoly:
    def test_t3_on_delta_cubed(self):
        assert hecke_on_genpoly(GenPoly(1, frozenset({3})), 3) == \
            GenPoly(1, frozenset({1}))

    def test_t3_kills_delta(self):
        assert hecke_on_genpoly(GenPoly(1, frozenset({1})), 3).is_zero()

    def test_t5_on_delta_fifth(self):
        assert hecke_on_genpoly(GenPoly(1, frozenset({5})), 5) == \
            GenPoly(1, frozenset({1}))

    def test_t3_kills_delta_fifth(self):
        # the grading-consistent value: T_3 maps the 5-graded piece into
        # the 7-graded piece, so the image cannot be the generator
        assert hecke_on_genpoly(GenPoly(1, frozenset({5})), 3).is_zero()

    def test_abelian_delta_seventh_images(self):
        d7 = GenPoly(1, frozenset({7}))
        assert hecke_on_genpoly(d7, 3) == GenPoly(1, frozenset({5}))
        assert hecke_on_genpoly(d7, 5) == GenPoly(1, frozenset({3}))
        assert hecke_on_genpoly(d7, 7) == GenPoly(1, frozenset({1}))

    def test_zero_shortcut(self):
        z = GenPoly(1, frozenset())
        assert hecke_on_genpoly(z, 3) is z

    def test_rejects_bad_index(self):
        p = GenPoly(1, frozenset({3}))
        with pytest.raises(ValueError):
            hecke_on_genpoly(p, 2)
        with pytest.raises(ValueError):
            hecke_on_genpoly(p, 15)
        # a prime whose modular equation is not tabulated
        with pytest.raises(ValueError, match="no Hecke operator of index 11"):
            hecke_on_genpoly(p, 11)


# every (level, ell) with a tabulated modular equation, and U_2 at level 9
HECKE_KEYS = sorted(MODULAR_EQUATIONS) + [(9, 2)]


class TestModularEquations:
    """The rows of hecke_on_genpoly come from MODULAR_EQUATIONS alone; the
    q-series route (expand, apply, re-express) is the oracle."""

    @pytest.mark.parametrize("level, ell", HECKE_KEYS)
    def test_rows_match_the_q_series_oracle(self, level, ell):
        for n in range(512):
            # U_2 at level 9 raises F to F^2, and T_ell never raises the degree
            bound = max(n, (n + 3) // 2) if ell == 2 else n
            series = genpoly_series(GenPoly(level, frozenset({n})), 2 * ell * (bound + 1))
            image = (u_op if ell == 2 else t_op)(series, ell)
            want = to_genpoly(image, level, bound)
            assert hecke_on_genpoly(GenPoly(level, frozenset({n})), ell) == want, n

    @pytest.mark.parametrize("level, a, b", [
        (level, a, b) for level in (1, 9)
        for a, b in itertools.combinations(
            [ell for lv, ell in HECKE_KEYS if lv == level], 2)])
    def test_operators_commute(self, level, a, b):
        # T_3 T_5 = T_5 T_3 on the level-1 rows, and likewise for every
        # other pair of tabulated operators of one level
        for n in range(512):
            g = GenPoly(level, frozenset({n}))
            assert hecke_on_genpoly(hecke_on_genpoly(g, a), b) == \
                hecke_on_genpoly(hecke_on_genpoly(g, b), a), n

    @pytest.mark.parametrize("level, ell", sorted(MODULAR_EQUATIONS))
    def test_equation_holds_in_q_and_no_one_term_change_does(self, level, ell):
        # Phi(g(q^ell), g(q)) = X^(ell+1) + sum_i e_i(g) X^(ell+1-i) at
        # X = g(q^ell) vanishes on 5*10^4 coefficients; toggling any one
        # g^j (j <= ell+1) in any e_i adds the term g^j X^(ell+1-i), which
        # the identity then fails
        n, gen = 50_000, level1._LEVEL_GENERATOR[level]
        x = [substitute_qk(power_in_q(gen, m, -(-n // ell)), ell, n)
             for m in range(ell + 2)]
        terms = {(i, j): mul(power_in_q(gen, j, n), x[ell + 1 - i], n)
                 for i in range(1, ell + 2) for j in range(ell + 2)}
        phi = x[ell + 1]
        for i, exponents in MODULAR_EQUATIONS[level, ell].items():
            for j in exponents:
                phi = add(phi, terms[i, j])
        assert phi.is_zero()
        for key, term in terms.items():
            assert not add(phi, term).is_zero(), key


class TestCodeMatrix:
    def test_delta_is_origin(self):
        cm = code_matrix(GenPoly(1, frozenset({1})), 3, 3)
        want = np.zeros((3, 3), dtype=np.uint8)
        want[0, 0] = 1
        assert np.array_equal(cm, want)

    def test_delta_eleven(self):
        cm = code_matrix(GenPoly(1, frozenset({11})), 5, 2)
        assert cm[3, 0] == 1 and cm.sum() == 1

    def test_delta_ninth(self):
        cm = code_matrix(GenPoly(1, frozenset({9})), 4, 2)
        assert cm[2, 0] == 1 and cm.sum() == 1

    def test_delta_seventh_abelian_pattern(self):
        cm = code_matrix(GenPoly(1, frozenset({7})), 4, 4)
        assert cm[1, 1] == 1 and cm.sum() == 1

    def test_rejects_even_exponents(self):
        with pytest.raises(ValueError):
            code_matrix(GenPoly(1, frozenset({2})), 2, 2)

    def test_row_shift_under_t3(self):
        # X m(a,b) = m(a-1,b): applying T_3 shifts the code window one row
        f = GenPoly(1, frozenset({7, 11}))
        shifted = code_matrix(hecke_on_genpoly(f, 3), 4, 4)
        whole = code_matrix(f, 5, 4)
        assert np.array_equal(shifted, whole[1:, :])

    def test_reads_no_q_series(self, monkeypatch):
        # the code windows of the dihedral-code suite, with the generator
        # powers in q and the Hecke operators on series made to raise
        def refuse(*args):
            raise AssertionError("a q-series was read")

        for module, name in ((genforms, "power_in_q"), (level1, "power_in_q"),
                             (hecke, "t_op"), (hecke, "u_op")):
            monkeypatch.setattr(module, name, refuse)
        for n in range(1, 5):
            cm = code_matrix(GenPoly(1, frozenset({zn(n)})), 2**n + 1, 3)
            assert cm[2**n - 1, 0] == 1 and cm.sum() == 1
        for n in range(1, 4):
            cm = code_matrix(GenPoly(1, frozenset({3 * zn(n)})), 2**n + 2, 3)
            assert cm[2**n, 0] == 1 and cm.sum() == 1
            cm = code_matrix(GenPoly(1, frozenset({wn(n)})), 3, 2**(n - 1) + 2)
            assert cm[0, 2**(n - 1)] == 1 and cm.sum() == 1

    def test_nicolas_serre_height_window(self):
        # for odd k = sum_j beta_j 2^j, n_3 = sum_i beta_(2i-1) 2^(i-1) and
        # n_5 = sum_i beta_(2i) 2^(i-1): the code of delta^k has a 1 at
        # (n_3, n_5) and none past the height h = n_3 + n_5
        for k in range(1, 1024, 2):
            n3 = sum((k >> (2 * i - 1) & 1) << (i - 1) for i in range(1, 6))
            n5 = sum((k >> (2 * i) & 1) << (i - 1) for i in range(1, 6))
            h = n3 + n5
            cm = code_matrix(GenPoly(1, frozenset({k})), h + 2, h + 2)
            a, b = np.indices(cm.shape)
            assert cm[n3, n5] == 1 and not cm[a + b > h].any(), k

    def test_column_shift_under_t5(self):
        # Y m(a,b) = m(a,b-1): applying T_5 shifts the code window one column
        f = GenPoly(1, frozenset({7, 11}))
        shifted = code_matrix(hecke_on_genpoly(f, 5), 4, 4)
        whole = code_matrix(f, 4, 5)
        assert np.array_equal(shifted, whole[:, 1:])


class TestDyadicRational:
    """Dyadic densities are Fractions; an estimate's nearest_dyadic is the
    closest a/64."""

    def test_lowest_terms(self):
        d = Fraction(4, 32)
        assert (d.numerator, d.denominator) == (1, 8)
        assert Fraction(0, 128).denominator == 1

    def test_nearest(self):
        def nearest(hits, samples):
            return DensityEstimate.from_counts(hits, samples).nearest_dyadic

        assert nearest(499, 2000) == Fraction(1, 4)  # 0.2495
        assert nearest(1, 5) == Fraction(13, 64)  # 0.2
        assert str(Fraction(5, 8)) == "5/8"
        # clamped to [0, 1]
        assert nearest(0, 7) == 0 and str(nearest(0, 7)) == "0"
        assert nearest(7, 7) == 1 and str(nearest(7, 7)) == "1"

    def test_value(self):
        assert float(Fraction(3, 16)) == 3 / 16


class TestDihedralDensity:
    @pytest.mark.parametrize("a,num,log", [(1, 1, 2), (3, 1, 3), (0, 0, 0),
                                           (2, 1, 3), (7, 1, 4), (8, 1, 5)])
    def test_values(self, a, num, log):
        assert dihedral_density(a) == Fraction(num, 1 << log)

    def test_empirical_cross_check(self):
        # delta^3 = m(1,0) and delta^11 = m(3,0) at a modest prime bound
        from etaparity.density import odd_coeff_density
        bound = 20_000
        for exponent, a in ((3, 1), (11, 3)):
            series = genpoly_series(GenPoly(1, frozenset({exponent})), bound + 1)
            est = odd_coeff_density(series, bound)
            assert abs(est.value - float(dihedral_density(a))) < 0.03
