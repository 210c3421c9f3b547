"""Generator-polynomial representation, Hecke action, codes, dihedral densities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaparity import level1
from etaparity.density import DensityEstimate
from etaparity.f2series import F2Series, add
from etaparity.genforms import c_series, delta_series
from etaparity.level1 import (GenPoly, code_matrix, dihedral_density,
                              genpoly_pow, genpoly_series, hecke_on_genpoly,
                              to_genpoly)

from oracles import square_and_multiply


class TestGenPoly:
    def test_degree_and_zero(self):
        assert GenPoly(1, frozenset()).degree == -1
        assert GenPoly(1, frozenset({3, 7})).degree == 7

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
        bound = data.draw(st.integers(max(p.degree, 0), 20), label="bound")
        n = 2 * (bound + 1)
        series = genpoly_series(p, n)
        assert to_genpoly(series, level, bound) == p
        # a coefficient flipped past the bound is what the residual keeps
        j = data.draw(st.integers(bound + 1, n - 1), label="flip")
        flipped = add(series, F2Series.from_support([j], n))
        with pytest.raises(ValueError, match=rf"residual starts at q\^{j}$"):
            to_genpoly(flipped, level, bound)

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

    def test_image_past_the_degree_bound_raises(self, monkeypatch):
        # flip the last coefficient of every T_ell image: the re-expression
        # must see a residual past the bound instead of a longer polynomial
        t_op = level1.t_op

        def flipped(f, ell):
            image = t_op(f, ell)
            last = F2Series.from_support([image.valid_len - 1], image.valid_len)
            return add(image, last)

        monkeypatch.setattr(level1, "t_op", flipped)
        with pytest.raises(ValueError, match=r"residual starts at q\^23"):
            hecke_on_genpoly(GenPoly(1, frozenset({11})), 3)

    def test_emptied_images_are_certified_again(self, monkeypatch):
        # a kept image answers a repeat without expanding again; emptied,
        # the image is computed afresh and the patched T_ell still raises
        t_op = level1.t_op
        p = GenPoly(1, frozenset({11}))
        want = hecke_on_genpoly(p, 3)
        monkeypatch.setattr(level1, "t_op", None)
        assert hecke_on_genpoly(p, 3) is want

        def flipped(f, ell):
            image = t_op(f, ell)
            last = F2Series.from_support([image.valid_len - 1], image.valid_len)
            return add(image, last)

        monkeypatch.setattr(level1, "t_op", flipped)
        monkeypatch.setattr(level1, "_images", {})
        with pytest.raises(ValueError, match=r"residual starts at q\^23"):
            hecke_on_genpoly(p, 3)

    def test_zero_shortcut(self):
        z = GenPoly(1, frozenset())
        assert hecke_on_genpoly(z, 3) is z

    def test_rejects_bad_index(self):
        p = GenPoly(1, frozenset({3}))
        with pytest.raises(ValueError):
            hecke_on_genpoly(p, 2)
        with pytest.raises(ValueError):
            hecke_on_genpoly(p, 15)


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
