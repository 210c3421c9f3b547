"""Polynomial models of the mod-2 form algebras and the adapted-basis codes.

Level-1 forms are GF(2) polynomials in the generator delta; level-9 forms
are polynomials in F.  A ``GenPoly`` stores the exponent set; its
q-expansion sums the generator powers g^e = q^e * h^e(q^s) served by the
one cache in ``genforms`` (``power_in_q``).  The Hecke action is computed
by expanding to a q-series, applying the operator, and greedily
re-expressing in generator powers (the generator power g^e has leading
term q^e, so the lowest surviving exponent of the residual identifies the
next monomial); the image is checked to be zero past the degree bound on
as many coefficients as lie below it.

The adapted basis m(a,b) dual to monomials in (T_3, T_5) is never
materialized as q-series: duality makes a form's coordinates directly
computable as code entries c(a,b) = a_1(T_3^a T_5^b f), with a_1 of a
generator polynomial read off as membership of exponent 1.  Dihedral
basis forms m(a,0), m(0,a) have density 2^-(u(a)+v(a)+1) in the primes,
from the binary digit statistics of a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cheby
from .f2series import F2Series, add
from .genforms import power_in_q
from .hecke import t_op, u_op
from .primes import is_prime

LEVELS = (1, 9)
_LEVEL_GENERATOR = {1: "delta", 9: "F"}


@dataclass(frozen=True)
class GenPoly:
    """A form written in the generator of its level: sum of g^e over `exponents`."""

    level: int
    exponents: frozenset[int]

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")
        if any(e < 0 for e in self.exponents):
            raise ValueError("exponents must be nonnegative")

    @property
    def degree(self) -> int:
        """Largest exponent, or -1 for the zero polynomial."""
        return max(self.exponents, default=-1)

    def is_zero(self) -> bool:
        return not self.exponents

    def __repr__(self) -> str:
        return f"GenPoly({_LEVEL_GENERATOR[self.level]}: {sorted(self.exponents)})"


def genpoly_pow(p: GenPoly, e: int) -> GenPoly:
    """p^e by square-and-multiply on exponent sets: squaring doubles every
    exponent (Frobenius), and a product toggles each sum i + j."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    acc = frozenset({0})
    for bit in bin(e)[2:]:
        acc = frozenset(2 * i for i in acc)
        if bit == "1":
            prod = set()
            for i in acc:
                for j in p.exponents:
                    prod ^= {i + j}
            acc = frozenset(prod)
    return GenPoly(p.level, acc)


def genpoly_series(p: GenPoly, n: int) -> F2Series:
    """Expand a generator polynomial to its first n coefficients."""
    acc = F2Series.zero(n)
    for e in p.exponents:
        acc = add(acc, power_in_q(_LEVEL_GENERATOR[p.level], e, n))
    return acc


def to_genpoly(f: F2Series, level: int, max_degree: int) -> GenPoly:
    """Re-express a series as a generator polynomial of degree <= max_degree.

    Greedy elimination by lowest-order term: g^e starts at q^e, so the
    lowest nonzero index of the residual is the next exponent.  The series
    must carry at least 2*(max_degree+1) coefficients, so that the residual
    is checked on as many coefficients past the degree bound as below it:
    a residual starting above max_degree is a ValueError, never a longer
    polynomial.  A zero residual on every coefficient certifies the result.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if f.valid_len < 2 * (max_degree + 1):
        raise ValueError("series too short to certify a re-expression to this degree")
    residual = f
    exponents = []
    while not residual.is_zero():
        e = int(residual.support()[0])
        if e > max_degree:
            raise ValueError(
                f"not a generator polynomial of degree <= {max_degree} at this "
                f"precision: residual starts at q^{e}")
        exponents.append(e)
        residual = add(residual, power_in_q(_LEVEL_GENERATOR[level], e, f.valid_len))
    return GenPoly(level, frozenset(exponents))


# every certified image so far, keyed by (form, ell)
_images: dict[tuple[GenPoly, int], GenPoly] = {}


def hecke_on_genpoly(p: GenPoly, ell: int) -> GenPoly:
    """Apply T_ell (or U_2 at level 9) to a generator polynomial.

    T_ell never raises the generator degree; U_2 at level 9 can raise low
    degrees (U_2 F = F^2), to at most (deg+3)/2.  The polynomial is expanded
    to 2*ell*(bound+1) coefficients, so the image has 2*(bound+1), and
    to_genpoly re-expresses it at degree <= bound.  An image that is not a
    polynomial within the bound leaves a residual past it and raises.
    Each (p, ell) is computed once; a repeat returns the kept image.
    """
    if p.is_zero():
        return p
    got = _images.get((p, ell))
    if got is not None:
        return got
    deg = p.degree
    if ell == 2:
        if p.level != 9:
            raise ValueError("U_2 on polynomials is a level-9 operation")
        bound = max(deg, (deg + 3) // 2)
        op = u_op
    else:
        if p.level == 9 and ell == 3:
            raise ValueError("T_3 is not in the level-9 Hecke algebra")
        if not is_prime(ell):
            raise ValueError(f"invalid Hecke index {ell}")
        bound = deg
        op = t_op
    image = op(genpoly_series(p, 2 * ell * (bound + 1)), ell)
    got = _images[(p, ell)] = to_genpoly(image, p.level, bound)
    return got


def code_matrix(p: GenPoly, a_max: int = 8, b_max: int = 8) -> np.ndarray:
    """Coordinates of f in the basis adapted to (T_3, T_5), on an a_max x b_max
    window: the uint8 array of dual coordinates c(a,b) = a_1(T_3^a T_5^b f).

    Requires all exponents odd (the form must avoid the square subalgebra;
    only there is the duality pairing with the shallow Hecke algebra
    perfect).
    """
    if p.level != 1:
        raise ValueError("code matrices are a level-1 construction")
    if any(e % 2 == 0 for e in p.exponents):
        raise ValueError("form has an even generator exponent")
    if a_max < 1 or b_max < 1:
        raise ValueError("window must be at least 1x1")
    entries = np.zeros((a_max, b_max), dtype=np.uint8)
    row = p
    for a in range(a_max):
        col = row
        for b in range(b_max):
            entries[a, b] = 1 in col.exponents
            if b + 1 < b_max:
                col = hecke_on_genpoly(col, 5)
        if a + 1 < a_max:
            row = hecke_on_genpoly(row, 3)
    return entries


def dihedral_density(a: int) -> Fraction:
    """Density of odd prime coefficients for the axis basis forms m(a,0), m(0,a).

    Value 2^-(u(a)+v(a)+1); a = 0 gives the generator itself, whose prime
    coefficients have density zero (v(0) infinite).
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a == 0:
        return Fraction(0)
    stats = cheby.digit_stats(a)
    return Fraction(1, 2**(stats.u + stats.v + 1))
