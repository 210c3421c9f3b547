"""Polynomial models of the mod-2 form algebras and the adapted-basis codes.

Level-1 forms are GF(2) polynomials in the generator delta; level-9 forms
are polynomials in F.  A ``GenPoly`` stores the exponent set; its
q-expansion sums the generator powers g^e = q^e * h^e(q^s) served by the
one cache in ``genforms`` (``power_in_q``).

The Hecke action reads no q-series: T_ell g^n is the n-th power sum of the
ell + 1 roots of the mod-2 modular equation Phi_ell(X, g) (Nicolas and
Serre, 2012), which Newton's identities give from its coefficients e_i(g)
(``MODULAR_EQUATIONS``), and U_2 F^n at level 9 is one power of F.  Each
operator keeps a growing list of rows, the image of g^n as an int with bit
i for g^i, and a polynomial's image is the XOR of its exponents' rows.

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


# The mod-2 modular equation Phi_ell(X, g) = X^(ell+1) + sum_i e_i(g) X^(ell+1-i)
# of each Hecke index at each level, as {i: the exponents of g in e_i}; the
# e_i missing here are zero.  Each satisfies the q-series identity
# Phi_ell(g(q^ell), g(q)) = 0, and no table with one term of one e_i
# toggled does.
MODULAR_EQUATIONS: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {
    (1, 3): {3: (1,), 4: (4,)},
    (1, 5): {2: (2,), 4: (4,), 5: (1,), 6: (6,)},
    (1, 7): {6: (2,), 7: (1,), 8: (8,)},
    (9, 5): {2: (1,), 4: (2,), 5: (1, 4), 6: (6,)},
    (9, 7): {4: (1, 4), 7: (1, 4), 8: (8,)},
    (9, 13): {2: (2,), 4: (1,), 6: (3,), 7: (1, 4), 8: (5,), 9: (3, 6),
              10: (1, 4, 7), 11: (5, 8), 12: (12,), 13: (1, 4, 7, 10), 14: (14,)},
}


def u2_exponent(n: int) -> int:
    """The exponent of U_2 F^n at level 9, from the order-2 Hecke recurrence
    (characteristic polynomial X^2 + F): n/2 for even n, (n+3)/2 for odd n."""
    return n // 2 if n % 2 == 0 else (n + 3) // 2


# for each (level, ell) asked for so far, the images of g^0, g^1, ... as ints
# with bit i for g^i, grown as higher powers are asked for
_rows: dict[tuple[int, int], list[int]] = {}


def _image(level: int, ell: int, mask: int) -> int:
    """The image under T_ell (U_2 for ell = 2) of the polynomial with bit i
    for g^i at this level: the XOR of the rows of its exponents."""
    e = MODULAR_EQUATIONS.get((level, ell))
    if e is None and (level, ell) != (9, 2):
        raise ValueError(f"no Hecke operator of index {ell} on level-{level} polynomials")
    rows = _rows.setdefault((level, ell), [])
    for n in range(len(rows), mask.bit_length()):
        if e is None:
            row = 1 << u2_exponent(n)
        else:
            # Newton's identity mod 2: t_n = sum_(i < n) e_i t_(n-i) + [n odd] e_n
            row = sum(1 << j for j in e.get(n, ())) if n % 2 else 0
            for i, exponents in e.items():
                if i < n:
                    for j in exponents:
                        row ^= rows[n - i] << j
        rows.append(row)
    image = 0
    while mask:
        low = mask & -mask
        image ^= rows[low.bit_length() - 1]
        mask ^= low
    return image


def hecke_on_genpoly(p: GenPoly, ell: int) -> GenPoly:
    """Apply T_ell (or U_2 at level 9) to a generator polynomial; (p.level,
    ell) must be (9, 2) or a key of MODULAR_EQUATIONS, else ValueError."""
    if p.is_zero():
        return p
    image = _image(p.level, ell, sum(1 << e for e in p.exponents))
    return GenPoly(p.level, frozenset(
        i for i, bit in enumerate(reversed(bin(image))) if bit == "1"))


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
    row = sum(1 << e for e in p.exponents)
    for a in range(a_max):
        col = row
        for b in range(b_max):
            entries[a, b] = col >> 1 & 1
            col = _image(1, 5, col)
        row = _image(1, 3, row)
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
