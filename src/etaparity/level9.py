"""Level-9 structure: the F-algebra, kernels of U_2 and U_3, abelian forms.

The space in duality with the level-9 Hecke algebra is the intersection
K(9) of the kernels of U_2 and U_3 inside GF(2)[F], with basis
{F^n + F^(n+3)} over n prime to 6, graded by (Z/24Z)^x.  The six abelian
forms alpha_i (i a unit mod 24, i != ±1) have prime coefficients
a_ell = 1 exactly for ell ≡ i (mod 24); each has a second life as a
two-variable theta series, which serves as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .f2series import F2Series
from .genforms import CongruenceTheta, congruence_theta
from .hecke import u_op
from .level1 import GenPoly, genpoly_pow, genpoly_series, u2_exponent
from .primes import prime_blocks

_ODD = (2, frozenset({1}))
_PRIME_TO_3 = (3, frozenset({1, 2}))
_UNIT_MOD_6 = (6, frozenset({1, 5}))

# alpha_i as a quadratic form a*m^2 + b*n^2 with residue conditions.
_THETA_TABLE: dict[int, CongruenceTheta] = {
    5: CongruenceTheta(4, 1, _UNIT_MOD_6, _UNIT_MOD_6),
    7: CongruenceTheta(4, 3, _UNIT_MOD_6, _ODD),
    11: CongruenceTheta(3, 8, _ODD, _PRIME_TO_3),
    13: CongruenceTheta(1, 12, _UNIT_MOD_6, _ODD),
    17: CongruenceTheta(16, 1, _PRIME_TO_3, _UNIT_MOD_6),
    19: CongruenceTheta(3, 16, _ODD, _PRIME_TO_3),
}

_C_POLY = GenPoly(9, frozenset({1, 4}))  # C = F + F^4

# F-exponent sets: C^i for i = 5, 7, 13; fixed sets for 11, 17, 19.
_F_EXPONENTS: dict[int, frozenset[int]] = {
    5: genpoly_pow(_C_POLY, 5).exponents,
    7: genpoly_pow(_C_POLY, 7).exponents,
    11: frozenset({11, 14, 17, 20}),
    13: genpoly_pow(_C_POLY, 13).exponents,
    17: frozenset({17, 20}),
    19: frozenset({19, 22, 25, 28}),
}

ABELIAN_CLASSES = (5, 7, 11, 13, 17, 19)
# coefficients on which abelian_theta_agrees compares polynomial and theta
ABELIAN_CHECK_COEFFS = 10_000


def k9_basis_element(n: int) -> GenPoly:
    """The basis form F^n + F^(n+3) of K(9), for n prime to 6."""
    if math.gcd(n, 6) != 1:
        raise ValueError("basis index must be prime to 6")
    return GenPoly(9, frozenset({n, n + 3}))


def u2_fn_expected(n: int) -> GenPoly:
    """U_2 F^n from the order-2 Hecke recurrence (``level1.u2_exponent``)."""
    return GenPoly(9, frozenset({u2_exponent(n)}))


def u3_fn_expected(n: int) -> GenPoly:
    """U_3 F^n from the order-3 recurrence (char. polynomial X^3 + F^3 + F^2 + F)."""
    if n % 3:
        return GenPoly(9, frozenset())
    return genpoly_pow(GenPoly(9, frozenset({1, 2, 3})), n // 3)


def verify_u2_u3_kernel(n_max: int, n_coeffs: int) -> list[str]:
    """Check the kernel basis and the U_2/U_3 recurrences; returns violations."""
    violations = []
    check = n_coeffs // 3
    for n in range(1, n_max + 1):
        if math.gcd(n, 6) != 1:
            continue
        series = genpoly_series(k9_basis_element(n), n_coeffs)
        if not u_op(series, 2).truncate(check).is_zero():
            violations.append(f"U_2 does not kill F^{n}+F^{n + 3}")
        if not u_op(series, 3).truncate(check).is_zero():
            violations.append(f"U_3 does not kill F^{n}+F^{n + 3}")
    for n in range(0, 13):
        fn = genpoly_series(GenPoly(9, frozenset({n})), n_coeffs)
        for ell, expected in ((2, u2_fn_expected(n)), (3, u3_fn_expected(n))):
            got = u_op(fn, ell)
            want = genpoly_series(expected, got.valid_len)
            if got != want:
                violations.append(f"U_{ell} F^{n} != {expected!r}")
    return violations


def abelian_form(i: int) -> GenPoly:
    """alpha_i as an F-polynomial."""
    if i not in ABELIAN_CLASSES:
        raise ValueError(f"abelian class must be one of {ABELIAN_CLASSES}")
    return GenPoly(9, _F_EXPONENTS[i])


def abelian_theta_agrees(i: int) -> bool:
    """Whether alpha_i's polynomial and its theta enumeration agree on the
    first ABELIAN_CHECK_COEFFS coefficients."""
    n = ABELIAN_CHECK_COEFFS
    return genpoly_series(abelian_form(i), n) == congruence_theta(_THETA_TABLE[i], n)


def verify_abelian_law(i: int, series: F2Series) -> list[int]:
    """Primes 5 <= ell < series.valid_len where the bits of a series of
    alpha_i violate a_ell(alpha_i) = [ell ≡ i mod 24], read one block of
    primes at a time."""
    bad = []
    for primes in prime_blocks(5, series.valid_len - 1):
        want = (primes % 24 == i).view(np.uint8)
        bad += primes[series.coeffs_at(primes) != want].tolist()
    return bad
