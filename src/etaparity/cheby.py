"""Chebyshev-type polynomials S_n mod 2 and binary-digit combinatorics.

S_n is the integer polynomial with S_n(x + 1/x) = x^n + 1/x^n, so S_0 = 2,
S_1 = x, and S_n = x*S_{n-1} - S_{n-2}.  Mod 2 the reduction S̄_n obeys
S̄_{2n} = S̄_n², and the coefficient of x^a in S̄_n depends only on
n mod 2^(d(a)+1), where d(a) is the binary digit count of a.  The number
of hitting residue classes in one period is 2^(z(a)-v(a)+1), with z and v
the zero count and 2-adic valuation of a.

All coefficient parities here are decided by digitwise Kummer logic
(borrow counting on base-2 digits); no big-integer binomials appear
outside the test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INFINITE_VALUATION = math.inf  # 2-adic valuation of zero


def _v2(n: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class DigitStats:
    """Base-2 digit statistics: d digits, v trailing zeros, z zeros, u ones."""

    a: int
    d: int
    v: int | float
    z: int
    u: int


def digit_stats(a: int) -> DigitStats:
    if a < 0:
        raise ValueError("digit statistics need a nonnegative integer")
    if a == 0:
        return DigitStats(0, 0, INFINITE_VALUATION, 0, 0)
    d = a.bit_length()
    u = a.bit_count()
    return DigitStats(a, d, _v2(a), d - u, u)


def binom_val_eq_n_val(n: int, k: int) -> bool:
    """Whether v2(C(n,k)) = v2(n), for odd k, decided on base-2 digits.

    For odd k the valuation of C(n,k) is at least v2(n) (the trailing
    zeros of n each force a borrow); equality holds exactly when no other
    borrow occurs.
    """
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n % 2 == 1:
        return k & ~n == 0
    v = _v2(n)
    if (k >> v) & 1:
        return False
    high = ~((1 << (v + 1)) - 1)
    return k & high & ~n == 0


def coeff_xa_in_Sn(a: int, n: int) -> int:
    """The bit [x^a] S̄_n, via valuation reduction and Kummer borrow logic."""
    if a < 0 or n < 0:
        raise ValueError("a and n must be nonnegative")
    if n == 0:
        return 0  # S_0 = 2 vanishes mod 2
    if a > n or (a ^ n) & 1:
        return 0
    if a == 0:
        return 0  # constant terms of S_n are 0 or ±2
    v = _v2(a)
    if _v2(n) != v:
        return 0
    a >>= v
    n >>= v
    return 1 if binom_val_eq_n_val((n + a) // 2, a) else 0


def combinatorial_count(a: int) -> tuple[int, int, tuple[int, ...]]:
    """Residue classes of n mod 2^(d(a)+1) for which x^a appears in S̄_n.

    Brute-force enumeration over one full period, using representatives
    n in [a, a + period) so every class is sampled at a degree where the
    coefficient can be present.  Returns (count, modulus, residues); the
    count equals 2^(z(a)-v(a)+1).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    modulus = 1 << (digit_stats(a).d + 1)
    residues = tuple(sorted(
        n % modulus for n in range(a, a + modulus) if coeff_xa_in_Sn(a, n)))
    return len(residues), modulus, residues
