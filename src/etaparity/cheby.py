"""Chebyshev-type polynomials S_n mod 2 and binary-digit combinatorics.

S_n is the integer polynomial with S_n(x + 1/x) = x^n + 1/x^n, so S_0 = 2,
S_1 = x, and S_n = x*S_{n-1} - S_{n-2}.  Mod 2 the reduction S̄_n obeys
S̄_{2n} = S̄_n², and the coefficient of x^a in S̄_n depends only on
n mod 2^(d(a)+1), where d(a) is the binary digit count of a.  The number
of hitting residue classes in one period is 2^(z(a)-v(a)+1), with z and v
the zero count and 2-adic valuation of a.

All coefficient parities here are decided by Kummer's theorem on base-2
digits, v2(C(N,k)) = s(k) + s(N-k) - s(N) with s the digit sum, evaluated
elementwise on int64 arrays; no big-integer binomials appear outside the
test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INFINITE_VALUATION = math.inf  # 2-adic valuation of zero


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
    return DigitStats(a, d, (a & -a).bit_length() - 1, d - u, u)


def _v2(n: np.ndarray) -> np.ndarray:
    """Elementwise 2-adic valuation of positive integers."""
    return np.bitwise_count((n & -n) - 1)


def coeff_xa_in_Sn(a, n):
    """The bits [x^a] S̄_n, elementwise on int64 arrays a and n (broadcast).

    S_n = sum_j (-1)^j n/(n-j) C(n-j, j) x^(n-2j), so for 1 <= a <= n with
    a ≡ n (mod 2) and N = (n+a)/2 the coefficient of x^a is (n/N) C(N,a).
    It is odd exactly when v2(n) + v2(C(N,a)) = v2(N), where by Kummer
    v2(C(N,a)) = s(a) + s(N-a) - s(N), s the binary digit sum.  Every other
    coefficient is even: S_0 = 2, the constant terms of S_n are 0 or ±2,
    and S_n has the parity of n.
    """
    a = np.asarray(a, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    if ((a | n) < 0).any():
        raise ValueError("a and n must be nonnegative")
    present = (a >= 1) & (a <= n) & (((a ^ n) & 1) == 0)
    big = (n + a) >> 1
    # the digit-sum identity with s(N) moved across, so no unsigned
    # subtraction wraps where the coefficient is absent
    return present & (_v2(n) + np.bitwise_count(a) + np.bitwise_count(big - a)
                      == _v2(big) + np.bitwise_count(big))


def combinatorial_count(a: int) -> tuple[int, int, tuple[int, ...]]:
    """Residue classes of n mod 2^(d(a)+1) for which x^a appears in S̄_n.

    Brute-force enumeration over one full period, using representatives
    n in [a, a + period) so every class is sampled at a degree where the
    coefficient can be present; the period is read in one array call.
    Returns (count, modulus, residues); the count equals 2^(z(a)-v(a)+1).
    """
    if a < 1:
        raise ValueError("a must be >= 1")
    modulus = 1 << (digit_stats(a).d + 1)
    ns = np.arange(a, a + modulus, dtype=np.int64)
    residues = np.sort(ns[coeff_xa_in_Sn(a, ns)] % modulus)
    return len(residues), modulus, tuple(residues.tolist())
