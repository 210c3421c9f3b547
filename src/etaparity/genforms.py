"""Generator series for the mod-2 form algebras, their powers, and eta powers.

The three theta-type generators, as mod-2 q-expansions:

    delta: sum of q^(n^2) over odd n            (level 1 generator)
    C:     sum of q^(n^2) over odd n, 3 ∤ n     (weight-4 level-9 cusp form)
    F:     sum of q^(n^2) over 3 ∤ n            (level 9 generator)

Each has the form g(q) = q * h(q^s) (table ``GENERATORS``):

    delta = q * T(q^8),    T   = sum of y^(k(k+1)/2) over k >= 0,
    C     = q * pnt(q^24), pnt = prod (1 - y^k), the pentagonal series,
    F     = q * H(q^3),    H   = sum of y^((k^2-1)/3) over k >= 1, 3 ∤ k.

So g^e = q^e * h^e(q^s), and n coefficients of g^e need only about n/s
coefficients of h^e.  In characteristic 2, h^(2^v * o)(y) = h^o(y^(2^v)):
``_odd_power`` splits e = 2^v * o, and ``generator_power`` caches h^o for
o = 0 and odd o only, at the largest precision asked for.  A missing odd
h^o with top bit 2^t is the cached h^(o - 2^t) times h(y^(2^t)), one
sparse multiply: the Frobenius product over the bits of o, with every
partial product kept.  ``_dilated_power``, the first n coefficients of
q^a * h^e(q^s), gives g^e (``power_in_q``), the normalized eta power
P_r(q) = eta^r(m_r z) = q^(b_r) * pnt^r(q^(m_r)) (``p_r_series``; pnt is
the h of C) and the factor h(y^(2^t)).  For a prime ell >= 5 the one
shift of P_r that meets its progression b_r mod m_r at ell is u*ell with
u = ``least_shift(ell, m_r, b_r)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .f2series import F2Series, mul


@dataclass(frozen=True)
class EtaPowerParams:
    """Normalization data for the r-th eta power: m_r = 24/gcd(24,r), b_r = r/gcd(24,r)."""

    r: int
    m_r: int
    b_r: int

    @classmethod
    def for_power(cls, r: int) -> "EtaPowerParams":
        g = math.gcd(24, r)
        return cls(r, 24 // g, r // g)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("eta-power exponent must be a positive integer")
        g = math.gcd(24, self.r)
        if (self.m_r, self.b_r) != (24 // g, self.r // g):
            raise ValueError("inconsistent eta-power parameters")


def least_shift(ell, m: int, b: int):
    """The least u >= 1 with u*ell ≡ b (mod m), for m | 24 and ell prime
    to m; ell is an int or an int64 array.

    Every unit mod 24 is its own inverse (ell^2 ≡ 1), so u ≡ b*ell.
    """
    return (b * ell - 1) % m + 1


@dataclass(frozen=True)
class CongruenceTheta:
    """Theta series sum over q^(a*m^2 + b*n^2) for positive m, n in residue classes.

    Each condition is (modulus, allowed residues); terms are XOR-accumulated,
    so even representation counts vanish automatically.
    """

    a: int
    b: int
    cond_m: tuple[int, frozenset[int]]
    cond_n: tuple[int, frozenset[int]]


def _square_support(n_max: int, residues_ok) -> np.ndarray:
    """Squares k^2 < n_max over positive k accepted by the predicate."""
    if n_max <= 1:
        return np.zeros(0, dtype=np.int64)
    ks = np.arange(1, math.isqrt(n_max - 1) + 1, dtype=np.int64)
    return ks[residues_ok(ks)] ** 2


def delta_series(n: int) -> F2Series:
    """The level-1 generator: support = odd squares below n."""
    return F2Series.from_support(_square_support(n, lambda k: k % 2 == 1), n)


def c_series(n: int) -> F2Series:
    """Support = squares of odd k prime to 3, below n."""
    return F2Series.from_support(
        _square_support(n, lambda k: (k % 2 == 1) & (k % 3 != 0)), n)


def f_series(n: int) -> F2Series:
    """Support = squares of k prime to 3, below n."""
    return F2Series.from_support(_square_support(n, lambda k: k % 3 != 0), n)


def pentagonal_numbers(n: int) -> np.ndarray:
    """Generalized pentagonal numbers k(3k±1)/2 below n, for k >= 1."""
    # k(3k - 1)/2 < n exactly when k < (1 + sqrt(24n + 1))/6
    ks = np.arange(1, (math.isqrt(24 * max(n, 0) + 1) + 1) // 6 + 1, dtype=np.int64)
    pent = np.concatenate([ks * (3 * ks - 1) // 2, ks * (3 * ks + 1) // 2])
    return np.sort(pent[pent < n])


def eta_product_pnt(n: int) -> F2Series:
    """prod (1-q^k) mod 2 via the pentagonal number theorem (signs vanish)."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    supp = np.concatenate([[0], pentagonal_numbers(n)])
    return F2Series.from_support(supp, n)


def triangular_theta(n: int) -> F2Series:
    """T = sum of x^(k(k+1)/2) over k >= 0, below n; delta = q * T(q^8)."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    ks = np.arange(0, math.isqrt(8 * (n - 1) + 1) // 2 + 1, dtype=np.int64)
    tri = ks * (ks + 1) // 2
    return F2Series.from_support(tri[tri < n], n)


def prime_to_3_theta(n: int) -> F2Series:
    """H = sum of y^((k^2-1)/3) over k >= 1 prime to 3, below n; F = q * H(q^3)."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    ks = np.arange(1, math.isqrt(3 * (n - 1) + 1) + 1, dtype=np.int64)
    exps = (ks[ks % 3 != 0] ** 2 - 1) // 3
    return F2Series.from_support(exps[exps < n], n)


# generator name -> (h, s) with g(q) = q * h(q^s)
GENERATORS = {
    "delta": (triangular_theta, 8),
    "C": (eta_product_pnt, 24),
    "F": (prime_to_3_theta, 3),
}

_powers: dict[tuple[str, int], F2Series] = {}


def generator_power(gen: str, e: int, n: int) -> F2Series:
    """h^e to at least n coefficients, for e = 0 or odd e, where the
    generator g(q) = q * h(q^s).

    Cached by (gen, e); a request beyond the cached precision rebuilds at
    the requested one, so the cache keeps the largest precision seen.  A
    miss with top bit 2^t is h^(e - 2^t) * h(y^(2^t)), one sparse multiply.
    """
    if e < 0 or n < 1:
        raise ValueError("need e >= 0 and n >= 1")
    if e > 1 and e % 2 == 0:
        raise ValueError(f"h^{e} is not cached: read it through its odd part")
    got = _powers.get((gen, e))
    if got is None or got.valid_len < n:
        if e <= 1:
            got = F2Series.one(n) if e == 0 else GENERATORS[gen][0](n)
        else:
            k = 1 << (e.bit_length() - 1)
            got = mul(generator_power(gen, e - k, n),
                      _dilated_power(gen, 1, 0, k, n), n)
        _powers[(gen, e)] = got
    return got


def _odd_power(gen: str, e: int, n: int) -> tuple[F2Series, int]:
    """(h^o, v) for e = 2^v * o with o odd (v = 0 for e = 0), with h^o long
    enough for the first n coefficients of h^e(y) = h^o(y^(2^v))."""
    v = (e & -e).bit_length() - 1 if e else 0
    return generator_power(gen, e >> v, ((n - 1) >> v) + 1), v


def _dilated_power(gen: str, e: int, a: int, s: int, n: int) -> F2Series:
    """First n coefficients of q^a * h^e(q^s), from the cached odd part of
    h^e; it is zero when n <= a."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    if n <= a:
        return F2Series.zero(n)
    length = (n - a - 1) // s + 1  # h^e coefficients j with a + s*j < n
    h, v = _odd_power(gen, e, length)
    return F2Series.from_support(a + (s << v) * h.support(((length - 1) >> v) + 1), n)


def power_in_q(gen: str, e: int, n: int) -> F2Series:
    """First n coefficients of g^e = q^e * h^e(q^s)."""
    return _dilated_power(gen, e, e, GENERATORS[gen][1], n)


def pnt_power_bits(r: int, ks: np.ndarray, n: int) -> np.ndarray:
    """The bits of pnt^r at the indices ks, each in [0, n): that of pnt^o
    at k >> v where 2^v | k, and zero elsewhere."""
    h, v = _odd_power("C", r, n)
    if not v:
        return h.coeffs_at(ks)
    bits = np.zeros(len(ks), dtype=np.uint8)
    on = (ks & ((1 << v) - 1)) == 0
    bits[on] = h.coeffs_at(ks[on] >> v)
    return bits


def p_r_series(r: int, n: int) -> F2Series:
    """First n coefficients of the normalized eta power P_r mod 2,
    q^(b_r) * pnt^r(q^(m_r)); it is zero when n <= b_r."""
    params = EtaPowerParams.for_power(r)
    return _dilated_power("C", r, params.b_r, params.m_r, n)


def _allowed(limit: int, cond: tuple[int, frozenset[int]]) -> np.ndarray:
    modulus, residues = cond
    ks = np.arange(1, limit + 1, dtype=np.int64)
    keep = np.zeros(len(ks), dtype=bool)
    for res in residues:
        keep |= ks % modulus == res % modulus
    return ks[keep]


def congruence_theta(spec: CongruenceTheta, n: int) -> F2Series:
    """XOR-accumulated theta series for the given quadratic form and conditions."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    if spec.a < 1 or spec.b < 1:
        raise ValueError("quadratic-form coefficients must be positive")
    ms = _allowed(math.isqrt(max(n - 1, 0) // spec.a) if n > spec.a else 0, spec.cond_m)
    ns = _allowed(math.isqrt(max(n - 1, 0) // spec.b) if n > spec.b else 0, spec.cond_n)
    if not len(ms) or not len(ns):
        return F2Series.zero(n)
    exps = (spec.a * ms[:, None] ** 2 + spec.b * ns[None, :] ** 2).ravel()
    # an exponent is in the support when it has an odd number of representations
    exps, counts = np.unique(exps[exps < n], return_counts=True)
    return F2Series.from_support(exps[counts & 1 == 1], n)
