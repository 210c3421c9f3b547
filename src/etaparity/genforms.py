"""Generator series for the mod-2 form algebras, and normalized eta powers.

The three theta-type generators, as mod-2 q-expansions:

    delta: sum of q^(n^2) over odd n            (level 1 generator)
    C:     sum of q^(n^2) over odd n, 3 ∤ n     (weight-4 level-9 cusp form)
    F:     sum of q^(n^2) over 3 ∤ n            (level 9 generator)

The normalized eta power for exponent r reduces mod 2 to delta^(b_r) when
3 | r and to C^(b_r) otherwise, so it is supported on b_r mod m_r:

    P_r(q) = q^(b_r) * Q_r(q^(m_r)).

Each generator is g(q) = q * h(q^s): delta = q * T(q^8) with T the
triangular theta sum of x^(k(k+1)/2), and C = q * pnt(q^24) with pnt the
pentagonal series of prod (1 - x^k).  Hence, in the progression variable
x = q^(m_r) and by the Frobenius identity h^(2^i)(x) = h(x^(2^i)),

    Q_r(x) = h(x^(s/m_r))^(b_r) = prod over i in bits(b_r) of h(x^((s/m_r) 2^i)).

``p_r_progression`` builds Q_r from that product, and ``p_r_series`` is its
view in q: n coefficients of P_r need only about n/m_r coefficients of Q_r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .f2series import F2Series, mul, substitute_qk


@dataclass(frozen=True)
class EtaPowerParams:
    """Normalization data for the r-th eta power: m_r = 24/gcd(24,r), b_r = r/gcd(24,r)."""

    r: int
    m_r: int
    b_r: int

    @classmethod
    def for_power(cls, r: int) -> "EtaPowerParams":
        if r < 1:
            raise ValueError("eta-power exponent must be a positive integer")
        g = math.gcd(24, r)
        return cls(r, 24 // g, r // g)

    def __post_init__(self):
        if math.gcd(self.b_r, self.m_r) != 1 or 24 % self.m_r or self.m_r * self.r != 24 * self.b_r:
            raise ValueError("inconsistent eta-power parameters")


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
    out = []
    k = 1
    while k * (3 * k - 1) // 2 < n:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g < n:
                out.append(g)
        k += 1
    return np.array(sorted(out), dtype=np.int64)


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


def progression_length(params: EtaPowerParams, n: int) -> int:
    """Coefficients of Q_r covering the exponents of P_r below n (at least one)."""
    return max(1, -(-(n - params.b_r) // params.m_r))


def p_r_progression(r: int, n: int) -> F2Series:
    """First n coefficients of Q_r, where P_r(q) = q^(b_r) * Q_r(q^(m_r)).

    Multiplies the dilated factors h(x^(k 2^i)) for the bits i of b_r,
    densest first, so every product XOR-shifts the accumulated series
    across a sparse factor; factors with k 2^i >= n are 1 to this precision.
    """
    params = EtaPowerParams.for_power(r)
    if n < 1:
        raise ValueError("precision must be >= 1")
    h, s = (triangular_theta, 8) if r % 3 == 0 else (eta_product_pnt, 24)
    acc = F2Series.one(n)
    for i in range(params.b_r.bit_length()):
        k = (s // params.m_r) << i
        if params.b_r >> i & 1 and k < n:
            acc = mul(acc, substitute_qk(h(-(-n // k)), k, n), n)
    return acc


def progression_view(prog: F2Series, params: EtaPowerParams, n: int) -> F2Series:
    """First n coefficients of P_r = q^(b_r) * Q_r(q^(m_r)), given Q_r."""
    if n < 1:
        raise ValueError("precision must be >= 1")
    if prog.valid_len < progression_length(params, n):
        raise ValueError(f"Q_{params.r} valid to {prog.valid_len} cannot give "
                         f"{n} coefficients of P_{params.r}")
    exps = prog.support() * params.m_r + params.b_r
    return F2Series.from_support(exps[exps < n], n)


def p_r_series(r: int, n: int) -> F2Series:
    """First n coefficients of the normalized eta power P_r mod 2.

    The q-view of ``p_r_progression``: its support is contained in the
    progression b_r mod m_r, and it is zero when n <= b_r.
    """
    params = EtaPowerParams.for_power(r)
    return progression_view(p_r_progression(r, progression_length(params, n)),
                            params, n)


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
    exps = exps[exps < n]
    counts = np.bincount(exps, minlength=n)
    return F2Series.from_bits((counts & 1).astype(np.uint8), n)
