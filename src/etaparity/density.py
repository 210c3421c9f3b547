"""Density experiments: prime scans, coefficient densities, and eta-power parity.

One read of P_r per scan gives two empirical rows; an exact route covers
the r where a closed form is proven.  For a prime ell let u be
``least_shift(ell, m_r, b_r)``, the least u >= 1 with u*ell ≡ b_r (mod m_r):

* direct: for each prime ell, the bit of P_r = q^(b_r) * pnt^r(q^(m_r))
  at the leading exponent ell*mu of the ell-shifted series, the one
  exponent b_r + m_r*k with 0 <= k < ell that ell divides.  So it is the
  bit of pnt^r at k = ((u*ell - b_r)/m_r) mod ell;
* formula: the sum over the unit shifts u' mod m_r of the coefficient
  densities of the Hecke shifts T_u' P_r (U_2 for u' = 2), each read at
  u' * ell.  P_r is supported on b_r mod m_r, so at each ell every shift
  but u reads a zero bit, and the sum is the bit at u * ell.  Where
  u * ell >= b_r that is the direct bit (mu = u); elsewhere u * ell is
  below P_r's first term and the bit is zero.  So the formula row counts
  the direct bits where u * ell >= b_r, and is not an independent check
  of P_r;
* exact: the vanishing classification (divisors/multiples of 32 or 48),
  the two dihedral families, and the handful of abelian eta powers, each
  a dyadic ``fractions.Fraction``, so exact values add exactly.

Every k is below prime_bound + 1, so a scan asks ``genforms`` for the bits
of pnt^r at those indices (``pnt_power_bits``).  Scans read the primes
as the blocks of ``primes.prime_blocks``, at most ``BLOCK_PRIMES`` int64
primes decoded at a time from the table's one byte per prime.  u depends
on ell mod m_r alone, so a scan takes it from a 24-entry table indexed by
ell mod 24 and forms the indices of a block in place.  The indices and
bits of a block are its only per-prime arrays, so a scan's working memory
is one block whatever the prime bound.  Before a scan builds anything it
checks, with ``primes.require_memory``, that the prime table, the packed
pnt^o words and one block fit in physical memory.

The module reads series through ``genforms`` and primes through
``primes`` alone; it loads none of the form-algebra modules ``level1``,
``hecke`` and ``cheby``.

Primes 2 and 3 are excluded from every scan (congruence obstructions); a
scan over no primes at all raises ``EmptyScanError``.  Estimates carry
binomial statistics; acceptance tolerance is 4 sigma throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .f2series import F2Series
from .genforms import EtaPowerParams, least_shift, pnt_power_bits
from .primes import BLOCK_PRIMES, prime_blocks, require_memory, sieve_bytes

SIGMA_FACTOR = 4.0

# Bytes a scan block holds per prime, at most: the decoded int64 primes,
# the int64 indices and residues, pnt_power_bits' temporaries, and the bits
_SCAN_BYTES_PER_PRIME = 64


class PrecisionError(ValueError):
    """A scan asked for coefficients beyond a series' valid length."""


class EmptyScanError(ValueError):
    """A density scan would cover no primes, so it could estimate nothing."""


@dataclass(frozen=True)
class DensityEstimate:
    """An empirical density with its binomial statistics and dyadic rounding."""

    hits: int
    samples: int
    value: float
    nearest_dyadic: Fraction
    residual: float

    @classmethod
    def from_counts(cls, hits: int, samples: int) -> "DensityEstimate":
        value = hits / samples
        # the closest a/2^k with k <= 6 in [0, 1], ties rounded up
        near = Fraction(min(max(math.floor(value * 64 + 0.5), 0), 64), 64)
        return cls(hits, samples, value, near, abs(value - float(near)))

    @property
    def sigma(self) -> float:
        return math.sqrt(self.value * (1.0 - self.value) / self.samples)

    @property
    def tolerance(self) -> float:
        return SIGMA_FACTOR * self.sigma


def _check_scan(prime_bound: int) -> None:
    if prime_bound < 5:
        raise EmptyScanError(
            f"a scan to prime bound {prime_bound} covers no primes ell >= 5")


def odd_coeff_density(f: F2Series, prime_bound: int) -> DensityEstimate:
    """Proportion of primes 5 <= ell <= prime_bound with a_ell(f) = 1."""
    if f.valid_len <= prime_bound:
        raise PrecisionError(
            f"series valid to {f.valid_len} cannot be scanned to {prime_bound}")
    _check_scan(prime_bound)
    hits = samples = 0
    for ell in prime_blocks(5, prime_bound):
        hits += int(f.coeffs_at(ell).sum())
        samples += len(ell)
    return DensityEstimate.from_counts(hits, samples)


def _scan_bytes(r: int, prime_bound: int) -> int:
    """The bytes that eta_density(r, prime_bound) holds, about: the prime
    table to prime_bound (one segment of flags while it is sieved and one
    byte per prime), the packed words of pnt^o for r = 2^v * o, which has
    about (prime_bound + 1) / 2^v coefficients, and one scan block."""
    v = (r & -r).bit_length() - 1
    words = 8 * ((prime_bound >> v) // 64 + 1)
    block = _SCAN_BYTES_PER_PRIME * min(BLOCK_PRIMES, prime_bound)
    return sieve_bytes(prime_bound) + words + block


# (direct, formula) of every scan so far, keyed by (r, prime_bound)
_scans: dict[tuple[int, int], tuple[DensityEstimate, DensityEstimate]] = {}


def eta_density(r: int, prime_bound: int) -> tuple[DensityEstimate, DensityEstimate]:
    """(direct, formula) parity densities of P_r from one read: the bit of
    pnt^r at k = ((u*ell - b_r)/m_r) mod ell for each prime ell, counted
    at every ell (direct) and where u*ell >= b_r (formula; see the module
    docstring), one block of primes at a time.  Each (r, prime_bound) is
    scanned once; a repeat returns the kept result.  A scan whose estimated
    size exceeds physical memory raises MemoryError before anything is
    built."""
    got = _scans.get((r, prime_bound))
    if got is not None:
        return got
    params = EtaPowerParams.for_power(r)
    m, b = params.m_r, params.b_r
    require_memory(_scan_bytes(r, prime_bound),
                   f"a scan of P_{r} to prime bound {prime_bound} needs about")
    _check_scan(prime_bound)
    # u for each ell mod 24: m divides 24, so ell mod 24 fixes ell mod m
    shift = least_shift(np.arange(24, dtype=np.int64), m, b)
    direct = formula = samples = 0
    for ell in prime_blocks(5, prime_bound):
        # k = u*ell - b, with ell mod 24 taken as ell - 24 (ell // 24):
        # numpy divides by a constant faster than it takes a remainder
        k = ell // 24
        k *= -24
        k += ell
        k = shift[k]
        k *= ell
        k -= b
        # (u*ell - b)/m lies in [0, ell) where u*ell >= b; only ell < b can
        # have u*ell < b, and there the index wraps mod ell and the formula
        # row reads no bit
        head = int(np.searchsorted(ell, b))
        below = k[:head] < 0
        k //= m
        np.remainder(k[:head], ell[:head], out=k[:head])
        bits = pnt_power_bits(r, k, prime_bound + 1)
        hits = int(bits.sum())
        direct += hits
        formula += hits - int(bits[:head][below].sum())
        samples += len(ell)
        del k, bits, below  # not held beside the next block's arrays
    got = _scans[(r, prime_bound)] = (
        DensityEstimate.from_counts(direct, samples),
        DensityEstimate.from_counts(formula, samples))
    return got


def zn(n: int) -> int:
    """The Q(sqrt(-2))-dihedral exponent sequence 3, 11, 43, 171, ..."""
    return (2 * 4**n + 1) // 3


def wn(n: int) -> int:
    """The Q(i)-dihedral exponent sequence 5, 17, 65, 257, ..."""
    return 4**n + 1


def _dihedral_exact(r: int) -> Fraction | None:
    n = 1
    while True:
        z, w = zn(n), wn(n)
        if 3 * z > r:
            return None
        for a in (3, 6, 12, 24):
            if r == a * z:
                if a in (3, 6):
                    return Fraction(1, 4) if n == 1 else Fraction(1, 2**n)
                return Fraction(1, 2**(n + 1))
            if r == a * 3 * z:
                if a in (3, 6):
                    return Fraction(3, 2**(n + 2))
                return Fraction(1, 2**(n + 2))
            if r == a * w:
                if a == 3:
                    return Fraction(1, 4) if n == 1 else Fraction(3, 2**(n + 1))
                return Fraction(1, 2**(n + 1))
        n += 1


# Eta powers congruent to abelian forms: r = a*s for a | 8, s in {5, 7, 13}
# all have density 1/8; the multiples of the abelian delta powers
# delta^7, delta^19, delta^21 carry the values below.
_ABELIAN_EXACT: dict[int, Fraction] = {
    **{a * s: Fraction(1, 8) for a in (1, 2, 4, 8) for s in (5, 7, 13)},
    3 * 7: Fraction(5, 8),
    3 * 19: Fraction(5, 8),
    3 * 21: Fraction(5, 8),
    6 * 7: Fraction(3, 8),
    6 * 19: Fraction(1, 4),
    6 * 21: Fraction(1, 4),
    12 * 7: Fraction(1, 8),
    12 * 19: Fraction(1, 8),
    12 * 21: Fraction(1, 8),
    24 * 7: Fraction(1, 8),
    24 * 19: Fraction(1, 8),
    24 * 21: Fraction(1, 8),
}


def eta_density_exact(r: int) -> Fraction | None:
    """Proven value of the parity density at r, or None with no closed form.

    Covers the vanishing classification (r dividing or divisible by 32 or
    48), the two dihedral families, and the abelian eta powers.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if 32 % r == 0 or r % 32 == 0 or 48 % r == 0 or r % 48 == 0:
        return Fraction(0)
    dihedral = _dihedral_exact(r)
    if dihedral is not None:
        return dihedral
    return _ABELIAN_EXACT.get(r)


# the only multiples of 4 whose density may reach 1/4 (= 4*{9, 15, 18, 30})
BOUND_EXCEPTIONS = frozenset({36, 60, 72, 120})


@dataclass(frozen=True)
class BoundCheck:
    r: int
    value: float
    sigma: float
    limit: float
    ok: bool


def verify_bounds(r_max: int, prime_bound: int) -> list[BoundCheck]:
    """Check the density upper bounds empirically for all r <= r_max.

    The density is below 1 always, below 1/2 for even r, and below 1/4
    for r divisible by 4, except the four listed r
    where 1/4 may be attained.  Returns one row per r; a row with
    ok=False is a violation.
    """
    rows = []
    for r in range(1, r_max + 1):
        est, _ = eta_density(r, prime_bound)
        margin = 3.0 * est.sigma
        limit = 0.25 if r % 4 == 0 else 0.5 if r % 2 == 0 else 1.0
        if r in BOUND_EXCEPTIONS:
            ok = est.value <= limit + margin
        else:
            ok = est.value + margin < limit
        rows.append(BoundCheck(r, est.value, est.sigma, limit, ok))
    return rows


def density_report_row(r: int, prime_bound: int, route: str,
                       est: DensityEstimate) -> dict:
    """One CSV row of the density report (schema fixed; see README)."""
    params = EtaPowerParams.for_power(r)
    exact = eta_density_exact(r)
    return {
        "r": r,
        "m_r": params.m_r,
        "b_r": params.b_r,
        "prime_bound": prime_bound,
        "samples": est.samples,
        "hits": est.hits,
        "value": f"{est.value:.6f}",
        "nearest_dyadic": str(est.nearest_dyadic),
        "residual": f"{est.residual:.6f}",
        "exact": str(exact) if exact is not None else "",
        "route": route,
    }


REPORT_COLUMNS = ("r", "m_r", "b_r", "prime_bound", "samples", "hits",
                  "value", "nearest_dyadic", "residual", "exact", "route")
