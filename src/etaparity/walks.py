"""Partition parity, the 24-inverse subsequence, and random-walk CSV output.

The parity of p(n) is the n-th coefficient of 1/prod(1-q^k) mod 2.  The
table is produced by Newton inversion of the pentagonal-number series
(g -> f*g^2 doubles the trusted length per step, and squaring is free in
characteristic 2), so building 10^6 parities takes well under a second.
The classical pentagonal XOR recurrence holds coefficientwise and is
asserted in the tests rather than used as the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import prime_array
from .f2series import F2Series, mul, substitute_qk
from .genforms import eta_product_pnt
from .hecke import is_prime


@dataclass(frozen=True)
class ParityTable:
    """Packed parities of p(0..N-1)."""

    series: F2Series

    @property
    def size(self) -> int:
        return self.series.valid_len

    def parity(self, n: int) -> int:
        return self.series.coeff(n)

    def parities(self) -> np.ndarray:
        return self.series.bits()


def partition_parity(n: int) -> ParityTable:
    """Parities of p(0..n-1) by inverting the pentagonal series mod 2."""
    if n < 1:
        raise ValueError("need at least one parity")
    f = eta_product_pnt(n)
    g = F2Series.one(1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        g = mul(f, substitute_qk(g, 2, prec), prec)
    return ParityTable(g)


def delta_ell(ell: int) -> int:
    """The least positive 24^-1 mod ell, for primes ell >= 5."""
    if ell in (2, 3) or not is_prime(ell):
        raise ValueError("defined for primes >= 5 only")
    return pow(24, -1, ell)


def delta_ell_from_window(ell: int) -> int:
    """delta_ell recovered from the shift-window convention with (m, b) = (24, -1).

    mu solves ell*mu ≡ -1 (mod 24) in the window [-1/ell, -1/ell + 24);
    the index (ell*mu + 1)/24 equals 24^-1 mod ell.
    """
    if ell in (2, 3) or not is_prime(ell):
        raise ValueError("defined for primes >= 5 only")
    mu = (-pow(ell, -1, 24)) % 24
    return (ell * mu + 1) // 24


def first_primes_ge5(count: int) -> np.ndarray:
    """The first `count` primes starting from 5."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = count + 2  # global prime index, skipping 2 and 3
    guess = max(30, int(k * (math.log(k) + math.log(math.log(max(k, 3))))) + 10)
    while True:
        primes = prime_array(5, guess)
        if len(primes) >= count:
            return primes[:count]
        guess *= 2


WALK_COLUMNS = ("n", "step", "sum", "sqrt_band", "two_sqrt_band")

WALK_KINDS = ("all", "delta-subseq")


@dataclass(frozen=True)
class WalkPoint:
    n: int
    step: int
    total: int
    band1: float
    band2: float


def walk_points(kind: str, n: int) -> list[WalkPoint]:
    """The walk as row objects (successive totals differ by exactly 1)."""
    steps, sums = walk_arrays(kind, n)
    return [WalkPoint(i + 1, int(steps[i]), int(sums[i]),
                      float(np.sqrt(i + 1)), 2.0 * float(np.sqrt(i + 1)))
            for i in range(n)]


def walk_arrays(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps, running sums) for the walk: +1 for even parity, -1 for odd.

    kind "all" walks p(1..n); "delta-subseq" walks p(delta_ell) over the
    first n primes ell >= 5.
    """
    if kind == "all":
        table = partition_parity(n + 1)
        par = table.parities()[1:n + 1]
    elif kind == "delta-subseq":
        primes = first_primes_ge5(n)
        deltas = np.array([pow(24, -1, int(p)) for p in primes], dtype=np.int64)
        table = partition_parity(int(deltas.max()) + 1)
        par = table.series.coeffs_at(deltas)
    else:
        raise ValueError(f"walk kind must be one of {WALK_KINDS}")
    steps = 1 - 2 * par.astype(np.int64)
    return steps, np.cumsum(steps)


def emit_walk(kind: str, n: int, out: str) -> str:
    """Write the walk as CSV (columns fixed: n, step, sum, sqrt_band, two_sqrt_band)."""
    steps, sums = walk_arrays(kind, n)
    with open(out, "w") as fh:
        fh.write(",".join(WALK_COLUMNS) + "\n")
        chunk = 1 << 16
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            idx = np.arange(start + 1, stop + 1)
            band = np.sqrt(idx)
            fh.write("\n".join(
                f"{i},{s},{c},{b:.3f},{2 * b:.3f}"
                for i, s, c, b in zip(idx, steps[start:stop], sums[start:stop], band)))
            fh.write("\n")
    return out
