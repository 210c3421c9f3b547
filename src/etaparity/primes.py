"""Primality for the whole package: one Eratosthenes sieve, grown on demand.

Density scans, Hecke indices and the walk's prime subsequence all read the
same process-wide sieve.  It is regrown to at least double its bound when
asked beyond it.  ``is_prime(n)`` past the sieve divides n by the sieve's
primes up to sqrt(n) instead, so one large n costs a sieve to sqrt(n).
"""

from __future__ import annotations

import math

import numpy as np


class PrimeSieve:
    """Packed primality bits for 0..bound and the sorted primes up to bound."""

    def __init__(self, bound: int):
        if bound < 2:
            bound = 2
        flags = np.ones(bound + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(bound) + 1):
            if flags[p]:
                flags[p * p::p] = False
        self.bound = bound
        self._packed = np.packbits(flags, bitorder="little")
        self._primes = np.nonzero(flags)[0].astype(np.int64)

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.bound:
            raise ValueError("outside sieve range")
        return bool((self._packed[n >> 3] >> (n & 7)) & 1)

    def primes(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        hi = self.bound if hi is None else hi
        if hi > self.bound:
            raise ValueError("beyond sieve bound")
        arr = self._primes
        return arr[(arr >= lo) & (arr <= hi)]


_sieve: PrimeSieve | None = None


def shared_sieve(bound: int) -> PrimeSieve:
    """Process-wide sieve, regrown geometrically on demand."""
    global _sieve
    if _sieve is None or _sieve.bound < bound:
        _sieve = PrimeSieve(max(bound, 2 * (_sieve.bound if _sieve else 0)))
    return _sieve


def prime_array(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p <= hi, ascending, as int64."""
    return shared_sieve(hi).primes(lo, hi)


def is_prime(n: int) -> bool:
    """Whether the integer n (below 2^63) is prime: read from the shared
    sieve when it reaches n, else divided by its primes up to sqrt(n)."""
    if n < 2:
        return False
    if _sieve is not None and n <= _sieve.bound:
        return _sieve.is_prime(n)
    root = math.isqrt(n)
    return not np.any(n % shared_sieve(root).primes(2, root) == 0)
