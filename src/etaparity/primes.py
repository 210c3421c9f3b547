"""Primality for the whole package: one Eratosthenes sieve, grown on demand.

Density scans, Hecke indices and the walk's prime subsequence all read the
same process-wide sieve.  It is regrown to at least double its bound when
asked beyond it.  ``is_prime(n)`` past the sieve runs a deterministic
Miller-Rabin test instead, so one large n costs twelve modular powers and
never grows the sieve.
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
        self._primes.flags.writeable = False  # primes() hands out views

    def is_prime(self, n: int) -> bool:
        if not 0 <= n <= self.bound:
            raise ValueError("outside sieve range")
        return bool((self._packed[n >> 3] >> (n & 7)) & 1)

    def primes(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        """A read-only view of the primes p with lo <= p <= hi."""
        hi = self.bound if hi is None else hi
        if hi > self.bound:
            raise ValueError("beyond sieve bound")
        arr = self._primes
        return arr[np.searchsorted(arr, lo):np.searchsorted(arr, hi, side="right")]


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


# Miller-Rabin with these bases decides every n < 3.3e24 (Sorenson and
# Webster, 2015), so every n below the 2^64 that is_prime accepts
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether the integer n (below 2^64) is prime: read from the shared
    sieve when it reaches n, else by deterministic Miller-Rabin."""
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact below 2^64, got {n}")
    if n < 2:
        return False
    if _sieve is not None and n <= _sieve.bound:
        return _sieve.is_prime(n)
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _WITNESSES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
