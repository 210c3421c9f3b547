"""Primality for the whole package: a sieve for ranges, Miller-Rabin for one n.

Density scans, the level-9 laws and the walk's prime subsequence all slice
one process-wide, read-only array of primes through ``prime_array``.  It is
re-sieved to at least double its bound when asked beyond it, and the sieve
checks that its flag bytes fit in physical memory before it allocates them.
``is_prime(n)`` is always a deterministic Miller-Rabin test: twelve modular
powers, whatever the array holds, and it never sieves.
"""

from __future__ import annotations

import math
import os

import numpy as np


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def sieve(bound: int) -> np.ndarray:
    """The primes up to bound, ascending, as a read-only int64 array.

    The Eratosthenes flags take one byte per integer up to bound; a bound
    whose flags exceed physical memory raises MemoryError before anything
    is allocated.
    """
    have = _physical_memory()
    if bound + 1 > have:
        raise MemoryError(f"sieving primes to {bound} needs about {bound >> 20} MB, "
                          f"more than the {have >> 20} MB of physical memory")
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if flags[p]:
            flags[p * p::p] = False
    primes = np.flatnonzero(flags)
    primes.flags.writeable = False  # prime_array hands out views
    return primes


_bound = 0
_primes = sieve(0)


def prime_array(lo: int, hi: int) -> np.ndarray:
    """A read-only view of the primes p with lo <= p <= hi, ascending, as int64."""
    global _bound, _primes
    if hi > _bound:
        bound = max(hi, 2 * _bound)
        _primes, _bound = sieve(bound), bound
    return _primes[np.searchsorted(_primes, lo):
                   np.searchsorted(_primes, hi, side="right")]


# Miller-Rabin with these bases decides every n < 3.3e24 (Sorenson and
# Webster, 2015), so every n below the 2^64 that is_prime accepts
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Whether the integer n (below 2^64) is prime, by deterministic
    Miller-Rabin."""
    if n >= 1 << 64:
        raise ValueError(f"is_prime is exact below 2^64, got {n}")
    if n < 2:
        return False
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
