"""Primality for the whole package: a sieve for ranges, Miller-Rabin for one n.

Density scans, the level-9 laws and the walk's prime subsequence all slice
one process-wide, read-only array of primes through ``prime_array``.  It is
re-sieved to at least double its bound when asked beyond it, and the sieve
checks that its flags and its primes fit in physical memory before it
allocates them, with ``require_memory``, the package's one such check.
``is_prime(n)`` is always a deterministic Miller-Rabin test: twelve modular
powers, whatever the array holds, and it never sieves.
"""

from __future__ import annotations

import math
import os

import numpy as np


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def require_memory(need: int, what: str) -> None:
    """Raise MemoryError when an estimate of `need` bytes exceeds physical
    memory; callers check before they allocate.  `what` opens the message,
    as in "sieving primes to 10 needs about"."""
    have = _physical_memory()
    if need > have:
        raise MemoryError(f"{what} {need >> 20} MB, more than the "
                          f"{have >> 20} MB of physical memory")


def sieve_bytes(bound: int) -> int:
    """The bytes that sieve(bound) allocates: one flag per odd integer up to
    bound, and 8 per prime, counted with pi(x) < 1.25506 x / ln x for x > 1
    (Rosser and Schoenfeld, 1962)."""
    primes = math.ceil(1.25506 * bound / math.log(bound)) if bound > 1 else 0
    return (bound + 1) // 2 + 8 * primes


def sieve(bound: int) -> np.ndarray:
    """The primes up to bound, ascending, as a read-only int64 array.

    The Eratosthenes flags take one byte per odd integer up to bound; a
    bound whose flags and primes exceed physical memory raises MemoryError
    before anything is allocated.
    """
    require_memory(sieve_bytes(bound), f"sieving primes to {bound} needs about")
    if bound < 2:
        primes = np.zeros(0, dtype=np.int64)
    else:
        flags = np.ones((bound + 1) // 2, dtype=bool)  # flags[i] stands for 2i + 1
        for p in range(3, math.isqrt(bound) + 1, 2):
            if flags[p >> 1]:
                flags[p * p >> 1::p] = False
        flags[0] = True  # the slot of 1, which becomes the prime 2 below
        primes = np.flatnonzero(flags)
        primes *= 2
        primes += 1
        primes[0] = 2
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
