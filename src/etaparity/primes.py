"""Primality for the whole package: a prime table for ranges, Miller-Rabin
for one n.

Density scans, the level-9 laws and the walk's prime subsequence read one
process-wide, read-only table of primes through ``prime_blocks``, which
yields it as int64 blocks, one block for each ``BLOCK_ODDS`` odd integers.
The table is rebuilt to at least double its bound when asked beyond it.

The store is the sieve's own flags, packed: bit i (little-endian) says
whether 2i + 1 is prime, and bit 0, for 1, stands for the prime 2.  That
is one bit per odd integer, 62 500 bytes to 10^6, fewer than one byte per
prime up to about 5 * 10^7.  Block c decodes as 2i + 1 for the set bits i
of its span.

``segmented_sieve`` builds the store by the segmented sieve of
Eratosthenes (Bays and Hudson, 1977): two blocks of odd integers at a time,
one flag byte each (64 KB, below glibc's default mmap threshold), crossed
off by the odd primes up to the square root of the bound, which come from
a table built the same way to that root, and packed into the store.  The
bytes it needs (``sieve_bytes``) are checked against physical memory with
``require_memory``, the package's one such check, before anything is
allocated.

``is_prime(n)`` is always a deterministic Miller-Rabin test: twelve modular
powers, whatever the table holds, and it never sieves.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

import numpy as np

# odd integers per block and per half sieve segment, one flag bit each in
# the store; the first block, the most crowded, holds 6 542 primes
BLOCK_ODDS = 1 << 15


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


def _odds(bound: int) -> int:
    """How many bits the store to bound has: one per odd integer 2i + 1 <=
    bound, and none below 2."""
    return (bound + 1) // 2 if bound > 1 else 0


def sieve_bytes(bound: int) -> int:
    """The bytes that segmented_sieve(bound) allocates, about: the packed
    store and one segment of flag bytes."""
    odds = _odds(bound)
    return -(-odds // 8) + min(2 * BLOCK_ODDS, odds)


class PrimeTable:
    """The primes up to `bound` as one bit per odd integer; see the module
    docstring.  Built by ``segmented_sieve``, and never changed."""

    __slots__ = ("bound", "packed")

    def __init__(self, bound: int, packed: np.ndarray):
        self.bound = bound
        self.packed = packed  # uint8; bit i says whether 2i + 1 is prime

    def _block(self, c: int) -> np.ndarray:
        lo = c * BLOCK_ODDS
        span = np.unpackbits(self.packed[lo >> 3:(lo + BLOCK_ODDS + 7) >> 3],
                             bitorder="little").view(bool)
        block = np.flatnonzero(span[lo & 7:(lo & 7) + BLOCK_ODDS])
        block += lo
        block <<= 1
        block += 1
        if c == 0 and len(block):
            block[0] = 2  # bit 0 stands for 2, not 1
        block.flags.writeable = False
        return block

    def blocks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """The primes p with lo <= p <= hi (hi at most the bound), ascending,
        as nonempty read-only int64 blocks."""
        # bit (p - 1) // 2 holds p, and bit 0 holds 2
        for c in range(max(lo - 1, 0) // 2 // BLOCK_ODDS,
                       (hi - 1) // 2 // BLOCK_ODDS + 1):
            block = self._block(c)
            if len(block) and (block[0] < lo or block[-1] > hi):
                block = block[np.searchsorted(block, lo):
                              np.searchsorted(block, hi, side="right")]
            if len(block):
                yield block


def segmented_sieve(bound: int) -> PrimeTable:
    """The table of the primes up to bound; see the module docstring.

    A bound whose segment and store exceed physical memory raises
    MemoryError before anything is allocated.
    """
    require_memory(sieve_bytes(bound), f"sieving primes to {bound} needs about")
    odds = _odds(bound)
    packed = np.empty(-(-odds // 8), dtype=np.uint8)
    # the odd primes up to the root, from a table built the same way
    root = math.isqrt(bound)
    base = np.concatenate([np.zeros(0, dtype=np.int64),
                           *(segmented_sieve(root).blocks(3, root) if root > 2 else [])])
    step = -(-2 * BLOCK_ODDS // 8) * 8  # a segment packs into whole bytes
    for lo in range(0, odds, step):
        hi = min(lo + step, odds)
        flags = np.ones(hi - lo, dtype=bool)
        odd = base[:np.searchsorted(base, math.isqrt(2 * hi - 1), side="right")]
        # the bit of each p's first odd multiple at or past p^2 and 2 lo + 1
        first = -(-(2 * lo + 1) // odd) | 1
        first *= odd
        np.maximum(first, odd * odd, out=first)
        first >>= 1
        first -= lo
        for p, at in zip(odd.tolist(), first.tolist()):
            flags[at::p] = False
        packed[lo >> 3:(hi + 7) >> 3] = np.packbits(flags, bitorder="little")
        del flags  # before the next segment's flags are allocated
    return PrimeTable(bound, packed)


_table = PrimeTable(0, np.zeros(0, dtype=np.uint8))


def prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes p with lo <= p <= hi, ascending, as nonempty read-only
    int64 blocks read from the process-wide table, which is rebuilt to at
    least double its bound first when hi is beyond it."""
    global _table
    if hi > _table.bound:
        _table = segmented_sieve(max(hi, 2 * _table.bound))
    return _table.blocks(lo, hi)


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
