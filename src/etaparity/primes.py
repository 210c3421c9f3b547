"""Primality for the whole package: a prime table for ranges, Miller-Rabin
for one n.

Density scans, the level-9 laws and the walk's prime subsequence read one
process-wide, read-only table of primes through ``prime_blocks``, which
yields it as int64 blocks of at most ``BLOCK_PRIMES`` primes; ``prime_array``
concatenates them for small callers.  The table is rebuilt to at least
double its bound when asked beyond it.

The store.  Prime j (p_0 = 2, p_1 = 3, ...) is kept as one byte, the
half-gap (p_j - p_(j-1))/2, with 2 counted as 1 so that every gap is
even.  Every ``BLOCK_PRIMES``-th prime is kept whole as an int64
checkpoint instead, and its byte is zero, so a block decodes as its
checkpoint plus twice the running sum of its bytes: one ``cumsum``.  The
store is about one byte per prime, where an int64 array took eight.

The segment.  ``segmented_sieve`` builds the store by the segmented sieve
of Eratosthenes (Bays and Hudson, 1977): ``_SEGMENT`` odd integers at a
time, one flag byte each (64 KB, below glibc's default mmap threshold),
crossed off by the odd primes up to the square root of the bound, which
come from a table built the same way to that root.  No flags for the
whole range and no int64 per prime are ever held.  The bytes it needs
(``sieve_bytes``) are checked against physical memory with
``require_memory``, the package's one such check, before anything is
allocated.

The guard.  A half-gap must fit in a byte, and the encoder raises
ValueError otherwise.  Prime gaps stay below 512 up to at least 10^11, a
table of about 4 GB, so only a larger table than that could meet the
guard.

``is_prime(n)`` is always a deterministic Miller-Rabin test: twelve modular
powers, whatever the table holds, and it never sieves.
"""

from __future__ import annotations

import math
import os
from typing import Iterator

import numpy as np

# primes per block: each block decodes from its own checkpoint
BLOCK_PRIMES = 1 << 13

# odd integers per sieve segment, one flag byte each
_SEGMENT = 1 << 16


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


def _prime_count_bound(bound: int) -> int:
    """An upper bound on the number of primes up to bound: pi(x) <
    (x / ln x)(1 + 3 / (2 ln x)) for x > 1 (Rosser and Schoenfeld, 1962),
    2% above pi(x) at 10^7."""
    if bound < 2:
        return 0
    log = math.log(bound)
    return math.ceil(bound / log * (1 + 1.5 / log))


def sieve_bytes(bound: int) -> int:
    """The bytes that segmented_sieve(bound) allocates, about: one segment
    of flags and one byte per prime, with the checkpoints."""
    primes = _prime_count_bound(bound)
    return min(_SEGMENT, (bound + 1) // 2) + primes + 8 * -(-primes // BLOCK_PRIMES)


def _put_half_gaps(out: np.ndarray, slots: np.ndarray, last: int) -> None:
    """Write into the bytes out the half-gaps into the odd numbers 2s + 1
    for the ascending slots s, the first from slot `last`; raise
    ValueError for a gap of 512 or more."""
    if not len(slots):
        return
    first = int(slots[0]) - last
    np.subtract(slots[1:], slots[:-1], out=out[1:], casting="unsafe")
    # a half-gap that wraps its byte drops a multiple of 256 from the sum
    if first > 255 or int(out[1:].sum()) != int(slots[-1] - slots[0]):
        raise ValueError("a prime gap of 512 or more does not fit in a byte")
    out[0] = first


class PrimeTable:
    """The primes up to `bound` as half-gap bytes and checkpoints; see the
    module docstring.  Built by ``segmented_sieve``, and never changed."""

    __slots__ = ("bound", "gaps", "marks")

    def __init__(self, bound: int, gaps: np.ndarray, marks: np.ndarray):
        self.bound = bound
        self.gaps = gaps  # uint8, one per prime, zero at each checkpoint
        self.marks = marks  # int64, prime j * BLOCK_PRIMES (1 for the prime 2)

    def _block(self, c: int) -> np.ndarray:
        start = c * BLOCK_PRIMES
        block = np.cumsum(self.gaps[start:start + BLOCK_PRIMES], dtype=np.int64)
        block <<= 1
        block += self.marks[c]
        if c == 0:
            block[0] = 2
        block.flags.writeable = False
        return block

    def blocks(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """The primes p with lo <= p <= hi (hi at most the bound), ascending,
        as nonempty read-only int64 blocks of at most BLOCK_PRIMES."""
        c = max(int(np.searchsorted(self.marks, lo, side="right")) - 1, 0)
        for c in range(c, len(self.marks)):
            if self.marks[c] > hi:
                break
            block = self._block(c)
            if block[0] < lo or block[-1] > hi:
                block = block[np.searchsorted(block, lo):
                              np.searchsorted(block, hi, side="right")]
            if len(block):
                yield block


def _concatenate(blocks) -> np.ndarray:
    primes = np.concatenate([np.zeros(0, dtype=np.int64), *blocks])
    primes.flags.writeable = False
    return primes


def segmented_sieve(bound: int) -> PrimeTable:
    """The table of the primes up to bound; see the module docstring.

    A bound whose segment and bytes exceed physical memory raises
    MemoryError before anything is allocated.
    """
    require_memory(sieve_bytes(bound), f"sieving primes to {bound} needs about")
    capacity = _prime_count_bound(bound)
    gaps = np.zeros(capacity, dtype=np.uint8)
    marks = np.zeros(-(-capacity // BLOCK_PRIMES), dtype=np.int64)
    # slot i stands for 2i + 1, and slot 0, for 1, stands for the prime 2
    slots = (bound + 1) // 2 if bound > 1 else 0
    # the odd primes up to the root, from a table built the same way
    root = math.isqrt(bound)
    base = _concatenate(segmented_sieve(root).blocks(3, root) if root > 2 else [])
    count = last = 0
    for lo in range(0, slots, _SEGMENT):
        hi = min(lo + _SEGMENT, slots)
        flags = np.ones(hi - lo, dtype=bool)
        odd = base[:np.searchsorted(base, math.isqrt(2 * hi - 1), side="right")]
        # the slot of each p's first odd multiple at or past p^2 and 2 lo + 1
        first = -(-(2 * lo + 1) // odd) | 1
        first *= odd
        np.maximum(first, odd * odd, out=first)
        first >>= 1
        first -= lo
        for p, at in zip(odd.tolist(), first.tolist()):
            flags[at::p] = False
        found = np.flatnonzero(flags)
        found += lo
        end = count + len(found)
        _put_half_gaps(gaps[count:end], found, last)
        at = np.arange(-count % BLOCK_PRIMES, len(found), BLOCK_PRIMES)
        marks[(count + at) // BLOCK_PRIMES] = 2 * found[at] + 1
        gaps[count + at] = 0
        count, last = end, int(found[-1]) if len(found) else last
    return PrimeTable(bound, gaps[:count], marks[:-(-count // BLOCK_PRIMES)])


_table = PrimeTable(0, np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64))


def prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """The primes p with lo <= p <= hi, ascending, as read-only int64 blocks
    of at most BLOCK_PRIMES, read from the process-wide table, which is
    rebuilt to at least double its bound first when hi is beyond it."""
    global _table
    if hi > _table.bound:
        _table = segmented_sieve(max(hi, 2 * _table.bound))
    return _table.blocks(lo, hi)


def prime_array(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p <= hi, ascending, as one read-only int64
    array: the blocks of prime_blocks(lo, hi) concatenated."""
    return _concatenate(prime_blocks(lo, hi))


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
