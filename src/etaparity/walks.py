"""Partition parity, the 24-inverse subsequence, and random-walk CSV output.

The parity of p(n) is the n-th coefficient of 1/prod(1-q^k) mod 2.  The
table is produced by Newton inversion of the pentagonal-number series f:
g -> f*g(q^2) doubles the trusted length per step, because squaring is
exponent dilation in characteristic 2.  Each step splits f on exponent
parity, f = A(q^2) + q*B(q^2), so the even coefficients of f*g(q^2) are
A*g and the odd ones B*g: two sparse products of half the output length
on the undilated g, interleaved.  The classical pentagonal XOR recurrence
holds coefficientwise and is asserted in the tests rather than used as the
engine.

The CSV rows are built in numpy: each CSV column is a uint8 block with
one cell per block column and zero bytes as padding, and the stacked
blocks are transposed and compacted into the row bytes.
"""

from __future__ import annotations

import math
import os
from typing import BinaryIO

import numpy as np

from .f2series import F2Series, mul
from .genforms import eta_product_pnt, least_shift
from .primes import is_prime, prime_array


def partition_parity(n: int) -> F2Series:
    """Parities of p(0..n-1) by inverting the pentagonal series mod 2."""
    if n < 1:
        raise ValueError("need at least one parity")
    # f = A(q^2) + q*B(q^2), so f*g(q^2) has even part A*g and odd part B*g
    pent = eta_product_pnt(n).support()
    half = (n + 1) // 2
    even = F2Series.from_support(pent[pent % 2 == 0] // 2, half)
    odd = F2Series.from_support(pent[pent % 2 == 1] // 2, half)
    g = F2Series.one(1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        bits = np.empty(prec, dtype=np.uint8)
        bits[0::2] = mul(even, g, (prec + 1) // 2).bits()
        bits[1::2] = mul(odd, g, prec // 2).bits()
        g = F2Series.from_bits(bits)
    return g


def _inverse_24(ell):
    """The least positive 24^-1 mod ell for ell prime to 6, int or int64
    array (exact below about 4e17): u*ell + 1 is a multiple of 24 for
    u = least_shift(ell, 24, -1), and u < 24."""
    return (ell * least_shift(ell, 24, -1) + 1) // 24


def delta_ell(ell: int) -> int:
    """The least positive 24^-1 mod ell, for primes ell >= 5."""
    if ell in (2, 3) or not is_prime(ell):
        raise ValueError("defined for primes >= 5 only")
    return _inverse_24(ell)


def _nth_prime_bound(count: int) -> int:
    """An upper bound on the count-th prime >= 5 (Rosser's k(ln k + ln ln k))."""
    k = count + 2  # global prime index, skipping 2 and 3
    return max(30, int(k * (math.log(k) + math.log(math.log(max(k, 3))))) + 10)


def first_primes_ge5(count: int) -> np.ndarray:
    """The first `count` primes starting from 5."""
    if count < 1:
        raise ValueError("count must be >= 1")
    guess = _nth_prime_bound(count)
    while True:
        primes = prime_array(5, guess)
        if len(primes) >= count:
            return primes[:count]
        guess *= 2


WALK_COLUMNS = ("n", "step", "sum", "sqrt_band", "two_sqrt_band")

WALK_KINDS = ("all", "delta-subseq")

# int64 steps and sums, and two int64 arrays of the same length while they
# are built (the parities widened to int64, or the primes and their deltas)
_WALK_BYTES_PER_STEP = 32


def _walk_bytes(kind: str, n: int) -> int:
    """A lower estimate of the bytes walk_arrays(kind, n) holds at once:
    the per-step arrays plus one byte per partition parity."""
    parities = n + 1 if kind == "all" else _nth_prime_bound(n)
    return _WALK_BYTES_PER_STEP * n + parities


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def walk_arrays(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps, running sums) for the walk: +1 for even parity, -1 for odd.

    kind "all" walks p(1..n); "delta-subseq" walks p(delta_ell) over the
    first n primes ell >= 5.  A walk whose estimated size exceeds physical
    memory raises MemoryError before anything is allocated.
    """
    if kind not in WALK_KINDS:
        raise ValueError(f"walk kind must be one of {WALK_KINDS}")
    need, have = _walk_bytes(kind, n), _physical_memory()
    if need > have:
        raise MemoryError(f"a walk of {n} steps needs about {need >> 20} MB, "
                          f"more than the {have >> 20} MB of physical memory")
    if kind == "all":
        par = partition_parity(n + 1).bits()[1:n + 1]
    else:
        primes = first_primes_ge5(n)
        deltas = _inverse_24(primes)
        par = partition_parity(int(deltas.max()) + 1).coeffs_at(deltas)
    steps = 1 - 2 * par.astype(np.int64)
    return steps, np.cumsum(steps)


# rows per write; the digit buffers of a chunk stay a few MB
_CHUNK = 1 << 14


def _int_block(values: np.ndarray) -> np.ndarray:
    """Each int64 value as right-aligned ASCII in one column of a uint8
    block of shape (width, len(values)), where a zero byte is padding."""
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # wraps to |v|, the int64 minimum too
    digits = len(str(int(mag.max())))
    width = digits + bool(neg.any())
    block = np.zeros((width, len(values)), dtype=np.uint8)
    for row in range(width - 1, width - 1 - digits, -1):
        q = mag // 10
        block[row] = mag - 10 * q
        block[row] += ord("0")
        if row < width - 1:  # zero is written "0"; other zeros are padding
            block[row] *= mag > 0
        mag = q
    cols = np.flatnonzero(neg)
    block[np.argmax(block[:, cols] != 0, axis=0) - 1, cols] = ord("-")
    return block


def _band_block(x: np.ndarray) -> np.ndarray:
    """Cells equal to format(v, ".3f") for non-negative floats v, as for
    _int_block."""
    scaled = x * 1000.0
    k = np.rint(scaled)
    # format rounds the exact binary value, but x*1000 is itself rounded:
    # within 1e-6 of a half (far wider than that rounding), ask format
    near = np.flatnonzero(np.abs(np.abs(scaled - k) - 0.5) < 1e-6)
    k = k.astype(np.int64)
    for i in near:
        k[i] = int(format(x[i], ".3f").replace(".", ""))
    frac = _int_block(1000 + k % 1000)  # "1ddd": the 1 becomes the point
    frac[0] = ord(".")
    return np.vstack([_int_block(k // 1000), frac])


def _row_bytes(first: int, steps: np.ndarray, sums: np.ndarray) -> bytes:
    """CSV rows n, step, sum, sqrt(n), 2*sqrt(n) for n = first, first+1, ..."""
    idx = np.arange(first, first + len(steps), dtype=np.int64)
    band = np.sqrt(idx)
    blocks = [_int_block(idx), _int_block(steps), _int_block(sums),
              _band_block(band), _band_block(2 * band)]
    parts = []
    for block, end in zip(blocks, ",,,,\n"):
        parts += [block, np.full((1, len(idx)), ord(end), dtype=np.uint8)]
    mat = np.ascontiguousarray(np.vstack(parts).T)
    return mat[mat != 0].tobytes()


def emit_walk(kind: str, n: int, out: BinaryIO) -> None:
    """Write the walk as CSV to the open binary file `out` (columns fixed:
    n, step, sum, sqrt_band, two_sqrt_band)."""
    steps, sums = walk_arrays(kind, n)
    out.write((",".join(WALK_COLUMNS) + "\n").encode())
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        out.write(_row_bytes(start + 1, steps[start:stop], sums[start:stop]))
