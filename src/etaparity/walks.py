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
import os
from typing import BinaryIO

import numpy as np

from .f2series import F2Series, mul, substitute_qk
from .genforms import eta_product_pnt
from .primes import is_prime, prime_array


def partition_parity(n: int) -> F2Series:
    """Parities of p(0..n-1) by inverting the pentagonal series mod 2."""
    if n < 1:
        raise ValueError("need at least one parity")
    f = eta_product_pnt(n)
    g = F2Series.one(1)
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        g = mul(f, substitute_qk(g, 2, prec), prec)
    return g


def delta_ell(ell: int) -> int:
    """The least positive 24^-1 mod ell, for primes ell >= 5."""
    if ell in (2, 3) or not is_prime(ell):
        raise ValueError("defined for primes >= 5 only")
    return pow(24, -1, ell)


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
        deltas = np.array([pow(24, -1, int(p)) for p in primes], dtype=np.int64)
        par = partition_parity(int(deltas.max()) + 1).coeffs_at(deltas)
    steps = 1 - 2 * par.astype(np.int64)
    return steps, np.cumsum(steps)


# rows per write; the digit buffers of a chunk stay a few MB
_CHUNK = 1 << 14


def _int_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each int64 value as right-aligned ASCII in one row of a uint8 matrix,
    with the mask of the characters that are not left padding."""
    neg = values < 0
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # wraps to |v|, the int64 minimum too
    width = len(str(int(mag.max())))
    chars = np.empty((len(values), width + 1), dtype=np.uint8)
    keep = np.zeros(chars.shape, dtype=bool)
    for col in range(width, 0, -1):
        keep[:, col] = mag > 0
        chars[:, col] = mag % 10
        mag //= 10
    chars += ord("0")
    keep[:, width] = True  # zero is written "0"
    rows = np.flatnonzero(neg)
    sign = width - keep[rows].sum(axis=1)
    chars[rows, sign] = ord("-")
    keep[rows, sign] = True
    return chars, keep


def _band_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells equal to format(v, ".3f") for non-negative floats v, as for
    _int_cells."""
    scaled = x * 1000.0
    k = np.rint(scaled)
    # format rounds the exact binary value, but x*1000 is itself rounded:
    # within 1e-6 of a half (far wider than that rounding), ask format
    near = np.flatnonzero(np.abs(np.abs(scaled - k) - 0.5) < 1e-6)
    k = k.astype(np.int64)
    for i in near:
        k[i] = int(format(x[i], ".3f").replace(".", ""))
    whole, keep = _int_cells(k // 1000)
    frac = k % 1000
    tail = np.empty((len(k), 4), dtype=np.uint8)
    tail[:, 0] = ord(".")
    tail[:, 1] = frac // 100
    tail[:, 2] = frac // 10 % 10
    tail[:, 3] = frac % 10
    tail[:, 1:] += ord("0")
    return (np.hstack([whole, tail]),
            np.hstack([keep, np.ones(tail.shape, dtype=bool)]))


def _row_bytes(first: int, steps: np.ndarray, sums: np.ndarray) -> bytes:
    """CSV rows n, step, sum, sqrt(n), 2*sqrt(n) for n = first, first+1, ..."""
    idx = np.arange(first, first + len(steps), dtype=np.int64)
    band = np.sqrt(idx)
    cells = [_int_cells(idx), _int_cells(steps), _int_cells(sums),
             _band_cells(band), _band_cells(2 * band)]
    ones = np.ones((len(idx), 1), dtype=bool)
    chars, keep = [], []
    for (c, k), end in zip(cells, ",,,,\n"):
        chars += [c, np.full((len(idx), 1), ord(end), dtype=np.uint8)]
        keep += [k, ones]
    return np.hstack(chars)[np.hstack(keep)].tobytes()


def emit_walk(kind: str, n: int, out: BinaryIO) -> None:
    """Write the walk as CSV to the open binary file `out` (columns fixed:
    n, step, sum, sqrt_band, two_sqrt_band)."""
    steps, sums = walk_arrays(kind, n)
    out.write((",".join(WALK_COLUMNS) + "\n").encode())
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        out.write(_row_bytes(start + 1, steps[start:stop], sums[start:stop]))
