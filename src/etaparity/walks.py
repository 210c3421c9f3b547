"""Partition parity, the 24-inverse subsequence, and random-walk CSV output.

The parity of p(n) is the n-th coefficient of 1/prod(1-q^k) mod 2, the
inverse of the pentagonal-number series pnt.  Squaring is exponent
dilation in characteristic 2, so the inverse is a product of dilated
copies of pnt, pnt(q^k) for k = 1, 2, 4, ... below n: one sparse product
per doubling of k, each factor built from the pentagonal exponents alone.
The classical pentagonal XOR recurrence holds coefficientwise and is
asserted in the tests rather than used as the engine.

The walk is streamed: the packed parity table is built once, and each
chunk's steps and running sums are read from it, the sum carried over
from the chunks before, so no array of one entry per step is ever held.
The 24-inverse walk reads its primes as the blocks of
``primes.prime_blocks``: it finds its n-th prime by counting blocks, then
takes delta_ell of one chunk of a block at a time, so it holds the prime
table's byte per prime and no int64 per prime.
The CSV rows are built in numpy, one chunk at a time, as a row-major
uint8 matrix with one CSV row per matrix row.  Each cell is gathered from
lookup tables of ASCII digit groups, four digits to a uint32 lane, so a
cell costs one divide per four digits rather than one per digit.  Zero
bytes pad the cells, and one compaction per chunk drops them.  Every
chunk lays its matrix out in the same bytearray and its other arrays
stay small, so the write loop runs on heap pages it has already touched,
whatever earlier allocations did to malloc's mmap threshold.
"""

from __future__ import annotations

import functools
import math
from typing import BinaryIO

import numpy as np

from .f2series import F2Series, mul
from .genforms import eta_product_pnt, least_shift
from .primes import prime_blocks, require_memory


def partition_parity(n: int) -> F2Series:
    """Parities of p(0..n-1): 1/pnt mod 2 as a product of Frobenius images.

    Mod 2, pnt^(2^K) = pnt(q^(2^K)) = 1 + O(q^(2^K)), so once 2^K >= n,
    1/pnt = pnt^(2^K - 1) = prod_{i<K} pnt(q^(2^i)) mod q^n.  Each factor
    past the first is the pentagonal support dilated by k = 2^i.
    """
    if n < 1:
        raise ValueError("need at least one parity")
    g = eta_product_pnt(n)
    pent = g.support()
    k = 2
    while k < n:
        g = mul(g, F2Series.from_support(k * pent[k * pent < n], n), n)
        k *= 2
    return g


def delta_ell(ell):
    """The least positive 24^-1 mod ell for ell prime to 6, an int or an
    int64 array (exact below about 4e17): u*ell + 1 is a multiple of 24 for
    u = least_shift(ell, 24, -1), and u < 24."""
    return (ell * least_shift(ell, 24, -1) + 1) // 24


def _nth_prime_bound(count: int) -> int:
    """An upper bound on the count-th prime >= 5 (Rosser's k(ln k + ln ln k))."""
    k = count + 2  # global prime index, skipping 2 and 3
    return max(30, int(k * (math.log(k) + math.log(math.log(max(k, 3))))) + 10)


def _nth_prime_ge5(count: int) -> int:
    """The count-th prime >= 5, found by counting the prime blocks below
    _nth_prime_bound(count)."""
    for block in prime_blocks(5, _nth_prime_bound(count)):
        if count <= len(block):
            return int(block[count - 1])
        count -= len(block)
    raise AssertionError("Rosser's bound lies above the count-th prime")


WALK_COLUMNS = ("n", "step", "sum", "sqrt_band", "two_sqrt_band")

WALK_KINDS = ("all", "delta-subseq")

# Rows per write.  A chunk's int64 arrays take 32 KB each, below glibc's
# default mmap threshold (128 KB), and the row matrix is laid out in one
# bytearray that every chunk reuses, so each chunk runs on heap pages the
# chunk before touched.  From about 7 000 rows on, a walk to 10^6 faults
# its pages in again on every chunk (16 500 minor faults instead of 4 700).
_CHUNK = 1 << 12

# Bytes a chunk row holds at once, at least: its row of the CSV matrix (35
# for the narrowest row) beside its int64 step, sum and index and its
# float64 band
_CHUNK_BYTES_PER_ROW = 64


def _walk_bytes(kind: str, n: int) -> int:
    """A lower estimate of the bytes emit_walk(kind, n) holds at once.

    Building the parity table holds four packed series of one bit per
    parity at once: the product so far, the dilated pentagonal factor, and
    the accumulator and shifted copy of their product.  Writing holds the
    packed table and one chunk's rows.  "delta-subseq" holds the prime
    table throughout, one byte for each of more than n primes, and its
    parity table reaches the n-th prime >= 5, which exceeds
    (n + 2) ln(n + 2) (Rosser).
    """
    if kind == "all":
        parities, primes = n + 1, 0
    else:
        parities, primes = int((n + 2) * math.log(n + 2)), n
    chunk = _CHUNK_BYTES_PER_ROW * min(n, _CHUNK)
    return primes + max(parities // 2, parities // 8 + chunk)


# one uint32 lane holds four ASCII digits
_GROUP = 10_000


@functools.cache
def _lane_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ASCII lookup tables of uint32 lanes, built on first use.

    ``units[g]`` for g < 10^4 is g right-aligned in zero bytes ("0" for
    0), and ``units[10^4 + g]`` is g padded with "0" to four digits;
    ``high`` is ``units`` except that its 0 is all zero bytes.  ``point[f]``
    is "." and f padded to three digits, for f < 1000.
    """
    g = np.arange(_GROUP, dtype=np.uint16)[:, None]
    power = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (g // power % 10 + ord("0")).astype(np.uint8)
    unpadded = padded * (g >= power)
    unpadded[0, -1] = ord("0")
    units = np.concatenate([unpadded, padded]).view(np.uint32).ravel()
    high = units.copy()
    high[0] = 0
    point = padded[:1000].copy()
    point[:, 0] = ord(".")
    tables = units, high, point.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _digit_lanes(mag: np.ndarray) -> list[np.ndarray]:
    """The decimal digits of the non-negative ints mag as uint32 lanes,
    most significant first: one lane per four digits of mag.max().

    A lane takes group q_j = mag // 10^(4j) from the padded half of its
    table while q_j >= 10^4 (a digit stands to its left), else the
    unpadded half: the index is min(q_j, 10^4 + q_j % 10^4).
    """
    units, high, _ = _lane_tables()
    top = int(mag.max())
    lanes, table, q = [], units, mag
    while top >= _GROUP:
        above = q // _GROUP
        index = q - _GROUP * above
        index += _GROUP
        np.minimum(index, q, out=index)
        lanes.append(table[index])
        table, q, top = high, above, top // _GROUP
    lanes.append(table[q])
    return lanes[::-1]


_MINUS, _COMMA, _NEWLINE = (np.uint8(ord(c)) for c in "-,\n")


def _int_cell(values: np.ndarray) -> list[np.ndarray]:
    """Row pieces equal to str(v) for int64 values: a sign byte ("-" or
    zero) and the digit lanes of |v|."""
    # abs wraps the int64 minimum onto itself; as uint64 it reads 2^63
    mag = np.abs(values).view(np.uint64)
    return [(values < 0).view(np.uint8) * _MINUS, *_digit_lanes(mag)]


def _band_cell(x: np.ndarray) -> list[np.ndarray]:
    """Row pieces equal to format(v, ".3f") for non-negative floats v: the
    digit lanes of the whole part and one ".ddd" lane."""
    scaled = x * 1000.0
    k = np.rint(scaled)
    # format rounds the exact binary value, but x*1000 is itself rounded:
    # within 1e-6 of a half (far wider than that rounding), ask format
    near = np.flatnonzero(np.abs(np.abs(scaled - k) - 0.5) < 1e-6)
    k = k.astype(np.int64)
    for i in near:
        k[i] = int(format(x[i], ".3f").replace(".", ""))
    whole = k // 1000
    k -= 1000 * whole  # now the thousandths
    _, _, point = _lane_tables()
    return [*_digit_lanes(whole), point[k]]


def _rows(pieces: list, count: int, buf: bytearray) -> np.ndarray:
    """The (count, width) uint8 matrix whose rows lay the pieces side by
    side: each piece is one value per row (an array of count) or one for
    every row (a scalar).  Zero bytes are padding.

    The matrix is the first count * width bytes of buf: buf grows to hold
    them, and its bytes past them are zeroed, so they compact away."""
    width = sum(piece.itemsize for piece in pieces)
    size = count * width
    if len(buf) < size:
        buf += bytes(size - len(buf))
    flat = np.frombuffer(buf, dtype=np.uint8)
    flat[size:] = 0
    rows = flat[:size].reshape(count, width)
    at = 0
    for piece in pieces:
        np.ndarray(count, piece.dtype, rows, at, (width,))[...] = piece
        at += piece.itemsize
    return rows


def _row_bytes(first: int, steps: np.ndarray, sums: np.ndarray,
               buf: bytearray) -> bytearray:
    """CSV rows n, step, sum, sqrt(n), 2*sqrt(n) for n = first, first+1, ...

    The row matrix is laid out in buf, which the caller passes again for
    the next rows."""
    idx = np.arange(first, first + len(steps), dtype=np.int64)
    band = np.sqrt(idx)
    pieces = [*_digit_lanes(idx), _COMMA, *_int_cell(steps), _COMMA,
              *_int_cell(sums), _COMMA, *_band_cell(band), _COMMA,
              *_band_cell(2 * band), _NEWLINE]
    _rows(pieces, len(idx), buf)
    return buf.translate(None, b"\0")


def emit_walk(kind: str, n: int, out: BinaryIO) -> None:
    """Write the walk as CSV to the open binary file `out` (columns fixed:
    n, step, sum, sqrt_band, two_sqrt_band), one chunk of rows at a time.

    A step is +1 for even parity and -1 for odd.  Kind "all" walks
    p(1..n); "delta-subseq" walks p(delta_ell) over the first n primes
    ell >= 5.  A walk whose estimated size exceeds physical memory raises
    MemoryError before anything is allocated.
    """
    if kind not in WALK_KINDS:
        raise ValueError(f"walk kind must be one of {WALK_KINDS}")
    require_memory(_walk_bytes(kind, n), f"a walk of {n} steps needs about")
    if kind == "all":
        table = partition_parity(n + 1)
        chunks = (np.arange(start + 1, min(start + _CHUNK, n) + 1, dtype=np.int64)
                  for start in range(0, n, _CHUNK))
    else:
        last = _nth_prime_ge5(n)
        # delta_ell(ell) < ell, since least_shift(ell, 24, -1) <= 23
        table = partition_parity(last)
        chunks = (delta_ell(block[lo:lo + _CHUNK])
                  for block in prime_blocks(5, last)
                  for lo in range(0, len(block), _CHUNK))
    out.write((",".join(WALK_COLUMNS) + "\n").encode())
    first = 1
    total = 0
    buf = bytearray()
    for at in chunks:
        steps = 1 - 2 * table.coeffs_at(at).astype(np.int64)
        sums = np.cumsum(steps)
        sums += total
        total = int(sums[-1])
        out.write(_row_bytes(first, steps, sums, buf))
        first += len(at)
