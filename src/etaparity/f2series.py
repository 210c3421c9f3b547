"""Truncated power series over GF(2), packed 64 bits to a word.

A series is a bit vector indexed by exponent: bit n is the coefficient of
q^n.  Every series carries an explicit ``valid_len``: only coefficients
``a_0 .. a_{valid_len-1}`` are trustworthy, and operations never extend
precision silently (shift operators like U_ell *consume* precision, so a
silent extension would corrupt every density downstream).  Bits at or
beyond ``valid_len`` are kept zero in the stored representation.

Instances are immutable after construction; all operations are pure
functions returning fresh series.  Squaring is exponent dilation
(``substitute_qk(f, 2)``); generator powers are built in ``genforms``.
The packed words are private to this module: other modules read
coefficients through ``coeffs_at`` and ``support``.

Construction never stages a byte per coefficient: ``from_support`` ORs
each exponent's bit into zeroed words.  ``every`` (coefficient extraction,
the left inverse of ``substitute_qk``) unpacks its source one span of
about ``_BLOCK`` coefficients at a time and packs the bits it keeps
straight into the result.

``mul`` is the one product kernel.  It reads the support of the sparser
operand, which unpacks only nonzero words, and XORs word-aligned slices
of the denser operand's words into the product, from one scratch copy
pre-shifted to each bit offset in turn.  The carry between words is
ORed in by blocks of ``_BLOCK // 8`` words, so a product holds the
accumulator, that one dense-length scratch copy and a 64 KB block.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

_WORD = 64

# The bytes of scratch a blocked pass holds: every unpacks about this many
# coefficients at a time, and mul ORs carries into this many bytes of words.  It is below glibc's default mmap threshold
# (128 KB), so a pass's scratch comes from the heap.
_BLOCK = 1 << 16


def _nwords(nbits: int) -> int:
    return (nbits + _WORD - 1) // _WORD


def _mask_tail(words: np.ndarray, nbits: int) -> None:
    rem = nbits & 63
    if rem and len(words):
        words[-1] &= np.uint64((1 << rem) - 1)


def _bit_offset(e: int) -> int:
    return e & 63


def _xor_shifted(dst: np.ndarray, src: np.ndarray, shift: int) -> None:
    """dst ^= (src << shift) for a shift that is a multiple of 64, truncated
    to the length of dst (src is at least as long): one slice XOR."""
    view = dst[shift >> 6:]
    view ^= src[:len(view)]


def _or_carry(dst: np.ndarray, src: np.ndarray, shift: int,
              scratch: np.ndarray) -> None:
    """dst[w] |= src[w - 1] >> shift for every word w >= 1, one scratch
    block at a time: the carry of a left shift by 64 - shift bits."""
    step = len(scratch)
    for lo in range(1, len(dst), step):
        part = scratch[:min(step, len(dst) - lo)]
        np.right_shift(src[lo - 1:lo - 1 + len(part)], shift, out=part)
        dst[lo:lo + len(part)] |= part


class F2Series:
    """A truncated q-expansion over GF(2); see the module docstring.

    Equality compares the common prefix: two series are equal when their
    first ``min(valid_len)`` coefficients agree.
    """

    __slots__ = ("_words", "valid_len")

    def __init__(self, words: np.ndarray, valid_len: int):
        # Takes ownership of `words`; use the classmethod constructors.
        if valid_len < 0:
            raise ValueError("valid_len must be nonnegative")
        self._words = words
        self.valid_len = valid_len

    @classmethod
    def zero(cls, valid_len: int) -> "F2Series":
        return cls(np.zeros(_nwords(valid_len), dtype=np.uint64), valid_len)

    @classmethod
    def one(cls, valid_len: int) -> "F2Series":
        """The constant series 1 (requires valid_len >= 1)."""
        if valid_len < 1:
            raise ValueError("constant 1 needs valid_len >= 1")
        return cls.from_support([0], valid_len)

    @classmethod
    def from_support(cls, exponents, valid_len: int) -> "F2Series":
        """Series with coefficient 1 exactly at the given exponents.

        Each exponent's bit is ORed into zeroed words, so a repeated
        exponent sets its bit once; besides the words this holds two int64
        arrays the size of the exponents (word indices and bit masks).
        """
        idx = np.asarray(exponents, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= valid_len):
            raise ValueError("exponent outside [0, valid_len)")
        words = np.zeros(_nwords(valid_len), dtype=np.uint64)
        masks = (idx & 63).view(np.uint64)
        np.left_shift(np.uint64(1), masks, out=masks)
        np.bitwise_or.at(words, idx >> 6, masks)
        return cls(words, valid_len)

    def coeff(self, n: int) -> int:
        if not 0 <= n < self.valid_len:
            raise ValueError(f"coefficient {n} outside valid range [0, {self.valid_len})")
        return int((self._words[n >> 6] >> np.uint64(n & 63)) & np.uint64(1))

    def coeffs_at(self, indices) -> np.ndarray:
        """Vectorized coefficient read; every index must be < valid_len."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.valid_len):
            raise ValueError("coefficient index outside valid range")
        byte_view = self._words.view(np.uint8)
        return (byte_view[idx >> 3] >> (idx & 7).astype(np.uint8)) & 1

    def support(self, n: int | None = None) -> np.ndarray:
        """Sorted exponents below n (default valid_len) with coefficient 1.

        Unpacks only the nonzero words: bit p of their packed stream is
        exponent p + 64*(nz[p >> 6] - (p >> 6)) for the nonzero word indices
        nz, and the last word's bits at or past n are cut.
        """
        if n is None:
            n = self.valid_len
        if n > self.valid_len:
            raise ValueError("requested bits beyond valid_len")
        words = self._words[:_nwords(n)]
        nz = words.nonzero()[0]
        packed = words[nz]
        exps = np.unpackbits(packed.view(np.uint8), bitorder="little").nonzero()[0]
        # each word's lift, repeated once per set bit of that word
        exps += np.repeat((nz - np.arange(len(nz))) << 6, np.bitwise_count(packed))
        return exps[:np.searchsorted(exps, n)]

    def support_size(self, n: int | None = None) -> int:
        """How many of the first n (default valid_len) coefficients are 1."""
        if n is None:
            n = self.valid_len
        if n > self.valid_len:
            raise ValueError("requested bits beyond valid_len")
        full, rem = n >> 6, n & 63
        count = int(np.bitwise_count(self._words[:full]).sum())
        if rem:
            count += (int(self._words[full]) & ((1 << rem) - 1)).bit_count()
        return count

    def is_zero(self) -> bool:
        return not self._words.any()

    def truncate(self, n: int) -> "F2Series":
        """Restrict to the first n coefficients; n may not exceed valid_len."""
        if n > self.valid_len:
            raise ValueError("cannot extend precision by truncation")
        w = self._words[:_nwords(n)].copy()
        _mask_tail(w, n)
        return F2Series(w, n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, F2Series):
            return NotImplemented
        n = min(self.valid_len, other.valid_len)
        full, rem = n >> 6, n & 63
        a, b = self._words, other._words
        if not np.array_equal(a[:full], b[:full]):
            return False
        if rem:
            mask = np.uint64((1 << rem) - 1)
            wa = a[full] & mask if full < len(a) else np.uint64(0)
            wb = b[full] & mask if full < len(b) else np.uint64(0)
            return bool(wa == wb)
        return True

    __hash__ = None  # prefix equality is not hash-compatible

    def __repr__(self) -> str:
        supp = self.support()
        shown = ", ".join(str(int(e)) for e in supp[:8])
        tail = ", ..." if len(supp) > 8 else ""
        return f"F2Series(valid_len={self.valid_len}, support=[{shown}{tail}])"


def add(f: F2Series, g: F2Series) -> F2Series:
    """Coefficientwise XOR; valid to min(f.valid_len, g.valid_len)."""
    n = min(f.valid_len, g.valid_len)
    nw = _nwords(n)
    w = f._words[:nw] ^ g._words[:nw]
    _mask_tail(w, n)
    return F2Series(w, n)


def mul(f: F2Series, g: F2Series, n_out: int | None = None) -> F2Series:
    """Carryless (XOR) convolution truncated to min valid length.

    XOR-shifts the words of one operand across the support of the other,
    whichever has fewer terms among the first n_out coefficients.  Every
    product in the package has a theta-type factor (support O(sqrt(N))),
    so the shift count stays near sqrt(n).  The sparse exponents are
    grouped by bit offset b = e & 63.  For each offset that occurs, one
    scratch copy of the dense words is shifted left by b bits, the carry
    from the word below is ORed in block by block (``_or_carry``), and
    each exponent of the group XORs that copy in at word offset
    (e - b) / 64: at most 64 shift passes and one word-aligned slice XOR
    per exponent.  XOR is order-free, so the grouping leaves the bits
    unchanged.
    """
    n = min(f.valid_len, g.valid_len)
    if n_out is not None:
        n = min(n, n_out)
    if n <= 0:
        return F2Series.zero(max(n, 0))
    sparse, dense = (f, g) if f.support_size(n) <= g.support_size(n) else (g, f)
    acc = np.zeros(_nwords(n), dtype=np.uint64)
    dwords = dense._words[:_nwords(n)]
    shifted = np.empty_like(dwords)
    carry = np.empty(min(len(dwords), _BLOCK // 8), dtype=np.uint64)
    exps = sorted(sparse.support(n).tolist(), key=_bit_offset)
    for b, group in groupby(exps, key=_bit_offset):
        np.left_shift(dwords, b, out=shifted)
        if b:
            _or_carry(shifted, dwords, 64 - b, carry)
        for e in group:
            _xor_shifted(acc, shifted, e - b)
    # bits of dense at or past n land at or past n, and only here are cut
    _mask_tail(acc, n)
    return F2Series(acc, n)


def substitute_qk(f: F2Series, k: int, n_out: int | None = None) -> F2Series:
    """Exponent dilation n -> k*n; valid to k*valid_len, capped at n_out."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    n = k * f.valid_len if n_out is None else min(k * f.valid_len, n_out)
    if k == 1:
        return f.truncate(n)
    # the exponents below ceil(n / k) are the ones that land below n
    return F2Series.from_support(f.support(-(-n // k)) * k, n)


def every(f: F2Series, k: int, n: int) -> F2Series:
    """Coefficient extraction: a_i(result) = a_(k*i)(f) for 0 <= i < n,
    valid to n, where k*(n - 1) < f.valid_len.

    Each pass unpacks the source bytes that span a run of result
    coefficients, a multiple of 8 of them with about _BLOCK source
    coefficients between the first and the last (8 for k > _BLOCK / 8),
    and packs every k-th into whole bytes of the result.
    """
    if k < 1 or n < 0 or k * (n - 1) >= f.valid_len:
        raise ValueError(f"a_(k*i) for k = {k} and i < {n} is not all "
                         f"below valid_len {f.valid_len}")
    words = np.zeros(_nwords(n), dtype=np.uint64)
    dest = words.view(np.uint8)
    src = f._words.view(np.uint8)
    run = max(8, _BLOCK // k & -8)
    for lo in range(0, n, run):
        hi = min(lo + run, n)
        first, last = k * lo, k * (hi - 1)
        bits = np.unpackbits(src[first >> 3:(last >> 3) + 1], bitorder="little")
        # packbits is several times faster on a contiguous copy
        kept = bits[first & 7::k][:hi - lo].copy()
        dest[lo >> 3:(hi + 7) >> 3] = np.packbits(kept, bitorder="little")
        del bits, kept  # not held beside the next pass's bits
    return F2Series(words, n)
