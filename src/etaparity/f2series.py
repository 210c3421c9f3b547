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
"""

from __future__ import annotations

import numpy as np

_WORD = 64


def _nwords(nbits: int) -> int:
    return (nbits + _WORD - 1) // _WORD


def _mask_tail(words: np.ndarray, nbits: int) -> None:
    rem = nbits & 63
    if rem and len(words):
        words[-1] &= np.uint64((1 << rem) - 1)


def _pack(bits: np.ndarray) -> np.ndarray:
    """0/1 uint8 array -> uint64 words, bit n of the stream = bits[n]."""
    nw = _nwords(len(bits))
    packed = np.packbits(bits, bitorder="little")
    buf = np.zeros(nw * 8, dtype=np.uint8)
    buf[: len(packed)] = packed
    return buf.view(np.uint64)


def _xor_shifted(dst: np.ndarray, src: np.ndarray, shift: int) -> None:
    """dst ^= (src << shift), truncated to the length of dst."""
    w, b = shift >> 6, shift & 63
    n = len(dst)
    if w >= n:
        return
    take = min(len(src), n - w)
    if take <= 0:
        return
    head = src[:take]
    if b == 0:
        dst[w:w + take] ^= head
        return
    dst[w:w + take] ^= head << np.uint64(b)
    spill = min(take, n - w - 1)
    if spill > 0:
        dst[w + 1:w + 1 + spill] ^= (head >> np.uint64(64 - b))[:spill]


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
        """Series with coefficient 1 exactly at the given exponents."""
        idx = np.asarray(exponents, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= valid_len):
            raise ValueError("exponent outside [0, valid_len)")
        bits = np.zeros(valid_len, dtype=np.uint8)
        bits[idx] = 1
        return cls(_pack(bits), valid_len)

    @classmethod
    def from_bits(cls, bits: np.ndarray, valid_len: int | None = None) -> "F2Series":
        bits = np.asarray(bits, dtype=np.uint8) & 1
        if valid_len is None:
            valid_len = len(bits)
        if len(bits) < valid_len:
            raise ValueError("fewer bits than valid_len")
        return cls(_pack(bits[:valid_len]), valid_len)

    @property
    def words(self) -> np.ndarray:
        """Backing uint64 words (do not mutate)."""
        return self._words

    def bits(self, n: int | None = None) -> np.ndarray:
        """First n (default valid_len) coefficients as a 0/1 uint8 array."""
        if n is None:
            n = self.valid_len
        if n > self.valid_len:
            raise ValueError("requested bits beyond valid_len")
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(self._words.view(np.uint8), count=n, bitorder="little")

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
        """Sorted exponents below n (default valid_len) with coefficient 1."""
        return np.nonzero(self.bits(n))[0].astype(np.int64)

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
    so the shift count stays near sqrt(n).
    """
    n = min(f.valid_len, g.valid_len)
    if n_out is not None:
        n = min(n, n_out)
    if n <= 0:
        return F2Series.zero(max(n, 0))
    sparse, dense = (f, g) if f.support_size(n) <= g.support_size(n) else (g, f)
    acc = np.zeros(_nwords(n), dtype=np.uint64)
    dwords = dense._words[:_nwords(n)]
    for e in sparse.support(n):
        _xor_shifted(acc, dwords, int(e))
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
    idx = f.support() * k
    return F2Series.from_support(idx[idx < n], n)
