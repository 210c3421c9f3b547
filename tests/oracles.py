"""Independent slow-but-obvious reference computations for the tests.

Everything here works on Python ints as GF(2) polynomials (bit i = the
coefficient of q^i) or on plain integer arithmetic, deliberately avoiding
the packed numpy engine under test.  The exceptions are the full-q
generator powers and the scans over them: square-and-multiply in q, built
here from the package's ``mul`` and ``substitute_qk`` only, against which
the package's generator-power engine (h^e in the compressed variable, a
Frobenius product over the bits of e) is checked bit for bit, and the
re-expression of a series in generator powers (``to_genpoly``), against
which the Hecke rows of ``level1`` are checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def mask_from_support(exponents) -> int:
    m = 0
    for e in exponents:
        m ^= 1 << e
    return m


def mask_to_bits(mask: int, n: int) -> np.ndarray:
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=np.uint8)


def conv_mod2(bits_f, bits_g, n: int) -> np.ndarray:
    """GF(2) product by integer convolution."""
    a = np.asarray(bits_f, dtype=np.int64)
    b = np.asarray(bits_g, dtype=np.int64)
    full = np.convolve(a, b)[:n]
    out = np.zeros(n, dtype=np.uint8)
    out[:len(full)] = full % 2
    return out


def naive_eta_product_mask(n: int) -> int:
    """prod_{k>=1} (1 - q^k) mod 2 by multiplying factors one by one."""
    mask = (1 << n) - 1
    f = 1
    for k in range(1, n):
        f = (f ^ (f << k)) & mask
    return f


def naive_series_inverse_bits(bits_a, n: int) -> np.ndarray:
    """1/a mod q^n over GF(2) by the quadratic recurrence (a_0 must be 1)."""
    a = list(bits_a[:n])
    assert a[0] == 1
    b = [0] * n
    b[0] = 1
    for m in range(1, n):
        acc = 0
        for k in range(1, m + 1):
            if a[k]:
                acc ^= b[m - k]
        b[m] = acc
    return np.array(b, dtype=np.uint8)


def exact_partitions(n: int) -> list[int]:
    """p(0..n) by the coin-counting dynamic program (exact big integers)."""
    table = [0] * (n + 1)
    table[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table


def series_bits(f, n: int | None = None) -> np.ndarray:
    """The first n (default valid_len) coefficients of the series f as a
    0/1 uint8 array, read through its public coefficient reads."""
    return f.coeffs_at(np.arange(f.valid_len if n is None else n))


def series_from_bits(bits, valid_len: int | None = None):
    """The series whose coefficient n is bits[n] & 1, for n < valid_len
    (default len(bits)), built from its support."""
    from etaparity.f2series import F2Series
    bits = np.asarray(bits)
    n = len(bits) if valid_len is None else valid_len
    return F2Series.from_support(np.flatnonzero(bits[:n] & 1), n)


def eta_density(r: int, prime_bound: int):
    """(direct, formula) parity densities of P_r: the batch of one."""
    from etaparity.density import eta_densities
    return eta_densities([r], prime_bound)[0]


def prime_array(lo: int, hi: int) -> np.ndarray:
    """The primes p with lo <= p <= hi, ascending, as one read-only int64
    array: the blocks of primes.prime_blocks(lo, hi) concatenated."""
    from etaparity.primes import prime_blocks
    primes = np.concatenate([np.zeros(0, dtype=np.int64), *prime_blocks(lo, hi)])
    primes.flags.writeable = False
    return primes


def trial_division_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))]


def first_primes_ge5(count: int) -> np.ndarray:
    """The first `count` primes starting from 5, one slice of the primes
    below walks._nth_prime_bound(count): Rosser's p_k < k(ln k + ln ln k)
    holds for k >= 6, and the floor of 30 covers the first three."""
    from etaparity.walks import _nth_prime_bound
    if count < 1:
        raise ValueError("count must be >= 1")
    return prime_array(5, _nth_prime_bound(count))[:count]


@dataclass(frozen=True)
class SubseqIndex:
    """The shift data for one prime: ell*mu ≡ b_r (mod m_r) with
    b_r/ell <= mu < b_r/ell + m_r, and delta = (ell*mu - b_r)/m_r."""

    ell: int
    r: int
    mu: int
    delta: int


def mu_delta(ell: int, r: int) -> SubseqIndex:
    """Order at infinity mu and coefficient index delta of the ell-shift of P_r,
    one prime at a time (the scalar reference for the index at which
    ``density.eta_densities`` reads pnt^r)."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    if ell < 5 or any(ell % d == 0 for d in range(2, math.isqrt(ell) + 1)):
        raise ValueError("shift prime must be a prime >= 5")
    m, b = 24 // math.gcd(24, r), r // math.gcd(24, r)
    mu0 = 0 if m == 1 else (b * pow(ell % m, -1, m)) % m
    k = -((mu0 * ell - b) // (ell * m))
    mu = mu0 + m * k
    delta, rem = divmod(ell * mu - b, m)
    assert rem == 0 and delta >= 0 and b <= mu * ell < b + ell * m
    return SubseqIndex(ell, r, mu, delta)


def delta_ell_from_window(ell: int) -> int:
    """delta_ell recovered from the shift-window convention with (m, b) = (24, -1).

    mu solves ell*mu ≡ -1 (mod 24) in the window [-1/ell, -1/ell + 24);
    the index (ell*mu + 1)/24 equals 24^-1 mod ell.
    """
    if ell < 5 or any(ell % d == 0 for d in range(2, math.isqrt(ell) + 1)):
        raise ValueError("defined for primes >= 5 only")
    mu = (-pow(ell, -1, 24)) % 24
    return (ell * mu + 1) // 24


def chebyshev_mod2(n: int, deg_max: int) -> int:
    """Coefficients of S̄_n up to degree deg_max, packed bit i = [x^i], by
    the recurrence S_n = x*S_{n-1} - S_{n-2} from S_0 = 2, S_1 = x.

    Truncation during the recurrence is safe: multiplication by x only
    moves coefficients up, never down.
    """
    if n < 0 or deg_max < 0:
        raise ValueError("n and deg_max must be nonnegative")
    if n == 0:
        return 0  # S_0 = 2
    mask = (1 << (deg_max + 1)) - 1
    prev2, cur = 0, 0b10 & mask  # S̄_0, S̄_1
    for _ in range(2, n + 1):
        prev2, cur = cur, ((cur << 1) & mask) ^ prev2
    return cur


def to_genpoly(f, level: int, max_degree: int):
    """Re-express a series as a generator polynomial of degree <= max_degree.

    Greedy elimination by lowest-order term: g^e starts at q^e, so the
    lowest nonzero index of the residual is the next exponent.  The series
    must carry at least 2*(max_degree+1) coefficients, so that the residual
    is checked on as many coefficients past the degree bound as below it:
    a residual starting above max_degree is a ValueError, never a longer
    polynomial.  A zero residual on every coefficient certifies the result.
    This is the q-series route against which the rows of
    ``level1.hecke_on_genpoly`` are checked.
    """
    from etaparity.f2series import add
    from etaparity.genforms import power_in_q
    from etaparity.level1 import _LEVEL_GENERATOR, LEVELS, GenPoly
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    if f.valid_len < 2 * (max_degree + 1):
        raise ValueError("series too short to certify a re-expression to this degree")
    gen = _LEVEL_GENERATOR[level]
    residual = f
    exponents = []
    while not residual.is_zero():
        # the lowest term, unpacked only up to the degree bound
        head = residual.support(max_degree + 1)
        if not len(head):
            raise ValueError(
                f"not a generator polynomial of degree <= {max_degree} at this "
                f"precision: residual starts at q^{int(residual.support()[0])}")
        e = int(head[0])
        exponents.append(e)
        residual = add(residual, power_in_q(gen, e, f.valid_len))
    return GenPoly(level, frozenset(exponents))


def odd_square_triple_parity(n_max: int) -> set[int]:
    """Exponents below n_max hit by an odd number of ordered triples of odd squares."""
    squares = [k * k for k in range(1, math.isqrt(n_max) + 1, 2)]
    counts = {}
    for a in squares:
        for b in squares:
            if a + b >= n_max:
                break
            for c in squares:
                s = a + b + c
                if s >= n_max:
                    break
                counts[s] = counts.get(s, 0) + 1
    return {s for s, c in counts.items() if c % 2}


def binom_parity(n: int, k: int) -> int:
    return math.comb(n, k) % 2


def binom_v2(n: int, k: int) -> int:
    c = math.comb(n, k)
    return (c & -c).bit_length() - 1 if c else -1


def square_and_multiply(f, e: int, n: int):
    """f**e to n coefficients by square-and-multiply in q (Frobenius squaring)."""
    from etaparity.f2series import F2Series, mul, substitute_qk
    if e == 0:
        return F2Series.one(n)
    base = f.truncate(min(n, f.valid_len))
    acc = base
    for bit in bin(e)[3:]:
        acc = substitute_qk(acc, 2, n)
        if bit == "1":
            acc = mul(acc, base, n)
    return acc


def q_domain_eta_power(r: int, n: int):
    """P_r to n coefficients as delta^(b_r) (3 | r) or C^(b_r), computed in q.

    This is the independent delta/C reduction of P_r = q^(b_r) pnt^r(q^(m_r)):
    the package builds P_r from pnt alone and never takes this route."""
    from etaparity.genforms import c_series, delta_series
    b = r // math.gcd(24, r)
    return square_and_multiply(delta_series(n) if r % 3 == 0 else c_series(n), b, n)


def odd_coeff_density_shifted(f, p: int, prime_bound: int):
    """Density of primes 5 <= ell <= prime_bound with a_{p*ell}(f) = 1.

    For p an odd prime this estimates the coefficient density of T_p f
    without applying the operator (the a_{ell/p} half of T_p vanishes for
    prime ell != p); p = 2 gives the U_2 route.
    """
    from etaparity.density import DensityEstimate, PrecisionError
    if f.valid_len <= p * prime_bound:
        raise PrecisionError(
            f"series valid to {f.valid_len} cannot be scanned to {p}*{prime_bound}")
    primes = prime_array(5, prime_bound)
    hits = int(f.coeffs_at(p * primes).sum())
    return DensityEstimate.from_counts(hits, len(primes))


def q_domain_route_hits(r: int, primes: list[int], prime_bound: int) -> tuple[int, int]:
    """(direct, formula) hit counts over the given primes, read from the full-q P_r.

    Direct reads a_{ell*mu} with mu the value in [b_r/ell, b_r/ell + m_r)
    where ell*mu ≡ b_r (mod m_r); formula reads a_{u*ell} for every shift u,
    the least positive u with u*c ≡ b_r (mod m_r) over the units c mod m_r.
    """
    m, b = 24 // math.gcd(24, r), r // math.gcd(24, r)
    series = q_domain_eta_power(r, b + m * prime_bound + 1)
    primes = np.array(primes, dtype=np.int64)
    nu = np.zeros_like(primes)
    first = -(-b // primes)
    for t in range(m):
        mu = first + t
        nu = np.where((nu == 0) & ((primes * mu - b) % m == 0), primes * mu, nu)
    direct = int(series.coeffs_at(nu).sum())
    shifts = {next(u for u in range(1, m + 1) if (u * c - b) % m == 0)
              for c in range(m) if math.gcd(c, m) == 1}
    formula = sum(int(series.coeffs_at(u * primes).sum()) for u in shifts)
    return direct, formula


def eta_density_one_at_a_time(r: int, prime_bound: int) -> tuple[int, int, int]:
    """(direct hits, formula hits, samples) of P_r to prime_bound, one r at
    a time: the bit of pnt^r at k = ((u*ell - b_r)/m_r) mod ell for each
    prime ell >= 5, counted at every ell (direct) and where u*ell >= b_r
    (formula), one block of primes at a time.  The reference for
    ``density.eta_densities``, which scans a batch of r in one pass."""
    from etaparity.genforms import EtaPowerParams, least_shift, pnt_power_bits
    from etaparity.primes import prime_blocks
    params = EtaPowerParams.for_power(r)
    m, b = params.m_r, params.b_r
    direct = formula = samples = 0
    for ell in prime_blocks(5, prime_bound):
        k = least_shift(ell, m, b) * ell - b
        head = int(np.searchsorted(ell, b))
        below = k[:head] < 0
        k //= m
        k[:head] %= ell[:head]
        bits = pnt_power_bits(r, k, prime_bound + 1)
        direct += int(bits.sum())
        formula += int(bits.sum()) - int(bits[:head][below].sum())
        samples += len(ell)
    return direct, formula, samples


def walk_arrays(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps, running sums) of the walk as whole int64 arrays: +1 for even
    parity, -1 for odd, over p(1..n) ("all") or p(delta_ell) for the first
    n primes ell >= 5 ("delta-subseq"), read from a table that ends at the
    largest delta_ell."""
    from etaparity.walks import delta_ell, partition_parity
    if kind == "all":
        par = series_bits(partition_parity(n + 1))[1:n + 1]
    else:
        deltas = delta_ell(first_primes_ge5(n))
        par = partition_parity(int(deltas.max()) + 1).coeffs_at(deltas)
    steps = 1 - 2 * par.astype(np.int64)
    return steps, np.cumsum(steps)


def walk_rows_reference(first, steps, sums) -> bytes:
    """Walk CSV rows for n = first, first+1, ..., one f-string per row."""
    rows = []
    for i, (s, c) in enumerate(zip(steps, sums), start=first):
        b = math.sqrt(i)
        rows.append(f"{i},{int(s)},{int(c)},{b:.3f},{2 * b:.3f}\n")
    return "".join(rows).encode()


def walk_csv_reference(steps, sums) -> bytes:
    """The walk CSV written one f-string per row, the format's definition."""
    return b"n,step,sum,sqrt_band,two_sqrt_band\n" + walk_rows_reference(1, steps, sums)
