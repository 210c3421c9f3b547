"""Output checks for the benchmark, computed without the package under test.

Every reference value here comes from the benchmark's own arithmetic:
a numpy prime sieve, Python integers used as GF(2) polynomials (bit i is
the coefficient of x^i), and a literal table of the proven densities.
Nothing is imported from ``etaparity``.

The eta-power reference uses the Frobenius identity in characteristic 2.
With m = m_r and b = b_r,

    P_r = q^b * prod_{n>=1} (1 - q^(m n))^r
        = q^b * prod_{i in bits(r)} pnt(q^(m 2^i))   (mod 2),

where pnt(x) = prod (1 - x^k) = sum over generalized pentagonal numbers.
So P_r = q^b * Q(q^m) and the bit of P_r at exponent b + m k is bit k of
Q, which needs only prime_bound + 1 bits rather than m * prime_bound.
Likewise 1/pnt = prod_{i<K} pnt(q^(2^i)) mod q^n once 2^K >= n gives the
partition parities.

Each checker returns one ``OpResult`` per operation; an operation passes
only when every check on it passes, and a checker that finds nothing to
check reports a failed operation instead of passing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import (DEEP_BOUND, DEEP_R, SUITE_NAMES, TABLE_BOUND, TABLE_R,
                       WALKS)

DENSITY_COLUMNS = ("r", "m_r", "b_r", "prime_bound", "samples", "hits",
                   "value", "nearest_dyadic", "residual", "exact", "route")
WALK_HEADER = "n,step,sum,sqrt_band,two_sqrt_band"

TOLERANCE_FLOOR = 0.02
SIGMA_FACTOR = 4.0
ROUTE_TOLERANCE = 0.02
BOUND_EXCEPTIONS = frozenset({36, 60, 72, 120})

# The 51 proven parity densities for r <= 132, from the paper:
# * vanishing: r divides, or is a multiple of, 32 or 48;
# * dihedral: r = a*z_n, a*3*z_n, a*w_n for a in {3, 6, 12, 24}, with
#   z_n = 3, 11, 43 and w_n = 5, 17, 65, valued by binary digit statistics;
# * abelian: r = a*s (a | 8, s in {5, 7, 13}) at 1/8, and the multiples of
#   the abelian delta powers delta^7, delta^19, delta^21.
PROVEN_DENSITY: dict[int, Fraction] = {
    r: Fraction(v) for r, v in {
        # vanishing
        1: "0", 2: "0", 3: "0", 4: "0", 6: "0", 8: "0", 12: "0", 16: "0",
        24: "0", 32: "0", 48: "0", 64: "0", 96: "0", 128: "0",
        # dihedral, Q(sqrt(-2)) family: a*z_n and a*3*z_n
        9: "1/4", 18: "1/4", 36: "1/4", 72: "1/4",
        33: "1/4", 66: "1/4", 132: "1/8", 129: "1/8",
        27: "3/8", 54: "3/8", 108: "1/8", 99: "3/16",
        # dihedral, Q(i) family: a*w_n
        15: "1/4", 30: "1/4", 60: "1/4", 120: "1/4", 51: "3/8", 102: "1/8",
        # abelian eighths: a*s for a | 8, s in {5, 7, 13}
        5: "1/8", 7: "1/8", 13: "1/8", 10: "1/8", 14: "1/8", 26: "1/8",
        20: "1/8", 28: "1/8", 52: "1/8", 40: "1/8", 56: "1/8", 104: "1/8",
        # multiples of delta^7, delta^19, delta^21
        21: "5/8", 57: "5/8", 63: "5/8", 42: "3/8", 114: "1/4", 126: "1/4",
        84: "1/8",
    }.items()
}


@dataclass(frozen=True)
class OpResult:
    """The verdict on one benchmark operation."""

    name: str
    ok: bool
    reason: str = ""


# ---------------------------------------------------------------------------
# reference arithmetic


def primes_upto(bound: int) -> np.ndarray:
    """All primes <= bound, by an Eratosthenes sieve."""
    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(bound + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    for p in range(3, math.isqrt(bound) + 1, 2):
        if flags[p]:
            flags[p * p::2 * p] = False
    return np.flatnonzero(flags).astype(np.int64)


def pentagonal_support(length: int) -> np.ndarray:
    """0 and the generalized pentagonal numbers k(3k -+ 1)/2 below length."""
    kmax = math.isqrt(2 * length) + 2
    k = np.arange(1, kmax, dtype=np.int64)
    both = np.concatenate([[0], k * (3 * k - 1) // 2, k * (3 * k + 1) // 2])
    return np.unique(both[both < length])


def _int_from_support(exponents: np.ndarray, length: int) -> int:
    bits = np.zeros(length, dtype=np.uint8)
    bits[exponents] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def int_bits(value: int, length: int) -> np.ndarray:
    """The first `length` bits of a nonnegative integer, as a 0/1 array."""
    raw = value.to_bytes((length + 7) // 8 + 1, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         count=length, bitorder="little")


def pnt_product(dilations, length: int) -> int:
    """prod over d of pnt(x^d), mod (2, x^length), as a Python integer."""
    dilations = sorted(dilations)
    if not dilations or length < 1:
        raise ValueError("need at least one factor and a positive length")
    pent = pentagonal_support(length)
    mask = (1 << length) - 1
    # The densest factor seeds the product; each other factor is sparse
    # and is applied as XOR-shifts of the running product.
    acc = _int_from_support(pent[pent * dilations[0] < length] * dilations[0], length)
    for d in dilations[1:]:
        out = 0
        for e in pent[pent * d < length] * d:
            out ^= acc << int(e)
        acc = out & mask
    return acc


def eta_power_params(r: int) -> tuple[int, int]:
    """(m_r, b_r) = (24/gcd(24, r), r/gcd(24, r))."""
    g = math.gcd(24, r)
    return 24 // g, r // g


def shift_indices(r: int, primes: np.ndarray) -> np.ndarray:
    """k = (ell*mu - b_r)/m_r, with mu the least integer >= b_r/ell that
    satisfies ell*mu = b_r (mod m_r)."""
    m, b = eta_power_params(r)
    lo = -(-b // primes)
    if m == 1:
        mu = lo
    else:
        inverse = np.array([pow(int(c), -1, m) if math.gcd(int(c), m) == 1 else 0
                            for c in range(m)], dtype=np.int64)
        target = (b * inverse[primes % m]) % m
        mu = lo + (target - lo) % m
    return (primes * mu - b) // m


def eta_power_hits(r: int, prime_bound: int, primes: np.ndarray) -> int:
    """Primes 5 <= ell <= prime_bound whose shifted eta-power bit is odd.

    `primes` must hold every prime from 5 up to at least prime_bound.
    """
    ells = primes[(primes >= 5) & (primes <= prime_bound)]
    q = pnt_product([1 << i for i in range(r.bit_length()) if r >> i & 1],
                    prime_bound + 1)
    return int(int_bits(q, prime_bound + 1)[shift_indices(r, ells)].sum())


def partition_parities(length: int) -> np.ndarray:
    """p(0..length-1) mod 2, from 1/pnt = prod_{i<K} pnt(q^(2^i))."""
    k = max(1, (length - 1).bit_length())
    return int_bits(pnt_product([1 << i for i in range(k)], length), length)


# ---------------------------------------------------------------------------
# density CSV


def _parse_density(text: str) -> tuple[list[dict] | None, str]:
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ()) != DENSITY_COLUMNS:
        return None, f"header {reader.fieldnames} is not the README schema"
    return list(reader), ""


def _row_problems(r: int, prime_bound: int, samples: int, row: dict) -> list[str]:
    m, b = eta_power_params(r)
    want = {"m_r": str(m), "b_r": str(b), "prime_bound": str(prime_bound),
            "samples": str(samples)}
    bad = [f"{key}={row[key]} (want {val})" for key, val in want.items()
           if row[key] != val]
    try:
        hits = int(row["hits"])
        value = float(row["value"])
        near = Fraction(row["nearest_dyadic"])
        residual = float(row["residual"])
    except (TypeError, ValueError) as exc:
        return bad + [f"unparsable field: {exc}"]
    if not 0 <= hits <= samples:
        bad.append(f"hits={hits} outside [0, {samples}]")
    if row["value"] != f"{hits / samples:.6f}":
        bad.append(f"value={row['value']} is not hits/samples")
    exact_value = hits / samples if samples else 0.0
    if near != Fraction(math.floor(exact_value * 64 + 0.5), 64):
        bad.append(f"nearest_dyadic={row['nearest_dyadic']} is not the nearest k/64")
    if abs(residual - abs(exact_value - float(near))) > 1.5e-6:
        bad.append(f"residual={row['residual']} does not match")
    proven = PROVEN_DENSITY.get(r)
    if row["exact"] != ("" if proven is None else str(proven)):
        bad.append(f"exact={row['exact']!r} (proven {proven})")
    return bad


def check_density(text: str, r_values, prime_bound: int, primes: np.ndarray,
                  expand=()) -> list[OpResult]:
    """One operation per r: its direct and formula rows in `text`.

    `primes` holds every prime up to at least prime_bound; `expand` names
    the r whose direct hits are recomputed by the independent expansion.
    """
    r_values = list(r_values)
    if not r_values:
        return [OpResult("density", False, "no r selected")]
    rows, why = _parse_density(text)
    if rows is None:
        return [OpResult(f"r={r}", False, why) for r in r_values]
    extra = len(rows) - 2 * len(r_values)
    samples = int(np.count_nonzero((primes >= 5) & (primes <= prime_bound)))
    if not samples:
        return [OpResult(f"r={r}", False, "no primes to sample") for r in r_values]
    by_r: dict[str, list[dict]] = {}
    for row in rows:
        by_r.setdefault(row["r"], []).append(row)
    expand = set(expand)
    out = []
    for r in r_values:
        got = {row["route"]: row for row in by_r.get(str(r), [])}
        if len(by_r.get(str(r), [])) != 2 or set(got) != {"direct", "formula"}:
            out.append(OpResult(f"r={r}", False, "want one direct and one formula row"))
            continue
        bad = []
        for row in got.values():
            bad += _row_problems(r, prime_bound, samples, row)
        if not bad:
            bad = _density_claims(r, prime_bound, primes, got, r in expand)
        if extra:
            bad.append(f"{len(rows)} rows, want {2 * len(r_values)}")
        out.append(OpResult(f"r={r}", not bad, "; ".join(bad)))
    return out


def _density_claims(r: int, prime_bound: int, primes: np.ndarray,
                    rows: dict, expand: bool) -> list[str]:
    direct, formula = rows["direct"], rows["formula"]
    samples = int(direct["samples"])
    value = int(direct["hits"]) / samples
    bad = []
    if abs(value - int(formula["hits"]) / samples) > ROUTE_TOLERANCE:
        bad.append(f"routes differ: {direct['value']} vs {formula['value']}")
    proven = PROVEN_DENSITY.get(r)
    if proven is not None:
        sigma = math.sqrt(value * (1.0 - value) / samples)
        tolerance = max(TOLERANCE_FLOOR, SIGMA_FACTOR * sigma)
        if abs(value - float(proven)) > tolerance:
            bad.append(f"value {value:.4f} is not within {tolerance:.4f} of {proven}")
    if r % 4 == 0 and r not in BOUND_EXCEPTIONS:
        limit = 0.25
    elif r % 2 == 0:
        limit = 0.5
    else:
        limit = 1.0
    if not value < limit:
        bad.append(f"value {value:.4f} is not below {limit}")
    if expand:
        want = eta_power_hits(r, prime_bound, primes)
        if int(direct["hits"]) != want:
            bad.append(f"direct hits {direct['hits']}, expansion gives {want}")
    return bad


# ---------------------------------------------------------------------------
# verify JSON


def check_verify(text: str) -> list[OpResult]:
    """One operation per named check of the nine suites; a suite that is
    missing or reports no checks counts as one failed operation."""
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        return [OpResult(f"suite {s}", False, f"not JSON: {exc}") for s in SUITE_NAMES]
    if isinstance(reports, dict):
        reports = [reports]
    by_name = {rep.get("suite"): rep for rep in reports if isinstance(rep, dict)}
    out = []
    for suite in SUITE_NAMES:
        rep = by_name.get(suite)
        checks = rep.get("checks") if rep else None
        if not checks:
            out.append(OpResult(f"suite {suite}", False,
                                "missing" if rep is None else "reports no checks"))
            continue
        verdict = all(c.get("passed") is True for c in checks)
        for c in checks:
            bad = []
            if c.get("passed") is not True:
                bad.append(f"failed: {c.get('detail', '')}")
            if rep.get("passed") is not verdict:
                bad.append("suite verdict disagrees with its checks")
            out.append(OpResult(f"{suite}: {c.get('name')}", not bad, "; ".join(bad)))
    unknown = sorted(set(by_name) - set(SUITE_NAMES), key=str)
    if unknown or len(reports) != len(by_name):
        out.append(OpResult("suites", False,
                            f"unexpected or repeated reports: {unknown}"))
    return out


# ---------------------------------------------------------------------------
# walk CSV


def walk_steps(kind: str, n: int, parities: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """The expected +-1 steps: +1 where the partition number is even.

    "all" walks p(1..n); "delta-subseq" walks p(24^-1 mod ell) over the
    first n primes ell >= 5.
    """
    if kind == "all":
        par = parities[1:n + 1]
    else:
        ells = primes[primes >= 5][:n]
        if len(ells) < n:
            raise ValueError("not enough primes for the delta subsequence")
        par = parities[[pow(24, -1, int(p)) for p in ells]]
    if len(par) != n:
        raise ValueError("not enough partition parities")
    return 1 - 2 * par.astype(np.int64)


def walk_reference_sizes(kind: str, n: int) -> tuple[int, int]:
    """(partition parities, prime bound) that walk_steps needs for this walk."""
    if kind == "all":
        return n + 1, 2
    k = n + 2  # the n-th prime >= 5 is the (n+2)-th prime
    bound = int(k * (math.log(k) + math.log(math.log(max(k, 3))))) + 100
    return bound, bound


def check_walk(path: str, kind: str, n: int, steps: np.ndarray) -> OpResult:
    """The walk CSV at `path` against the expected steps, as one operation."""
    name = f"walk {kind} n={n}"
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, body = data.partition(b"\n")
    if header.decode(errors="replace") != WALK_HEADER:
        return OpResult(name, False, f"header {header[:80]!r}")
    if n < 1 or not body:
        return OpResult(name, False, "no rows")
    buf = np.frombuffer(body, dtype=np.uint8)
    newlines = np.count_nonzero(buf == ord("\n"))
    if newlines != n or buf[-1] != ord("\n"):
        return OpResult(name, False, f"{newlines} rows, want {n}")
    # Each band has exactly three decimals: a dot four bytes before the
    # next ',' (sqrt_band) or '\n' (two_sqrt_band), and no other dots.
    dots = np.flatnonzero(buf == ord("."))
    if len(dots) != 2 * n or not (
            np.all(buf[dots[0::2] + 4] == ord(","))
            and np.all(buf[dots[1::2] + 4] == ord("\n"))
            and np.count_nonzero(buf == ord(",")) == 4 * n):
        return OpResult(name, False, "bands are not written to three decimals")
    cells = np.fromstring(body.replace(b"\n", b",").decode(), sep=",")
    if len(cells) != 5 * n:
        return OpResult(name, False, "unparsable cells")
    table = cells.reshape(n, 5)
    idx = np.arange(1, n + 1, dtype=np.float64)
    root = np.sqrt(idx)
    bad = []
    if not np.array_equal(table[:, 0], idx):
        bad.append("n does not run 1..N")
    if not np.all(np.abs(table[:, 1]) == 1):
        bad.append("a step is not +-1")
    if not np.array_equal(table[:, 2], np.cumsum(table[:, 1])):
        bad.append("sum is not the running total")
    if np.max(np.abs(table[:, 3] - root)) > 5e-4 + 1e-9:
        bad.append("sqrt_band is not sqrt(n)")
    if np.max(np.abs(table[:, 4] - 2 * root)) > 5e-4 + 1e-9:
        bad.append("two_sqrt_band is not 2*sqrt(n)")
    wrong = np.flatnonzero(table[:, 1] != steps)
    if len(wrong):
        bad.append(f"{len(wrong)} steps disagree with the partition parities, "
                   f"first at n={int(wrong[0]) + 1}")
    return OpResult(name, not bad, "; ".join(bad))


# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    return path.read_text(errors="replace") if path.is_file() else ""


def check_workload(workload: str, outdir: Path) -> list[OpResult]:
    """Check the outputs one round of `workload` left in `outdir`."""
    if workload == "table":
        return check_density(_read(outdir / "table.csv"), TABLE_R, TABLE_BOUND,
                             primes_upto(TABLE_BOUND), expand=TABLE_R)
    if workload == "deep":
        return check_density(_read(outdir / "cmd0.out"), [DEEP_R], DEEP_BOUND,
                             primes_upto(DEEP_BOUND), expand=[DEEP_R])
    if workload == "verify":
        return check_verify(_read(outdir / "cmd0.out"))
    sizes = [walk_reference_sizes(kind, n) for kind, n, _ in WALKS]
    parities = partition_parities(max(s[0] for s in sizes))
    primes = primes_upto(max(s[1] for s in sizes))
    out = []
    for kind, n, name in WALKS:
        path = outdir / name
        if path.is_file():
            out.append(check_walk(str(path), kind, n, walk_steps(kind, n, parities, primes)))
        else:
            out.append(OpResult(f"walk {kind} n={n}", False, "no output file"))
    return out


if __name__ == "__main__":
    # python perfbench/checks.py WORKLOAD OUTDIR: verdicts as a JSON list
    results = check_workload(sys.argv[1], Path(sys.argv[2]))
    print(json.dumps([[r.name, r.ok, r.reason] for r in results]))
