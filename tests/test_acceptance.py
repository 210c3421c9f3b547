"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one [PASS]/[FAIL] line per criterion (visible with
`pytest -s` or in the captured output of a failing run).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from etaparity import density, suites
from etaparity.walks import delta_ell, emit_walk, partition_parity

from oracles import (eta_density, mask_to_bits, naive_eta_product_mask,
                     naive_series_inverse_bits, series_bits)

PRIME_BOUND = 100_000

# Parity-density values with proved closed forms, r <= 132.
PROVEN_TABLE = {
    1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (0, 0), 5: (1, 3), 6: (0, 0),
    7: (1, 3), 8: (0, 0), 9: (1, 2), 10: (1, 3), 12: (0, 0), 13: (1, 3),
    14: (1, 3), 15: (1, 2), 16: (0, 0), 18: (1, 2), 20: (1, 3), 21: (5, 3),
    24: (0, 0), 26: (1, 3), 27: (3, 3), 28: (1, 3), 30: (1, 2), 32: (0, 0),
    33: (1, 2), 36: (1, 2), 40: (1, 3), 42: (3, 3), 48: (0, 0), 51: (3, 3),
    52: (1, 3), 54: (3, 3), 56: (1, 3), 57: (5, 3), 60: (1, 2), 63: (5, 3),
    64: (0, 0), 66: (1, 2), 72: (1, 2), 84: (1, 3), 96: (0, 0), 99: (3, 4),
    102: (1, 3), 104: (1, 3), 108: (1, 3), 114: (1, 2), 120: (1, 2),
    126: (1, 2), 128: (0, 0), 129: (1, 3), 132: (1, 3),
}


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def suite_verdict(criterion, result, name_filter=None):
    checks = [c for c in result.checks
              if name_filter is None or name_filter(c.name)]
    assert checks, "filter selected no checks"
    bad = [c for c in checks if not c.passed]
    detail = f"{len(checks)} checks"
    if bad:
        detail += "; failed: " + "; ".join(f"{c.name} {c.detail}" for c in bad)
    report(criterion, not bad, detail)


def test_criterion_1_table_reproduction():
    worst = 0.0
    for r, (num, log) in sorted(PROVEN_TABLE.items()):
        want = Fraction(num, 1 << log)
        est, _ = eta_density(r, PRIME_BOUND)
        dev = abs(est.value - float(want))
        worst = max(worst, dev)
        assert dev <= est.tolerance, \
            f"r={r}: empirical {est.value:.4f} vs table {want} (tol {est.tolerance:.4f})"
        exact = density.eta_density_exact(r)
        assert exact == want, f"r={r}: exact {exact} != table {want}"
    report("criterion 1: table reproduction (51 proven rows, direct route + exact)",
           True, f"max deviation {worst:.4f} at prime bound {PRIME_BOUND}")


def test_criterion_2_zero_classification():
    result = suites.suite_thmB(PRIME_BOUND)
    suite_verdict("criterion 2: vanishing classification "
                  "(zero tails shrink, nonzero r bounded away)", result)


def test_criterion_3_dihedral_families():
    result = suites.suite_thmD(PRIME_BOUND)
    suite_verdict("criterion 3: exact dihedral families match digit-statistics "
                  "formulas and prime scans", result)


def test_criterion_4_hitting_class_count():
    start = time.perf_counter()
    result = suites.suite_combinatorial()
    elapsed = time.perf_counter() - start
    suite_verdict(f"criterion 4: hitting-class count = 2^(z-v+1) for a <= 256 "
                  f"({elapsed:.1f}s)", result)


def test_criterion_5_dihedral_density_formula():
    result = suites.suite_dihedral_code(PRIME_BOUND)
    suite_verdict("criterion 5: dihedral density formula vs prime scans "
                  "(nine generator powers)", result,
                  name_filter=lambda n: n.startswith("empirical density"))


def test_criterion_6_identity_suite():
    result = suites.suite_identities()
    suite_verdict("criterion 6: generator identities, bitwise to 10^6", result)


def test_criterion_7_adapted_basis_codes():
    result = suites.suite_dihedral_code(PRIME_BOUND)
    suite_verdict("criterion 7: adapted-basis codes are the axis indicators",
                  result, name_filter=lambda n: n.startswith("code("))


def test_criterion_8_level9():
    result = suites.suite_level9(PRIME_BOUND)
    suite_verdict("criterion 8: level-9 kernels, abelian laws, densities 1/8",
                  result)


def test_criterion_9_abelian_values():
    result = suites.suite_abelian(PRIME_BOUND)
    suite_verdict("criterion 9: abelian eta-power values (1/8 family and "
                  "multiples of 7, 19, 21)", result)


def test_criterion_10_appendix(tmp_path):
    ells = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    want = (4, 5, 6, 6, 5, 4, 1, 23, 22, 17, 12, 9)
    table_ok = tuple(delta_ell(np.array(ells)).tolist()) == want

    n = 10_000
    product = mask_to_bits(naive_eta_product_mask(n), n)
    oracle = naive_series_inverse_bits(product, n)
    parity_ok = np.array_equal(series_bits(partition_parity(n)), oracle)

    start = time.perf_counter()
    with open(tmp_path / "walk.csv", "wb") as fh:
        emit_walk("all", 1_000_000, fh)
    walk_seconds = time.perf_counter() - start
    walk_ok = walk_seconds < 60.0

    report("criterion 10: appendix (24-inverse table, parity oracle to 10^4, "
           "10^6-step walk CSV)",
           table_ok and parity_ok and walk_ok,
           f"walk took {walk_seconds:.1f}s")


def test_invariant_bounds():
    result = suites.suite_bounds(PRIME_BOUND)
    suite_verdict("invariant: upper bounds 1, 1/2, 1/4 with the four "
                  "exceptional r", result)


def test_invariant_route_agreement():
    worst = (0.0, None)
    for r in range(1, 65):
        direct, formula = eta_density(r, PRIME_BOUND)
        dev = abs(direct.value - formula.value)
        if dev > worst[0]:
            worst = (dev, r)
        assert dev <= 0.02, f"routes disagree at r={r}: {dev:.4f}"
    report("invariant: direct and decomposition routes agree for r <= 64",
           True, f"max gap {worst[0]:.5f} at r={worst[1]}")
