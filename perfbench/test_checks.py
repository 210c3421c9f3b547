"""Tests of the benchmark's output checks: real CLI output passes, and
outputs with one corrupted value, or with nothing to check, fail.

Run with: python -m pytest perfbench
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
R_VALUES = range(1, 25)
BOUND = 3000
WALK_N = 3000


def cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "etaparity.cli", *args], env=env,
                          capture_output=True, text=True, check=True)


@pytest.fixture(scope="module")
def primes():
    return checks.primes_upto(100_000)


@pytest.fixture(scope="module")
def density_csv():
    return cli("density", "--r", f"{R_VALUES[0]}..{R_VALUES[-1]}",
               "--prime-bound", str(BOUND), "--format", "csv").stdout


@pytest.fixture(scope="module")
def verify_json():
    return cli("verify", "--suite", "all", "--prime-bound", "10000").stdout


@pytest.fixture(scope="module")
def walk_csvs(tmp_path_factory):
    out = {}
    for kind in ("all", "delta-subseq"):
        path = tmp_path_factory.mktemp("walk") / f"{kind}.csv"
        cli("walk", "--kind", kind, "--n", str(WALK_N), "--out", str(path))
        out[kind] = path
    return out


def failed(results):
    return [r.name for r in results if not r.ok]


def test_references_match_known_values(primes):
    # p(0..11) = 1 1 2 3 5 7 11 15 22 30 42 56
    assert checks.partition_parities(12).tolist() == [1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    assert len(primes[primes >= 5]) == 9590
    assert checks.pentagonal_support(27).tolist() == [0, 1, 2, 5, 7, 12, 15, 22, 26]
    # P_24 = q * pnt(q^8) * pnt(q^16) = delta, the odd squares 1, 9, 25, 49
    q = checks.pnt_product([8, 16], 50)
    assert [i for i in range(50) if q >> i & 1] == [0, 8, 24, 48]
    assert checks.eta_power_hits(24, 100_000, primes) == 0


def _rewrite(text: str, r: int, route: str, **fields) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row["r"] == str(r) and row["route"] == route:
            row.update({k: str(v) for k, v in fields.items()})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=checks.DENSITY_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_density_output_passes(density_csv, primes):
    got = checks.check_density(density_csv, R_VALUES, BOUND, primes, expand=R_VALUES)
    assert len(got) == len(R_VALUES)
    assert failed(got) == []


def test_density_one_altered_hits_is_rejected(density_csv, primes):
    row = next(r for r in csv.DictReader(io.StringIO(density_csv))
               if r["r"] == "11" and r["route"] == "direct")
    hits = int(row["hits"]) + 1
    value = hits / int(row["samples"])
    near = checks.Fraction(round(value * 64), 64)
    # consistent row: only the independent expansion can tell
    bad = _rewrite(density_csv, 11, "direct", hits=hits, value=f"{value:.6f}",
                   nearest_dyadic=near, residual=f"{abs(value - float(near)):.6f}")
    got = checks.check_density(bad, R_VALUES, BOUND, primes, expand=R_VALUES)
    assert failed(got) == ["r=11"]
    assert "expansion" in got[10].reason
    # without the expansion, hits that disagree with value still fail
    bad = _rewrite(density_csv, 11, "direct", hits=hits)
    assert failed(checks.check_density(bad, R_VALUES, BOUND, primes)) == ["r=11"]


def test_density_claims_are_checked(density_csv, primes):
    # r = 5 is proven 1/8: 214 of the 428 primes up to 3000 is outside the
    # tolerance (the routes now disagree as well)
    bad = _rewrite(density_csv, 5, "direct", hits=214, value="0.500000",
                   nearest_dyadic="1/2", residual="0.000000")
    got = checks.check_density(bad, R_VALUES, BOUND, primes)
    assert failed(got) == ["r=5"]
    assert "not within" in got[4].reason
    # the exact column must carry the proven value
    bad = _rewrite(density_csv, 9, "formula", exact="")
    assert failed(checks.check_density(bad, R_VALUES, BOUND, primes)) == ["r=9"]


def test_density_selecting_nothing_fails(density_csv, primes):
    header = density_csv.splitlines()[0] + "\n"
    assert failed(checks.check_density(header, R_VALUES, BOUND, primes)) == \
        [f"r={r}" for r in R_VALUES]
    assert failed(checks.check_density(density_csv, [], BOUND, primes)) == ["density"]
    assert failed(checks.check_density("", [1], BOUND, primes)) == ["r=1"]


def test_verify_output_passes(verify_json):
    got = checks.check_verify(verify_json)
    assert len(got) == sum(len(s["checks"]) for s in json.loads(verify_json))
    assert failed(got) == []


def test_verify_one_failed_check_is_rejected(verify_json):
    reports = json.loads(verify_json)
    reports[3]["checks"][0]["passed"] = False
    reports[3]["passed"] = False
    got = checks.check_verify(json.dumps(reports))
    assert failed(got) == [f"{reports[3]['suite']}: {reports[3]['checks'][0]['name']}"]
    # a suite verdict that hides the failed check fails the whole suite
    reports[3]["passed"] = True
    got = checks.check_verify(json.dumps(reports))
    assert len(failed(got)) == len(reports[3]["checks"])


def test_verify_selecting_nothing_fails(verify_json):
    assert len(failed(checks.check_verify("[]"))) == len(checks.SUITE_NAMES)
    reports = json.loads(verify_json)
    reports[0]["checks"] = []
    assert f"suite {reports[0]['suite']}" in failed(checks.check_verify(json.dumps(reports)))
    assert f"suite {reports[1]['suite']}" in failed(
        checks.check_verify(json.dumps(reports[:1] + reports[2:])))


def _walk_steps(kind, n):
    length, bound = checks.walk_reference_sizes(kind, n)
    return checks.walk_steps(kind, n, checks.partition_parities(length),
                             checks.primes_upto(bound))


@pytest.mark.parametrize("kind", ["all", "delta-subseq"])
def test_walk_output_passes(walk_csvs, kind):
    got = checks.check_walk(str(walk_csvs[kind]), kind, WALK_N, _walk_steps(kind, WALK_N))
    assert got.ok, got.reason


@pytest.mark.parametrize("kind", ["all", "delta-subseq"])
def test_walk_one_flipped_step_is_rejected(walk_csvs, kind, tmp_path):
    lines = walk_csvs[kind].read_text().splitlines()
    # flip step 1234 and carry the running sum, so only the parity check fails
    total = 0
    for i in range(1, len(lines)):
        n, step, _, b1, b2 = lines[i].split(",")
        step = int(step) * (-1 if i == 1234 else 1)
        total += step
        lines[i] = f"{n},{step},{total},{b1},{b2}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    got = checks.check_walk(str(bad), kind, WALK_N, _walk_steps(kind, WALK_N))
    assert not got.ok
    assert "first at n=1234" in got.reason


def test_walk_format_is_checked(walk_csvs, tmp_path):
    text = walk_csvs["all"].read_text()
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace("\n2,1,0,1.414,", "\n2,1,0,1.41,", 1))
    got = checks.check_walk(str(bad), "all", WALK_N, _walk_steps("all", WALK_N))
    assert not got.ok and "three decimals" in got.reason


def test_walk_selecting_nothing_fails(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(checks.WALK_HEADER + "\n")
    got = checks.check_walk(str(empty), "all", WALK_N, np.ones(WALK_N))
    assert not got.ok and got.reason == "no rows"
    assert not checks.check_walk(str(empty), "all", 0, np.ones(0)).ok


def test_tracer_wraps_every_binding_site(tmp_path):
    # genforms.p_r_series calls power through its own `from .f2series
    # import power` binding; suites reach eta powers through density.
    spans_path = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_path),
                    "verify", "--suite", "thmD", "--prime-bound", "1000"],
                   env=env, capture_output=True, check=True)
    records = [json.loads(line) for line in spans_path.read_text().splitlines()]
    spans, tail = records[:-1], records[-1]
    assert tail["missing"] == []
    assert tail["counters"]["f2series.mul_shift_ops"] > 0
    by_id = {s["id"]: s for s in spans}
    names = {s["name"] for s in spans}
    assert {"cli.main", "suites.thmD", "density.direct", "density.cache",
            "genforms.eta_build", "f2series.power", "f2series.mul"} <= names
    power = next(s for s in spans if s["name"] == "f2series.power")
    assert by_id[power["parent"]]["name"] == "genforms.eta_build"
    assert all(s["t0"] <= s["t1"] for s in spans)
