"""Command-line surface: outputs, formats, and the exit-code contract."""

import collections
import csv
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etaparity import cli, density, primes, suites, walks
from etaparity.cli import main
from etaparity.f2series import F2Series
from etaparity.level9 import ABELIAN_CLASSES

from oracles import prime_array


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_density_csv_matches_its_recorded_hash():
    # SHA-256 of this CSV as written when the formula route still summed one
    # scan per unit shift: the single read per prime gives the same bytes
    code, out = run_cli("density", "--r", "1..132", "--prime-bound", "2000",
                        "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6aad66622c3652602d44a18835e38e5b46ddd8e6b411459b375285447ce1caec"


def test_wide_density_csv_matches_its_recorded_hash():
    # r up to 1000 reaches odd parts of pnt^r up to 999 and every 2-adic
    # valuation to 9; SHA-256 as written when P_r was still read as
    # delta^(b_r) or C^(b_r) through a window mu
    code, out = run_cli("density", "--r", "1..1000", "--prime-bound", "20000",
                        "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1aeec779524330a3658c8f61463bef416e6913893fcbe0dfc39d9148b3007338"


def test_deep_density_csv_matches_its_recorded_hash():
    # h^127 to about 3 100 words: the products shift by large word offsets,
    # which the 32-word table above never reaches.  SHA-256 as written when
    # mul still shifted the dense operand by each exponent's full bit shift
    code, out = run_cli("density", "--r", "127", "--prime-bound", "200000",
                        "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "76e52267e0f24fc19711672de1fd1507011041177830d6167eb10333eb4985ea"


@pytest.mark.parametrize("kind, n, digest", [
    ("all", 20000,
     "9b31ba4f22153deb8832ca08e804a3a226a1f92833a8c17a6690dcddb00b48c1"),
    ("delta-subseq", 2000,
     "642501164715065e9bde4cccd2fa5bf4cfc29db140b17348d0baf6e3cac1c9f3"),
])
def test_walk_csv_matches_its_recorded_hash(tmp_path, kind, n, digest):
    # the Newton inversion's products, hashed as written when mul still
    # shifted the dense operand by each exponent's full bit shift
    out = tmp_path / "walk.csv"
    code, _ = run_cli("walk", "--kind", kind, "--n", str(n), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("kind, n, digest", [
    ("all", 1_000_000,
     "d84123402a533ce658d45e2b3454c298f3c71cdf80fcb3dcef977cac569e1b74"),
    ("delta-subseq", 100_000,
     "91d7f35dfcb27f8b7a2fdc600f1bf009c171b95235d91c1843e350235258b530"),
])
def test_full_size_walk_csv_matches_its_recorded_hash(tmp_path, kind, n, digest):
    # the benchmark's two walks, hashed as written when each digit of a
    # cell still took its own divide-and-mask pass over the column
    out = tmp_path / "walk.csv"
    code, _ = run_cli("walk", "--kind", kind, "--n", str(n), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_json_matches_its_recorded_hash():
    # SHA-256 of this JSON as written when the identities suite still took
    # its powers from a separate Frobenius product: the cache gives the same
    # bytes
    code, out = run_cli("verify", "--suite", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "a81ec7879425860623d10506a42471501e32afc2389e1748cdc3bdeb115a14be"


class TestExpand:
    def test_delta(self):
        code, out = run_cli("expand", "delta", "--coeffs", "30")
        assert code == 0 and out.strip() == "1 9 25"

    def test_eta_power_progression(self):
        code, out = run_cli("expand", "P:18", "--coeffs", "200")
        exps = [int(x) for x in out.split()]
        assert code == 0 and all(e % 4 == 3 for e in exps)

    def test_alpha_json(self):
        code, out = run_cli("expand", "alpha:17", "--coeffs", "100",
                            "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["support"] == [17, 41, 89]

    def test_unknown_form(self):
        code, _ = run_cli("expand", "nonsense")
        assert code == 2


class TestDensity:
    def test_single_r_text(self):
        code, out = run_cli("density", "--r", "9", "--prime-bound", "20000")
        assert code == 0
        assert "exact=1/4" in out

    def test_csv_output(self, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _ = run_cli("density", "--r", "18,24", "--prime-bound", "20000",
                          "--format", "csv", "--out", str(out_path))
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # two routes per r
        by_key = {(r["r"], r["route"]): r for r in rows}
        assert by_key[("18", "direct")]["exact"] == "1/4"
        assert by_key[("24", "direct")]["exact"] == "0"

    def test_range_json_threads(self):
        code, out = run_cli("density", "--r", "1..4", "--prime-bound", "5000",
                            "--format", "json")
        data = json.loads(out)
        assert code == 0 and len(data) == 8

    def test_bad_r(self):
        code, _ = run_cli("density", "--r", "0", "--prime-bound", "1000")
        assert code == 2

    def test_one_read_of_p_r_per_r(self, monkeypatch):
        # both rows of an r come from one read of pnt^r and one scan
        calls = {"power": 0, "scan": 0}
        power, scan = density.pnt_power_bits, F2Series.coeffs_at

        def counted_power(*args):
            calls["power"] += 1
            return power(*args)

        def counted_scan(self, idx):
            calls["scan"] += 1
            return scan(self, idx)

        monkeypatch.setattr(density, "pnt_power_bits", counted_power)
        monkeypatch.setattr(F2Series, "coeffs_at", counted_scan)
        code, out = run_cli("density", "--r", "1..12", "--prime-bound", "5000",
                            "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 2 * 12
        assert calls == {"power": 12, "scan": 12}


class TestVerify:
    def test_fast_suite(self):
        code, out = run_cli("verify", "--suite", "combinatorial")
        data = json.loads(out)
        assert code == 0 and data["passed"] is True

    def test_bounded_suite_accepts_prime_bound(self):
        code, out = run_cli("verify", "--suite", "bounds",
                            "--prime-bound", "20000")
        data = json.loads(out)
        assert code == 0 and data["suite"] == "bounds"

    def test_unknown_suite(self):
        code, _ = run_cli("verify", "--suite", "nope")
        assert code == 2

    def test_failing_suite_exits_one(self, monkeypatch):
        from etaparity import suites as suite_mod

        def broken():
            res = suite_mod.SuiteResult("combinatorial")
            res.add("forced failure", False)
            return res

        monkeypatch.setitem(suite_mod.SUITES, "combinatorial", broken)
        code, out = run_cli("verify", "--suite", "combinatorial")
        assert code == 1 and json.loads(out)["passed"] is False

    def test_wrong_theta_oracle_fails_its_check(self, monkeypatch):
        # alpha_5 given alpha_7's quadratic form: the level9 suite reports
        # the disagreement as one failed check, in JSON, with exit 1
        from etaparity import level9
        monkeypatch.setitem(level9._THETA_TABLE, 5, level9._THETA_TABLE[7])
        code, out = run_cli("verify", "--suite", "level9", "--prime-bound", "10000")
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert code == 1 and failed == ["alpha_5 theta oracle agrees"]

    def test_level9_expands_each_abelian_form_once(self, monkeypatch):
        # the prime law and the density of alpha_i read one series
        from etaparity import level1, level9
        expand = level1.genpoly_series
        calls = []

        def counted(p, n):
            calls.append((p, n))
            return expand(p, n)

        # suites imports genpoly_series in its bodies, from level1
        for module in (level1, level9):
            monkeypatch.setattr(module, "genpoly_series", counted)
        code, _ = run_cli("verify", "--suite", "level9", "--prime-bound", "10000")
        assert code == 0
        for i in ABELIAN_CLASSES:
            assert calls.count((level9.abelian_form(i), 10_001)) == 1, i

    def test_all_scans_each_r_and_bound_once(self, monkeypatch):
        # bounds, thmB and thmD ask again for (r, bound) pairs that a suite
        # before them has scanned: 112 distinct scans answer 184 requests.
        # A scan reads pnt^r one block of primes at a time, so its reads
        # are summed per (r, n) = (r, bound + 1).
        reads, scan = density.pnt_power_bits, density.eta_densities
        requests = []
        read = collections.Counter()

        def counted(r, ks, n):
            read[(r, n)] += len(ks)
            return reads(r, ks, n)

        def requested(rs, prime_bound):
            requests.extend((r, prime_bound) for r in rs)
            return scan(rs, prime_bound)

        monkeypatch.setattr(density, "pnt_power_bits", counted)
        monkeypatch.setattr(density, "eta_densities", requested)
        code, _ = run_cli("verify", "--suite", "all")
        assert code == 0
        assert len(requests) == 184
        assert set(read) == {(r, bound + 1) for r, bound in requests}
        assert len(read) == 112
        # each scan reads each of its primes exactly once
        for (r, n), count in read.items():
            assert count == len(prime_array(5, n - 1)), (r, n)

    def test_dihedral_code_computes_each_image_once(self, monkeypatch):
        # code_matrix asks for 113 nonzero images, of 41 distinct (form, ell)
        from etaparity import level1
        t_op = level1.t_op
        images = []

        def counted(f, ell):
            images.append(ell)
            return t_op(f, ell)

        monkeypatch.setattr(level1, "t_op", counted)
        code, _ = run_cli("verify", "--suite", "dihedral-code",
                          "--prime-bound", "10000")
        assert code == 0
        assert len(images) <= 41


class TestWalk:
    def test_writes_rows(self, tmp_path):
        out_path = tmp_path / "w.csv"
        code, out = run_cli("walk", "--kind", "all", "--n", "10",
                            "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 11
        assert lines[-1].split(",")[2] == "-2"

    def test_delta_subseq(self, tmp_path):
        out_path = tmp_path / "w.csv"
        code, _ = run_cli("walk", "--kind", "delta-subseq", "--n", "3",
                          "--out", str(out_path))
        lines = out_path.read_text().strip().splitlines()
        assert code == 0 and lines[-1].split(",")[2] == "-3"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["density"])  # --r is required
    assert exc.value.code == 2


def exit_code(argv):
    """The exit code of the CLI, whether main returns it or argparse exits."""
    try:
        with redirect_stdout(io.StringIO()):
            return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    pytest.param(["density", "--r", "3..1"], id="empty-r-range"),
    pytest.param(["density", "--r", "1..x"], id="malformed-r"),
    pytest.param(["density", "--r", "-2..3"], id="nonpositive-r-range"),
    pytest.param(["density", "--r", "1", "--prime-bound", "4",
                  "--format", "csv"], id="zero-prime-scan"),
    pytest.param(["expand", "P:5", "--coeffs", "-3"], id="negative-coeffs"),
    pytest.param(["expand", "P:5", "--coeffs", "0"], id="zero-coeffs"),
    pytest.param(["expand", "delta", "--coeffs", "ten"], id="non-integer-coeffs"),
    pytest.param(["verify", "--suite", "thmB", "--prime-bound", "2000"],
                 id="verify-bound-below-minimum"),
    pytest.param(["walk", "--n", "0", "--out", "unused.csv"], id="walk-n-below-1"),
])
def test_bad_input_exits_two(argv, capsys):
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "negative dimensions" not in err


@pytest.mark.parametrize("argv,message", [
    (["density", "--r", "3..1"], "r range '3..1' is empty"),
    (["density", "--r", "1", "--prime-bound", "4", "--format", "csv"],
     "covers no primes"),
])
def test_rejected_density_input_is_one_line(argv, message, capsys):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


def test_verify_rejects_small_bound_before_running(monkeypatch):
    from etaparity import suites as suite_mod

    def must_not_run(**kwargs):
        raise AssertionError("suite ran despite a rejected prime bound")

    for name in suite_mod.SUITES:
        monkeypatch.setitem(suite_mod.SUITES, name, must_not_run)
    assert exit_code(["verify", "--suite", "all", "--prime-bound",
                      str(suite_mod.MIN_PRIME_BOUND - 1)]) == 2


def test_unwritable_density_out_fails_before_scanning(tmp_path, monkeypatch, capsys):
    def must_not_run(r, prime_bound):
        raise AssertionError("scanned before the output was opened")

    monkeypatch.setattr(cli, "_density_rows", must_not_run)
    out = tmp_path / "missing" / "table.csv"
    assert exit_code(["density", "--r", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "No such file or directory" in err
    assert repr(str(out)) in err and ".tmp" not in err


def test_too_large_scan_exits_two_before_building(monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("built despite the memory check")

    # the prime table and the pnt^127 words to 10^7 need about 2 MB
    monkeypatch.setattr(primes, "_physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(primes, "segmented_sieve", must_not_run)
    monkeypatch.setattr(density, "pnt_power_bits", must_not_run)
    assert exit_code(["density", "--r", "127", "--prime-bound", "10000000",
                      "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "physical memory" in err and "P_127" in err


def test_failed_density_run_creates_no_out(tmp_path):
    out = tmp_path / "x.csv"
    assert exit_code(["density", "--r", "1", "--prime-bound", "4",
                      "--format", "csv", "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_failed_density_run_keeps_existing_out(tmp_path):
    out = tmp_path / "x.csv"
    out.write_text("earlier table\n")
    assert exit_code(["density", "--r", "1", "--prime-bound", "4",
                      "--format", "csv", "--out", str(out)]) == 2
    assert out.read_text() == "earlier table\n"
    assert exit_code(["density", "--r", "9", "--prime-bound", "2000",
                      "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("r,") and list(tmp_path.iterdir()) == [out]


def test_sieve_past_physical_memory_exits_two(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    out.write_text("earlier table\n")
    monkeypatch.setattr(primes, "_table", primes.segmented_sieve(0))
    monkeypatch.setattr(primes, "_physical_memory", lambda: 16 * 1000)

    def no_flags(*args, **kwargs):
        raise AssertionError("sieve flags allocated")

    monkeypatch.setattr(primes.np, "ones", no_flags)
    assert exit_code(["density", "--r", "9", "--prime-bound", "20000",
                      "--format", "csv", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "physical memory" in err
    assert out.read_text() == "earlier table\n" and list(tmp_path.iterdir()) == [out]
    assert primes._table.bound == 0


def test_expand_past_physical_memory_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(primes, "_physical_memory", lambda: 16 * 1000)
    expand = cli._expand_series

    def no_series(*args, **kwargs):
        raise AssertionError("series built")

    monkeypatch.setattr(cli, "_expand_series", no_series)
    assert exit_code(["expand", "delta", "--coeffs", str(8 * 16 * 1000 + 8)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "physical memory" in err
    # the estimate is one byte per 8 coefficients, so the limit itself passes
    monkeypatch.setattr(cli, "_expand_series", expand)
    assert exit_code(["expand", "delta", "--coeffs", str(8 * 16 * 1000)]) == 0


def test_density_out_follows_symlinks_and_writes_pipes(tmp_path):
    table, link = tmp_path / "table.csv", tmp_path / "link.csv"
    link.symlink_to(table)
    argv = ["density", "--r", "9", "--prime-bound", "2000", "--format", "csv"]
    assert exit_code(argv + ["--out", str(link)]) == 0
    assert link.is_symlink() and table.read_text().startswith("r,")

    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    assert exit_code(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive() and got[0] == table.read_text()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_unwritable_walk_out_exits_two(tmp_path, monkeypatch, capsys):
    def must_not_run(*args):
        raise AssertionError("walk built before the output was opened")

    monkeypatch.setattr(walks, "partition_parity", must_not_run)
    monkeypatch.setattr(walks, "_nth_prime_ge5", must_not_run)
    out = tmp_path / "missing" / "walk.csv"
    for kind in walks.WALK_KINDS:
        assert exit_code(["walk", "--kind", kind, "--n", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No such file or directory" in err
        assert repr(str(out)) in err and ".tmp" not in err


def test_failed_walk_keeps_existing_out(tmp_path, monkeypatch):
    out = tmp_path / "walk.csv"
    out.write_text("earlier walk\n")
    monkeypatch.setattr(primes, "_physical_memory", lambda: 16 * 1000)
    assert exit_code(["walk", "--n", "1000", "--out", str(out)]) == 2
    assert out.read_text() == "earlier walk\n" and list(tmp_path.iterdir()) == [out]
    monkeypatch.undo()
    assert exit_code(["walk", "--n", "10", "--out", str(out)]) == 0
    assert out.read_text().startswith("n,step,") and list(tmp_path.iterdir()) == [out]


def _rows_pass(direct: dict, formula: dict) -> bool:
    """The README's rule for one r: the routes agree within 0.02, and the
    direct estimate is within 4 sigma of a known exact value."""
    value = direct["hits"] / direct["samples"]
    sigma = math.sqrt(value * (1.0 - value) / direct["samples"])
    exact_ok = direct["exact"] == "" or \
        abs(value - float(Fraction(direct["exact"]))) <= 4.0 * sigma
    return abs(value - formula["hits"] / formula["samples"]) <= 0.02 and exact_ok


@settings(max_examples=50, deadline=None)
@given(lo=st.integers(-2, 8), hi=st.integers(-2, 8), bound=st.integers(-5, 200))
def test_density_exit_code_by_input_class(lo, hi, bound):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["density", f"--r={lo}..{hi}", f"--prime-bound={bound}",
                     "--format", "json"])
    if lo < 1 or lo > hi or bound < 5:
        # an empty or non-positive r range, or no prime >= 5 to scan
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
        return
    rows = json.loads(out.getvalue())
    direct, formula = rows[0::2], rows[1::2]
    assert [row["r"] for row in direct] == list(range(lo, hi + 1))
    assert [row["route"] for row in formula] == ["formula"] * len(direct)
    passed = all(_rows_pass(d, f) for d, f in zip(direct, formula))
    assert code == (0 if passed else 1)


def run_captured(argv):
    """(exit code, stdout, stderr) of the CLI run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expand_form_is_valid(form: str) -> bool:
    kind, _, arg = form.partition(":")
    if kind in ("delta", "C", "F", "pnt"):
        return not arg
    if kind in ("P", "alpha") and arg.lstrip("-").isdigit():
        return int(arg) >= 1 if kind == "P" else int(arg) in ABELIAN_CLASSES
    return False


@settings(max_examples=50, deadline=None)
@given(form=st.one_of(st.sampled_from(["delta", "C", "F", "pnt", "G", "P:",
                                       "P:x", "alpha:", "delta:2"]),
                      st.integers(-3, 150).map("P:{}".format),
                      st.integers(-1, 25).map("alpha:{}".format)),
       coeffs=st.integers(-3, 400))
def test_expand_exit_code_by_input_class(form, coeffs):
    code, out, err = run_captured(["expand", form, f"--coeffs={coeffs}"])
    if coeffs < 1 or not _expand_form_is_valid(form):
        assert code == 2 and out == "" and "Traceback" not in err
        return
    support = [int(e) for e in out.split()]
    assert code == 0 and err == ""
    assert support == sorted(support) and all(0 <= e < coeffs for e in support)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(walks.WALK_KINDS + ("odd",)), n=st.integers(-2, 60))
def test_walk_exit_code_by_input_class(kind, n):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "walk.csv")
        code, out, err = run_captured(["walk", "--kind", kind, f"--n={n}",
                                       "--out", path])
        if kind not in walks.WALK_KINDS or n < 1:
            assert code == 2 and out == "" and os.listdir(tmp) == []
            return
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert code == 0 and err == ""
    assert rows[0] == list(walks.WALK_COLUMNS)
    assert [int(row[0]) for row in rows[1:]] == list(range(1, n + 1))


@settings(max_examples=30, deadline=None)
@given(suite=st.sampled_from(sorted(suites.SUITES) + ["all", "none"]),
       bound=st.one_of(st.none(), st.integers(-5, 3 * suites.MIN_PRIME_BOUND)))
def test_verify_exit_code_by_input_class(suite, bound):
    argv = ["verify", "--suite", suite]
    if bound is not None:
        argv.append(f"--prime-bound={bound}")
    code, out, err = run_captured(argv)
    known = suite in suites.SUITES or suite == "all"
    if not known or (bound is not None and bound < suites.MIN_PRIME_BOUND):
        assert code == 2 and out == "" and "Traceback" not in err
        return
    reports = json.loads(out)
    reports = reports if isinstance(reports, list) else [reports]
    assert [r["suite"] for r in reports] == \
        (sorted(suites.SUITES) if suite == "all" else [suite])
    assert code == (0 if all(r["passed"] for r in reports) else 1)
