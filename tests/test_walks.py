"""Partition parity, the 24-inverse table, and walk CSV output."""

import csv
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import etaparity
from etaparity import cli, primes, walks
from etaparity.genforms import pentagonal_numbers
from etaparity.walks import delta_ell, emit_walk, partition_parity

from oracles import (delta_ell_from_window, exact_partitions, first_primes_ge5,
                     mask_to_bits, naive_eta_product_mask,
                     naive_series_inverse_bits, series_bits, trial_division_primes,
                     walk_arrays, walk_csv_reference, walk_rows_reference)


def write_walk(kind, n, path):
    with open(path, "wb") as fh:
        emit_walk(kind, n, fh)


def read_walk(kind, n, tmp_path):
    """(steps, sums) read back from the CSV that emit_walk writes."""
    out = tmp_path / "walk.csv"
    write_walk(kind, n, out)
    cols = np.loadtxt(out, delimiter=",", skiprows=1, usecols=(1, 2),
                      dtype=np.int64, ndmin=2)
    return cols[:, 0], cols[:, 1]


class TestPartitionParity:
    def test_first_ten(self):
        table = partition_parity(11)
        assert list(series_bits(table)[1:]) == [1, 0, 1, 1, 1, 1, 1, 0, 0, 0]
        assert table.coeff(0) == 1

    def test_against_exact_partitions(self):
        exact = exact_partitions(60)
        table = partition_parity(61)
        assert [p % 2 for p in exact] == list(series_bits(table))

    def test_delta5_value(self):
        # p(delta_5) = p(4) = 5, odd
        assert partition_parity(5).coeff(4) == 1

    def test_against_generic_inversion(self):
        n = 2000
        product = mask_to_bits(naive_eta_product_mask(n), n)
        inv = naive_series_inverse_bits(product, n)
        assert np.array_equal(series_bits(partition_parity(n)), inv)

    def test_every_short_length_against_generic_inversion(self):
        # odd and even final lengths, and the smallest n = 1, 2, 3
        product = mask_to_bits(naive_eta_product_mask(300), 300)
        inv = naive_series_inverse_bits(product, 300)
        for n in range(1, 301):
            assert np.array_equal(series_bits(partition_parity(n)), inv[:n]), n

    def test_pentagonal_recurrence_holds(self):
        n = 4000
        par = series_bits(partition_parity(n))
        gs = pentagonal_numbers(n)
        for m in range(1, n, 97):
            acc = 0
            for g in gs:
                if g > m:
                    break
                acc ^= int(par[m - g])
            assert par[m] == acc


class TestDeltaEll:
    def test_table(self):
        ells = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
        want = (4, 5, 6, 6, 5, 4, 1, 23, 22, 17, 12, 9)
        assert tuple(delta_ell(l) for l in ells) == want
        assert tuple(delta_ell(np.array(ells)).tolist()) == want

    @pytest.mark.parametrize("ell", [5, 7, 11, 13, 29, 43, 101, 9973])
    def test_window_route_agrees(self, ell):
        assert delta_ell(ell) == delta_ell_from_window(ell)

    def test_formula_against_pow_for_every_prime_to_1e5(self):
        ells = first_primes_ge5(9590)  # the primes 5 <= ell <= 99991
        assert ells[-1] == 99_991 and ells[-1] == max(trial_division_primes(10**5))
        want = [pow(24, -1, int(ell)) for ell in ells]
        assert [delta_ell(int(ell)) for ell in ells] == want
        assert delta_ell(ells).tolist() == want

    def test_large_prime_in_milliseconds(self):
        ell = 2**61 - 1
        start = time.perf_counter()
        got = delta_ell(ell)
        assert time.perf_counter() - start < 0.05
        assert got == pow(24, -1, ell)


class TestWalks:
    def test_all_walk_final_sum(self, tmp_path):
        _, sums = read_walk("all", 10, tmp_path)
        assert sums[-1] == -2  # parities 1,0,1,1,1,1,1,0,0,0

    def test_delta_subseq_first_points(self, tmp_path):
        # p(4), p(5), p(6) = 5, 7, 11 are all odd
        steps, sums = read_walk("delta-subseq", 3, tmp_path)
        assert list(steps) == [-1, -1, -1] and sums[-1] == -3

    def test_unit_steps(self, tmp_path):
        steps, sums = read_walk("all", 500, tmp_path)
        assert set(np.unique(steps)) <= {-1, 1}
        assert np.all(np.abs(np.diff(sums)) == 1)

    def test_point_rows(self, tmp_path):
        out = tmp_path / "walk.csv"
        write_walk("all", 100, out)
        last = out.read_text().splitlines()[-1].split(",")
        assert last[0] == "100" and last[3:] == ["10.000", "20.000"]
        steps, sums = read_walk("all", 100, tmp_path)
        assert sums[0] == steps[0] and np.all(np.abs(np.diff(sums)) == 1)

    def test_first_primes(self):
        assert list(first_primes_ge5(5)) == [5, 7, 11, 13, 17]

    def test_first_primes_every_count_to_2000(self):
        # one slice below _nth_prime_bound(count) holds all of them
        want = [p for p in trial_division_primes(20_000) if p >= 5][:2000]
        assert len(want) == 2000
        for count in range(1, 2001):
            assert first_primes_ge5(count).tolist() == want[:count], count

    def test_csv_output(self, tmp_path):
        out = tmp_path / "walk.csv"
        write_walk("all", 200, out)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 200
        assert list(rows[0]) == ["n", "step", "sum", "sqrt_band", "two_sqrt_band"]
        row100 = rows[99]
        assert float(row100["sqrt_band"]) == 10.0
        assert float(row100["two_sqrt_band"]) == 20.0
        sums = [int(r["sum"]) for r in rows]
        assert all(abs(a - b) == 1 for a, b in zip(sums, sums[1:]))

    def test_unknown_kind(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("walk built for an unknown kind")

        monkeypatch.setattr(walks, "partition_parity", must_not_run)
        monkeypatch.setattr(walks, "_nth_prime_ge5", must_not_run)
        out = io.BytesIO()
        with pytest.raises(ValueError):
            emit_walk("bogus", 10, out)
        assert out.getvalue() == b""

    @pytest.mark.parametrize("kind", walks.WALK_KINDS)
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_steps_raise_before_writing(self, kind, n):
        out = io.BytesIO()
        with pytest.raises(ValueError, match="at least one step"):
            emit_walk(kind, n, out)
        assert out.getvalue() == b""


def cell_strings(pieces, count) -> list[str]:
    rows = walks._rows(pieces, count, bytearray())
    return [bytes(row[row != 0]).decode() for row in rows]


class TestWalkWriter:
    """The numpy row writer against the f-string rows that define the format."""

    # the chunk edges of the current chunk size, and those of 8192- and
    # 16384-row chunks, which stay as sizes spanning several chunks
    @pytest.mark.parametrize("n", sorted({
        1, 9, 10, 99, 100, 8191, 8192, 8193, 24583, 16383, 16384, 16385, 49159,
        walks._CHUNK - 1, walks._CHUNK, walks._CHUNK + 1, 3 * walks._CHUNK + 7}))
    def test_all_walk_bytes(self, n, tmp_path):
        out = tmp_path / "walk.csv"
        write_walk("all", n, out)
        assert out.read_bytes() == walk_csv_reference(*walk_arrays("all", n))

    # the running sum carried across the chunk edges of the current chunk
    # size and of 8192-row chunks
    @pytest.mark.parametrize("n", sorted({
        5000, 8191, 8192, 8193, 24583,
        walks._CHUNK - 1, walks._CHUNK, walks._CHUNK + 1, 3 * walks._CHUNK + 7}))
    def test_delta_subseq_bytes(self, n, tmp_path):
        out = tmp_path / "walk.csv"
        write_walk("delta-subseq", n, out)
        assert out.read_bytes() == walk_csv_reference(*walk_arrays("delta-subseq", n))

    @pytest.mark.parametrize("n,factor", [
        (793212, 1.0), (999999, 1.0), (198303, 2.0), (440980, 2.0)])
    def test_near_tie_rows(self, n, factor):
        # factor*sqrt(n)*1000 lies within 1e-6 of a half, so the cell comes
        # from the exact-rounding fallback
        x = factor * np.sqrt(np.array([n], dtype=np.int64))
        k = np.rint(x * 1000)
        assert abs(abs(x[0] * 1000 - k[0]) - 0.5) < 1e-6
        assert cell_strings(walks._band_cell(x), 1) == [format(x[0], ".3f")]

    @given(st.lists(st.floats(0, 1e5, exclude_max=True), min_size=1, max_size=50))
    @example([0.0625, 1.0625, 2.5625])  # exact dyadic ties: round half to even
    @example([0.0005, 0.1235, 12.3455])  # x*1000 rounds onto a half; x does not
    def test_band_cells_match_format(self, values):
        x = np.array(values, dtype=np.float64)
        assert cell_strings(walks._band_cell(x), len(x)) == [format(v, ".3f") for v in values]

    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=50))
    @example([0, -1, 1, -10, 10, -2**63, 2**63 - 1])
    def test_int_cells_match_str(self, values):
        x = np.array(values, dtype=np.int64)
        assert cell_strings(walks._int_cell(x), len(x)) == [str(v) for v in values]

    @pytest.mark.parametrize("first", [10**7 - 2, 10**8, 10**9 - 2, 10**9])
    def test_wide_rows(self, first):
        # 8- to 10-digit n, band whole parts of 10^4 and more, and sums of
        # 5 to 7 digits: rows no benchmark walk reaches, from synthetic
        # steps and sums rather than a built walk
        sums = np.array([-99_999, 99_999, -10**6, 10**6, 0, -1, 1], dtype=np.int64)
        steps = np.array([1, -1] * 3 + [1], dtype=np.int64)
        got = walks._row_bytes(first, steps, sums, bytearray())
        assert got == walk_rows_reference(first, steps, sums)


class TestWalkMemoryCheck:
    def test_estimate_covers_held_bytes(self, monkeypatch):
        # the estimate is a lower one: below the peak of the bytes traced
        # while the walk runs, from a fresh sieve as in a new process
        n = 10**5
        for kind in walks.WALK_KINDS:
            monkeypatch.setattr(primes, "_table", primes.segmented_sieve(0))
            with open(os.devnull, "wb") as sink:
                tracemalloc.start()
                try:
                    emit_walk(kind, n, sink)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak / 4 <= walks._walk_bytes(kind, n) <= peak, kind

    def test_too_large_walk_exits_two_before_allocating(self, tmp_path, monkeypatch, capsys):
        def must_not_run(n):
            raise AssertionError("partition parities built despite the memory check")

        monkeypatch.setattr(primes, "_physical_memory", lambda: 16 * 1000)
        monkeypatch.setattr(walks, "partition_parity", must_not_run)
        monkeypatch.setattr(walks, "_nth_prime_ge5", must_not_run)
        out = tmp_path / "walk.csv"
        for kind in walks.WALK_KINDS:
            code = cli.main(["walk", "--kind", kind, "--n", "1000", "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and err.count("\n") == 1 and "physical memory" in err
        assert not out.exists()


SRC = str(Path(etaparity.__file__).resolve().parent.parent)


# Linux keeps the peak RSS of the memory a process had before its exec in
# that process's ru_maxrss, and a child spawned from the test process starts
# from the test process's memory.  So the children are spawned by a small
# interpreter, whose own peak stays below theirs.
_SPAWN_AND_WAIT = """
import os, sys
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def child_max_rss(code: str, *args: str) -> int:
    """Peak RSS in bytes of a fresh interpreter running code with args, as
    os.wait4 reports it (Linux gives ru_maxrss in KiB)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _SPAWN_AND_WAIT, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    status, kib = map(int, done.stdout.split())
    assert status == 0, done.stderr
    return kib * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_walk_holds_bits_not_per_step_arrays(tmp_path):
    # whole int64 steps and sums would take 32 MB at this n; the streamed
    # walk holds the packed parities and one chunk of rows.  The baseline
    # loads the modules that the walk command loads.
    out = tmp_path / "walk.csv"
    walk = child_max_rss("import sys; from etaparity.cli import main; sys.exit(main())",
                         "walk", "--kind", "all", "--n", "2000000", "--out", str(out))
    imported = child_max_rss("import etaparity.cli, etaparity.walks")
    assert walk - imported <= 12 * 2**20, (walk, imported)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_delta_walk_holds_a_byte_per_prime(tmp_path):
    # the 24-inverse walk to 5 * 10^5 steps sieves primes to 7.8 * 10^6:
    # an int64 per prime sieved from a flag byte per odd integer takes
    # about 9.5 MB above the imports; the packed table takes one bit per
    # odd integer, fewer bytes than one per prime, and one 32 KB segment
    # of flags while it is sieved
    out = tmp_path / "walk.csv"
    walk = child_max_rss("import sys; from etaparity.cli import main; sys.exit(main())",
                         "walk", "--kind", "delta-subseq", "--n", "500000",
                         "--out", str(out))
    imported = child_max_rss("import etaparity.cli, etaparity.walks")
    assert walk - imported <= 7 * 2**20, (walk, imported)
