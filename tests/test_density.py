"""Prime scans, the shift index, both empirical routes, and exact values."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaparity import cli
from etaparity import density as density_mod
from etaparity import genforms
from etaparity import primes as primes_mod
from etaparity.density import (DensityEstimate, EmptyScanError, PrecisionError,
                               eta_densities, eta_density_exact,
                               density_report_row, odd_coeff_density,
                               verify_bounds, REPORT_COLUMNS)
from etaparity.genforms import (EtaPowerParams, c_series, delta_series,
                                least_shift, p_r_series, pnt_power_bits)
from etaparity.primes import is_prime, prime_blocks, segmented_sieve

from oracles import (eta_density, eta_density_one_at_a_time, mu_delta,
                     odd_coeff_density_shifted, prime_array, q_domain_route_hits,
                     square_and_multiply, trial_division_primes)

BOUND = 20_000


def cache_primes_to(monkeypatch, bound):
    """Point prime_blocks' table at a fresh one to bound."""
    monkeypatch.setattr(primes_mod, "_table", segmented_sieve(bound))


def table_primes(table):
    """All the primes of a table, as a list."""
    return [p for block in table.blocks(0, table.bound) for p in block.tolist()]


@pytest.fixture(scope="module")
def primes_to_135000():
    return trial_division_primes(135_000)


def no_sieve(bound):
    raise AssertionError(f"sieve asked for {bound}")


class TestPrimeSieve:
    def test_against_trial_division(self):
        want = trial_division_primes(10_000)
        assert table_primes(segmented_sieve(10_000)) == want
        assert prime_array(0, 10_000).tolist() == want

    @pytest.mark.parametrize("bound, want", [(0, []), (1, []), (2, [2]), (3, [2, 3])])
    def test_smallest_bounds(self, bound, want):
        assert table_primes(segmented_sieve(bound)) == want

    # a block of 2^15 odd integers ends at 2^16 - 1, and the second, which
    # ends the first segment of two blocks, at 2^17 - 1; 257 is the least
    # prime whose square, 66 049, lies past the first block, and 367 the
    # least whose square lies past the second
    @pytest.mark.parametrize("bound", [
        2**16 - 3, 2**16 - 1, 2**16, 2**16 + 1, 2**16 + 3, 257**2 - 2, 257**2,
        257**2 + 2, 2**17 - 3, 2**17 - 1, 2**17, 2**17 + 1, 2**17 + 3, 367**2 - 2,
        367**2, 367**2 + 2])
    def test_segment_edges_against_trial_division(self, bound, primes_to_135000):
        assert table_primes(segmented_sieve(bound)) == [
            p for p in primes_to_135000 if p <= bound]

    @pytest.mark.parametrize("segment", [1, 8, 16, 32])
    def test_short_segments_against_trial_division(self, segment, monkeypatch):
        # a segment is two blocks: with 16 odd integers to a block, segments
        # end at 63, 127, 191, so 11^2 = 121 lies in the second and 11's
        # next odd multiple, 143, in the third, and 13^2 = 169 lies two
        # segments past 13; with 32, segments end at 127 and 255; a block
        # of 1 odd integer is sieved 8 at a time, so its flags pack into
        # whole bytes
        monkeypatch.setattr(primes_mod, "BLOCK_ODDS", segment)
        want = trial_division_primes(600)
        for bound in range(601):
            table = segmented_sieve(bound)
            assert table_primes(table) == [p for p in want if p <= bound], (segment, bound)
            assert all(0 < len(block) <= segment
                       for block in table.blocks(0, bound)), (segment, bound)

    @pytest.mark.parametrize("lo, hi", [
        (2, 997), (0, 997), (-7, 3), (2, 2), (4, 4), (24, 28), (500, 499),
        (997, 2), (991, 997), (992, 997), (997, 997), (998, 997)])
    def test_slices_against_trial_division(self, lo, hi, monkeypatch):
        # empty ranges, lo > hi, and hi == bound, where the bound 997 is prime
        cache_primes_to(monkeypatch, 997)
        want = [p for p in trial_division_primes(997) if lo <= p <= hi]
        assert prime_array(lo, hi).tolist() == want
        assert primes_mod._table.bound == 997

    @pytest.mark.parametrize("lo, hi", [
        (2, 997), (0, 997), (-7, 3), (2, 2), (4, 4), (24, 28), (500, 499),
        (997, 2), (991, 997), (992, 997), (997, 997), (998, 997)])
    def test_blocks_against_trial_division(self, lo, hi, monkeypatch):
        # 16 odd integers to a block, so the 168 primes to 997 take 32 blocks
        monkeypatch.setattr(primes_mod, "BLOCK_ODDS", 16)
        cache_primes_to(monkeypatch, 997)
        want = [p for p in trial_division_primes(997) if lo <= p <= hi]
        blocks = list(prime_blocks(lo, hi))
        assert [p for block in blocks for p in block.tolist()] == want
        assert all(0 < len(block) <= 16 for block in blocks)

    def test_blocks_with_ends_at_block_edges(self, monkeypatch):
        monkeypatch.setattr(primes_mod, "BLOCK_ODDS", 16)
        cache_primes_to(monkeypatch, 997)
        every = trial_division_primes(997)
        # block c holds the primes in [32c, 32c + 32), 2 among them in block 0
        for c in range(1, 32):
            edge = 32 * c
            for lo, hi in [(edge - 1, edge + 1), (edge + 1, edge + 31),
                           (edge - 31, edge - 1), (edge - 3, edge + 3),
                           (0, edge - 1), (edge, 997), (edge + 1, edge + 33)]:
                blocks = list(prime_blocks(lo, min(hi, 997)))
                got = [p for block in blocks for p in block.tolist()]
                assert got == [p for p in every if lo <= p <= hi], (lo, hi)
        lengths = [len(block) for block in prime_blocks(2, 997)]
        assert lengths == [sum(p // 32 == c for p in every) for c in range(32)]

    def test_slices_are_read_only(self):
        ps = prime_array(5, 1000)
        with pytest.raises(ValueError):
            ps[0] = 4
        with pytest.raises(ValueError):
            prime_array(5, 100)[:] += 1
        with pytest.raises(ValueError):
            next(segmented_sieve(100).blocks(0, 100))[0] = 4
        with pytest.raises(ValueError):
            next(prime_blocks(5, 100))[0] = 4
        assert prime_array(5, 7).tolist() == [5, 7]

    @pytest.mark.parametrize("bound", [0, 1, 2, 100, 10**5])
    def test_sieve_is_read_only_int64(self, bound):
        table = segmented_sieve(bound)
        assert table.packed.dtype == np.uint8
        for block in table.blocks(0, bound):
            assert block.dtype == np.int64 and not block.flags.writeable
        got = prime_array(0, bound)
        assert got.dtype == np.int64 and not got.flags.writeable

    def test_store_takes_one_bit_per_odd_integer(self):
        # 5 * 10^5 odd integers to 10^6, and no int64 array beside them
        table = segmented_sieve(10**6)
        held = [getattr(table, name) for name in primes_mod.PrimeTable.__slots__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert [(a.dtype, a.nbytes) for a in arrays] == [(np.uint8, 62_500)]

    @pytest.mark.parametrize("bound", [10**6, 10**7])
    def test_sieve_holds_about_sieve_bytes(self, bound):
        # the store and one segment of two blocks of flag bytes, about what
        # the sieve holds: the old segment was still held while the next one
        # was allocated (1.40x), and a segment of one block holds 0.86x
        assert primes_mod.sieve_bytes(bound) == -(-bound // 16) + 2 * primes_mod.BLOCK_ODDS
        tracemalloc.start()
        try:
            segmented_sieve(bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.9 <= peak / primes_mod.sieve_bytes(bound) <= 1.25

    def test_regrows_to_at_least_double(self, monkeypatch):
        cache_primes_to(monkeypatch, 100)
        assert prime_array(5, 150)[-1] == 149 and primes_mod._table.bound == 200
        assert prime_array(5, 1000)[-1] == 997 and primes_mod._table.bound == 1000
        assert prime_array(5, 700)[-1] == 691 and primes_mod._table.bound == 1000
        blocks = list(prime_blocks(5, 2500))
        assert blocks[-1][-1] == 2477 and primes_mod._table.bound == 2500
        assert next(prime_blocks(2, 2)).tolist() == [2] and primes_mod._table.bound == 2500

    def test_membership(self):
        assert is_prime(97) and not is_prime(91)

    def test_residue_classes(self):
        ps = prime_array(5, 200)
        ps = ps[ps % 8 == 3]
        assert list(ps)[:4] == [3, 11, 19, 43][1:] + [59]

    def test_is_prime_against_trial_division(self):
        want = set(trial_division_primes(3000))
        assert [n for n in range(-5, 3001) if is_prime(n)] == sorted(want)

    def test_is_prime_past_the_sieve_divides_by_its_root_primes(self, monkeypatch):
        cache_primes_to(monkeypatch, 100)
        assert is_prime(10_007) and not is_prime(10_001)
        assert primes_mod._table.bound == 100

    def test_large_is_prime_never_sieves(self, monkeypatch):
        monkeypatch.setattr(primes_mod, "segmented_sieve", no_sieve)
        assert not is_prime(10**8)
        assert is_prime(10**9 + 7)
        assert not is_prime(99_991 * 99_989)  # both factors near the root
        assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..31 (ψ_11)
        assert not is_prime(3_215_031_751)
        assert not is_prime(3_825_123_056_546_413_051)

    def test_miller_rabin_agrees_with_the_sieve_below_1e5(self, monkeypatch):
        flags = np.zeros(10**5 + 1, dtype=bool)
        flags[prime_array(0, 10**5)] = True
        monkeypatch.setattr(primes_mod, "segmented_sieve", no_sieve)
        assert all(is_prime(n) == flags[n] for n in range(10**5 + 1))

    def test_is_prime_is_bounded_by_2_64(self):
        with pytest.raises(ValueError):
            is_prime(2**64)


class TestMuDelta:
    def test_worked_examples(self):
        assert (mu_delta(5, 18).mu, mu_delta(5, 18).delta) == (3, 3)
        assert (mu_delta(7, 120).mu, mu_delta(7, 120).delta) == (1, 2)
        assert (mu_delta(13, 120).mu, mu_delta(13, 120).delta) == (1, 8)

    def test_rejects_obstructed_primes(self):
        for ell in (2, 3, 4, 9):
            with pytest.raises(ValueError):
                mu_delta(ell, 5)

    @pytest.mark.parametrize("r", [1, 7, 18, 24, 120, 93, 256])
    @pytest.mark.parametrize("ell", [5, 7, 11, 97, 101])
    def test_window_invariants(self, r, ell):
        p = EtaPowerParams.for_power(r)
        idx = mu_delta(ell, r)
        assert (ell * idx.mu) % p.m_r == p.b_r % p.m_r
        assert p.b_r / ell <= idx.mu < p.b_r / ell + p.m_r
        assert idx.delta == (ell * idx.mu - p.b_r) // p.m_r >= 0

    def test_vectorized_mu_matches_scalar_reference(self, monkeypatch):
        # a scan reads pnt^r at delta = (ell*mu - b_r)/m_r for every prime
        # ell, the index of the leading term q^(ell*mu) of the ell-shift
        bound = 2000
        primes = prime_array(5, bound)
        reads = []

        def recorded(r, ks, n):
            reads.append(ks.tolist())
            return pnt_power_bits(r, ks, n)

        monkeypatch.setattr(density_mod, "pnt_power_bits", recorded)
        for r in range(1, 133):
            reads.clear()
            eta_density(r, bound)
            assert reads == [[mu_delta(int(ell), r).delta for ell in primes]], r


class TestCoefficientDensity:
    def test_delta_cubed_quarter(self):
        f = square_and_multiply(delta_series(BOUND + 1), 3, BOUND + 1)
        est = odd_coeff_density(f, BOUND)
        assert abs(est.value - 0.25) < 0.02
        assert est.nearest_dyadic == Fraction(1, 4)

    def test_delta_vanishes(self):
        est = odd_coeff_density(delta_series(BOUND + 1), BOUND)
        assert est.value < 0.01

    def test_c_fifth_eighth(self):
        f = square_and_multiply(c_series(BOUND + 1), 5, BOUND + 1)
        est = odd_coeff_density(f, BOUND)
        assert abs(est.value - 0.125) < 0.02

    def test_tolerance_is_four_sigma(self):
        # 1/8 + 1/64 from 10^6 samples lies 45 sigma from 1/8
        est = DensityEstimate.from_counts(140_625, 1_000_000)
        assert est.tolerance == 4.0 * est.sigma
        assert abs(est.value - 0.125) > est.tolerance

    def test_progression_filter_sharpness(self):
        # a_ell(delta^3) = 1 exactly for ell = 3 mod 8
        f = square_and_multiply(delta_series(BOUND + 1), 3, BOUND + 1)
        primes = prime_array(5, BOUND)
        bits = f.coeffs_at(primes)
        assert bits[primes % 8 == 3].all() and not bits[primes % 8 != 3].any()

    def test_precision_guard(self):
        with pytest.raises(PrecisionError):
            odd_coeff_density(delta_series(100), 100)
        with pytest.raises(PrecisionError):
            odd_coeff_density_shifted(delta_series(100), 3, 50)

    def test_shifted_examples(self):
        n = 3 * BOUND + 1
        d3 = square_and_multiply(delta_series(n), 3, n)
        assert odd_coeff_density_shifted(d3, 3, BOUND).value < 0.01
        d7 = square_and_multiply(delta_series(n), 7, n)
        est = odd_coeff_density_shifted(d7, 3, BOUND)
        assert abs(est.value - 0.25) < 0.02  # T_3 delta^7 = delta^5
        n7 = 7 * BOUND + 1
        c7 = square_and_multiply(c_series(n7), 7, n7)
        assert odd_coeff_density_shifted(c7, 7, BOUND).value < 0.01  # T_7 C^7 = C


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 24])
def test_shift_table_spans_least_shifts(m):
    # least_shift is the least u >= 1 with u*ell ≡ b (mod m), for every unit
    # b mod m (and b = -1 at m = 24, the walk's 24^-1), as scalars and as
    # one array over the primes 5 <= ell <= 2000, which meet every unit class
    ells = prime_array(5, 2000)
    units = [b for b in range(1, m + 1) if math.gcd(b, m) == 1]
    for b in units + ([-1] if m == 24 else []):
        want = [next(u for u in range(1, m + 1) if (u * ell - b) % m == 0)
                for ell in ells.tolist()]
        assert [least_shift(ell, m, b) for ell in ells.tolist()] == want, b
        assert least_shift(ells, m, b).tolist() == want, b


class TestEtaDensityRoutes:
    def test_direct_r9(self):
        est, _ = eta_density(9, BOUND)
        assert abs(est.value - 0.25) < 0.02

    def test_formula_r18(self):
        _, est = eta_density(18, BOUND)
        assert abs(est.value - 0.25) < 0.02

    def test_r24s_route_collapses_to_plain_density(self):
        # m_r = 1: the decomposition is the identity alone
        series = p_r_series(72, 72 // 24 + BOUND + 1)
        direct = odd_coeff_density(series, BOUND)
        _, formula = eta_density(72, BOUND)
        assert formula.hits == direct.hits

    def test_routes_agree_small_r(self):
        for r in range(1, 21):
            d, f = eta_density(r, BOUND)
            assert abs(d.value - f.value) <= 0.02, r

    def test_each_scan_is_kept_under_its_own_bound(self, monkeypatch):
        reads = density_mod.pnt_power_bits
        calls = []

        def counted(r, ks, n):
            calls.append((r, n))
            return reads(r, ks, n)

        monkeypatch.setattr(density_mod, "pnt_power_bits", counted)
        low = eta_density(9, 10_000)
        assert eta_density(9, 10_000) is low
        high = eta_density(9, 20_000)
        assert calls == [(9, 10_001), (9, 20_001)]
        assert high[0].samples == len(prime_array(5, 20_000)) != low[0].samples
        monkeypatch.setattr(density_mod, "_scans", {})
        assert eta_density(9, 20_000) == high

    def test_hits_match_q_domain_reads_all_r_to_132(self):
        bound = 10_000
        primes = [p for p in trial_division_primes(bound) if p >= 5]
        for r in range(1, 133):
            want = q_domain_route_hits(r, primes, bound)
            got = tuple(est.hits for est in eta_density(r, bound))
            assert got == want, r

    def test_routes_read_the_same_bit_wherever_u_ell_reaches_b_r(self):
        # direct reads ell*mu = b_r + m_r*delta and formula u*ell with
        # mu ≡ u (mod m_r); the window lifts mu above u only where
        # u*ell < b_r, and there the formula read falls below P_r's first
        # term q^(b_r)
        bound = 10_000
        primes = prime_array(5, bound)
        for r in range(1, 133):
            p = EtaPowerParams.for_power(r)
            series = p_r_series(r, p.b_r + p.m_r * bound + 1)
            u = least_shift(primes, p.m_r, p.b_r)
            delta = np.array([mu_delta(int(ell), r).delta for ell in primes])
            direct = series.coeffs_at(p.b_r + p.m_r * delta)
            formula = series.coeffs_at(u * primes)
            reach = u * primes >= p.b_r
            assert np.array_equal(direct[reach], formula[reach]), r
            assert not formula[~reach].any(), r
            got = eta_density(r, bound)
            assert got[0].hits == int(direct.sum()), r
            assert got[1].hits == int(formula.sum()), r

    def test_one_least_shift_per_scan(self, monkeypatch):
        # the formula row's mask u*ell >= b_r reuses the least shifts of
        # the read index, so a scan computes them once
        calls = []

        def counted(*args):
            calls.append(args)
            return least_shift(*args)

        monkeypatch.setattr(density_mod, "least_shift", counted)
        for n, r in enumerate((1, 18, 127), start=1):
            eta_density(r, BOUND)
            assert len(calls) == n, r

    def test_eta_path_requests_only_odd_pnt_powers(self, monkeypatch):
        # P_r = q^(b_r) pnt^r(q^(m_r)) and pnt^r(y) = pnt^o(y^(2^v)): the
        # scans and the series ask the cache for odd powers of pnt (the h of
        # C) alone, and never for a delta power
        requests = []
        power = genforms.generator_power

        def recorded(gen, e, n):
            requests.append((gen, e))
            return power(gen, e, n)

        monkeypatch.setattr(genforms, "_powers", {})
        monkeypatch.setattr(genforms, "generator_power", recorded)
        odd_parts = {("C", r // (r & -r)) for r in range(1, 133)}
        for r in range(1, 133):
            eta_density(r, 2000)
        assert set(requests) == odd_parts
        requests.clear()
        for r in range(1, 133):
            p = EtaPowerParams.for_power(r)
            p_r_series(r, p.b_r + 64 * p.m_r)
        assert set(requests) == odd_parts

    def test_blocks_add_up_to_one_pass(self, monkeypatch):
        # 100 odd integers to a block, so a scan to 10^4 takes 50 blocks
        bound = 10_000
        whole = {r: eta_density(r, bound) for r in (1, 5, 18, 72, 127)}
        f = delta_series(bound + 1)
        one_pass = odd_coeff_density(f, bound)
        monkeypatch.setattr(primes_mod, "BLOCK_ODDS", 100)
        cache_primes_to(monkeypatch, bound)
        monkeypatch.setattr(density_mod, "_scans", {})
        assert {r: eta_density(r, bound) for r in whole} == whole
        assert odd_coeff_density(f, bound) == one_pass

    def test_scan_transient_does_not_grow_with_the_bound(self):
        # beyond the pnt power and the primes that stay cached, a scan holds
        # one block of primes at a time, whatever the bound
        transients = []
        for bound in (10**5, 10**6):
            eta_density(127, bound)  # builds and caches pnt^127, sieves
            del density_mod._scans[(127, bound)]
            tracemalloc.start()
            try:
                eta_density(127, bound)
                transients.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = transients
        assert large < 1.25 * small
        assert large < density_mod._SCAN_BYTES_PER_PRIME * 8192

    def test_zero_prime_scans_raise(self):
        for bound in (-7, 0, 4):
            with pytest.raises(EmptyScanError):
                eta_density(1, bound)
            with pytest.raises(EmptyScanError):
                eta_density(18, bound)
        with pytest.raises(EmptyScanError):
            odd_coeff_density(delta_series(100), 4)

    def test_per_class_hits_match_shifted_reads(self):
        # hits of the direct scan in the class c (mod m_r) equal hits of the
        # u_c-shifted read in that class, prime by prime beyond b_r
        r, bound = 18, 5000
        params_m, params_b = 4, 3
        series = p_r_series(r, params_b + params_m * bound + 1)
        primes = prime_array(5, bound)
        for c in (1, 3):
            cls = primes[primes % params_m == c]
            cls = cls[cls > params_b]
            u_c = 3 if c == 1 else 1  # least u with u*c = 3 mod 4
            direct_bits = []
            for ell in cls:
                idx = mu_delta(int(ell), r)
                direct_bits.append(series.coeff(idx.ell * idx.mu))
            shifted_bits = series.coeffs_at(u_c * cls)
            assert np.array_equal(np.array(direct_bits, dtype=np.uint8),
                                  shifted_bits)


class TestBatchScan:
    """eta_densities scans a batch of r in one pass over the primes."""

    @settings(max_examples=40, deadline=None)
    @given(rs=st.lists(st.integers(1, 256), min_size=1, max_size=12),
           bound=st.sampled_from([5, 7, 97, 20_000]))
    # b_r of 253, 251, 125 and 97 lies above the first primes, so their
    # indices wrap mod ell there; 97 and 1 share the group
    # (m_r, b_r mod m_r) = (24, 1), and 125 and 5 share (24, 5)
    @example(rs=[253, 251, 97, 250, 125, 97, 1, 5], bound=97)
    @example(rs=[256, 255, 24, 48, 5, 7], bound=20_000)
    def test_batch_matches_one_at_a_time(self, rs, bound):
        density_mod._scans.clear()
        got = [(d.hits, f.hits, d.samples) for d, f in eta_densities(rs, bound)]
        assert got == [eta_density_one_at_a_time(r, bound) for r in rs]

    def test_one_decode_of_each_prime_block(self, monkeypatch):
        # the table at 10^5 reads its 9 590 primes as two blocks: one batch
        # decodes each once, where a pass per r decodes each 132 times
        bound, rs = 10**5, range(1, 133)
        cache_primes_to(monkeypatch, bound)
        decode = primes_mod.PrimeTable._block
        decoded = []

        def counted(table, c):
            decoded.append(c)
            return decode(table, c)

        monkeypatch.setattr(primes_mod.PrimeTable, "_block", counted)
        eta_densities(rs, bound)
        assert decoded == [0, 1]
        decoded.clear()
        for r in rs:
            eta_density_one_at_a_time(r, bound)
        assert len(decoded) == 264

    def test_batch_past_physical_memory_exits_two_before_building(
            self, monkeypatch, capsys):
        # each r's own scan fits in the limit, the batch's pnt^o do not
        bound, rs = 20_000, range(1, 133)
        alone = max(density_mod._scan_bytes([r], bound) for r in rs)
        assert density_mod._scan_bytes(rs, bound) > alone
        monkeypatch.setattr(primes_mod, "_physical_memory", lambda: alone)
        for r in rs:
            primes_mod.require_memory(density_mod._scan_bytes([r], bound), "")

        def must_not_run(*args):
            raise AssertionError("built despite the memory check")

        monkeypatch.setattr(genforms, "_powers", {})
        monkeypatch.setattr(genforms, "mul", must_not_run)
        monkeypatch.setattr(density_mod, "pnt_power_bits", must_not_run)
        assert cli.main(["density", "--r", "1..132", "--prime-bound",
                         str(bound), "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "physical memory" in err
        assert "132 eta powers" in err and density_mod._scans == {}


class TestExactValues:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64,
                                   96, 128, 160, 144])
    def test_zero_classification(self, r):
        assert eta_density_exact(r) == 0

    @pytest.mark.parametrize("r,num,log", [
        (9, 1, 2), (15, 1, 2), (18, 1, 2), (27, 3, 3), (30, 1, 2),
        (33, 1, 2), (36, 1, 2), (51, 3, 3), (54, 3, 3), (60, 1, 2),
        (66, 1, 2), (72, 1, 2), (99, 3, 4), (102, 1, 3), (108, 1, 3),
        (120, 1, 2), (129, 1, 3), (132, 1, 3), (513, 1, 4), (5, 1, 3),
        (84, 1, 3), (21, 5, 3), (42, 3, 3), (114, 1, 2), (104, 1, 3),
    ])
    def test_known_values(self, r, num, log):
        assert eta_density_exact(r) == Fraction(num, 1 << log)

    @pytest.mark.parametrize("r", [11, 17, 45, 105, 131])
    def test_unknown_values(self, r):
        assert eta_density_exact(r) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eta_density_exact(0)


class TestBoundsAndReport:
    def test_bounds_small(self):
        rows = verify_bounds(12, BOUND)
        assert all(row.ok for row in rows)
        limits = {row.r: row.limit for row in rows}
        assert limits[3] == 1.0 and limits[6] == 0.5 and limits[8] == 0.25

    def test_report_row_schema(self):
        est, _ = eta_density(9, BOUND)
        row = density_report_row(9, BOUND, "direct", est)
        assert tuple(row) == REPORT_COLUMNS
        assert row["exact"] == "1/4" and row["m_r"] == 8
