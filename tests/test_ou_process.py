import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sheardisp.ou_process import (
    OUParams,
    OUPath,
    _CSV_BLOCK,
    _cumtrapz,
    _decay_scan,
    _write_csv,
    integral_variance,
    sample_ou,
    time_grid,
    transition_moments,
)


class TestParamsAndPathValidation:
    def test_params(self):
        with pytest.raises(ValueError):
            OUParams(gamma=-1.0)
        with pytest.raises(ValueError):
            OUParams(gamma=0.0)

    @pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan])
    def test_params_reject_non_finite(self, gamma):
        # an infinite gamma once passed and sampled to [-inf, inf, ...]
        with pytest.raises(ValueError, match="^gamma must be positive and finite"):
            OUParams(gamma)

    def test_path_grid(self):
        with pytest.raises(ValueError):
            OUPath(times=np.array([0.5, 1.0]), values=np.zeros(2))
        with pytest.raises(ValueError):
            OUPath(times=np.array([0.0, 1.0, 1.0]), values=np.zeros(3))
        with pytest.raises(ValueError):
            sample_ou(OUParams(1.0), np.array([]), seed=0)
        with pytest.raises(ValueError, match="uniform"):
            OUPath(times=np.array([0.0, 0.1, 0.3]), values=np.zeros(3))
        for bad in (math.nan, math.inf):        # a NaN or inf node past the first step
            with pytest.raises(ValueError, match="uniform"):
                OUPath(times=np.array([0.0, 0.1, 0.2, bad, 0.4]), values=np.zeros(5))
        # trapezoids of 0.5: I = [0, 0.3, -0.1]
        p = OUPath(times=time_grid(1.0, 0.5), values=np.array([0.0, 1.2, -2.8]))
        assert p.dt == 0.5
        assert p.integral_at(0.75) == pytest.approx(0.1, abs=1e-15)

    def test_integral_at_outside_span(self):
        p = OUPath(times=time_grid(1.0, 0.5), values=np.array([0.0, 1.2, -2.8]))
        assert p.integral_at(1.0 + 1e-12) == p.integral[-1]     # roundoff slack
        assert p.integral_at(-1e-12) == 0.0
        for t in (-1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="span"):
                p.integral_at(t)

    def test_integral_at_the_end_is_interp(self):
        # at and just past t_end integral_at returns the last node's I
        # directly; that is np.interp's value there, bit for bit
        p = sample_ou(OUParams(1.0), time_grid(1.0, 1e-3), seed=3, realization=1)
        for t in (p.t_end, p.t_end + 0.5e-9 * p.dt, p.times[-2], 0.4567):
            assert p.integral_at(t) == float(np.interp(t, p.times, p.integral))

    def test_path_rejects_an_integral_that_overflows(self):
        # finite values whose running sum passes the largest float (NaN and
        # inf values are BAD_INPUTS rows in test_monte_carlo.py); numpy's
        # overflow warning, an error under this suite's filters, is not what
        # the caller gets
        with pytest.raises(ValueError, match="^values must be finite"):
            OUPath(times=time_grid(10.0, 1.0), values=np.full(11, 8e307))

    @pytest.mark.parametrize("n", [2, 1_001, 80_001])
    def test_cumtrapz_is_the_cumsum_formula(self, n):
        values = np.random.default_rng(n).standard_normal(n)
        dt = 1.0 / (n - 1)
        ref = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * (0.5 * dt))])
        assert np.array_equal(_cumtrapz(values, dt), ref)

    @pytest.mark.parametrize("t_end, dt, field", [
        (math.inf, 0.1, "t_end"), (math.nan, 0.1, "t_end"), (-1.0, 0.1, "t_end"),
        (0.5, 0.0, "dt"), (1.0, -0.1, "dt"), (1.0, math.nan, "dt"),
    ])
    def test_time_grid_rejects(self, t_end, dt, field):
        with pytest.raises(ValueError, match=f"^{field} must"):
            time_grid(t_end, dt)

    def test_non_uniform_grid_raises(self):
        # the exact transition runs as one fixed-step recurrence
        with pytest.raises(ValueError, match="uniform"):
            sample_ou(OUParams(1.0), np.array([0.0, 0.1, 0.3]), seed=0)

    @pytest.mark.parametrize("bad", [2e-9, -2e-9, math.nan])
    def test_one_interior_node_off_grid_raises(self, bad):
        # the check allows 1e-9 dt of roundoff; twice that on one node is a
        # different grid, and a NaN node is no grid
        grid = time_grid(1.0, 0.01)
        grid[37] += bad * 0.01
        with pytest.raises(ValueError, match="uniform"):
            OUPath(times=grid, values=np.zeros(grid.size))
        grid[37] = 0.37 + 0.5e-9 * 0.01
        assert OUPath(times=grid, values=np.zeros(grid.size)).dt == 0.01


class TestExactTransition:
    def test_zero_step_is_identity(self):
        # a degenerate step propagates the state unchanged: mean factor 1,
        # conditional variance 0
        for gamma in (0.3, 1.0, 12.0):
            decay, var = transition_moments(gamma, 0.0)
            assert decay == 1.0
            assert var == 0.0

    def test_half_step_composition(self):
        # composing two exact half-steps equals one full step in law
        for gamma in (0.2, 1.0, 7.5, 40.0):
            for dt in (1e-4, 0.05, 1.0, 10.0):
                d_full, v_full = transition_moments(gamma, dt)
                d_half, v_half = transition_moments(gamma, dt / 2)
                assert abs(d_half**2 - d_full) < 1e-12
                assert abs(v_half * (1 + d_half**2) - v_full) < 1e-12 * max(1.0, v_full)


class TestReproducibility:
    def test_bit_for_bit(self):
        grid = time_grid(2.0, 0.01)
        a = sample_ou(OUParams(1.5), grid, seed=42)
        b = sample_ou(OUParams(1.5), grid, seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.integral, b.integral)
        c = sample_ou(OUParams(1.5), grid, seed=43)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("gamma, values, integral", [
        # one scan block (gamma 1) and three blocks of four nodes (gamma 500)
        (1.0, [-0.14286862918559967, 0.06705915464039101, -0.2735432021836825,
               -0.31875874847178126],
         [-0.004738092159075541, 0.0011194921941234809, -0.2775694114439674]),
        (500.0, [-3.1946396671121127, 9.182608325701377, -10.52756981469476,
                 16.33780238778252],
         [0.374248041161829, -0.26640615682311686, -3.75532428593197]),
    ])
    def test_stream_is_pinned(self, gamma, values, integral):
        # frozen bits: a change to the draw, the scan or the trapezoid that
        # moves one of these entries by one ulp fails here
        p = sample_ou(OUParams(gamma), time_grid(1.0, 0.125), seed=2024, realization=5)
        assert p.values[[0, 1, 4, 8]].tolist() == values
        assert p.integral[[1, 4, 8]].tolist() == integral

    def test_realizations_independent_of_order(self):
        grid = time_grid(1.0, 0.05)
        params = OUParams(2.0)
        forward = [sample_ou(params, grid, seed=7, realization=i) for i in range(8)]
        backward = [sample_ou(params, grid, seed=7, realization=i)
                    for i in reversed(range(8))][::-1]
        for f, b in zip(forward, backward):
            assert np.array_equal(f.values, b.values)

    def test_thread_pool_matches_sequential(self):
        grid = time_grid(1.0, 0.05)
        params = OUParams(1.0)
        sequential = [sample_ou(params, grid, seed=11, realization=i) for i in range(16)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(
                lambda i: sample_ou(params, grid, seed=11, realization=i), range(16)))
        for s, t in zip(sequential, threaded):
            assert np.array_equal(s.values, t.values)


class TestStationaryStatistics:
    def test_marginal_variance(self):
        # marginal variance gamma/2 at an interior time, within 3 SE
        gamma = 3.0
        grid = time_grid(1.0, 0.25)
        vals = np.array([sample_ou(OUParams(gamma), grid, seed=5, realization=i).values[2]
                         for i in range(12_000)])
        target = gamma / 2
        se = target * np.sqrt(2 / 12_000)
        assert abs(vals.var() - target) < 3 * se

    def test_autocovariance_lag_one(self):
        # (gamma/2) e^{-gamma tau} at tau = 1, gamma = 1
        grid = np.array([0.0, 1.0])
        prods = np.empty(20_000)
        for i in range(20_000):
            p = sample_ou(OUParams(1.0), grid, seed=123, realization=i)
            prods[i] = p.values[0] * p.values[1]
        target = 0.5 * np.exp(-1.0)
        se = prods.std() / np.sqrt(prods.size)
        assert abs(prods.mean() - target) < 3.5 * se


class TestIntegration:
    def test_zero_integrand(self):
        grid = time_grid(3.0, 0.5)
        p = OUPath(times=grid, values=np.zeros_like(grid))
        assert np.all(p.integral == 0.0)

    def test_constant_integrand(self):
        grid = time_grid(3.0, 0.25)
        p = OUPath(times=grid, values=np.full_like(grid, 1.7))
        assert np.max(np.abs(p.integral - 1.7 * grid)) < 1e-12

    def test_integral_variance_formula(self):
        # Var I(5) = 5 + (e^{-10} - 1)/2 for gamma = 2
        gamma = 2.0
        assert float(integral_variance(gamma, 5.0)) == pytest.approx(
            5.0 + (np.exp(-10.0) - 1.0) / 2.0, rel=1e-14)
        grid = time_grid(5.0, 0.01)
        I = np.array([sample_ou(OUParams(gamma), grid, seed=321, realization=i).integral[-1]
                      for i in range(8_000)])
        target = float(integral_variance(gamma, 5.0))
        se = target * np.sqrt(2 / I.size)
        assert abs(I.var() - target) < 3.5 * se

    def test_variance_growth_rate(self):
        # E[I(t)^2]/t -> 1 as t grows (gamma = 1): brute-force MC at t = 100
        grid = time_grid(100.0, 0.1)
        I = np.array([sample_ou(OUParams(1.0), grid, seed=99, realization=i).integral[-1]
                      for i in range(10_000)])
        assert abs(np.mean(I**2) / 100.0 - 1.0) < 0.05


def test_csv_export(tmp_path):
    path = sample_ou(OUParams(1.0), time_grid(1.0, 0.25), seed=3)
    out = tmp_path / "path.csv"
    path.to_csv(out)
    assert out.read_text().splitlines()[0] == "t,xi,integral"
    expected = np.column_stack([path.times, path.values, path.integral])
    assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1), expected)


@pytest.mark.parametrize("rows", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_csv_reads_back_like_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, np.finfo(float).max, np.finfo(float).tiny]
    columns = [np.arange(rows) * 0.01, rng.standard_normal(rows) * 1e-300,
               rng.standard_normal(rows) * 1e300, rng.standard_normal(rows),
               np.resize(specials, rows)]
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    _write_csv(ours, "a,b,c,d,e", columns)
    np.savetxt(theirs, np.column_stack(columns), delimiter=",", header="a,b,c,d,e", comments="")
    assert ours.read_text().splitlines()[0] == theirs.read_text().splitlines()[0]
    read = [np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2) for f in (ours, theirs)]
    assert read[0].shape == (rows, 5)
    # bit-exact, signed zero included
    assert np.array_equal(read[0].view(np.int64), read[1].view(np.int64))
    assert np.array_equal(read[0], np.column_stack(columns), equal_nan=True)


def test_csv_memory_is_bounded_by_the_block(tmp_path):
    # formatting the whole 200k x 4 table as one string peaks above 50 MB
    # (float objects plus text); a block at a time stays far below that
    columns = list(np.random.default_rng(0).standard_normal((4, 200_000)))
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "big.csv", "a,b,c,d", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


_SCAN_DECAYS = [0.0, 1e-20, math.exp(-45), math.exp(-4), math.exp(-0.4), 0.99, 0.995,
                1 - 1e-5, 1 - 1e-9]


def _scan_lengths(d):
    """1, L - 1, L, L + 1 around the block length L = ceil(200/|ln d|) where
    it is short enough, and a long path."""
    log_d = -math.log(d) if d > 0.0 else math.inf
    length = math.ceil(200.0 / log_d) if log_d > 0.0 else 80_000
    edges = [length - 1, length, length + 1] if length < 80_000 else []
    return sorted({1, *(n for n in edges if n >= 1), 80_001})


class TestDecayScan:
    """The blocked scan against the first-order filter and a plain loop."""

    @pytest.mark.parametrize("d", _SCAN_DECAYS)
    def test_matches_lfilter(self, d):
        from scipy.signal import lfilter
        rng = np.random.default_rng(11)
        for n in _scan_lengths(d):
            inp = rng.standard_normal(n)
            ref = lfilter([1.0], [1.0, -d], inp)
            assert np.max(np.abs(_decay_scan(inp, d) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("d", _SCAN_DECAYS + [math.nextafter(1.0, 0.0), 1.0])
    def test_matches_loop(self, d):
        rng = np.random.default_rng(12)
        for n in (m for m in _scan_lengths(d) if m <= 2_000):
            inp = rng.standard_normal(n)
            ref, acc = np.empty(n), 0.0
            for k in range(n):
                acc = d * acc + inp[k]
                ref[k] = acc
            assert np.max(np.abs(_decay_scan(inp, d) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_stacked_rows_are_their_one_row_scans(self):
        # one d per row of the last leading axis, with d = 0, d = 1, one
        # block and several blocks mixed: each row gets its 1-D scan's bits
        rng = np.random.default_rng(13)
        d = [0.0, 1.0, 0.999, 0.5, math.exp(-1e-3), 0.97]
        inp = rng.standard_normal((2, len(d), 3_000))
        out = _decay_scan(inp, d)
        for i, j in np.ndindex(*inp.shape[:2]):
            assert np.array_equal(out[i, j], _decay_scan(inp[i, j], d[j]))
        assert np.array_equal(_decay_scan(inp, d[2:3] * 6), _decay_scan(inp, d[2]))

    def test_nine_rate_stack_rows_are_their_float_rate_scans(self):
        # a list of rates takes its weights from one power call and a float
        # rate from the cache; both give every row the same bits, for nine
        # resolvent-like rates in one block (m = 1) and for nine rates that
        # split into several m, some shared
        rng = np.random.default_rng(14)
        resolvent = [math.exp(-math.sqrt(2.5 * n) / 512) for n in range(1, 10)]
        mixed = [math.exp(-c) for c in (1e-3, 0.02, 0.07, 0.1, 0.2, 0.5, 0.9, 1.5, 3.0)]
        for d, n in ((resolvent, 513), (mixed, 3_000)):
            inp = rng.standard_normal((2, len(d), n))
            out = _decay_scan(inp, d)
            for i, j in np.ndindex(*inp.shape[:2]):
                assert np.array_equal(out[i, j], _decay_scan(inp[i, j], d[j]))

    @pytest.mark.parametrize("d", [0.999, math.exp(-0.2), 0.5, math.exp(-1e-3)])
    def test_one_block_float_branch_is_the_general_scan(self, d):
        # a float rate in one block skips the per-rate bookkeeping; at
        # L - 1, L and L + 1 it gives the bits of the same rate as a
        # one-entry list, and in one block those of cumsum on d^-j weights
        length = math.ceil(200.0 / -math.log(d))
        rng = np.random.default_rng(15)
        for n in (length - 1, length, length + 1):
            inp = rng.standard_normal(n)
            out = _decay_scan(inp, d)
            assert np.array_equal(out, _decay_scan(inp[None, :], [d])[0])
            if n <= length:
                j = np.arange(n, dtype=float)
                assert np.array_equal(out, np.cumsum(inp * d**-j) * d**j)

    def test_leaves_input_alone(self):
        inp = np.arange(5.0)
        out = _decay_scan(inp, 0.0)
        out[0] = 9.0
        assert np.array_equal(inp, np.arange(5.0))
        assert np.array_equal(_decay_scan(inp, 0.5), [0.0, 1.0, 2.5, 4.25, 6.125])
