import math
import warnings

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import gammainc

from sheardisp.acceptance import _residual_order
from sheardisp.spectral_core import (
    GridFunction,
    HermiteSeries,
    _decay_integral,
    _exp_moments,
    _helmholtz_rows,
    cosine_project,
    helmholtz_inverse,
    hermite_norm,
    hermite_project,
)


class TestGridFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.linspace(0, 1, 6), np.zeros(6))      # too coarse
        with pytest.raises(ValueError):
            GridFunction(np.linspace(0, 1, 10), np.zeros(10))    # odd interval count
        nodes = np.linspace(0, 1, 11) ** 1.1
        with pytest.raises(ValueError):
            GridFunction(nodes / nodes[-1], np.zeros(11))        # non-uniform
        g = GridFunction.from_callable(lambda y: y, 8)
        with pytest.raises(ValueError):
            g.with_values(np.zeros(8))                           # wrong shape
        h = g.with_values(np.ones(9))
        assert h.nodes is g.nodes and g.values[0] == 0.0 and h.values[0] == 1.0

    def test_nan_node_is_not_uniform(self):
        # the one-reduction spacing check must fail for NaN, which every
        # comparison rejects, not pass it as max|h - h_0| = NaN <= bound
        nodes = np.linspace(0, 1, 9)
        nodes[4] = np.nan
        with pytest.raises(ValueError, match="uniform"):
            GridFunction(nodes, np.zeros(9))

    def test_lookup_slope_follows_the_values(self):
        # the slope is kept with the values array it was made from: a copy
        # with new values (with_values, centered) looks up its own profile
        g = GridFunction.from_callable(lambda y: y**2, 64)
        y = np.linspace(-0.1, 1.1, 301)
        before = g(y)
        for h, f in ((g.with_values(np.cos(3 * g.nodes)), lambda y: np.cos(3 * y)),
                     (g.centered(), lambda y: y**2 - g.mean())):
            assert np.array_equal(h(y), np.interp(y, h.nodes, f(h.nodes)))
        assert np.array_equal(g(y), before)

    def test_lookup_matches_interp(self):
        # index arithmetic on the uniform grid against np.interp on its nodes:
        # identical on power-of-two grids, where every node and y N are exact
        rng = np.random.default_rng(1)
        g = GridFunction.from_callable(lambda y: np.sin(7 * y) + y**3 - 0.3, 512)
        y = np.concatenate((rng.uniform(0, 1, 100_000), g.nodes,
                            [0.0, 1.0, np.nextafter(1.0, 0.0), -0.5, 1.5, -np.inf, np.inf]))
        ref = np.interp(y, g.nodes, g.values)
        assert np.all(np.abs(g(y) - ref) <= np.spacing(np.abs(ref)))
        assert g(0.3) == np.interp(0.3, g.nodes, g.values)
        assert g(2.0) == g.values[-1] and g(-1.0) == g.values[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(g(np.nan))
            out = g(np.array([np.nan, 0.5]))
        assert np.isnan(out[0]) and out[1] == np.interp(0.5, g.nodes, g.values)
        # out= builds the same bits in a caller's buffer, NaN entry included
        y_nan = np.append(y, np.nan)
        buf = np.empty_like(y_nan)
        assert g(y_nan, out=buf) is buf
        assert np.array_equal(buf, g(y_nan), equal_nan=True) and np.isnan(buf[-1])
        # other interval counts: linspace nodes are rounded, so the two
        # differ by node rounding times the slope (measured 1.3e-15 at n = 510)
        g = GridFunction.from_callable(lambda y: np.sin(7 * y) + y**3 - 0.3, 510)
        bound = 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(np.diff(g.values))) / g.h)
        assert np.max(np.abs(g(y) - np.interp(y, g.nodes, g.values))) <= bound

    def test_lookup_is_the_allocating_formula(self):
        # bit for bit the allocating v_i + (s - i) slope_i with an integer
        # gather, on arrays, Python floats and 0-d arrays, NaN, values off
        # [0, 1], exact nodes and y = 1, with and without out (y itself)
        def reference(g, y):
            n = g.nodes.size - 1
            s = np.clip(np.asarray(y, dtype=float), 0.0, 1.0) * n
            i = np.fmin(np.floor(s), n)
            k = i.astype(np.intp)
            return g.values[k] + (s - i) * np.ediff1d(g.values, to_end=0.0)[k]

        rng = np.random.default_rng(3)
        for n in (8, 10, 510, 512):
            g = GridFunction.from_callable(lambda y: np.sin(7 * y) + y**3 - 0.3, n)
            y = np.concatenate((rng.uniform(-0.5, 1.5, 10_000), g.nodes,
                                [np.nan, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                                 -np.inf, np.inf, -1e300, 1e300]))
            ref = reference(g, y)
            assert np.array_equal(g(y), ref, equal_nan=True)
            aliased = y.copy()
            assert g(aliased, out=aliased) is aliased
            assert np.array_equal(aliased, ref, equal_nan=True)
            for v in (0.3, 1.0, 0.0, -2.0, 7.5, math.nan, g.nodes[3], np.array(0.625)):
                got = g(v)
                assert type(got) is np.float64
                assert np.array_equal(got, reference(g, v), equal_nan=True), (n, v)

    def test_quadrature(self):
        g = GridFunction.from_callable(lambda y: np.sin(np.pi * y), 128)
        assert abs(g.mean() - 2 / np.pi) < 1e-8
        assert abs(g.centered().mean()) < 1e-14

    def test_inner_rule(self):
        # Boole's rule is exact for quintics when 4 divides the interval
        # count (Simpson misses int y^5 by 8.1e-5 at n = 8); with n = 10 the
        # inner product is plain Simpson, which misses it by 3.3e-5
        for n, boole in ((8, True), (10, False)):
            sq = GridFunction.from_callable(lambda y: y**2, n)
            cube = GridFunction.from_callable(lambda y: y**3, n)
            expected = 1 / 6 if boole else simpson(sq.nodes**5, x=sq.nodes)
            assert sq.inner(cube) == pytest.approx(expected, abs=1e-15)
            assert abs(simpson(sq.nodes**5, x=sq.nodes) - 1 / 6) > 1e-5


class TestHelmholtzNeumann:
    def test_eigenfunction(self):
        # cos(pi y) is a Neumann eigenfunction: b = a / (1 + pi^2)
        a = GridFunction.from_callable(lambda y: np.cos(np.pi * y), 512)
        b = helmholtz_inverse(a, 1.0, "no-flux")
        assert np.max(np.abs(b.values - a.values / (1 + np.pi**2))) < 1e-8

    def test_zero_rhs(self):
        a = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        b = helmholtz_inverse(a, 3.7, "no-flux")
        assert np.all(b.values == 0.0)

    def test_solvability_and_domain_errors(self):
        # only 0 < lambda < inf: steady Taylor's lambda = 0 term has its own form
        a = GridFunction.from_callable(lambda y: 1.0 + 0.0 * y, 64)
        for bc in ("no-flux", "periodic"):
            for lam in (-1.0, 0.0):
                with pytest.raises(ValueError, match="^lambda must be finite"):
                    helmholtz_inverse(a, lam, bc)

    @pytest.mark.parametrize("bc", ["no-flux", "periodic"])
    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_raises(self, bc, lam):
        # lam = inf once returned all-NaN rows under a RuntimeWarning
        a = GridFunction.from_callable(np.cos, 64)
        with pytest.raises(ValueError, match="^lambda must be finite"):
            helmholtz_inverse(a, lam, bc)

    def test_boundary_conditions(self):
        # data that is not itself periodic; lam = 400 is a stiff wavenumber
        a = GridFunction.from_callable(lambda y: y**2 + np.sin(3 * y), 1024)
        for lam in (2.5, 400.0):
            b = helmholtz_inverse(a, lam, "no-flux")
            d0, d1 = _wall_derivatives(b)
            assert abs(d0) < 1e-4 and abs(d1) < 1e-4

    def test_large_lambda_eigenfunction(self):
        # s = 1000: the kernel decays within half a step, and cannot overflow
        a = GridFunction.from_callable(lambda y: np.cos(np.pi * y), 512)
        lam = 1e6
        b = helmholtz_inverse(a, lam, "no-flux")
        rel = np.max(np.abs(b.values - a.values / (lam + np.pi**2))) * (lam + np.pi**2)
        assert rel < 1e-9


class TestHelmholtzPeriodic:
    def test_eigenfunction(self):
        a = GridFunction.from_callable(lambda y: np.sin(2 * np.pi * y), 512)
        b = helmholtz_inverse(a, 1.0, "periodic")
        assert np.max(np.abs(b.values - a.values / (1 + 4 * np.pi**2))) < 1e-8

    def test_zero_rhs(self):
        a = GridFunction.from_callable(lambda y: 0.0 * y, 64)
        assert np.all(helmholtz_inverse(a, 1.0, "periodic").values == 0.0)

    def test_boundary_conditions(self):
        a = GridFunction.from_callable(lambda y: y**2 + np.sin(3 * y), 1024)
        for lam in (2.5, 400.0):
            b = helmholtz_inverse(a, lam, "periodic")
            assert abs(b.values[0] - b.values[-1]) < 1e-12
            d0, d1 = _wall_derivatives(b)
            assert abs(d0 - d1) < 1e-4


def _wall_derivatives(b):
    """One-sided O(h^2) derivative estimates at y = 0 and y = 1."""
    h = b.h
    d0 = (-3 * b.values[0] + 4 * b.values[1] - b.values[2]) / (2 * h)
    d1 = (3 * b.values[-1] - 4 * b.values[-2] + b.values[-3]) / (2 * h)
    return d0, d1


@pytest.mark.parametrize("bc", ["no-flux", "periodic"])
def test_residual_second_order(bc):
    assert _residual_order(bc, 1.0) >= 1.9


@pytest.mark.parametrize("bc, k", [("no-flux", np.pi), ("periodic", 2 * np.pi)],
                         ids=["no-flux", "periodic"])
def test_eigenfunction_near_switch(bc, k):
    # s = 11.9, where a cosh/sinh split of the kernel would cancel like
    # exp(2s)*eps (2.7e-6 and 1.9e-6 here)
    a = GridFunction.from_callable(lambda y: np.cos(k * y), 2048)
    lam = 11.9**2
    b = helmholtz_inverse(a, lam, bc)
    assert np.max(np.abs(b.values * (lam + k**2) - a.values)) < 1e-9


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-2, 1.0, 100.0, 144.0, 145.0, 1e4, 1e6, 1e10])
@pytest.mark.parametrize("bc, k, bound", [("no-flux", np.pi, 1e-9),
                                          ("periodic", 2 * np.pi, 5e-9)],
                         ids=["no-flux", "periodic"])
def test_eigenfunction_every_lambda(bc, k, bound, lam):
    # one fourth-order kernel integral at every s: 2e-12 to 3e-11 (no-flux)
    # and 3e-11 to 1.4e-9 (periodic) at n = 512.  lam = 1e10 puts s h = 195,
    # where a 16-point Gauss-Legendre rule for the step weights is off by
    # 3e-2; at lam <= 1e-4 the walls amplify the error of F(1) and B(0) by
    # 1/lam (periodic 1.5e-6 at 1e-4) unless lam mean(b) = mean(a) fixes b's mean
    a = GridFunction.from_callable(lambda y: np.cos(k * y), 512)
    b = helmholtz_inverse(a, lam, bc)
    assert np.max(np.abs(b.values * (lam + k**2) - a.values)) < bound


def test_exp_moments_against_incomplete_gamma():
    # int_0^1 exp(-x u) u^k du = k! P(k + 1, x) / x^(k + 1), both sides of
    # the series/recursion switch at x = 1 included
    x = np.concatenate((np.logspace(-9, 4, 400), [1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    k = np.arange(4.0)
    oracle = gammainc(k + 1.0, x[:, None]) * [1.0, 1.0, 2.0, 6.0] / x[:, None] ** (k + 1.0)
    mine = np.array([_exp_moments(xi) for xi in x])
    assert np.max(np.abs(mine / oracle - 1.0)) <= 1e-13
    # x = 0: m_k = 1/(k + 1), so the zero-rate decay integral is the
    # running integral, exact for cubics (a cubic on n = 16)
    assert np.array_equal(_exp_moments(0.0), 1.0 / (k + 1.0))
    y = np.linspace(0.0, 1.0, 17)
    running = _decay_integral(2 * y**3 - y**2 + 0.5 * y - 0.1, y[1], 0.0)
    assert np.max(np.abs(running - (y**4 / 2 - y**3 / 3 + y**2 / 4 - 0.1 * y))) <= 1e-15


def test_exp_moments_of_an_array_are_its_scalars():
    # one row per x, series and recursion branches mixed, with the bits
    # each x gets alone (the scalar rule the Aris solver takes)
    x = np.array([[0.0, 3e-4, 0.7], [1.0, 2.5, 40.0]])
    m = _exp_moments(x)
    assert m.shape == (2, 3, 4)
    assert np.array_equal(m, [[_exp_moments(float(v)) for v in row] for row in x])


@pytest.mark.parametrize("bc", ["no-flux", "periodic"])
@pytest.mark.parametrize("lams", [[2.0, 900.0, 9216.0, 0.05],        # x = s h up to 1.5, one block
                                  [3.0, 400.0, 9e4, 1e10]],          # s = 300 and 1e5: mixed blocks
                         ids=["one-block", "multi-block"])
def test_stacked_rows_match_one_row_calls(bc, lams):
    # x = s h on the n = 64 grid: sqrt(2)/64 and 30/64 take the series,
    # 96/64 = 1.5 the recursion; s = 300 needs (n - 1) s h > 200, so its
    # row scans in two blocks, and s = 1e5 underflows exp(-s h) to 0, beside
    # one-block rows in the same stack
    rng = np.random.default_rng(7)
    nodes = np.linspace(0.0, 1.0, 65)
    rows = np.array([np.cos(k * np.pi * nodes) + rng.normal(size=4) @ [np.ones(65), nodes, nodes**2, nodes**3]
                     for k in range(len(lams))])
    stacked = _helmholtz_rows(rows, nodes, np.array(lams), bc)
    for row, lam, b in zip(rows, lams, stacked):
        one = helmholtz_inverse(GridFunction(nodes, row), lam, bc).values
        assert np.max(np.abs(b - one)) <= 1e-14 * np.max(np.abs(one))


def _unit_series(n: int) -> HermiteSeries:
    """Series whose vbar is H_n, n >= 1 (a_n = 1, every other mode 0)."""
    nodes = np.linspace(0.0, 1.0, 9)
    coeffs = [GridFunction(nodes, np.full(9, float(k == n))) for k in range(n + 1)]
    return HermiteSeries(coeffs)


class TestHermite:
    # the physicists' convention, pinned through HermiteSeries.vbar
    def test_low_order_values(self):
        assert _unit_series(1).vbar(0.3) == pytest.approx(0.6, abs=1e-15)
        assert _unit_series(2).vbar(1.0) == pytest.approx(2.0, abs=1e-13)   # 4z^2 - 2
        z = np.linspace(-3.0, 3.0, 13)
        assert np.max(np.abs(_unit_series(3).vbar(z) - (8 * z**3 - 12 * z))) < 1e-12

    def test_norm_exact(self):
        # n! 2^n, equal to the product prod_k 2k bit for bit up to n = 24
        for n in range(25):
            assert hermite_norm(n) == math.prod(2.0 * k for k in range(1, n + 1))
        assert hermite_norm(3) == 48.0

    def test_norm_identity_by_quadrature(self):
        # (1/sqrt(pi)) int H_n^2 e^{-z^2} dz = n! 2^n
        z, w = np.polynomial.hermite.hermgauss(40)
        for n in range(1, 13):
            hn = _unit_series(n).vbar(z)
            assert np.sum(w * hn * hn) / np.sqrt(np.pi) == pytest.approx(hermite_norm(n), rel=1e-12)

    @pytest.mark.parametrize("n", [512, 510], ids=["boole", "simpson"])
    def test_mean_coefficients_are_the_means(self, n):
        # one stacked product whose rows numpy sums as GridFunction.mean does
        nodes = np.linspace(0.0, 1.0, n + 1)
        rng = np.random.default_rng(n)
        coeffs = [GridFunction(nodes, rng.normal() * np.cos((k + 1) * nodes) + rng.normal(size=n + 1))
                  for k in range(9)]
        coeffs[0] = coeffs[0].centered()
        abar = HermiteSeries(coeffs).mean_coefficients()
        assert np.array_equal(abar, [c.mean() for c in coeffs])

    def test_series_matches_mode_loop(self):
        # reference: the mode-by-mode sum with H_n from the three-term recurrence
        def h(n, z):
            prev, cur = np.ones_like(z), 2.0 * z
            for k in range(1, n):
                prev, cur = cur, 2.0 * z * cur - 2.0 * k * prev
            return prev if n == 0 else cur

        nodes = np.linspace(0.0, 1.0, 65)
        rng = np.random.default_rng(4)
        coeffs = [GridFunction(nodes, rng.normal() * np.cos((n + 1) * nodes)) for n in range(9)]
        coeffs[0] = coeffs[0].centered()
        series = HermiteSeries(coeffs, shift=0.7)

        def loop(y, z):
            return 0.7 + sum(c(y) * h(n, z) for n, c in enumerate(coeffs))

        z = np.linspace(-3.0, 3.0, 31)
        ys = rng.uniform(0.0, 1.0, 31)
        abar = series.mean_coefficients()
        # synthesize works at one z: particles y at each z, and one y at many z
        cases = ((series.vbar(z), sum(abar[n] * h(n, z) for n in range(9))),
                 (np.array([series.synthesize(0.37, zk) for zk in z]), loop(0.37, z)),
                 *((series.synthesize(ys, zk), loop(ys, np.full(31, zk))) for zk in z))
        for got, ref in cases:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        buf = np.empty_like(ys)
        assert series.synthesize(ys, 0.8, out=buf) is buf
        assert np.array_equal(buf, series.synthesize(ys, 0.8))

    def test_orthogonality_table(self):
        z, w = np.polynomial.hermite.hermgauss(64)
        vander = np.polynomial.hermite.hermvander(z, 12)
        gram = (vander.T * w) @ vander / np.sqrt(np.pi)
        norms = np.array([hermite_norm(n) for n in range(13)])
        assert np.max(np.abs(gram - np.diag(norms)) / np.maximum.outer(norms, norms)) < 1e-10


class TestHermiteProject:
    nodes = np.linspace(0.0, 1.0, 257)

    def test_multiplicative_flow(self):
        gamma = 2.3
        series = hermite_project(lambda y, xi: y * xi, gamma, 8, self.nodes)
        assert np.max(np.abs(series.coeffs[1].values
                             - np.sqrt(gamma) / 2 * self.nodes)) < 1e-12
        for n in (0, 2, 3, 4):
            assert np.max(np.abs(series.coeffs[n].values)) < 1e-13

    def test_z_independent_flow(self):
        series = hermite_project(lambda y, xi: np.cos(np.pi * y) + 0.0 * xi,
                                 1.0, 6, self.nodes)
        assert series.shift == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(series.coeffs[0].values - np.cos(np.pi * self.nodes))) < 1e-12
        for n in range(1, 7):
            assert np.max(np.abs(series.coeffs[n].values)) < 1e-13

    def test_quadratic_in_z(self):
        # v(y,z) = y z^2 = y (H_2/4 + 1/2): a_2 = y/4 and a_0 shifts by 1/4
        gamma = 1.7
        series = hermite_project(lambda y, xi: y * (xi / np.sqrt(gamma)) ** 2,
                                 gamma, 6, self.nodes)
        assert np.max(np.abs(series.coeffs[2].values - self.nodes / 4)) < 1e-10
        assert series.shift == pytest.approx(0.25, abs=1e-12)
        assert np.max(np.abs(series.coeffs[0].values
                             - (self.nodes / 2 - 0.25))) < 1e-10

    def test_synthesis_round_trip(self):
        gamma = 1.0
        def flow(y, xi):
            z = xi / np.sqrt(gamma)
            return y * z + 0.3 * z**2 + 0.1
        series = hermite_project(flow, gamma, 6, self.nodes)
        zs = np.linspace(-2.5, 2.5, 9)
        for y in (0.0, 0.37, 1.0):
            target = flow(y, np.sqrt(gamma) * zs)
            got = np.array([series.synthesize(y, z) for z in zs])
            assert np.max(np.abs(got - target)) < 1e-10

    def test_series_requires_centered_a0(self):
        bad = GridFunction(self.nodes, np.ones_like(self.nodes))
        with pytest.raises(ValueError):
            HermiteSeries([bad])

    def test_series_requires_one_grid(self):
        # synthesize sums the modes on the grid, so every a_n shares it
        coarse = GridFunction(np.linspace(0.0, 1.0, 65), np.zeros(65))
        with pytest.raises(ValueError, match="one grid"):
            HermiteSeries([coarse, GridFunction(self.nodes, self.nodes)])


class TestCosineProject:
    def test_single_mode(self):
        u = GridFunction.from_callable(lambda y: np.cos(np.pi * y), 256)
        c = cosine_project(u, 4)
        assert c[1] == pytest.approx(1 / np.sqrt(2), abs=1e-10)
        assert np.max(np.abs(np.delete(c, 1))) < 1e-10

    def test_linear_profile(self):
        u = GridFunction.from_callable(lambda y: y, 512)
        c = cosine_project(u, 6)
        exact = [0.5] + [np.sqrt(2) * ((-1) ** n - 1) / (n**2 * np.pi**2)
                         for n in range(1, 7)]
        assert np.max(np.abs(c - np.array(exact))) < 1e-9

    def test_constant(self):
        u = GridFunction.from_callable(lambda y: 1.0 + 0.0 * y, 64)
        c = cosine_project(u, 5)
        assert c[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c[1:])) < 1e-12

    @pytest.mark.parametrize("n", [8, 10, 64, 510, 512, 2048])
    def test_one_rule(self, n):
        # c_0, the mean (on [0, 1] the integral) and <u, 1> are one quadrature, bit for bit
        u = GridFunction.from_callable(lambda y: np.sin(7 * y) + y**3, n)
        ones = u.with_values(np.ones(n + 1))
        assert cosine_project(u, 6)[0] == u.mean()
        assert u.mean() == u.inner(ones)

    def test_parseval_partial_sums(self):
        u = GridFunction.from_callable(lambda y: y**2 - np.sin(2 * y), 512)
        c = cosine_project(u, 64)
        partial = np.cumsum(c**2)
        assert np.all(np.diff(partial) >= -1e-15)
        assert partial[-1] <= u.inner(u) + 1e-10
        assert abs(partial[-1] - u.inner(u)) < 1e-4
