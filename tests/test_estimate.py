import math
from fractions import Fraction

import numpy as np
import pytest

from bernsimplex import estimate as est
from bernsimplex import spoly
from bernsimplex.simplex import SampleSet, sample_dirichlet
from oracles import _empirical_cdf_many, empirical_cdf, sup_error_on_grid

TWO_POINTS = SampleSet(np.array([[0.1, 0.2], [0.3, 0.4]]), "simplex")


class TestEmpiricalCdf:
    def test_examples(self):
        assert empirical_cdf(TWO_POINTS, (0.3, 0.4)) == 1.0
        assert empirical_cdf(TWO_POINTS, (0.2, 0.3)) == 0.5
        assert empirical_cdf(TWO_POINTS, (0.05, 0.05)) == 0.0

    def test_bad_query(self):
        with pytest.raises(ValueError):
            empirical_cdf(TWO_POINTS, (0.5,))


class TestBernsteinCdfSimplex:
    def test_vertex_collapse_at_origin(self):
        # x = 0 everywhere: only k = 0 has mass
        s = SampleSet(np.array([[0.2], [0.6]]), "simplex")
        v = est.bernstein_cdf_simplex(s, 5, (0.0,))
        assert v == pytest.approx(empirical_cdf(s, (0.0,)), abs=1e-14)

    def test_hand_example(self):
        s = SampleSet(np.array([[0.5]]), "simplex")
        v = est.bernstein_cdf_simplex(s, 2, (0.75,))
        assert v == pytest.approx(0.9375, rel=1e-12)

    def test_vertex_exactness(self):
        s = sample_dirichlet((1.0, 1.0, 1.0), 200, seed=5)
        for vertex in [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)]:
            fhat = est.bernstein_cdf_simplex(s, 12, vertex)
            fn = empirical_cdf(s, vertex)
            assert fhat == pytest.approx(fn, abs=1e-12)

    def test_range_and_convergence_to_empirical(self):
        s = sample_dirichlet((2.0, 3.0), 400, seed=9)
        grid = np.linspace(0.05, 0.95, 19)
        fn = [empirical_cdf(s, (x,)) for x in grid]
        sups = []
        for m in (5, 20, 80, 320):
            fhat = [est.bernstein_cdf_simplex(s, m, (x,)) for x in grid]
            assert all(0.0 <= v <= 1.0 for v in fhat)
            sups.append(sup_error_on_grid(fhat, fn))
        assert sups[0] > sups[-1]

    def test_monotone_along_rays_d1(self):
        s = sample_dirichlet((1.0, 2.0), 300, seed=2)
        grid = np.linspace(0.0, 1.0, 41)
        vals = [est.bernstein_cdf_simplex(s, 15, (x,)) for x in grid]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))

    def test_domain_mismatch(self):
        s = SampleSet(np.array([[0.5, 0.5]]), "hypercube")
        with pytest.raises(ValueError):
            est.bernstein_cdf_simplex(s, 3, (0.3, 0.3))


class TestBernsteinCdfHypercube:
    def test_univariate_coincidence(self):
        pts = np.array([[0.12], [0.5], [0.87], [0.5]])
        ss = SampleSet(pts, "simplex")
        sh = SampleSet(pts, "hypercube")
        for m in (1, 7, 40):
            for x in (0.0, 0.21, 0.5, 0.93, 1.0):
                a = est.bernstein_cdf_simplex(ss, m, (x,))
                b = est.bernstein_cdf_hypercube(sh, m, (x,))
                assert abs(a - b) <= 1e-12

    def test_all_ones_corner(self):
        s = SampleSet(np.array([[0.3, 0.6], [0.9, 0.1]]), "hypercube")
        assert est.bernstein_cdf_hypercube(s, 6, (1.0, 1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_single_sample_center_m1(self):
        # d=2, m=1, x=(0.5,0.5): weights 1/4 on each corner k in {0,1}^2,
        # F_n(k) = 1 iff k = (1,1) for a sample at the center
        s = SampleSet(np.array([[0.5, 0.5]]), "hypercube")
        assert est.bernstein_cdf_hypercube(s, 1, (0.5, 0.5)) == pytest.approx(0.25, rel=1e-12)


class TestBernsteinDensityHypercube:
    def test_single_sample_hand_value(self):
        # one sample at 0.4 with m = 2 activates only cell (0, 0.5]
        s = SampleSet(np.array([[0.4]]), "hypercube")
        for x in (0.0, 0.3, 0.7, 1.0):
            assert est.bernstein_density_hypercube(s, 2, (x,)) == pytest.approx(
                2.0 * (1.0 - x), rel=1e-12
            )

    def test_float_tie_cell(self):
        # 0.28 <= 7/25 holds in float although ceil(0.28 * 25) = 8, so the
        # sample lies in cell (6/25, 7/25]
        s = SampleSet(np.array([[0.28]]), "hypercube")
        x = 0.25
        want = 25 * math.comb(24, 6) * x**6 * (1 - x) ** 18
        assert est.bernstein_density_hypercube(s, 25, (x,)) == pytest.approx(want, rel=1e-12)

    def test_empty_cells_zero(self):
        # all mass at coordinate 0 belongs to no half-open cell
        s = SampleSet(np.array([[0.0, 0.0]]), "hypercube")
        assert est.bernstein_density_hypercube(s, 3, (0.5, 0.5)) == 0.0

    def test_uniform_density_near_one(self):
        rng = np.random.Generator(np.random.PCG64(12))
        s = SampleSet(rng.uniform(size=(100_000, 2)), "hypercube")
        v = est.bernstein_density_hypercube(s, 8, (0.5, 0.5))
        assert v == pytest.approx(1.0, abs=0.05)

    def test_integrates_to_sample_mass(self):
        rng = np.random.Generator(np.random.PCG64(4))
        s = SampleSet(rng.uniform(size=(5000, 1)), "hypercube")
        grid = (np.arange(400) + 0.5) / 400
        total = np.mean([est.bernstein_density_hypercube(s, 6, (x,)) for x in grid])
        assert total == pytest.approx(1.0, abs=0.01)


def _tie_samples(d):
    """Rows whose coordinates sit on or next to a lattice point k/m, at the
    vertices 0 and 1, and one just past 1 (allowed by the tolerance)."""
    ties = [0.3, 0.28, np.nextafter(0.95, 2.0), 0.0, 1.0]
    rows = [[t] * d for t in ties]
    rows += [[0.3, 0.28, 0.95][:d], [1.0] * (d - 1) + [1.0 + 1e-13]]
    return np.array(rows)


class TestBinnedLatticeCdf:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [10, 25, 100])
    def test_matches_oracle(self, d, m):
        pts = np.vstack([sample_dirichlet([1.5] * (d + 1), 40, seed=d).points, _tie_samples(d)])
        s = SampleSet(pts, "hypercube")
        binned = est._lattice_cdf_counts(s, m) / s.n
        grid = np.stack(np.meshgrid(*[np.arange(m + 1) / m] * d, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, d)
        oracle = np.concatenate([_empirical_cdf_many(s, grid[lo:lo + 4096])
                                 for lo in range(0, len(grid), 4096)])
        assert np.array_equal(binned.ravel(), oracle)
        # every row counts at the last lattice point: the one just past 1 is kept as 1.0
        assert binned[(m,) * d] == 1.0


class TestBatchedCalls:
    def test_simplex_cdf(self, small_blocks):
        s = sample_dirichlet((1.0, 2.0, 1.5), 300, seed=3)
        grid = np.vstack([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7],
                          spoly.simplex_midpoint_grid(2, 9)])
        assert len(grid) == 41
        single = [est.bernstein_cdf_simplex(s, 17, row) for row in grid]
        assert np.array_equal(est.bernstein_cdf_simplex(s, 17, grid), single)
        # 171 lattice rows and 3 tables of 18 entries, 2 * 171 + 3 * 54 + 8
        # floats a point: blocks of 6 split the 41 points 6, ..., 6, 5
        small_blocks(6, 2 * 171 + 3 * 54 + 8)
        assert np.array_equal(est.bernstein_cdf_simplex(s, 17, grid), single)

    @pytest.mark.parametrize("fn", [est.bernstein_cdf_hypercube, est.bernstein_density_hypercube])
    def test_hypercube(self, fn, small_blocks):
        rng = np.random.Generator(np.random.PCG64(8))
        s = SampleSet(np.vstack([rng.uniform(size=(200, 2)), _tie_samples(2)]), "hypercube")
        axis = np.linspace(0.0, 1.0, 6)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        for split in (False, True):
            if split:
                # 16 (deg + 1) + 32 floats a point: room for 1000 floats splits the 36
                # points into blocks of 15 (cdf, m = 1), 20 (density, m = 1) and 4 (m = 12)
                small_blocks(1000, 1)
            for m in (1, 12):
                batch = fn(s, m, grid)
                assert np.array_equal(batch, [fn(s, m, row) for row in grid])


class TestBinomialWeights:
    @pytest.mark.parametrize("deg", [0, 1, 12, 40])
    def test_kernel_weights_match_oracle(self, deg):
        # summing the unit box e_k gives the weight of k at each query point
        xs = np.array([[0.0], [0.28], [0.5], [1.0]])
        for k in range(deg + 1):
            got = est._bernstein_sum(np.eye(deg + 1)[k], deg)[0](xs)
            for x, g in zip(xs[:, 0], got):
                # exact, at the float coordinates (x, 1 - x) the kernel is given
                want = math.comb(deg, k) * Fraction(x) ** k * Fraction(1.0 - x) ** (deg - k)
                if want == 0:
                    assert g == 0.0, (k, x)
                    continue
                # rtol 1e-15 on ln w: the Poisson form rounds D(k, m x) and
                # m x, so a weight's relative error grows as |ln w| does
                err = abs(math.log(Fraction(g) / want))
                assert err <= 1e-15 * max(1.0, -math.log(want)), (k, x, g)


class TestDensityVarianceIdentity:
    """n Var f(x) of the hypercube density estimator under uniform samples is
    m^d prod_i S_{1,1,m-1}(x_i) - 1, with S from spoly; exact, no sampling."""

    XS = (0.0, 0.13, 0.5, 0.77, 1.0)

    @staticmethod
    def _weights(m, d, xs):
        """The (m^d, P) weights bernstein_density_hypercube gives each cell,
        each row the sum over one unit box of degree m - 1."""
        return np.array([est._bernstein_sum(np.eye(m**d)[k].reshape((m,) * d), m - 1)[0](xs)
                         for k in range(m**d)])

    @staticmethod
    def _s11(m, x):
        return spoly.s_eval(1, 1, m - 1, 1, (x,))

    @pytest.mark.parametrize("m", [2, 5, 12, 40])
    def test_squared_weights_are_s(self, m):
        w = self._weights(m, 1, np.array(self.XS)[:, None])
        for x, got in zip(self.XS, (w**2).sum(axis=0)):
            assert got == pytest.approx(self._s11(m, x), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_variance_at_d2(self, m):
        d, p = 2, m**-2.0
        xs = np.array([(a, b) for a in self.XS for b in self.XS])
        w = self._weights(m, d, xs)
        # n Var = m^{2d} Var(one sample's term) = m^{2d} (sum p W^2 - (sum p W)^2)
        n_var = m ** (2 * d) * ((p * w**2).sum(axis=0) - (p * w).sum(axis=0) ** 2)
        for (a, b), got in zip(xs, n_var):
            lead = m**d * self._s11(m, a) * self._s11(m, b)
            assert abs(got - (lead - 1.0)) <= 1e-13 * lead


class TestHypercubeQueryChecks:
    @pytest.mark.parametrize("fn", [est.bernstein_cdf_hypercube, est.bernstein_density_hypercube])
    @pytest.mark.parametrize("bad", [1.5, -0.2, math.nan, math.inf])
    def test_rejects_points_outside_unit_cube(self, fn, bad):
        s = SampleSet(np.array([[0.3, 0.6], [0.9, 0.1]]), "hypercube")
        with pytest.raises(ValueError):
            fn(s, 4, (bad, 0.5))
        with pytest.raises(ValueError):
            fn(s, 4, np.array([[0.2, 0.5], [0.5, bad], [1.0, 0.0]]))


class TestSupError:
    def test_identical(self):
        assert sup_error_on_grid([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert sup_error_on_grid([1.0, 2.0], [1.5, 2.5]) == pytest.approx(0.5)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            sup_error_on_grid([1.0], [1.0, 2.0])


class TestDegreeValidation:
    def test_degree_must_be_positive(self):
        simplex = sample_dirichlet((1.0, 1.0), 5, seed=1)
        cube = SampleSet(simplex.points, "hypercube")
        with pytest.raises(ValueError):
            est.bernstein_cdf_simplex(simplex, 0, (0.5,))
        for fn in (est.bernstein_cdf_hypercube, est.bernstein_density_hypercube):
            with pytest.raises(ValueError):
                fn(cube, 0, (0.5,))
