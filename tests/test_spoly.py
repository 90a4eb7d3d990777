import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bernsimplex import spoly as sp
from bernsimplex.simplex import CapacityError, SimplexPoint, lattice_array, log_factorial_table
from oracles import MultiIndex, enumerate_lattice, multinomial_log_pmf

HALF = SimplexPoint((0.5,))


def s_integral_lattice(r, s, m, d):
    """Oracle for s_integral_exact: one Dirichlet integral per lattice row, O(m^d)."""
    lat = lattice_array(d, m)
    t = r + s
    lf = log_factorial_table(t * m + d)
    logs = np.full(lat.shape[0], lf[r * m] + lf[s * m] - lf[t * m + d])
    for i in range(d + 1):
        ki = lat[:, i]
        logs += lf[t * ki] - lf[r * ki] - lf[s * ki]
    return float(np.exp(logs).sum())


def s_integral_mpmath(d, m):
    """The r = s = 1 integral from its closed form at 40 digits."""
    with mpmath.workdps(40):
        half_d = mpmath.mpf(d) / 2
        return mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1) / (
            2**d * mpmath.gamma(half_d + mpmath.mpf(1) / 2) * mpmath.gamma(m + half_d + 1))


class TestSEval:
    def test_hand_values(self):
        assert sp.s_eval(sp.SPolyParams(1, 1, 1, 1), HALF) == pytest.approx(0.5, rel=1e-12)
        assert sp.s_eval(sp.SPolyParams(1, 2, 1, 1), HALF) == pytest.approx(0.25, rel=1e-12)

    def test_vertex_carries_all_mass(self):
        for m in (1, 4, 9):
            assert sp.s_eval(sp.SPolyParams(1, 1, m, 1), SimplexPoint((1.0,))) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_range(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            x = rng.dirichlet(np.ones(3))
            v = sp.s_eval(sp.SPolyParams(2, 3, 7, 2), SimplexPoint(x[:-1]))
            assert 0.0 <= v <= 1.0

    def test_brute_force_oracle(self):
        # direct nested-loop sum of products of multinomial pmfs
        x = SimplexPoint((0.3, 0.45))
        r, s, m = 2, 3, 4
        expected = 0.0
        for mi in enumerate_lattice(2, m):
            lr = multinomial_log_pmf(MultiIndex([r * v for v in mi.k], r * m), x)
            ls = multinomial_log_pmf(MultiIndex([s * v for v in mi.k], s * m), x)
            expected += math.exp(lr + ls)
        assert sp.s_eval(sp.SPolyParams(r, s, m, 2), x) == pytest.approx(expected, rel=1e-12)

    def test_domination_by_unit_case(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for d in (1, 2):
            xs = rng.dirichlet(np.ones(d + 1), size=10)
            base = sp.s_eval_grid(sp.SPolyParams(1, 1, 12, d), xs)
            for r, s in [(1, 2), (2, 2), (2, 3), (3, 3)]:
                v = sp.s_eval_grid(sp.SPolyParams(r, s, 12, d), xs)
                assert np.all(v <= base + 1e-12)

    def test_grid_rows_match_single_points(self, monkeypatch):
        # a row of s_eval_grid does not depend on the other points in the call
        rng = np.random.Generator(np.random.PCG64(9))
        points = [SimplexPoint(x[:-1]) for x in rng.dirichlet(np.ones(3), size=40)]
        points.append(SimplexPoint((0.0, 0.25)))
        p = sp.SPolyParams(2, 3, 9, 2)
        single = [sp.s_eval(p, x) for x in points]
        # 55 lattice rows: 6 * 55 pmf entries per block splits the 41 points 6, ..., 6, 5
        for block in (sp.PMF_BLOCK_ELEMS, 6 * 55):
            monkeypatch.setattr(sp, "PMF_BLOCK_ELEMS", block)
            assert np.array_equal(sp.s_eval_grid(p, np.array([x.full for x in points])), single)


class TestPhiAndDet:
    def test_phi_hand_values(self):
        assert sp.phi_eval(1, 1, HALF) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
        assert sp.phi_eval(1, 2, HALF) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi * 1.5), rel=1e-12
        )
        assert sp.phi_eval(2, 2, HALF) == pytest.approx(
            2.0 / math.sqrt(2.0 * math.pi * 4.0), rel=1e-12
        )

    def test_det_hand_values(self):
        x = SimplexPoint((1 / 3, 1 / 3))
        assert sp.det_covariance(1, 1, x, "product") == pytest.approx(4.0 / 27.0, rel=1e-12)
        assert sp.det_covariance(1, 1, HALF, "product") == pytest.approx(0.5, rel=1e-12)

    def test_two_routes_agree(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            d = int(rng.integers(1, 7))
            x = SimplexPoint(rng.dirichlet(np.ones(d + 1))[:-1])
            r, s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = sp.det_covariance(r, s, x, "product")
            b = sp.det_covariance(r, s, x, "dense")
            assert b == pytest.approx(a, rel=1e-12)

    def test_singularity_error(self):
        with pytest.raises(ValueError):
            sp.phi_eval(1, 1, SimplexPoint((1.0,)))


class TestCentralBinomial:
    def test_hand_values(self):
        assert sp.central_binomial_lhs(1, 2) == 16
        assert sp.central_binomial_lhs(1, 1) == 4
        assert sp.central_binomial_rhs(2, 1) == Fraction(6)
        assert sp.central_binomial_identity(2, 1)["equal"]

    def test_brute_force_oracle(self):
        # exhaustive enumeration over compositions of m into d+1 parts
        for d, m in [(1, 6), (2, 5), (3, 4)]:
            brute = 0
            for k in itertools.product(range(m + 1), repeat=d):
                if sum(k) <= m:
                    parts = list(k) + [m - sum(k)]
                    term = 1
                    for p in parts:
                        term *= math.comb(2 * p, p)
                    brute += term
            assert sp.central_binomial_lhs(d, m) == brute

    def test_kernel_rejects_short_factor(self):
        c = np.ones(4, dtype=object)
        with pytest.raises(ValueError):
            sp.composition_coefficient([c, c[:3]], 3)
        with pytest.raises(ValueError):
            sp.composition_coefficient([c], 3)

    def test_exact_equality_sample(self):
        for d in range(1, 5):
            for m in (1, 7, 23, 60):
                assert sp.central_binomial_identity(d, m)["equal"]


class TestIntegrals:
    def test_exact_hand_values(self):
        assert sp.s_integral_exact(sp.SPolyParams(1, 1, 1, 1)) == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )
        assert sp.s_integral_exact(sp.SPolyParams(1, 1, 2, 1)) == pytest.approx(
            8.0 / 15.0, rel=1e-12
        )

    def test_exact_rational_oracle_general_rs(self):
        # term-by-term Dirichlet integrals in exact rational arithmetic
        for r, s, m, d in [(1, 2, 3, 1), (2, 2, 2, 2), (2, 3, 2, 2)]:
            t = r + s
            total = Fraction(0)
            for k in itertools.product(range(m + 1), repeat=d):
                if sum(k) > m:
                    continue
                kf = list(k) + [m - sum(k)]
                term = Fraction(math.factorial(r * m)) * math.factorial(s * m)
                for v in kf:
                    term *= Fraction(
                        math.factorial(t * v),
                        math.factorial(r * v) * math.factorial(s * v),
                    )
                total += term / math.factorial(t * m + d)
            assert sp.s_integral_exact(sp.SPolyParams(r, s, m, d)) == pytest.approx(
                float(total), rel=1e-12
            )

    @pytest.mark.parametrize("r,s,m,d", [(1, 2, 30, 2), (2, 3, 20, 3), (1, 1, 200, 3),
                                         (2, 2, 60, 2), (3, 1, 40, 4), (2, 5, 300, 1)])
    def test_convolution_matches_lattice(self, r, s, m, d):
        want = s_integral_lattice(r, s, m, d)
        got = sp.s_integral_exact(sp.SPolyParams(r, s, m, d))
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("d,m", [(1, 1000), (4, 2000), (3, 5000)])
    def test_large_m_against_mpmath(self, d, m):
        # The exponent of the k-free factor adds four terms of size up to
        # L = ln((2m+d)!), each good to about an ulp of L, so the relative
        # error is about 4 eps L.  The worst seen on these cases is 0.92 eps L.
        tol = 4 * np.finfo(float).eps * math.lgamma(2 * m + d + 1)
        want = float(s_integral_mpmath(d, m))
        got = sp.s_integral_exact(sp.SPolyParams(1, 1, m, d))
        assert abs(got - want) <= tol * want

    def test_capacity_guard_before_work(self, monkeypatch):
        # cost (d-1)(m+1)^2 + (r+s)m at d = 2, r = s = 1:
        # 99_999_997 at m = 9998 is within the 10^8 cap, 100_019_998 at m = 9999 is not
        class WorkStarted(Exception):
            pass

        def work(*args):
            raise WorkStarted

        monkeypatch.setattr(sp, "log_factorial_table", work)
        monkeypatch.setattr(sp, "composition_coefficient", work)
        with pytest.raises(CapacityError):
            sp.s_integral_exact(sp.SPolyParams(1, 1, 9999, 2))
        with pytest.raises(WorkStarted):
            sp.s_integral_exact(sp.SPolyParams(1, 1, 9998, 2))

    def test_closed_form_hand_values(self):
        assert sp.s_integral_closed_form(1, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert sp.s_integral_closed_form(2, 3) == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_closed_form_matches_exact(self):
        for d in (1, 2, 3):
            for m in (1, 5, 17, 60):
                assert sp.s_integral_exact(sp.SPolyParams(1, 1, m, d)) == pytest.approx(
                    sp.s_integral_closed_form(d, m), rel=1e-11
                )

    def test_exact_chain_cross_validation(self):
        # integral * Gamma(2m+d+1) / Gamma(m+1)^2 = central-binomial LHS
        from bernsimplex.specfun import log_gamma

        for d, m in [(1, 10), (2, 8), (3, 6)]:
            integral = sp.s_integral_exact(sp.SPolyParams(1, 1, m, d))
            scale = math.exp(log_gamma(2 * m + d + 1.0) - 2.0 * log_gamma(m + 1.0))
            assert integral * scale == pytest.approx(
                sp.central_binomial_lhs(d, m), rel=1e-10
            )

    def test_asymptotic_constant_values(self):
        assert sp.asymptotic_constant(1) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)
        assert sp.asymptotic_constant(2) == pytest.approx(0.5, rel=1e-12)
        assert sp.asymptotic_constant(3) == pytest.approx(math.sqrt(math.pi) / 8.0, rel=1e-12)

    def test_phi_integral_matches_constant(self):
        # midpoint integral of phi_{1,1} approaches the asymptotic constant
        d = 2
        errs = []
        for resolution in (60, 120, 240):
            xs = sp.simplex_midpoint_grid(d, resolution)
            det = 2.0**d * np.prod(xs, axis=1)
            phi = 1.0 / ((2.0 * math.pi) ** (d / 2.0) * np.sqrt(det))
            errs.append(abs(float(phi.sum()) * resolution**-d - sp.asymptotic_constant(d)))
        assert errs[-1] < errs[0]


class TestGammaRatioResidual:
    def test_small_m_finite(self):
        assert sp.gamma_ratio_residual(1) < math.inf

    def test_m100_expansion(self):
        # ratio = 1 + 1/800 within 2e-6  <=>  m^2 residual below 2e-6 * m^2
        assert sp.gamma_ratio_residual(100) <= 2e-6 * 100**2

    def test_bounded_envelope(self):
        for m in (10, 30, 100, 1000, 10_000):
            assert sp.gamma_ratio_residual(m) <= 0.05


def weighted_integral(p, h, resolution):
    """Midpoint-rule value of the integral of h(x) (m^{d/2} S_{r,s,m}(x) - phi_{r,s}(x))
    over the simplex; h maps the (P, d+1) nodes to (P,) weights."""
    xs = sp.simplex_midpoint_grid(p.d, resolution)
    phi = [sp.phi_eval(p.r, p.s, SimplexPoint(x[:-1])) for x in xs]
    integrand = h(xs) * (p.m ** (p.d / 2.0) * sp.s_eval_grid(p, xs) - phi)
    return float(integrand.sum() * resolution ** (-p.d))


class TestWeightedExperiment:
    def test_constant_trend_to_zero(self):
        # coarse grid: every node is far enough from the boundary that the
        # pointwise limit dominates the midpoint-rule boundary bias
        vals = [
            abs(weighted_integral(sp.SPolyParams(1, 1, m, 1), lambda xs: np.ones(len(xs)), 25))
            for m in (10, 40, 160)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_projection_trend_d2(self):
        lo = abs(weighted_integral(sp.SPolyParams(1, 2, 10, 2), lambda xs: xs[:, 0], 80))
        hi = abs(weighted_integral(sp.SPolyParams(1, 2, 100, 2), lambda xs: xs[:, 0], 80))
        assert hi < lo
