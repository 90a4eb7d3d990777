import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernsimplex import monotone as mo
from bernsimplex.cli import _grid_spec
from bernsimplex.simplex import SimplexPoint, WeightVector
from bernsimplex.specfun import polygamma


def make_instance(gamma, x):
    return mo.MonotoneInstance(WeightVector(gamma), SimplexPoint(x))


SYMMETRIC = make_instance((1.0, 1.0), (0.5,))
SKEWED = make_instance((1.0, 1.0), (0.25,))


def random_instance(rng, d):
    m_total = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    gamma = m_total * rng.dirichlet(np.ones(d + 1))
    x = rng.dirichlet(np.ones(d + 1))
    return make_instance(gamma, x[:-1])


class TestGEval:
    def test_hand_values(self):
        assert mo.g_eval(SYMMETRIC, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert mo.g_eval(SYMMETRIC, 2.0) == pytest.approx(0.375, rel=1e-12)

    def test_limit_at_zero(self):
        assert mo.g_eval(SYMMETRIC, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            mo.g_eval(SYMMETRIC, 0.0)

    def test_zero_weight_reduction(self):
        # gamma_i = 0 coordinates are deleted, exactly: g only sees the
        # surviving (gamma_i, x_i) pairs
        from bernsimplex.specfun import log_gamma

        full = make_instance((1.5, 0.0, 2.5), (0.3, 0.2))
        for a in (0.3, 1.0, 4.7):
            expected = log_gamma(4.0 * a + 1.0)
            for g, x in [(1.5, 0.3), (2.5, 0.5)]:
                expected -= log_gamma(a * g + 1.0)
                expected += a * g * math.log(x)
            assert mo.log_g_eval(full, a) == expected

    def test_strictly_decreasing_and_log_convex(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for d in (1, 2, 4):
            inst = random_instance(rng, d)
            grid = np.linspace(0.1, 10.0, 60)
            lg = [mo.log_g_eval(inst, a) for a in grid]
            assert all(lg[i + 1] < lg[i] for i in range(len(lg) - 1))
            mids = [
                0.5 * (lg[i] + lg[i + 2]) - lg[i + 1] for i in range(len(lg) - 2)
            ]
            assert all(v > 1e-10 for v in mids)


class TestHDerivative:
    def test_first_derivative_hand_value(self):
        # psi(2) = 1 - gamma_E, psi(3) = 3/2 - gamma_E
        assert mo.h_derivative(SYMMETRIC, 1.0, 1) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-12
        )

    def test_second_derivative_negative(self):
        assert mo.h_derivative(SYMMETRIC, 1.0, 2) < 0.0

    def test_symmetric_case_vanishing_limit(self):
        # gamma/M = x: h'(a) -> 0 from above
        v = mo.h_derivative(SYMMETRIC, 1e6, 1)
        assert 0.0 < v < 1e-5

    def test_order_range(self):
        with pytest.raises(ValueError):
            mo.h_derivative(SYMMETRIC, 1.0, 0)
        with pytest.raises(ValueError):
            mo.h_derivative(SYMMETRIC, 1.0, 8)

    def test_matches_finite_difference_of_log_g(self):
        inst = SKEWED
        eps = 1e-4  # below this the log-gamma rounding noise dominates
        for a in (0.5, 2.0, 7.0):
            fd = -(mo.log_g_eval(inst, a + eps) - mo.log_g_eval(inst, a - eps)) / (2 * eps)
            assert mo.h_derivative(inst, a, 1) == pytest.approx(fd, rel=1e-6)

    def test_decomposition_identity(self):
        # h'(a) = d/a - M R(aM) + sum_i gamma_i R(a gamma_i)
        #         + sum_i gamma_i log((gamma_i/M)/x_i),  R(z) = psi(z) - log z
        rng = np.random.Generator(np.random.PCG64(4))
        for d in (1, 2, 3):
            inst = random_instance(rng, d)
            M = inst.weights.M

            def R(z):
                return polygamma(0, z) - math.log(z)

            for a in (0.2, 1.0, 5.0):
                rhs = d / a - M * R(a * M)
                for g, x in zip(inst.weights.gamma, inst.point.full):
                    rhs += g * R(a * g) + g * math.log((g / M) / x)
                assert mo.h_derivative(inst, a, 1) == pytest.approx(rhs, abs=1e-10)


class TestJEval:
    def test_hand_values(self):
        assert mo.j_eval((0.5, 0.5), 4.0) == pytest.approx(0.2, rel=1e-12)
        assert mo.j_eval((1 / 3, 1 / 3, 1 / 3), 2.0) == pytest.approx(1.0 - 3.0 / 7.0, rel=1e-12)

    def test_near_one_positive(self):
        assert mo.j_eval((0.4, 0.6), 1.0 + 1e-6) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mo.j_eval((0.5, 0.5), 1.0)
        with pytest.raises(ValueError):
            mo.j_eval((0.5, 0.4), 2.0)

    @given(
        weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=7),
        logy=st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=300)
    def test_positive(self, weights, logy):
        u = np.array(weights) / np.sum(weights)
        y = 1.0 + 10.0**logy
        assert mo.j_eval(u, y) > 0.0


class TestKlLimit:
    def test_symmetric_zero(self):
        assert mo.kl_limit(SYMMETRIC) == 0.0

    def test_hand_values(self):
        inst = make_instance((1.0, 0.0), (0.5,))
        assert mo.kl_limit(inst) == pytest.approx(math.log(2.0), rel=1e-12)
        assert mo.kl_limit(SKEWED) == pytest.approx(
            2.0 * (0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)), rel=1e-12
        )

    def test_h_prime_converges_to_kl(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for d in (1, 3):
            inst = random_instance(rng, d)
            assert mo.h_derivative(inst, 1e4, 1) == pytest.approx(
                mo.kl_limit(inst), abs=5e-4
            )


class TestCmScan:
    GRID = [0.1 * i for i in range(1, 101)]

    def test_symmetric_instance_passes(self):
        report = mo.cm_scan(SYMMETRIC, self.GRID, max_order=6)
        assert report.passed
        assert report.max_violation == 0.0

    def test_random_instances_pass(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for d in (1, 2, 5):
            report = mo.cm_scan(random_instance(rng, d), self.GRID, max_order=7)
            assert report.passed

    def test_corrupted_instance_fails(self):
        report = mo.cm_scan(SKEWED, self.GRID, max_order=6, corrupt=True)
        assert not report.passed
        assert report.max_violation < 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mo.cm_scan(SYMMETRIC, [1.0, 0.5], max_order=3)
        with pytest.raises(ValueError):
            mo.cm_scan(SYMMETRIC, [-1.0, 1.0], max_order=3)



def _log_g_magnitude(inst, a):
    """|ln Gamma(aM+1)| + sum_i |ln Gamma(a g_i+1)| + sum_i a g_i |ln x_i|: the
    size of the terms whose sum is ln g(a)."""
    out = abs(oracles.log_gamma(a * inst.weights.M + 1.0))
    for g, x in inst.active_terms():
        out += abs(oracles.log_gamma(a * g + 1.0)) + a * g * abs(math.log(x))
    return out


class TestCmScanAgainstPerPointOracle:
    """The grid-at-once scan against the per-point loop on scalar special
    functions (tests/oracles.py).  Rounding bounds: derivative rows within
    16 eps of the largest polygamma term; difference rows within 16 eps (1+L)
    of sum_j C(n,j) g(a+jh), since exp turns an absolute error in ln g, whose
    terms reach L, into a relative error in g."""

    GRID = _grid_spec("0.1:10:0.1")
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("d", range(1, 6))
    def test_rows_agree(self, d):
        rng = np.random.Generator(np.random.PCG64(300 + d))
        for i in range(6):
            inst, corrupt = random_instance(rng, d), i % 2 == 1
            got = mo.cm_scan(inst, self.GRID, max_order=7, corrupt=corrupt)
            want = oracles.cm_scan(inst, self.GRID, max_order=7, corrupt=corrupt)
            assert got.passed == want.passed
            assert [row[:2] for row in got.rows] == [row[:2] for row in want.rows]
            at = {}  # (L, g) at each point a + jh, by point
            for (a, n, *vals), (_, _, *refs) in zip(got.rows, want.rows):
                if n > 0:
                    bound = 16 * self.EPS * max(oracles._h_derivative_scale(inst, a, n), 1.0)
                else:
                    points = [a + j * mo.DIFF_STEP for j in range(1 - n)]
                    for p in points:
                        if p not in at:
                            at[p] = (_log_g_magnitude(inst, p),
                                     oracles.g_eval(inst, p, corrupt=corrupt))
                    spread = 1.0 + max(at[p][0] for p in points)
                    size = sum(math.comb(-n, j) * at[p][1] for j, p in enumerate(points))
                    bound = 16 * self.EPS * spread * size
                assert max(abs(v - r) for v, r in zip(vals, refs)) <= bound, (a, n)
