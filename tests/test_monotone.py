import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bernsimplex import monotone as mo
from bernsimplex.cli import _grid_spec
from bernsimplex.report import ScanReport
from bernsimplex.specfun import polygamma
from oracles import SimplexPoint, WeightVector


def make_instance(gamma, x):
    return mo.MonotoneInstance(gamma, x)


SYMMETRIC = make_instance((1.0, 1.0), (0.5,))
SKEWED = make_instance((1.0, 1.0), (0.25,))


def scan(inst, grid, max_order):
    """cm_scan's report and its rows (a, order, value, margin) for one
    instance, read to the end."""
    report = ScanReport()
    rows = [row[1:] for row in oracles.rows_of(mo.cm_scan([inst], grid, report,
                                                           max_order=max_order))]
    return report, rows


def random_instance(rng, d):
    m_total = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    gamma = m_total * rng.dirichlet(np.ones(d + 1))
    x = rng.dirichlet(np.ones(d + 1))
    return make_instance(gamma, x[:-1])


class TestInstance:
    def test_fields_are_the_rules_one_row_results(self):
        # gamma, M and full bit for bit as the weight and point rules give
        # them, from arrays, lists or tuples; replace builds the same instance
        rng = np.random.Generator(np.random.PCG64(31))
        for d in (1, 3, 6):
            gamma = 7.0 * rng.standard_exponential(d + 1)
            gamma[1] = 0.0
            x = rng.dirichlet(np.ones(d + 1))[:-1]
            w, pt = WeightVector(gamma), SimplexPoint(x)
            for inst in (mo.MonotoneInstance(gamma, x), mo.MonotoneInstance(list(gamma), tuple(x)),
                         replace(mo.MonotoneInstance(gamma, x, corrupt=True), corrupt=False)):
                assert (inst.gamma, inst.M, inst.x, inst.full) == (w.gamma, w.M, pt.coords, pt.full)
                # a zero weight has no term
                assert _bits(inst.coefs) == _bits((w.M, *(g for g in w.gamma if g > 0.0)))
                assert inst.log_x == tuple(math.log(v) for g, v in zip(w.gamma, pt.full) if g > 0.0)
                assert inst == mo.MonotoneInstance(gamma, x)

    @pytest.mark.parametrize("gamma,x", [
        ((1.0, 1.0), (1.0,)), ((1.0, 1.0), (0.0,)), ((1.0, 1.0), (0.7, 0.7)),
        ((1.0, 1.0), (math.nan,)), ((1.0, 2.0, 3.0), (0.5,)), ((1.0, 2.0), (0.2, 0.3)),
        ((1.0, -1.0), (0.5,)), ((0.0, 0.0), (0.5,)), ((1.0,), ()), ((1.0, math.inf), (0.5,))])
    def test_rejects(self, gamma, x):
        with pytest.raises(ValueError):
            mo.MonotoneInstance(gamma, x)


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
        # a gamma_i = 0 coordinate is a dead kernel entry that adds nothing:
        # ln g has the bits of the sum over the (gamma_i, x_i) pairs with gamma_i > 0
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

    @pytest.mark.parametrize("seed", range(3))
    def test_ln_of_the_exact_rational_at_integer_a(self, seed):
        # one block of 20 instances, d = 1..5 with zero weights, on a shared
        # grid of integers to 30; g(n) is rational at each float x_i's value
        rng = np.random.Generator(np.random.PCG64(seed))
        gammas = oracles.integer_weights(rng, 20)
        insts = [make_instance(g, rng.dirichlet(np.ones(len(g)))[:-1]) for g in gammas]
        grid = [1, 2, 3, 4, 6, 9, 13, 18, 24, 30]
        for gamma, inst, row in zip(gammas, insts, mo.log_g_eval(insts, np.array(grid, float))):
            for n, value in zip(grid, row.tolist()):
                want = oracles.log_rational(oracles.g_exact(gamma, inst.full, n))
                scale = oracles.log_coeff_scale(WeightVector(gamma), n) + sum(
                    abs(n * g * math.log(x)) for g, x in zip(gamma, inst.full))
                assert abs(value - want) <= oracles.EXACT_REL_TOL * scale, (gamma, n)


def _exact_differences(gamma, x, orders: int) -> list:
    """Row k = 0..orders holds (-Delta)^k g(n) for n = 1, ..., orders + 1 - k,
    step 1, g(n) = oracles.g_exact(gamma, x, n): exact, each row times one
    common positive denominator."""
    g = [oracles.g_exact(gamma, x, n) for n in range(1, orders + 2)]
    den = math.lcm(*(v.denominator for v in g))
    rows = [[v.numerator * (den // v.denominator) for v in g]]
    for _ in range(orders):
        rows.append([u - v for u, v in zip(rows[-1], rows[-1][1:])])
    return rows


class TestExactCompleteMonotonicity:
    """A CM g has (-Delta)^k g(n) >= 0 for every step, order and n.  At
    integer weights, rational x and step 1 from n = 1 every such difference
    is rational, so the theorem is checked with no tolerance: (g(n))_{n>=1}
    is a Hausdorff moment sequence."""

    ORDERS = 30

    @staticmethod
    def instances(seed):
        """20 integer-weight instances (d = 1..5, zero weights included), each
        at a seeded rational x and at x = gamma / M, where KL = 0 and g
        decays slowest."""
        rng = np.random.Generator(np.random.PCG64(seed))
        for gamma in oracles.integer_weights(rng, 20):
            p = [int(v) for v in rng.integers(1, 10, len(gamma))]
            yield gamma, [Fraction(v, sum(p)) for v in p]
            yield gamma, [Fraction(g, sum(gamma)) for g in gamma]

    @pytest.mark.parametrize("seed", range(3))
    def test_every_difference_is_nonnegative(self, seed):
        for gamma, x in self.instances(seed):
            rows = _exact_differences(gamma, x, self.ORDERS)
            assert all(v >= 0 for row in rows for v in row), (gamma, x)

    @pytest.mark.parametrize("seed", range(3))
    def test_corrupt_flip_fails_at_an_odd_order(self, seed):
        # x -> 1/x is the corrupt instance's g, which is 1 at every n, and has
        # nothing to fail, when its one nonzero weight has x = 1
        for gamma, x in self.instances(seed):
            if any(xi < 1 for g, xi in zip(gamma, x) if g):
                flipped = [1 / v if v else v for v in x]
                rows = _exact_differences(gamma, flipped, 7)
                assert min(rows[k][0] for k in (1, 3, 5, 7)) < 0, (gamma, x)

    @pytest.mark.parametrize("seed", range(3))
    def test_float_derivative_route_agrees_in_sign(self, seed):
        # the same instances through cm_scan at a = 1..31, order 7.  A
        # coordinate with gamma_i = 0 and x_i = 0 (x = gamma / M) leaves g
        # unchanged and is dropped; one left alone is g = 1, with no instance
        grid = [float(n) for n in range(1, 32)]
        for gamma, x in self.instances(seed):
            kept = [(g, xi) for g, xi in zip(gamma, x) if g or xi]
            if len(kept) < 2:
                continue
            gamma, x = (list(v) for v in zip(*kept))
            inst = make_instance([float(g) for g in gamma], [float(v) for v in x[:-1]])
            _, rows = scan(inst, grid, 7)
            margins = [margin for _, order, _, margin in rows if order > 0]
            assert all(v >= 0 for v in margins), (gamma, x)
            assert margins == _derivative_margins(inst, grid, 7).T.ravel().tolist()
            # the corrupt twin is g at 1/x: where the tolerance-free route
            # finds a negative odd-order difference, the float route fails too
            exact = _exact_differences(gamma, [1 / v for v in x], 7)
            if any(v < 0 for k in (1, 3, 5, 7) for v in exact[k]):
                twin = replace(inst, corrupt=True)
                assert (_derivative_margins(twin, grid, 7) < 0).any(), (gamma, x)


def _derivative_margins(inst, grid, max_order: int) -> np.ndarray:
    """cm_scan's derivative-route margins of one instance, (max_order, P).
    They never evaluate g, which the scan's difference route does, and which
    overflows at large a on a corrupt instance with large weights."""
    a = np.array(grid)
    terms = [mo.h_derivative(inst, a, n, scale=True) for n in range(1, max_order + 1)]
    return np.array([(-1.0) ** n * value + mo.DERIV_FLOOR_REL * np.maximum(scale, 1.0)
                     for n, (value, scale) in enumerate(terms)])


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
            M = inst.M

            def R(z):
                return polygamma(0, z) - math.log(z)

            for a in (0.2, 1.0, 5.0):
                rhs = d / a - M * R(a * M)
                for g, x in zip(inst.gamma, inst.full):
                    rhs += g * R(a * g) + g * math.log((g / M) / x)
                assert mo.h_derivative(inst, a, 1) == pytest.approx(rhs, abs=1e-10)


class TestJEval:
    def test_hand_values(self):
        assert mo.j_eval((0.5, 0.5), 4.0) == pytest.approx(0.2, rel=1e-12)
        assert mo.j_eval((1 / 3, 1 / 3, 1 / 3), 2.0) == pytest.approx(1.0 - 3.0 / 7.0, rel=1e-12)
        # u = gamma / M by the weight rule; a zero weight adds nothing, and
        # one positive weight gives J = 0
        assert mo.j_eval((1.0, 0.0, 1.0), 4.0) == mo.j_eval((1.0, 1.0), 4.0)
        assert mo.j_eval((0.0, 1.0), 2.0) == 0.0
        assert mo.j_eval((0.5, 0.4), 2.0) == pytest.approx(mo.j_eval((5 / 9, 4 / 9), 2.0),
                                                           rel=1e-12)

    def test_near_one_positive(self):
        assert mo.j_eval((0.4, 0.6), 1.0 + 1e-6) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mo.j_eval((0.5, 0.5), 1.0)
        with pytest.raises(ValueError, match="total mass M must be positive"):
            mo.j_eval((0.0, 0.0), 2.0)

    @pytest.mark.parametrize("u", [(math.nan, 1.0), (0.5, math.nan), (math.inf, 0.5),
                                   (0.5, -math.inf), (-0.5, 1.5)])
    def test_u_must_be_finite_and_positive(self, u):
        # the weight rule's: a NaN u_i once passed j_eval's own checks and gave NaN
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            mo.j_eval(u, 2.0)

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

    def test_zero_limit_is_not_negative(self):
        # gamma = M x, so D_KL = 0: the sum rounds to within a few M eps of 0,
        # below -1e-15 in 213 of these 5,000 draws before the clamp scaled with M
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(5000):
            d = int(rng.integers(1, 6))
            M = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
            x = SimplexPoint(rng.dirichlet(np.ones(d + 1))[:-1])
            inst = make_instance([M * v for v in x.full], x.coords)
            assert 0.0 <= mo.kl_limit(inst) <= 1e-14 * M, (M, x)
            assert mo.kl_limit(replace(inst, corrupt=True)) < 0.0, (M, x)

    def test_corrupt_limit(self):
        # the corrupted h'(a) tends to sum_i g_i ln(x_i g_i / M) < 0, so g ends up increasing
        rng = np.random.Generator(np.random.PCG64(10))
        for d in (1, 3):
            inst = replace(random_instance(rng, d), corrupt=True)
            want = sum(g * math.log(x * g / inst.M) for g, x in zip(inst.gamma, inst.full))
            assert mo.kl_limit(inst) == pytest.approx(want, rel=1e-12) and want < 0.0
            assert mo.h_derivative(inst, 1e4, 1) == pytest.approx(mo.kl_limit(inst), abs=5e-4)
        assert mo.kl_limit(replace(SYMMETRIC, corrupt=True)) == pytest.approx(-4.0 * math.log(2.0))

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
        report, _ = scan(SYMMETRIC, self.GRID, max_order=6)
        assert report.passed
        assert report.max_violation == 0.0

    def test_random_instances_pass(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for d in (1, 2, 5):
            report, _ = scan(random_instance(rng, d), self.GRID, max_order=7)
            assert report.passed

    def test_corrupt_flag_only_flips_the_x_exponent(self):
        inst = random_instance(np.random.Generator(np.random.PCG64(8)), 3)
        bad = replace(inst, corrupt=True)
        assert bad.coefs == inst.coefs and bad.log_x == tuple(-v for v in inst.log_x)
        assert bad != inst and replace(bad, corrupt=False) == inst
        a = np.array([0.3, 1.0, 4.7])
        shift = 2.0 * a * sum(g * math.log(x) for g, x in zip(inst.gamma, inst.full))
        np.testing.assert_allclose(mo.log_g_eval(bad, a), mo.log_g_eval(inst, a) - shift,
                                   rtol=1e-12)
        for n in range(2, 8):
            assert np.array_equal(mo.h_derivative(bad, a, n), mo.h_derivative(inst, a, n))

    def test_corrupted_instance_fails(self):
        report, _ = scan(replace(SKEWED, corrupt=True), self.GRID, max_order=6)
        assert not report.passed
        assert report.max_violation < 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            mo.cm_scan([SYMMETRIC], [1.0, 0.5], ScanReport(), max_order=3)
        with pytest.raises(ValueError):
            mo.cm_scan([SYMMETRIC], [-1.0, 1.0], ScanReport(), max_order=3)

    @pytest.mark.parametrize("grid", [[math.nan], [1.0, math.inf], [0.5, math.nan, 2.0],
                                      [-math.inf, 1.0]])
    def test_non_finite_grid_rejected_at_the_call(self, grid):
        # not only when the first row is read: cm_scan returns a lazy iterator
        with pytest.raises(ValueError, match="finite positive"):
            mo.cm_scan([SYMMETRIC], grid, ScanReport(), max_order=3)

    @pytest.mark.parametrize("order", [2.5, True, False, 0, 8, "3", None, np.int64(3)])
    def test_order_validation(self, order):
        # as h_derivative checks n: a Python int in [1, 7], and not a bool
        with pytest.raises(ValueError, match="max_order must be an integer"):
            mo.cm_scan([SYMMETRIC], [1.0], ScanReport(), max_order=order)
        if not isinstance(order, str) and order is not None:
            with pytest.raises(ValueError, match="order n must be an integer"):
                mo.h_derivative(SYMMETRIC, 1.0, order)



def _log_g_magnitude(inst, a):
    """|ln Gamma(aM+1)| + sum_i |ln Gamma(a g_i+1)| + sum_i a g_i |ln x_i|: the
    size of the terms whose sum is ln g(a)."""
    out = abs(oracles.log_gamma(a * inst.M + 1.0))
    for g, x in zip(inst.gamma, inst.full):
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
            inst = replace(random_instance(rng, d), corrupt=i % 2 == 1)
            got, got_rows = scan(inst, self.GRID, max_order=7)
            want = oracles.cm_scan(inst, self.GRID, max_order=7)
            assert got.passed == want.passed
            assert [row[:2] for row in got_rows] == [row[:2] for row in want.rows]
            at = {}  # (L, g) at each point a + jh, by point
            for (a, n, *vals), (_, _, *refs) in zip(got_rows, want.rows):
                if n > 0:
                    bound = 16 * self.EPS * max(oracles._h_derivative_scale(inst, a, n), 1.0)
                else:
                    points = [a + j * mo.DIFF_STEP for j in range(1 - n)]
                    for p in points:
                        if p not in at:
                            at[p] = (_log_g_magnitude(inst, p),
                                     oracles.g_eval(inst, p))
                    spread = 1.0 + max(at[p][0] for p in points)
                    size = sum(math.comb(-n, j) * at[p][1] for j, p in enumerate(points))
                    bound = 16 * self.EPS * spread * size
                assert max(abs(v - r) for v, r in zip(vals, refs)) <= bound, (a, n)


def _bits(values):
    return np.array(values, dtype=float).view(np.int64).tolist()


class TestHDerivativeScale:
    """h_derivative(..., scale=True) against scale=False and the oracles, on
    a block that mixes d = 1..5 (so rows are padded), zero weights and
    corrupt instances: the value's bits are scale=False's, the scale's are
    the per-instance array oracle's, and an instance alone or as a block of
    one gets the block's bits."""

    GRID = np.array(_grid_spec("0.1:10:0.3"))

    @staticmethod
    def block():
        rng = np.random.Generator(np.random.PCG64(41))
        insts = [replace(random_instance(rng, d), corrupt=d % 2 == 0) for d in range(1, 6)]
        return insts + [make_instance((1.5, 0.0, 0.7, 2.5), (0.3, 0.2, 0.1)),
                        replace(make_instance((0.0, 0.7, 2.5), (0.3, 0.2)), corrupt=True),
                        make_instance((0.0, 4.0), (0.1,))]

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("a", [GRID, 1.7])
    def test_value_and_scale_bits(self, n, a):
        insts = self.block()
        value, scale = mo.h_derivative(insts, a, n, scale=True)
        assert _bits(value) == _bits(mo.h_derivative(insts, a, n))
        assert value.shape == scale.shape == (len(insts), *np.shape(a))
        for inst, v, s in zip(insts, value, scale):
            assert _bits(s) == _bits(oracles.instance_h_derivative_scale(inst, a, n))
            one_v, one_s = mo.h_derivative(inst, a, n, scale=True)
            assert (_bits(one_v), _bits(one_s)) == (_bits(v), _bits(s))
            block_v, block_s = mo.h_derivative([inst], a, n, scale=True)
            assert (_bits(block_v[0]), _bits(block_s[0])) == (_bits(v), _bits(s))
            if np.ndim(a) == 0:  # scalar polygamma: the per-point oracle's 16 eps
                assert s == pytest.approx(oracles._h_derivative_scale(inst, a, n),
                                          rel=16 * np.finfo(float).eps)


class TestBlocksAgainstInstanceScan:
    """The block route against the per-instance array scan
    (oracles.instance_cm_scan), bit for bit: every row, and the verdict of
    one report over the whole stream."""

    GRID = _grid_spec("0.1:10:0.3")
    ORDER = 7

    @pytest.fixture(autouse=True)
    def _small_blocks(self, small_blocks):
        self.small_blocks = small_blocks

    def check(self, monkeypatch, instances, per_block=None, blocks=None):
        """per_block instances of the first instance's size fit one block."""
        if per_block is not None:
            # a live term (M or a positive weight) holds 10 floats per g_eval
            # argument, an instance 2 per row
            points, diff_order = len(self.GRID), min(self.ORDER, mo.MAX_DIFF_ORDER)
            self.small_blocks(per_block, points * (10 * len(instances[0].coefs) * (diff_order + 1)
                                                   + 2 * (self.ORDER + diff_order)))
        recorded = []
        record = ScanReport.record
        monkeypatch.setattr(ScanReport, "record",
                            lambda self, margins, tol=0.0: recorded.append(np.ravel(margins))
                            or record(self, margins, tol))
        got = ScanReport()
        rows = oracles.rows_of(mo.cm_scan(iter(instances), self.GRID, got, max_order=self.ORDER))
        if blocks is not None:
            assert len(recorded) == blocks
        # one record call per block, of the block's margins in row order
        assert _bits(np.concatenate(recorded)) == _bits([row[-1] for row in rows])
        want = ScanReport()
        want_rows = [(i, *row) for i, inst in enumerate(instances)
                     for row in oracles.instance_cm_scan(inst, self.GRID, want, self.ORDER)]
        assert [row[:3] for row in rows] == [row[:3] for row in want_rows]
        assert _bits([row[3:] for row in rows]) == _bits([row[3:] for row in want_rows])
        assert (got.passed, *_bits([got.max_violation, got.min_margin])) == \
            (want.passed, *_bits([want.max_violation, want.min_margin]))
        return got

    @pytest.mark.parametrize("d", range(1, 6))
    def test_dimensions_and_corrupt(self, monkeypatch, d):
        rng = np.random.Generator(np.random.PCG64(500 + d))
        insts = [replace(random_instance(rng, d), corrupt=i % 3 == 2) for i in range(6)]
        assert not self.check(monkeypatch, insts).passed

    @pytest.mark.parametrize("per_block,blocks", [(1, 5), (2, 3), (5, 1)])
    def test_block_boundaries(self, monkeypatch, per_block, blocks):
        rng = np.random.Generator(np.random.PCG64(77))
        insts = [replace(random_instance(rng, 3), corrupt=i == 3) for i in range(5)]
        self.check(monkeypatch, insts, per_block, blocks)

    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_zero_weights_mix_active_counts(self, monkeypatch, per_block):
        # d = 3, 1, 2, 3 and 1 with zero weights: 4, 2, 3, 4 and 2 live terms;
        # with room for two 4-term instances the blocks are [0, 1], [2, 3] and
        # [4], each of mixed widths
        insts = [make_instance((1.5, 0.0, 0.7, 2.5), (0.3, 0.2, 0.1)),
                 make_instance((1.5, 0.0), (0.3,)),
                 replace(make_instance((0.0, 0.7, 2.5), (0.3, 0.2)), corrupt=True),
                 make_instance((0.2, 3.1, 0.0, 0.4), (0.6, 0.1, 0.2)),
                 make_instance((0.0, 4.0), (0.1,))]
        self.check(monkeypatch, insts, per_block, {1: 5, 2: 3, None: 1}[per_block])

    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_nan_derivative(self, monkeypatch, per_block):
        # NaN where a > 2 at order 3, for the instances with M > 1
        block_h, instance_h = mo.h_derivative, oracles.instance_h_derivative

        def poison(inst, a, n, out):
            if n == 3 and inst.M > 1.0:
                out[np.asarray(a) > 2.0] = math.nan

        def block_nan(insts, a, n, scale=False):
            out, big = block_h(insts, a, n, scale=True)
            for inst, row in zip(insts, out):
                poison(inst, a, n, row)
            return (out, big) if scale else out

        def instance_nan(inst, a, n):
            out = instance_h(inst, a, n)
            poison(inst, a, n, out)
            return out

        monkeypatch.setattr(mo, "h_derivative", block_nan)
        monkeypatch.setattr(oracles, "instance_h_derivative", instance_nan)
        rng = np.random.Generator(np.random.PCG64(31))
        insts = [random_instance(rng, 2) for _ in range(5)]
        assert 0 < sum(inst.M > 1.0 for inst in insts) < 5
        report = self.check(monkeypatch, insts, per_block)
        assert not report.passed and math.isnan(report.max_violation)

    def test_one_instance_is_the_block_of_one(self):
        inst = random_instance(np.random.Generator(np.random.PCG64(3)), 4)
        a = np.array(self.GRID)
        for n in range(1, 8):
            assert _bits(mo.h_derivative(inst, a, n)) == _bits(mo.h_derivative([inst], a, n)[0])
            assert _bits(mo.h_derivative(inst, a, n)) == _bits(
                oracles.instance_h_derivative(inst, a, n))
            assert _bits(mo.h_derivative(inst, a, n, scale=True)[1]) == _bits(
                oracles.instance_h_derivative_scale(inst, a, n))
        steps = a[:, None] + np.arange(7) * mo.DIFF_STEP
        assert _bits(mo.g_eval(inst, steps)) == _bits(oracles.instance_g_eval(inst, steps))
        assert mo.h_derivative(inst, 1.5, 2) == oracles.instance_h_derivative(inst, 1.5, 2)
        assert mo.h_derivative([inst, SKEWED], 1.5, 2).shape == (2,)
        assert mo.g_eval([inst, SKEWED], steps).shape == (2, *steps.shape)


class TestZeroWeightsHaveNoTerm:
    """A zero weight has no term in a block: its coordinate takes no slot in
    the block's arrays and no block room, and every value has the bits of the
    per-instance oracles, which skip it, the sign of a zero included."""

    GRID = np.array(_grid_spec("0.1:10:0.3"))

    @staticmethod
    def block(corrupt):
        rng = np.random.Generator(np.random.PCG64(57))
        x = rng.dirichlet(np.ones(6))[:-1]
        gammas = [(0.0, 0.0, 1.2, 0.4, 2.0, 0.9),  # zero weights first
                  (1.2, 0.4, 0.0, 0.0, 2.0, 0.9),  # in the middle
                  (1.2, 0.4, 2.0, 0.9, 0.0, 0.0),  # last
                  (0.0, 0.0, 0.0, 3.5, 0.0, 0.0),  # all but one
                  (1.2, 0.4, 2.0, 0.9, 0.7, 1.1)]  # none
        return [mo.MonotoneInstance(g, x, corrupt=corrupt) for g in gammas]

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("a", [GRID, 1.7])
    def test_bits_against_the_oracles(self, corrupt, a):
        insts = self.block(corrupt)
        for inst, value in zip(insts, mo.log_g_eval(insts, a)):
            assert _bits(value) == _bits(oracles.instance_log_g_eval(inst, a))
        for n in range(1, 8):
            value, scale = mo.h_derivative(insts, a, n, scale=True)
            for inst, v, s in zip(insts, value, scale):
                assert _bits(v) == _bits(oracles.instance_h_derivative(inst, a, n)), (n, inst)
                assert _bits(s) == _bits(oracles.instance_h_derivative_scale(inst, a, n))

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_signed_zero_sums(self, monkeypatch, corrupt):
        # polygamma made +0.0 at the M argument and -0.0 at the others: each
        # h^(n), n > 1, is -M^n (+0.0) + g^n (-0.0) + ... = -0.0, which a dead
        # coordinate's +0.0 term would turn into +0.0; at n = 1 the x terms
        # leave no zero, and only the oracle's bits are asked for
        def signed_zero(n, z):
            z = np.asarray(z)
            return np.where(z > 3.5, 0.0, -0.0)[()]

        monkeypatch.setattr(mo, "polygamma", signed_zero)
        monkeypatch.setattr(oracles.specfun, "polygamma", signed_zero)
        insts = [mo.MonotoneInstance(g, (0.2, 0.3), corrupt=corrupt)
                 for g in ((0.0, 1.0, 2.0), (1.0, 0.0, 2.0), (1.0, 2.0, 0.0))]
        for n in range(1, 4):
            value = mo.h_derivative(insts, 1.0, n)
            for inst, v in zip(insts, value):
                assert _bits(v) == _bits(oracles.instance_h_derivative(inst, 1.0, n)), n
            if n > 1:
                assert _bits(value) == _bits([-0.0] * 3)

    def test_block_room_counts_live_terms(self, small_blocks):
        # room for two 6-term instances: four with one positive weight of
        # six (2 live terms each) fit one block
        rng = np.random.Generator(np.random.PCG64(8))
        insts = [mo.MonotoneInstance(np.eye(6)[i % 6] * 2.0, rng.dirichlet(np.ones(6))[:-1])
                 for i in range(4)]
        points, diff_order = 4, mo.MAX_DIFF_ORDER
        small_blocks(2, points * (10 * 6 * (diff_order + 1) + 2 * (7 + diff_order)))
        assert [len(b) for _, b in mo._blocks(insts, 10 * points * (diff_order + 1),
                                              2 * points * (7 + diff_order))] == [4]
