import itertools
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from bernsimplex import spoly as sp
from bernsimplex.simplex import _STIRLING_ERRORS, CapacityError, lattice_array, log_factorial_table
from bernsimplex.specfun import _stirling_tail
import oracles
from oracles import MultiIndex, SimplexPoint, enumerate_lattice, multinomial_log_pmf

HALF = (0.5,)


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
        assert sp.s_eval(1, 1, 1, 1, HALF) == pytest.approx(0.5, rel=1e-12)
        assert sp.s_eval(1, 2, 1, 1, HALF) == pytest.approx(0.25, rel=1e-12)

    def test_vertex_carries_all_mass(self):
        for m in (1, 4, 9):
            assert sp.s_eval(1, 1, m, 1, (1.0,)) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_range(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            x = rng.dirichlet(np.ones(3))
            v = sp.s_eval(2, 3, 7, 2, x[:-1])
            assert 0.0 <= v <= 1.0

    def test_brute_force_oracle(self):
        # direct nested-loop sum of products of multinomial pmfs, against S
        # and its lattice oracle
        x = (0.3, 0.45)
        r, s, m = 2, 3, 4
        expected = 0.0
        for mi in enumerate_lattice(2, m):
            lr = multinomial_log_pmf(MultiIndex([r * v for v in mi.k], r * m), SimplexPoint(x))
            ls = multinomial_log_pmf(MultiIndex([s * v for v in mi.k], s * m), SimplexPoint(x))
            expected += math.exp(lr + ls)
        assert sp.s_eval(r, s, m, 2, x) == pytest.approx(expected, rel=1e-12)
        assert oracles.s_lattice(r, s, m, 2, [x])[0] == pytest.approx(expected, rel=1e-12)

    def test_domination_by_unit_case(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for d in (1, 2):
            xs = rng.dirichlet(np.ones(d + 1), size=10)[:, :d]
            base = sp.s_eval_grid(1, 1, 12, d, xs)
            for r, s in [(1, 2), (2, 2), (2, 3), (3, 3)]:
                v = sp.s_eval_grid(r, s, 12, d, xs)
                assert np.all(v <= base + 1e-12)

    def test_grid_rows_match_single_points(self, small_blocks):
        # a row of s_eval_grid does not depend on the other points in the call
        rng = np.random.Generator(np.random.PCG64(9))
        xs = np.vstack([rng.dirichlet(np.ones(3), size=40)[:, :-1], [(0.0, 0.25)]])
        p = (2, 3, 9, 2)
        single = [sp.s_eval(*p, x) for x in xs]
        assert np.array_equal(sp.s_eval_grid(*p, xs), single)
        # 55 lattice rows and 3 tables of 10 entries, 2 * 55 + 3 * 30 + 8
        # floats a point: blocks of 6 split the 41 points 6, ..., 6, 5
        small_blocks(6, 2 * 55 + 3 * 30 + 8)
        assert np.array_equal(sp.s_eval_grid(*p, xs), single)

    @pytest.mark.parametrize("row", [(math.nan,), (math.inf,), (-0.5,), (1.4,),
                                     (-1e-11,), (1.0 + 1e-11,)])
    def test_grid_rejects_points_off_the_simplex(self, row):
        # (1,1,10,1) once gave 184,756 for a NaN row, 3325.3 at (-0.5, 1.5), 147.4 at (0.7, 0.7)
        xs = np.array([(0.3,), row])
        with pytest.raises(ValueError):
            sp.s_eval_grid(1, 1, 10, 1, xs)

    def test_grid_rejects_full_rows_by_shape(self):
        # (P, d+1) rows, the convention before (P, d): a shape error, even
        # for rows that would pass as points
        with pytest.raises(ValueError, match=r"\(P, d=1\)"):
            sp.s_eval_grid(1, 1, 10, 1, np.array([(0.3, 0.7)]))

    def test_grid_takes_rows_and_s_eval_one_point(self):
        # a length-d point is s_eval's form, not s_eval_grid's: read as one
        # point it would pass silently (S_{1,1,3}(0.5) = 0.3125); (P, d) rows
        # are s_eval_grid's form, not s_eval's.  Each error names the shape
        # the caller passed.
        with pytest.raises(ValueError, match=r"\(P, d=1\) .*got shape \(1,\)$"):
            sp.s_eval_grid(1, 1, 3, 1, (0.5,))
        with pytest.raises(ValueError, match=r"one point, .*got shape \(2, 1\)$"):
            sp.s_eval(1, 1, 3, 1, np.array([[0.5], [0.25]]))
        with pytest.raises(ValueError, match=r"\(P, d=2\) .*got shape \(3,\)$"):
            sp.s_eval(1, 1, 3, 2, (0.2, 0.3, 0.1))

    def test_s_eval_takes_a_scalar_point_at_d1(self):
        # simplex's one-point rule, the one det_covariance and phi_eval apply
        for x in (0.3, np.float64(0.3), (0.3,), np.array([0.3])):
            v = sp.s_eval(1, 2, 5, 1, x)
            assert type(v) is float and v == sp.s_eval_grid(1, 2, 5, 1, [[0.3]])[0]
        assert type(sp.det_covariance(2, 3, 0.3)) is float

    def test_grid_accepts_rounding_noise(self):
        noisy = sp.s_eval_grid(1, 1, 10, 1, np.array([(-1e-13,), (1.0 + 1e-13,), (0.3 + 1e-13,)]))
        clean = sp.s_eval_grid(1, 1, 10, 1, np.array([(0.0,), (1.0,), (0.3,)]))
        assert noisy == pytest.approx(clean, rel=1e-9)


class TestSExact:
    """s_eval and s_eval_grid against S_{r,s,m} as an exact fraction at
    rational points p / q (d = 1..3, m <= 60), one of them on the boundary;
    and criterion 09, S_{r,s,m} <= S_{1,1,m}, there with no tolerance."""

    PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
    MS = (1, 7, 23, 60)

    @staticmethod
    def numerators(d):
        """The d+1 integer numerators of four points, q their sum: three
        drawn, and one with x_1 = 0."""
        rng = np.random.Generator(np.random.PCG64(30 + d))
        rows = [rng.integers(1, 12, d + 1) for _ in range(3)] + [[0, *rng.integers(1, 12, d)]]
        return [[int(v) for v in row] for row in rows]

    def test_hand_values(self):
        assert oracles.s_exact(1, 1, 1, (1, 1), 2) == Fraction(1, 2)
        assert oracles.s_exact(1, 2, 1, (1, 1), 2) == Fraction(1, 4)
        # S_{1,1,1}(x) = x^2 + (1 - x)^2
        assert oracles.s_exact(1, 1, 1, (1, 2), 3) == Fraction(5, 9)
        with pytest.raises(ValueError):
            oracles.s_exact(1, 1, 1, (1, 1), 3)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_float_routes_match_exact(self, d):
        ps = self.numerators(d)
        xs = np.array([[v / sum(p) for v in p[:-1]] for p in ps])
        for r, s in self.PAIRS:
            for m in self.MS:
                for p, x, row in zip(ps, xs, sp.s_eval_grid(r, s, m, d, xs)):
                    want = float(oracles.s_exact(r, s, m, p, sum(p)))
                    for got in (sp.s_eval(r, s, m, d, x), row):
                        assert abs(got - want) <= 1e-12 * want, (r, s, m, p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_domination_by_unit_case_exact(self, d):
        for p in self.numerators(d):
            for m in self.MS:
                base = oracles.s_exact(1, 1, m, p, sum(p))
                for r, s in self.PAIRS[1:]:
                    assert oracles.s_exact(r, s, m, p, sum(p)) <= base, (r, s, m, p)


class TestSProductForm:
    """s_eval_grid's per-coordinate Poisson tables against the lattice log-pmf
    kernel they replaced (oracles.s_lattice) and against S as an exact
    fraction (oracles.s_exact): d = 1..3, each (r, s) of PAIRS, m up to 1024
    at d = 1, vertices and points with a zero coordinate included.

    Tolerances, relative and set from measured errors (EPS = 2^-52):
    - exact, at dyadic points p/8 (each float coordinate, x_{d+1} included, is
      exact, so only the tables round): 16 EPS at every m.  Measured at most
      8.6 EPS (d = 3, m = 12), 2.4 EPS at d = 1 up to m = 1024; it does not
      grow with m.
    - lattice, at Dirichlet points: (128 + 8tm) EPS, t = r + s.  The lattice
      kernel rounds logarithms of size ~ln (tm)!: measured at most 99 EPS at
      m = 1 (d = 3) and at most 5.3 tm EPS from m = 64 on (18,885 EPS at
      d = 1, m = 1024)."""

    PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 1))
    MS = {1: (1, 2, 7, 64, 256, 1024), 2: (1, 5, 16, 40), 3: (1, 4, 12, 24)}
    # numerators over 8 of x_1..x_{d+1}: vertices first, then a zero coordinate
    DYADIC = {1: [(8, 0), (0, 8), (3, 5), (1, 7)],
              2: [(8, 0, 0), (0, 0, 8), (0, 3, 5), (2, 0, 6), (3, 4, 1), (1, 1, 6)],
              3: [(0, 0, 0, 8), (8, 0, 0, 0), (0, 2, 3, 3), (1, 2, 0, 5), (2, 3, 1, 2)]}
    EPS = 2.0**-52

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_exact(self, d):
        for m in self.MS[d]:
            # at m = 1024 one interior point: the exact sums take 0.05-0.25 s each
            ps = self.DYADIC[d][:3] if m > 256 else self.DYADIC[d]
            xs = np.array([[v / 8 for v in p[:-1]] for p in ps])
            for r, s in self.PAIRS:
                for p, got in zip(ps, sp.s_eval_grid(r, s, m, d, xs)):
                    want = float(oracles.s_exact(r, s, m, p, 8))
                    assert abs(got - want) <= 16 * self.EPS * want, (r, s, m, p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_lattice(self, d):
        rng = np.random.Generator(np.random.PCG64(40 + d))
        xs = np.vstack([rng.dirichlet(np.ones(d + 1), 20)[:, :d], np.eye(d + 1)[:, :d],
                        [[0.0] + [1.0 / d] * (d - 1) if d > 1 else [0.0]]])
        for m in self.MS[d]:
            for r, s in self.PAIRS:
                got, want = sp.s_eval_grid(r, s, m, d, xs), oracles.s_lattice(r, s, m, d, xs)
                tol = (128 + 8 * (r + s) * m) * self.EPS
                assert np.all(np.abs(got - want) <= tol * want), (r, s, m)

    def test_tiny_coordinates(self):
        # m x_i down to the subnormals: j/(m x_i) overflows to inf, D = inf, and
        # the table entry is 0 as x^{tj} is, with no warning
        xs = np.array([[5e-324], [1e-310], [1e-300], [1e-17], [1.0 - 2**-53]])
        for r, s, m in ((1, 1, 3), (2, 3, 1000)):
            got, want = sp.s_eval_grid(r, s, m, 1, xs), oracles.s_lattice(r, s, m, 1, xs)
            assert np.all(np.abs(got - want) <= (128 + 8 * (r + s) * m) * self.EPS * want)
            assert np.all(got <= 1.0)

    @pytest.mark.parametrize("x, p", [((-0.0,), (0, 8)), ((-0.0, 0.5), (0, 4, 4)),
                                      ((0.5, -0.0, 0.5), (4, 0, 4, 0))])
    def test_signed_zero_coordinates(self, x, p):
        # the point rule keeps -0.0 (simplex._clamped); m * -0.0 is -0.0 and
        # D(j, -0.0) would be NaN, so the tables must read it as +0.0
        d = len(x)
        for r, s, m in ((1, 1, 1), (2, 3, 9), (3, 1, 40)):
            got = sp.s_eval_grid(r, s, m, d, [x])[0]
            want = float(oracles.s_exact(r, s, m, p, 8))
            assert abs(got - want) <= 16 * self.EPS * want, (r, s, m)
            lattice = oracles.s_lattice(r, s, m, d, [x])[0]
            assert abs(got - lattice) <= (128 + 8 * (r + s) * m) * self.EPS * lattice
            assert sp.s_eval(r, s, m, d, x) == got

    def test_stirling_errors_against_mpmath(self):
        # delta(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi): the table is
        # the 40-digit value rounded, and from n = 12 on the Stirling tail is
        # within 2 ulps of it
        def delta(n):
            with mpmath.workdps(40):
                return float(mpmath.loggamma(n + 1) - (n + mpmath.mpf(1) / 2) * mpmath.log(n)
                             + n - mpmath.log(2 * mpmath.pi) / 2)
        assert _STIRLING_ERRORS.tolist() == [delta(n) for n in range(1, 12)]
        for n in (12, 13, 20, 100, 1000, 3072, 10**6):
            want = delta(n)
            assert abs(float(_stirling_tail(float(n))) - want) <= 2 * math.ulp(want), n


class TestSIntegralRational:
    """Criterion 02 with no tolerance: the Dirichlet-reduced integral of
    S_{1,1,m} equals its closed form as a fraction; and s_integral_exact
    against the exact integral for several (r, s)."""

    def test_hand_values(self):
        # S_{1,1,1}(x) = x^2 + (1 - x)^2 integrates to 2/3 on [0, 1]
        assert oracles.s_integral_rational(1, 1, 1, 1) == Fraction(2, 3)
        assert oracles.s_integral_closed_form_rational(1, 1) == Fraction(2, 3)
        # S_{1,1,0} = 1, so the integral is the simplex volume 1/d!
        assert oracles.s_integral_rational(1, 1, 0, 3) == Fraction(1, 6)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_closed_form_exact(self, d):
        for m in [*range(1, 61), 100, 150, 200]:
            assert oracles.s_integral_rational(1, 1, m, d) == \
                oracles.s_integral_closed_form_rational(d, m), (d, m)

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 3), (3, 3)])
    def test_float_integral_matches_exact(self, r, s):
        ms = (1, 5, 20, 60, 200)
        for d in (1, 2, 3):
            for m, got in zip(ms, sp.s_integral_exact(r, s, ms, d)):
                want = float(oracles.s_integral_rational(r, s, m, d))
                assert abs(got - want) <= 1e-11 * want, (r, s, m, d)


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
        x = (1 / 3, 1 / 3)
        assert sp.det_covariance(1, 1, x) == pytest.approx(4.0 / 27.0, rel=1e-12)
        assert sp.det_covariance(1, 1, HALF) == pytest.approx(0.5, rel=1e-12)

    def test_two_routes_agree(self):
        rng = np.random.Generator(np.random.PCG64(17))
        for _ in range(100):
            d = int(rng.integers(1, 7))
            x = rng.dirichlet(np.ones(d + 1))[:-1]
            r, s = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            a = sp.det_covariance(r, s, x)
            b = oracles.det_covariance(r, s, SimplexPoint(x))
            assert b == pytest.approx(a, rel=1e-12)

    def test_singularity_error(self):
        with pytest.raises(ValueError):
            sp.phi_eval(1, 1, (1.0,))

    @pytest.mark.parametrize("fn", [sp.det_covariance, sp.phi_eval])
    @pytest.mark.parametrize("r, s, name", [(0, 1, "r"), (-1, 2, "r"), (1, 0, "s")])
    def test_orders_below_one_rejected(self, fn, r, s, name):
        # det_covariance once gave 0.0 at (0, 1) and -0.5 at (-1, 2), and
        # phi_eval inf and nan there, each with a RuntimeWarning
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
            fn(r, s, [0.5])


class TestCentralBinomial:
    def test_hand_values(self):
        table = sp.central_binomial_identity(1, 2)[-1]
        assert table["lhs"] == [1, 4, 16]
        assert sp.central_binomial_identity(2, 1)[-1]["rhs"] == [Fraction(1), Fraction(6)]
        assert sp.central_binomial_identity(2, 1)[-1]["equal"] == [True, True]

    def test_brute_force_oracle(self):
        # exhaustive enumeration over compositions of m into d+1 parts
        for d, m_max in [(1, 6), (2, 5), (3, 4)]:
            lhs = sp.central_binomial_identity(d, m_max)[-1]["lhs"]
            for m in range(m_max + 1):
                brute = 0
                for k in itertools.product(range(m + 1), repeat=d):
                    if sum(k) <= m:
                        parts = list(k) + [m - sum(k)]
                        term = 1
                        for p in parts:
                            term *= math.comb(2 * p, p)
                        brute += term
                assert lhs[m] == brute

    def test_kernel_rejects_short_factor(self):
        c = np.ones(4, dtype=object)
        with pytest.raises(ValueError):
            sp.composition_coefficient([c, c[:3]], [3])
        with pytest.raises(ValueError):
            sp.composition_coefficient([c], [3])

    def test_exact_equality_sample(self):
        for report in sp.central_binomial_identity(4, 60):
            assert all(report["equal"])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_table_matches_per_m_oracles(self, d):
        # every m <= 60: the table's left side against one composition_coefficient
        # call per m, its closed-form right side against the product loop
        table = sp.central_binomial_identity(d, 60)[-1]
        assert table["d"] == d
        assert len(table["lhs"]) == len(table["rhs"]) == len(table["equal"]) == 61
        for m in range(61):
            assert table["lhs"][m] == oracles.central_binomial_lhs(d, m)
            assert table["rhs"][m] == oracles.central_binomial_rhs(d, m)

    def test_one_table_matches_per_m_oracles(self):
        # every d of one d_max = 8 table against the per-(d, m) oracles, at
        # both ends of m and between; the first d reports of a d_max call
        # are the whole call at d
        reports = sp.central_binomial_identity(8, 120)
        assert [r["d"] for r in reports] == list(range(1, 9))
        for d, table in enumerate(reports, 1):
            assert len(table["lhs"]) == len(table["rhs"]) == len(table["equal"]) == 121
            assert all(table["equal"])
            for m in (0, 1, 2, 3, 17, 60, 97, 119, 120):
                assert table["lhs"][m] == oracles.central_binomial_lhs(d, m), (d, m)
                assert table["rhs"][m] == oracles.central_binomial_rhs(d, m), (d, m)
            assert sp.central_binomial_identity(d, 120) == reports[:d]

    def test_m_max_zero_and_domain(self):
        for d_max in (1, 3):
            assert sp.central_binomial_identity(d_max, 0) == [
                {"d": d, "lhs": [1], "rhs": [Fraction(1)], "equal": [True]}
                for d in range(1, d_max + 1)]
        for d, m_max in [(0, 5), (2, -1)]:
            with pytest.raises(ValueError):
                sp.central_binomial_identity(d, m_max)


def _nested_product(series, m):
    """z^m coefficient of a product of three series, by a loop over j + k + l = m."""
    a, b, c = series
    return sum(a[j] * b[k] * c[m - j - k] for j in range(m + 1) for k in range(m + 1 - j))


# the m-lists of the s-table golden cases, each with its d
GOLDEN_S_LISTS = [([5, 10, 20, 40, 80], 1), ([4, 8, 16], 2)]


def _asymptotics_s_lists(monkeypatch):
    """The (m-list, d) of every s-table call in the asymptotics plans of seeds 0-39."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import build_plan

    return [(inv.params["m_list"], inv.params["d"]) for seed in range(40)
            for inv in build_plan("asymptotics", seed) if inv.argv[0] == "s-table"]


class TestCompositionKernel:
    """composition_coefficient at many degrees against its one-degree calls
    and a nested loop; s_integral_exact on an m-list against its per-m calls."""

    def test_many_degrees_match_one_degree_and_nested_loop(self):
        rng = np.random.Generator(np.random.PCG64(3))
        top = 25
        series = [np.array([int(v) for v in rng.integers(-10**12, 10**12, top + 1)],
                           dtype=object) for _ in range(3)]
        degrees = [0, 1, 2, 7, 13, 24, 25]
        got = sp.composition_coefficient(series, degrees)
        assert got.dtype == object
        for m, value in zip(degrees, got):
            assert value == _nested_product(series, m), m
            cut = [c[: m + 1] for c in series]
            assert value == sp.composition_coefficient(cut, [m])[0], m
        assert sp.composition_coefficient(series, range(top + 1)).tolist() == [
            _nested_product(series, m) for m in range(top + 1)]

    def test_degrees_must_increase(self):
        c = np.ones(4)
        for bad in ([], [3, 1], [1, 1, 3]):
            with pytest.raises(ValueError, match="^m must be a non-empty, strictly increasing"):
                sp.composition_coefficient([c, c], bad)
        with pytest.raises(ValueError, match="^m must be an integer >= 0, got -1$"):
            sp.composition_coefficient([c, c], [-1, 3])

    def test_m_list_matches_per_m_bit_for_bit(self, monkeypatch):
        # the golden and benchmark lists, where the per-m calls were recorded
        for ms, d in GOLDEN_S_LISTS + _asymptotics_s_lists(monkeypatch):
            got = sp.s_integral_exact(1, 1, ms, d)
            want = np.array([sp.s_integral_exact(1, 1, [m], d)[0] for m in ms])
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (ms, d)

    @pytest.mark.parametrize("r,s", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1)])
    def test_m_list_within_two_ulps_of_per_m(self, r, s):
        # a longer chain may round a low coefficient differently: one ulp at most seen
        ms = [1, 2, 3, 4, 5, 6, 7, 10, 13, 20, 30, 40, 60, 80, 100, 115, 120, 150, 200, 250]
        for d in (1, 2, 3, 4):
            got = sp.s_integral_exact(r, s, ms, d)
            want = np.array([sp.s_integral_exact(r, s, [m], d)[0] for m in ms])
            assert np.all(np.abs(got - want) <= 2 * 2.0**-52 * want), (r, s, d)

    def test_m_list_checked_before_work(self, monkeypatch):
        class WorkStarted(Exception):
            pass

        def work(*args):
            raise WorkStarted

        monkeypatch.setattr(sp, "log_factorial_table", work)
        monkeypatch.setattr(sp, "composition_coefficient", work)
        with pytest.raises(ValueError, match="^m must be an integer >= 1, got 0$"):
            sp.s_integral_exact(1, 1, [0, 5], 1)
        for bad in ([], [5, 3], [4, 4]):
            with pytest.raises(ValueError, match="^m must be a non-empty, strictly increasing"):
                sp.s_integral_exact(1, 1, bad, 1)
        with pytest.raises(WorkStarted):
            sp.s_integral_exact(1, 1, [3, 5], 1)


class TestIntegrals:
    def test_exact_hand_values(self):
        assert sp.s_integral_exact(1, 1, [1], 1)[0] == pytest.approx(
            2.0 / 3.0, rel=1e-12
        )
        assert sp.s_integral_exact(1, 1, [2], 1)[0] == pytest.approx(
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
            assert sp.s_integral_exact(r, s, [m], d)[0] == pytest.approx(
                float(total), rel=1e-12
            )

    @pytest.mark.parametrize("r,s,m,d", [(1, 2, 30, 2), (2, 3, 20, 3), (1, 1, 200, 3),
                                         (2, 2, 60, 2), (3, 1, 40, 4), (2, 5, 300, 1)])
    def test_convolution_matches_lattice(self, r, s, m, d):
        want = s_integral_lattice(r, s, m, d)
        got = sp.s_integral_exact(r, s, [m], d)[0]
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("d,m", [(1, 1000), (4, 2000), (3, 5000)])
    def test_large_m_against_mpmath(self, d, m):
        # The exponent of the k-free factor adds four terms of size up to
        # L = ln((2m+d)!), each good to about an ulp of L, so the relative
        # error is about 4 eps L.  The worst seen on these cases is 0.92 eps L.
        tol = 4 * np.finfo(float).eps * math.lgamma(2 * m + d + 1)
        want = float(s_integral_mpmath(d, m))
        got = sp.s_integral_exact(1, 1, [m], d)[0]
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
            sp.s_integral_exact(1, 1, [9999], 2)
        with pytest.raises(CapacityError):
            sp.s_integral_exact(1, 1, [5, 9999], 2)  # the cost at the largest m
        with pytest.raises(WorkStarted):
            sp.s_integral_exact(1, 1, [9998], 2)

    def test_closed_form_hand_values(self):
        assert sp.s_integral_closed_form(1, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert sp.s_integral_closed_form(2, 3) == pytest.approx(1.0 / 8.0, rel=1e-12)

    def test_closed_form_matches_exact(self):
        for d in (1, 2, 3):
            for m in (1, 5, 17, 60):
                assert sp.s_integral_exact(1, 1, [m], d)[0] == pytest.approx(
                    sp.s_integral_closed_form(d, m), rel=1e-11
                )

    def test_exact_chain_cross_validation(self):
        # integral * Gamma(2m+d+1) / Gamma(m+1)^2 = central-binomial LHS
        from bernsimplex.specfun import log_gamma

        for d, m in [(1, 10), (2, 8), (3, 6)]:
            integral = sp.s_integral_exact(1, 1, [m], d)[0]
            scale = math.exp(log_gamma(2 * m + d + 1.0) - 2.0 * log_gamma(m + 1.0))
            assert integral * scale == pytest.approx(
                sp.central_binomial_identity(d, m)[-1]["lhs"][m], rel=1e-10
            )

    def test_asymptotic_constant_against_mpmath(self):
        # 2^{-d} sqrt(pi) / Gamma(d/2 + 1/2) through exp(log_gamma) was up to
        # 25 ulps off (s-table --d 2 printed 0.50000000000000078)
        for d in range(1, 13):
            with mpmath.workdps(40):
                want = mpmath.sqrt(mpmath.pi) / (
                    2**d * mpmath.gamma(mpmath.mpf(d) / 2 + mpmath.mpf(1) / 2))
                err = abs(mpmath.mpf(sp.asymptotic_constant(d)) - want) / want
            assert err <= 2 * 2.0**-52, (d, float(err))
        assert sp.asymptotic_constant(2) == 0.5

    def test_asymptotic_constant_underflow(self, monkeypatch):
        # the 0.0 past d = 279 is what the closed form rounds to there
        for d in range(260, 300):
            k, odd = divmod(d, 2)
            closed = (math.sqrt(math.pi) * math.ldexp(1 / math.factorial(k), -d) if odd
                      else math.factorial(k) / math.factorial(d))
            assert sp.asymptotic_constant(d) == closed, d
        assert sp.asymptotic_constant(279) > 0.0 == sp.asymptotic_constant(280)

        # far past it no factorial or product is formed: at d = 10^8 one would take hours
        def no_product(n):
            raise AssertionError("a factorial or product was formed")

        monkeypatch.setattr(math, "factorial", no_product)
        monkeypatch.setattr(math, "prod", no_product)
        assert sp.asymptotic_constant(10**8) == 0.0
        assert sp.s_integral_closed_form(10**8, 1) == 0.0

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
            det = 2.0**d * np.prod(xs, axis=1) * (1.0 - xs.sum(axis=1))
            phi = 1.0 / ((2.0 * math.pi) ** (d / 2.0) * np.sqrt(det))
            errs.append(abs(float(phi.sum()) * resolution**-d - sp.asymptotic_constant(d)))
        assert errs[-1] < errs[0]


class TestMidpointGrid:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [2, 3, 6, 7, 12, 25])
    def test_node_count(self, d, resolution):
        # nodes at least 1/(2 resolution) from the boundary, ties included:
        # a float sum once kept 21 of 35 nodes at d = 3, resolution = 6
        xs = sp.simplex_midpoint_grid(d, resolution)
        top = math.floor(resolution - (d + 1) / 2)
        assert xs.shape == (math.comb(top + d, d) if top >= 0 else 0, d)
        k = np.rint(xs * resolution - 0.5).astype(int)
        assert np.array_equal(xs, (k + 0.5) / resolution)
        assert np.all(2 * k.sum(axis=1) + d <= 2 * resolution - 1)


class TestGammaRatioResidual:
    def test_small_m_finite(self):
        assert sp.gamma_ratio_residual(1) < math.inf

    def test_m100_expansion(self):
        # ratio = 1 + 1/800 within 2e-6  <=>  m^2 residual below 2e-6 * m^2
        assert sp.gamma_ratio_residual(100) <= 2e-6 * 100**2

    def test_bounded_envelope(self):
        for m in (10, 30, 100, 1000, 10_000):
            assert sp.gamma_ratio_residual(m) <= 0.05


def weighted_integral(r, s, m, d, h, resolution):
    """Midpoint-rule value of the integral of h(x) (m^{d/2} S_{r,s,m}(x) - phi_{r,s}(x))
    over the simplex; h maps the (P, d) nodes to (P,) weights."""
    xs = sp.simplex_midpoint_grid(d, resolution)
    phi = sp.phi_eval(r, s, xs)
    integrand = h(xs) * (m ** (d / 2.0) * sp.s_eval_grid(r, s, m, d, xs) - phi)
    return float(integrand.sum() * resolution ** (-d))


class TestWeightedExperiment:
    def test_constant_trend_to_zero(self):
        # coarse grid: every node is far enough from the boundary that the
        # pointwise limit dominates the midpoint-rule boundary bias
        vals = [
            abs(weighted_integral(1, 1, m, 1, lambda xs: np.ones(len(xs)), 25))
            for m in (10, 40, 160)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_projection_trend_d2(self):
        lo = abs(weighted_integral(1, 2, 10, 2, lambda xs: xs[:, 0], 80))
        hi = abs(weighted_integral(1, 2, 100, 2, lambda xs: xs[:, 0], 80))
        assert hi < lo
