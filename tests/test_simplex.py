import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsimplex import cli, estimate, ineq, monotone, spoly
from bernsimplex import simplex as sx
from bernsimplex.report import ScanReport
from bernsimplex.specfun import log_gamma
import oracles
from oracles import MultiIndex, SimplexPoint, WeightVector, enumerate_lattice, multinomial_log_pmf


def brute_lattice(d, m):
    return [
        k for k in itertools.product(range(m + 1), repeat=d) if sum(k) <= m
    ]


class TestTypes:
    def test_simplex_point_derived_coordinate(self):
        p = SimplexPoint((0.2, 0.3))
        assert p.last == pytest.approx(0.5)
        assert p.full == (0.2, 0.3, 0.5)
        assert p.interior

    def test_simplex_point_boundary_and_errors(self):
        assert not SimplexPoint((1.0,)).interior
        with pytest.raises(ValueError):
            SimplexPoint((0.6, 0.6))
        with pytest.raises(ValueError):
            SimplexPoint((-0.1,))

    def test_multi_index(self):
        k = MultiIndex((1, 2), 5)
        assert k.last == 2
        assert k.full == (1, 2, 2)
        with pytest.raises(ValueError):
            MultiIndex((3, 3), 5)

    def test_weight_vector(self):
        w = WeightVector((1.0, 2.0, 0.0))
        assert w.M == pytest.approx(3.0)
        assert w.d == 2
        with pytest.raises(ValueError):
            WeightVector((0.0, 0.0))


_NAN, _INF = math.nan, math.inf
# rows at the edges of the point rule: signed zero, an entry of exactly
# -1e-12, a left-to-right sum of exactly 1 + 1e-12, entries of 1 + 1e-13, and
# just past each bound
EDGE_ROWS = [
    (-0.0,), (-0.0, 0.5), (0.5, -0.0, 0.5), (-1e-12,), (0.3, -1e-12), (1e-12, 1.0),
    (1.0 + 1e-12,), (0.25, 0.75 + 1e-12), (1.0 + 1e-13,), (1.0 + 1e-13, -1e-13),
    (0.0, 1.0 + 1e-13), (np.nextafter(-1e-12, -1.0),), (np.nextafter(1.0 + 1e-12, 2.0),),
    (-2e-12, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.1,) * 9 + (0.1 + 1e-12,),
    (_NAN,), (_INF,), (-_INF,), (0.2, _NAN), (_INF, -_INF), (0.5, _INF), (1e308, 1e308),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _dirichlet_rows(d, n, seed):
    return np.random.Generator(np.random.PCG64(seed)).dirichlet(np.ones(d + 1), n)[:, :d]


def _check_rule(rule, oracle, rows):
    """rule against oracle, row by row and bit for bit; the (row, oracle
    value) pairs of the rows both accept."""
    accepted = []
    for row in rows:
        try:
            want = oracle(row)
        except ValueError:
            with pytest.raises(ValueError):
                rule([row])
            continue
        assert _bits(rule([row])[0]) == _bits(want), row
        accepted.append((row, want))
    return accepted


class TestPointRule:
    """simplex._simplex_rows against oracles.simplex_full, row by row and bit
    for bit, and every point consumer accepting the same rows."""

    check = staticmethod(functools.partial(_check_rule, sx._simplex_rows, oracles.simplex_full))

    def test_edge_rows(self):
        accepted = self.check(EDGE_ROWS)
        assert len(accepted) == 14
        for row, want in accepted:
            assert _bits(SimplexPoint(row).full) == _bits(want)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_dirichlet_rows(self, d):
        xs = _dirichlet_rows(d, 2000, 70 + d)
        # every 4th row ends within 2 ulps of a sum of 1 + 1e-12, where a sum
        # in another order (numpy's pairwise one, from d = 8) can round across
        head = np.zeros(len(xs[::4]))
        if d > 1:
            head = np.add.accumulate(xs[::4, :-1], axis=1)[:, -1]
        last = (1.0 + 1e-12) - head
        xs[::4, -1] = last + np.resize([-2, -1, 0, 1, 2], len(last)) * np.spacing(last)
        accepted = self.check(xs.tolist())
        assert 0 < len(accepted) < len(xs)
        # a row's coordinates do not depend on the other rows of the call
        kept = np.array([row for row, _ in accepted])
        assert _bits(sx._simplex_rows(kept)) == _bits([want for _, want in accepted])

    def test_shape(self):
        for bad in (np.empty((3, 0)), np.empty(3), np.empty((2, 2, 2))):
            with pytest.raises(ValueError):
                sx._simplex_rows(bad)
        assert sx._simplex_rows(np.empty((0, 2))).shape == (0, 3)

    def test_consumers_accept_the_same_rows(self):
        samples = {d: sx.sample_dirichlet((1.0,) * (d + 1), 20, seed=d) for d in (1, 2, 3, 10)}
        rows = EDGE_ROWS + _dirichlet_rows(2, 20, 5).tolist() + _dirichlet_rows(3, 20, 6).tolist()
        for row in rows:
            d = len(row)
            consumers = [
                lambda: SimplexPoint(row),
                lambda: sx.SampleSet(np.array([row]), "simplex"),
                lambda: spoly.s_eval_grid(1, 1, 1, d, np.array([row])),
                lambda: spoly.s_eval(1, 1, 1, d, row),
                lambda: estimate.bernstein_cdf_simplex(samples[d], 1, np.array([row])),
                lambda: estimate.bernstein_cdf_simplex(samples[d], 1, row),
            ]
            try:
                oracles.simplex_full(row)
            except ValueError:
                for consume in consumers:
                    with pytest.raises(ValueError):
                        consume()
            else:
                for consume in consumers:
                    consume()


_BELOW, _ABOVE = np.nextafter(-1e-12, -1.0), np.nextafter(1.0 + 1e-12, 2.0)
# rows at the edges of the hypercube rule: signed zero, entries of exactly
# -1e-12 and 1 + 1e-12, the next float past each bound, and non-finite entries
CUBE_EDGE_ROWS = [
    (-0.0,), (-0.0, 0.5), (0.5, -0.0, 1.0), (-1e-12,), (1.0 + 1e-12,), (-1e-12, 1.0 + 1e-12),
    (1.0 + 1e-13, -1e-13), (np.nextafter(1.0, 2.0),), (1.0, 1.0, 1.0), (0.0, 0.0),
    (_BELOW,), (_ABOVE,), (0.5, _BELOW), (_ABOVE, 0.5), (1.5,), (-0.2, 0.5),
    (_NAN,), (_INF,), (-_INF,), (0.2, _NAN), (_INF, -_INF), (0.5, _INF),
]


class TestCubeRule:
    """simplex._cube_rows against oracles.cube_point, row by row and bit for
    bit, and every hypercube consumer accepting the same rows."""

    check = staticmethod(functools.partial(_check_rule, sx._cube_rows, oracles.cube_point))

    def test_edge_rows(self):
        accepted = self.check(CUBE_EDGE_ROWS)
        assert len(accepted) == 10
        for row, want in accepted:
            # a sample is kept as the rule returns it
            assert _bits(sx.SampleSet(np.array([row]), "hypercube").points[0]) == _bits(want)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_random_rows(self, d):
        rng = np.random.Generator(np.random.PCG64(90 + d))
        xs = rng.uniform(size=(600, d))
        # entries within a few ulps of each bound, and within 1e-12 outside
        # the cube, on every other row
        near = rng.choice([-1e-12, 1.0 + 1e-12, -5e-13, 1.0 + 5e-13, 0.0, 1.0], size=(300, d))
        xs[::2] = near + rng.integers(-2, 3, size=(300, d)) * np.spacing(near)
        accepted = self.check(xs.tolist())
        assert 0 < len(accepted) < len(xs)
        # a row's coordinates do not depend on the other rows of the call
        kept = np.array([row for row, _ in accepted])
        assert _bits(sx._cube_rows(kept)) == _bits([want for _, want in accepted])

    def test_shape(self):
        for bad in (np.empty((3, 0)), np.empty(3), np.empty((2, 2, 2))):
            with pytest.raises(ValueError):
                sx._cube_rows(bad)
        assert sx._cube_rows(np.empty((0, 2))).shape == (0, 2)
        with pytest.raises(ValueError, match=r"\(P, d=3\)"):
            sx._cube_rows(np.zeros((2, 2)), 3)

    def test_consumers_accept_the_same_rows(self):
        rng = np.random.Generator(np.random.PCG64(7))
        samples = {d: sx.SampleSet(rng.uniform(size=(20, d)), "hypercube") for d in (1, 2, 3)}
        for row in CUBE_EDGE_ROWS + rng.uniform(-0.1, 1.1, size=(20, 2)).tolist():
            d = len(row)
            consumers = [
                lambda: sx.SampleSet(np.array([row]), "hypercube"),
                lambda: estimate.bernstein_cdf_hypercube(samples[d], 3, np.array([row])),
                lambda: estimate.bernstein_cdf_hypercube(samples[d], 3, row),
                lambda: estimate.bernstein_density_hypercube(samples[d], 3, np.array([row])),
                lambda: estimate.bernstein_density_hypercube(samples[d], 3, row),
            ]
            try:
                want = oracles.cube_point(row)
            except ValueError:
                for consume in consumers:
                    with pytest.raises(ValueError):
                        consume()
            else:
                for consume in consumers:
                    consume()
                # a query within 1e-12 of the cube is evaluated at its clamped point
                for fn in (estimate.bernstein_cdf_hypercube, estimate.bernstein_density_hypercube):
                    assert fn(samples[d], 3, row) == fn(samples[d], 3, want)


class TestOnePointConvention:
    """Every API that takes a point takes its first d coordinates: a length-d
    sequence is one point and gives a float, a (P, d) array gives a (P,)
    array, each entry bit for bit the one-point call on its row."""

    ROWS = np.vstack([_dirichlet_rows(2, 30, 3), [[0.0, 0.25], [1.0 + 1e-13, -1e-13]]])
    SAMPLES = sx.sample_dirichlet((1.0, 2.0, 1.5), 200, seed=8)

    # the float64s a row holds in each function's blocks: d + 2, and 2 (N + d + 6)
    # with N = 55 lattice rows
    FLOATS = {"det": 4, "phi": 4, "cdf": 2 * (55 + 2 + 6)}

    def fns(self):
        return {"det": functools.partial(spoly.det_covariance, 2, 3),
                "phi": functools.partial(spoly.phi_eval, 1, 2),
                "cdf": functools.partial(estimate.bernstein_cdf_simplex, self.SAMPLES, 9)}

    def test_rows_match_one_point_calls(self, small_blocks):
        interior = self.ROWS[:-2]
        for name, fn in self.fns().items():
            rows = self.ROWS if name == "cdf" else interior
            single = [fn(row) for row in rows]
            assert all(type(v) is float for v in single), name
            assert [fn(tuple(row.tolist())) for row in rows] == single, name
            batch = fn(rows)
            assert batch.shape == (len(rows),) and _bits(batch) == _bits(single), name
            # blocks of 7 split the 30 (32) rows 7, 7, 7, 7, 2 (4)
            small_blocks(7, self.FLOATS[name])
            assert _bits(fn(rows)) == _bits(single), name
        assert _bits([spoly.s_eval(2, 3, 9, 2, row) for row in self.ROWS]) == _bits(
            spoly.s_eval_grid(2, 3, 9, 2, self.ROWS))

    def test_boundary_rows_are_singular_for_the_covariance(self):
        # a boundary row (one clamped onto it included) has no density, alone or in a batch
        for name in ("det", "phi"):
            fn = self.fns()[name]
            for row in self.ROWS[-2:]:
                for x in (row, np.vstack([self.ROWS[:3], row])):
                    with pytest.raises(ValueError, match="singular"):
                        fn(x)

    def test_points_are_checked_before_the_lattice_or_box(self):
        # at m = 20000 the lattice and the bin box are past LATTICE_CAP, so a
        # size built or checked before the point would raise CapacityError
        cube = sx.SampleSet(self.SAMPLES.points, "hypercube")
        for fn, bad, good in [
                (functools.partial(spoly.s_eval_grid, 1, 1, 20000, 2), [(0.9, 0.9)], [(0.2, 0.3)]),
                (functools.partial(estimate.bernstein_cdf_simplex, self.SAMPLES, 20000),
                 (0.9, 0.9), (0.2, 0.3)),
                (functools.partial(estimate.bernstein_cdf_hypercube, cube, 20000),
                 (1.5, 0.2), (0.5, 0.2)),
                (functools.partial(estimate.bernstein_density_hypercube, cube, 20000),
                 (1.5, 0.2), (0.5, 0.2))]:
            with pytest.raises(ValueError, match=r"^point \[(0.9, 0.9|1.5, 0.2)\] is off the "):
                fn(bad)
            with pytest.raises(sx.CapacityError):
                fn(good)

    def test_wrong_shapes_raise_the_shape_error(self):
        cube = sx.SampleSet(self.SAMPLES.points, "hypercube")
        fixed_d = [functools.partial(spoly.s_eval, 1, 1, 3, 2),
                   self.fns()["cdf"],
                   functools.partial(estimate.bernstein_cdf_hypercube, cube, 3),
                   functools.partial(estimate.bernstein_density_hypercube, cube, 3)]
        for fn in fixed_d:
            for bad in (np.array([0.2, 0.3, 0.1]), np.array([0.2]), [[0.2, 0.3, 0.1]]):
                with pytest.raises(ValueError, match=r"\(P, d=2\)"):
                    fn(bad)
        for fn in (self.fns()["det"], self.fns()["phi"]):
            for bad in (np.empty(0), np.zeros((2, 2, 2))):
                with pytest.raises(ValueError, match=r"\(P, d\)"):
                    fn(bad)


_INST = monotone.MonotoneInstance((1.0, 2.0, 3.0), (0.2, 0.3))
_CUBE_SAMPLES = sx.SampleSet(_dirichlet_rows(2, 20, 5), "hypercube")
# (function, argument name, least value, the call with that argument as v)
_INT_ARGS = [
    ("lattice_array", "d", 1, lambda v: sx.lattice_array(v, 2)),
    ("lattice_array", "m", 0, lambda v: sx.lattice_array(2, v)),
    ("log_factorial_table", "n", 0, lambda v: sx.log_factorial_table(v)),
    ("sample_dirichlet", "n", 1, lambda v: sx.sample_dirichlet((1.0, 1.0), v, 0)),
    ("bernstein_cdf_simplex", "m", 1,
     lambda v: estimate.bernstein_cdf_simplex(TestOnePointConvention.SAMPLES, v, (0.2, 0.3))),
    ("bernstein_cdf_hypercube", "m", 1,
     lambda v: estimate.bernstein_cdf_hypercube(_CUBE_SAMPLES, v, (0.2, 0.3))),
    ("bernstein_density_hypercube", "m", 1,
     lambda v: estimate.bernstein_density_hypercube(_CUBE_SAMPLES, v, (0.2, 0.3))),
    ("fuzz_inequalities", "trials", 1, lambda v: ineq.fuzz_inequalities(v, 2, 0, ScanReport())),
    ("fuzz_inequalities", "dmax", 1, lambda v: ineq.fuzz_inequalities(2, v, 0, ScanReport())),
    ("h_derivative", "order n", 1, lambda v: monotone.h_derivative(_INST, 1.0, v)),
    ("cm_scan", "max_order", 1, lambda v: monotone.cm_scan([_INST], [1.0], ScanReport(), v)),
    ("s_eval_grid", "r", 1, lambda v: spoly.s_eval_grid(v, 1, 1, 1, [(0.5,)])),
    ("s_eval_grid", "s", 1, lambda v: spoly.s_eval_grid(1, v, 1, 1, [(0.5,)])),
    ("s_eval_grid", "m", 1, lambda v: spoly.s_eval_grid(1, 1, v, 1, [(0.5,)])),
    ("s_eval_grid", "d", 1, lambda v: spoly.s_eval_grid(1, 1, 1, v, [(0.5,)])),
    ("s_eval", "r", 1, lambda v: spoly.s_eval(v, 1, 1, 1, (0.5,))),
    ("s_eval", "s", 1, lambda v: spoly.s_eval(1, v, 1, 1, (0.5,))),
    ("s_eval", "m", 1, lambda v: spoly.s_eval(1, 1, v, 1, (0.5,))),
    ("s_eval", "d", 1, lambda v: spoly.s_eval(1, 1, 1, v, (0.5,))),
    ("s_integral_exact", "r", 1, lambda v: spoly.s_integral_exact(v, 1, [1], 1)),
    ("s_integral_exact", "s", 1, lambda v: spoly.s_integral_exact(1, v, [1], 1)),
    ("s_integral_exact", "m", 1, lambda v: spoly.s_integral_exact(1, 1, [v], 1)),
    ("s_integral_exact", "d", 1, lambda v: spoly.s_integral_exact(1, 1, [1], v)),
    ("det_covariance", "r", 1, lambda v: spoly.det_covariance(v, 1, (0.5,))),
    ("det_covariance", "s", 1, lambda v: spoly.det_covariance(1, v, (0.5,))),
    ("phi_eval", "r", 1, lambda v: spoly.phi_eval(v, 1, (0.5,))),
    ("phi_eval", "s", 1, lambda v: spoly.phi_eval(1, v, (0.5,))),
    ("composition_coefficient", "m", 0,
     lambda v: spoly.composition_coefficient([np.ones(1)] * 2, [v])),
    ("central_binomial_identity", "d_max", 1, lambda v: spoly.central_binomial_identity(v, 2)),
    ("central_binomial_identity", "m_max", 0, lambda v: spoly.central_binomial_identity(2, v)),
    ("s_integral_closed_form", "d", 1, lambda v: spoly.s_integral_closed_form(v, 2)),
    ("s_integral_closed_form", "m", 1, lambda v: spoly.s_integral_closed_form(2, v)),
    ("asymptotic_constant", "d", 1, lambda v: spoly.asymptotic_constant(v)),
    ("gamma_ratio_residual", "m", 1, lambda v: spoly.gamma_ratio_residual(v)),
    ("simplex_midpoint_grid", "d", 1, lambda v: spoly.simplex_midpoint_grid(v, 2)),
    ("simplex_midpoint_grid", "resolution", 2, lambda v: spoly.simplex_midpoint_grid(2, v)),
]
_INT_IDS = [f"{name}-{arg}" for name, arg, _, _ in _INT_ARGS]


class TestIntegerRule:
    """Every integer argument goes through simplex._check_ints: a Python int,
    not a bool, at least its least value, else a ValueError that names it."""

    @pytest.mark.parametrize("bad", ["below", 2.5, True, np.int64(2), "3", None],
                             ids=["below", "float", "bool", "int64", "str", "None"])
    @pytest.mark.parametrize("name, arg, lo, call", _INT_ARGS, ids=_INT_IDS)
    def test_rejects_and_names_the_argument(self, name, arg, lo, call, bad):
        value = lo - 1 if bad == "below" else bad
        message = f"^{arg} must be an integer .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    @pytest.mark.parametrize("name, arg, lo, call", _INT_ARGS, ids=_INT_IDS)
    def test_accepts_the_least_value(self, name, arg, lo, call):
        call(lo)

    def test_boundary_values(self):
        assert sx.lattice_array(2, 0).tolist() == [[0, 0, 0]]
        assert sx.log_factorial_table(0).shape == (1,)
        assert [r["equal"] for r in spoly.central_binomial_identity(2, 0)] == [[True], [True]]
        assert spoly.composition_coefficient([np.ones(1)] * 2, [0]).tolist() == [1.0]
        assert spoly.simplex_midpoint_grid(1, 2).tolist() == [[0.25], [0.75]]

    def test_checked_where_no_node_survives(self):
        # d >= 2 * resolution leaves no node, so lattice_array never sees d
        for d in (np.int64(5), 10.5):
            message = f"^d must be an integer >= 1, got {re.escape(repr(d))}$"
            with pytest.raises(ValueError, match=message):
                spoly.simplex_midpoint_grid(d, 2)

    def test_upper_bound(self):
        with pytest.raises(ValueError, match=r"^k must be an integer in \[1, 7\], got 8$"):
            sx._check_ints(hi=7, k=8)
        sx._check_ints(hi=7, k=7)


class TestLattice:
    def test_d1_example(self):
        ks = [mi.k for mi in enumerate_lattice(1, 2)]
        assert ks == [(0,), (1,), (2,)]

    def test_degenerate_degree(self):
        assert [mi.k for mi in enumerate_lattice(3, 0)] == [(0, 0, 0)]

    @pytest.mark.parametrize("d,m", [(1, 7), (2, 2), (2, 9), (3, 6), (4, 5)])
    def test_bijection_and_lex_order(self, d, m):
        got = [mi.k for mi in enumerate_lattice(d, m)]
        assert got == sorted(brute_lattice(d, m))
        assert len(got) == len(set(got)) == sx.lattice_size(d, m) == math.comb(m + d, d)
        assert all(sum(k) <= m for k in got)

    @pytest.mark.parametrize("d,m", [(1, 7), (2, 9), (3, 0), (3, 6), (4, 5)])
    def test_lattice_array_matches_enumeration(self, d, m):
        arr = sx.lattice_array(d, m)
        ks = [mi.full for mi in enumerate_lattice(d, m)]
        assert arr.shape == (len(ks), d + 1)
        assert [tuple(row) for row in arr] == ks

    @pytest.mark.parametrize("d,m", [(d, m) for d in range(1, 6) for m in (0, 1, 2, 7)]
                             + [(3, 40), (5, 12)])
    def test_lattice_array_matches_recursive_oracle(self, d, m):
        arr = sx.lattice_array(d, m)
        assert arr.dtype == np.int64
        assert arr.flags.c_contiguous
        assert np.array_equal(arr, oracles.lattice_array(d, m))

    def test_capacity_error(self):
        with pytest.raises(sx.CapacityError):
            list(enumerate_lattice(8, 1000))


class TestLogFactorialTable:
    def test_prefixes_match_float_log_gamma_bit_for_bit(self):
        # called out of order: an entry depends only on j.  It reaches past
        # j = 9169 and 19142, where numpy's log and libm's differ in the last
        # bit on x86-64 (so the entries there would move if either side took
        # a math.log route).
        want = np.array([log_gamma(j + 1.0) for j in range(20001)])
        for n in (5, 3000, 10, 12000, 20000, 7):
            lf = sx.log_factorial_table(n)
            assert np.array_equal(lf.view(np.int64), want[: n + 1].view(np.int64))

    def test_n_nonnegative(self):
        with pytest.raises(ValueError):
            sx.log_factorial_table(-1)

    def test_capacity_checked_before_work(self, monkeypatch):
        class WorkStarted(Exception):
            pass

        def work(*args):
            raise WorkStarted

        monkeypatch.setattr(sx, "LATTICE_CAP", 21)
        assert sx.log_factorial_table(20).size == 21
        monkeypatch.setattr(sx, "log_gamma", work)
        # n + 1 = 22 entries exceed the cap before log_gamma is reached
        with pytest.raises(sx.CapacityError):
            sx.log_factorial_table(21)
        with pytest.raises(WorkStarted):
            sx.log_factorial_table(20)


class TestMultinomialLogPmf:
    def test_hand_values(self):
        lp = multinomial_log_pmf(MultiIndex((1,), 2), SimplexPoint((0.5,)))
        assert lp == pytest.approx(math.log(0.5), rel=1e-12)
        lp = multinomial_log_pmf(MultiIndex((0, 0), 0), SimplexPoint((0.3, 0.3)))
        assert lp == pytest.approx(0.0, abs=1e-14)
        lp = multinomial_log_pmf(
            MultiIndex((1, 1), 3), SimplexPoint((1.0 / 3.0, 1.0 / 3.0))
        )
        assert lp == pytest.approx(math.log(2.0 / 9.0), rel=1e-12)

    def test_boundary_conventions(self):
        # k_i = 0 at x_i = 0 contributes nothing; k_i > 0 there kills the pmf
        assert multinomial_log_pmf(
            MultiIndex((2,), 2), SimplexPoint((0.0,))
        ) == -math.inf
        assert multinomial_log_pmf(
            MultiIndex((0,), 2), SimplexPoint((0.0,))
        ) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multinomial_log_pmf(MultiIndex((1, 0), 2), SimplexPoint((0.5,)))

    def test_permutation_symmetry(self):
        x = (0.2, 0.3, 0.1)  # full coords (0.2, 0.3, 0.1, 0.4)
        k = (2, 1, 0)  # full (2, 1, 0, 2), m = 5
        base = multinomial_log_pmf(MultiIndex(k, 5), SimplexPoint(x))
        kf, xf = (2, 1, 0, 2), (0.2, 0.3, 0.1, 0.4)
        for perm in itertools.permutations(range(4)):
            kp = [kf[i] for i in perm]
            xp = [xf[i] for i in perm]
            lp = multinomial_log_pmf(
                MultiIndex(kp[:-1], 5), SimplexPoint(xp[:-1])
            )
            assert lp == pytest.approx(base, rel=1e-12)

    def test_lattice_kernel_matches_scalar(self):
        d, m = 2, 6
        points = [SimplexPoint(x) for x in [(0.2, 0.5), (0.0, 0.4), (1.0, 0.0), (0.0, 0.0)]]
        lat = sx.lattice_array(d, m)
        logp = oracles.lattice_log_pmf(lat, np.array([p.full for p in points]))
        want = [[multinomial_log_pmf(MultiIndex(k[:-1], m), p) for k in lat]
                for p in points]
        assert np.array_equal(logp, want)


def pmf_total(d, m, x):
    """sum_{||k||<=m} P_{k,m}(x) over the full lattice, from the Poisson tables."""
    w, scale = sx._poisson_weights((1,), m)
    return float(sx._lattice_rows(1, w, sx.lattice_array(d, m), np.array([x.full])).sum() * scale)


class TestNormalization:
    @pytest.mark.parametrize(
        "d,m,x",
        [
            (2, 5, (0.2, 0.3)),
            (1, 1, (0.25,)),
            (3, 4, (0.1, 0.2, 0.3)),
            (2, 60, (0.5, 0.25)),
        ],
    )
    def test_sums_to_one(self, d, m, x):
        assert pmf_total(d, m, SimplexPoint(x)) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(
        x1=st.floats(min_value=0.05, max_value=0.6),
        x2=st.floats(min_value=0.05, max_value=0.35),
        m=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=50)
    def test_sums_to_one_random(self, x1, x2, m):
        total = pmf_total(2, m, SimplexPoint((x1, x2)))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestPoissonWeights:
    """_poisson_weights and _lattice_rows at ranks (1,), the multinomial pmf
    the estimators weight with, against the log-pmf kernel they replaced
    (oracles.lattice_log_pmf) and against the exact pmf: d = 1..3, m up to
    100, at dyadic points p/8 (each float coordinate, x_{d+1} included, is
    exact), vertices and zero and -0.0 coordinates included.

    On sum_k g_k P_{k,m}(x), g_k integers in [1, 1000), formed as the
    estimators form it (one dot per row, then the scale), relative, EPS =
    2^-52:
    - exact: 8 EPS.  Measured at most 3.0 EPS (d = 3, m = 12).
    - lattice_log_pmf: (128 + 2m) EPS.  The oracle rounds logarithms of size
      ~ln m!: measured at most 120 EPS (d = 1, m = 100).
    An entry is 0 exactly where the oracle's is, where k_i > 0 meets x_i = 0."""

    MS = {1: (1, 2, 7, 40, 100), 2: (1, 5, 16, 40, 100), 3: (1, 4, 12, 40)}
    POINTS = {1: [(1.0,), (0.0,), (-0.0,), (0.375,), (0.125,), (0.5,)],
              2: [(1.0, 0.0), (0.0, 0.0), (0.0, 0.375), (-0.0, 0.5), (0.25, 0.0),
                  (0.375, 0.5), (0.125, 0.125)],
              3: [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.25, 0.375), (0.5, -0.0, 0.5),
                  (0.125, 0.25, 0.0), (0.25, 0.375, 0.125)]}
    EPS = 2.0**-52

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weighted_sums(self, d):
        rng = np.random.Generator(np.random.PCG64(50 + d))
        xs = np.array(self.POINTS[d])
        full = sx._simplex_rows(xs)
        # numerators over 8 of the full coordinates, each exact
        ps = [[int(v * 8) for v in row] for row in full.tolist()]
        assert all(sum(p) == 8 for p in ps)
        for m in self.MS[d]:
            lat = sx.lattice_array(d, m)
            coef = [math.factorial(m) // math.prod(map(math.factorial, k)) for k in lat.tolist()]
            g = rng.integers(1, 1000, len(lat))
            w, scale = sx._poisson_weights((1,), m)
            rows = sx._lattice_rows(1, w, lat, full)
            oracle = np.exp(oracles.lattice_log_pmf(lat, full))
            for p, row, want_row in zip(ps, rows, oracle):
                assert np.array_equal(row == 0.0, want_row == 0.0), (m, p)
                got = np.dot(g, row) * scale
                exact = Fraction(sum(int(gk) * c * math.prod(pi**ki for pi, ki in zip(p, k))
                                     for gk, c, k in zip(g, coef, lat.tolist())), 8**m)
                assert abs(Fraction(got) - exact) <= 8 * self.EPS * exact, (m, p)
                lattice = np.dot(g, want_row)
                assert abs(got - lattice) <= (128 + 2 * m) * self.EPS * lattice, (m, p)


class TestDirichletSampler:
    def test_determinism(self):
        a = sx.sample_dirichlet((1.0, 2.0, 3.0), 100, seed=11)
        b = sx.sample_dirichlet((1.0, 2.0, 3.0), 100, seed=11)
        assert np.array_equal(a.points, b.points)

    def test_moments_symmetric(self):
        s = sx.sample_dirichlet((1.0, 1.0, 1.0), 100_000, seed=7)
        full = np.hstack([s.points, (1.0 - s.points.sum(axis=1))[:, None]])
        mean = full.mean(axis=0)
        # Dirichlet(1,1,1): mean 1/3, var = (1/3)(2/3)/4 per coordinate
        sigma = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / 4.0 / 100_000)
        assert np.all(np.abs(mean - 1.0 / 3.0) < 3.0 * sigma)

    def test_moments_beta22(self):
        s = sx.sample_dirichlet((2.0, 2.0), 100_000, seed=13)
        x = s.points[:, 0]
        sigma = math.sqrt(0.05 / 100_000)
        assert abs(x.mean() - 0.5) < 3.0 * sigma
        assert x.var() == pytest.approx(0.05, rel=0.05)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sx.sample_dirichlet((1.0, -1.0), 10, seed=0)

    @pytest.mark.parametrize("domain", ["simplex", "hypercube"])
    def test_sample_set_needs_a_coordinate(self, domain):
        # d = 0 once passed, wrote blank lines that from_csv rejects, and
        # failed in the estimators with a numpy error
        with pytest.raises(ValueError, match="d >= 1"):
            sx.SampleSet(np.empty((3, 0)), domain)

    def test_csv_round_trip(self, tmp_path):
        s = sx.sample_dirichlet((1.0, 1.0, 1.0), 50, seed=3)
        path = tmp_path / "samples.csv"
        s.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2"
        back = sx.SampleSet.from_csv(path)
        assert np.array_equal(back.points, s.points)
        assert not back.points.flags.writeable

    @pytest.mark.parametrize("domain", ["simplex", "hypercube"])
    def test_sample_set_is_read_only(self, domain):
        # either write once got past the point rule, and then the hypercube
        # cdf at (1.0,) raised numpy's invalid-entry error
        s = sx.SampleSet(np.array([[0.25], [1.0]]), domain)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.points = np.array([[1.0000000000000002]])
        with pytest.raises(ValueError, match="read-only"):
            s.points[0, 0] = 7.0
        assert s.points.tolist() == [[0.25], [1.0]]
        cube = s if domain == "hypercube" else sx.SampleSet(s.points, "hypercube")
        assert estimate.bernstein_cdf_hypercube(cube, 4, (1.0,)) == pytest.approx(
            1.0, abs=4 * 2.0**-52)


def _scan(d, instances, two_terms=False):
    rng = np.random.Generator(np.random.PCG64(40 + d))
    insts = [cli._random_instance(rng, d) for _ in range(instances)]
    if two_terms:  # one positive weight: d of the d + 2 terms are dead kernel entries
        insts = [monotone.MonotoneInstance((i.M,) + (0.0,) * d, i.x) for i in insts]
    grid = cli._grid_spec("0.1:10:0.1")
    return lambda n, out: sx._write_csv(out, "instance,a,order,value,margin",
                                        "%s,%.17g,%s,%.17g,%.17g",
                                        monotone.cm_scan(insts[:n], grid, ScanReport(),
                                                         max_order=7), None)


def _fuzz(dmax, trials):
    return lambda n, out: sx._write_csv(out, "trial,d,M,check,margin", "%s,%s,%.17g,%s,%.17g",
                                        ineq.fuzz_inequalities(n or trials, dmax, 5,
                                                               ScanReport()), None)


def _points(fn, points):
    return lambda n, out: fn(points[:n])


_RNG = np.random.Generator(np.random.PCG64(12))
_SIMPLEX = _RNG.dirichlet(np.ones(3), 150)
_SAMPLES = sx.sample_dirichlet((1.0, 2.0, 1.5), 1000, seed=4)
_CUBE = sx.SampleSet(_RNG.uniform(size=(1000, 2)), "hypercube")


def _csv(samples):
    one = sx.SampleSet(samples.points[:1], samples.domain)
    return lambda n, out: (one if n else samples).to_csv(out)


class TestBlockBudget:
    """Each blocked loop, run on several blocks, holds at most BLOCK_BYTES
    more at its tracemalloc peak than on one item: its blocks' temporaries,
    with numpy's ufunc buffers, and for a scan or a sample file its row
    blocks and their text, as the CSV writer formats them into a file, a row
    slice at a time.  What the call keeps whatever
    its size (a lattice, its ln j! table) and what it returns are not the
    blocks'."""

    CASES = {
        "cm-scan d=1": (_scan(1, 60), monotone, "_h_terms", 7),
        "cm-scan d=3": (_scan(3, 40), monotone, "_h_terms", 7),
        "cm-scan d=5": (_scan(5, 30), monotone, "_h_terms", 7),
        "cm-scan two terms": (_scan(2, 100, two_terms=True), monotone, "_h_terms", 7),
        "fuzz dmax=1": (_fuzz(1, 4000), ineq, "inequality_margins", 1),
        "fuzz dmax=5": (_fuzz(5, 3000), ineq, "inequality_margins", 1),
        "fuzz dmax=9": (_fuzz(9, 2500), ineq, "inequality_margins", 1),
        "s_eval_grid": (_points(functools.partial(spoly.s_eval_grid, 1, 2, 100, 2),
                                _SIMPLEX[:100, :2]), spoly, "_lattice_rows", 1),
        "simplex cdf": (_points(functools.partial(estimate.bernstein_cdf_simplex, _SAMPLES, 100),
                                _SIMPLEX[:, :2]), estimate, "_lattice_rows", 1),
        "hypercube density": (_points(functools.partial(estimate.bernstein_density_hypercube,
                                                        _CUBE, 200),
                                      _RNG.uniform(size=(2500, 2))), estimate, "_lattice_rows", 2),
        # simplex samples are strided rows, a view of _simplex_rows' array
        "sample csv": (_csv(sx.sample_dirichlet((1.0, 2.0, 1.5), 100_000, seed=6)), sx,
                       "_block_text", 1),
    }

    @staticmethod
    def peak(fn):
        """fn()'s tracemalloc peak, less the bytes of what it returns."""
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1] - getattr(out, "nbytes", 0)
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("case", CASES)
    def test_blocks_stay_within_budget(self, case, monkeypatch, tmp_path):
        run, module, per_block, calls = self.CASES[case]
        out = str(tmp_path / "rows.csv")
        run(None, out)  # fill the process-wide caches first
        one = self.peak(lambda: run(1, out))
        counted = []
        fn = getattr(module, per_block)
        monkeypatch.setattr(module, per_block, lambda *args: counted.append(1) or fn(*args))
        many = self.peak(lambda: run(None, out))
        assert len(counted) >= 3 * calls, case  # several blocks
        assert many - one <= sx.BLOCK_BYTES, (case, many - one)
