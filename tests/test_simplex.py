import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsimplex import simplex as sx
from bernsimplex.specfun import log_gamma
import oracles
from oracles import MultiIndex, enumerate_lattice, multinomial_log_pmf


def brute_lattice(d, m):
    return [
        k for k in itertools.product(range(m + 1), repeat=d) if sum(k) <= m
    ]


class TestTypes:
    def test_simplex_point_derived_coordinate(self):
        p = sx.SimplexPoint((0.2, 0.3))
        assert p.last == pytest.approx(0.5)
        assert p.full == (0.2, 0.3, 0.5)
        assert p.interior

    def test_simplex_point_boundary_and_errors(self):
        assert not sx.SimplexPoint((1.0,)).interior
        with pytest.raises(ValueError):
            sx.SimplexPoint((0.6, 0.6))
        with pytest.raises(ValueError):
            sx.SimplexPoint((-0.1,))

    def test_multi_index(self):
        k = MultiIndex((1, 2), 5)
        assert k.last == 2
        assert k.full == (1, 2, 2)
        with pytest.raises(ValueError):
            MultiIndex((3, 3), 5)

    def test_weight_vector(self):
        w = sx.WeightVector((1.0, 2.0, 0.0))
        assert w.M == pytest.approx(3.0)
        assert w.d == 2
        with pytest.raises(ValueError):
            sx.WeightVector((0.0, 0.0))


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
    def test_prefixes_match_scalar_log_gamma_bit_for_bit(self):
        # grown out of order: each call returns a prefix of one shared table
        for n in (5, 3000, 10):
            lf = sx.log_factorial_table(n)
            want = np.array([log_gamma(j + 1.0) for j in range(n + 1)])
            assert np.array_equal(lf.view(np.int64), want.view(np.int64))

    def test_read_only_and_n_nonnegative(self):
        lf = sx.log_factorial_table(4)
        with pytest.raises(ValueError):
            lf[0] = 1.0
        with pytest.raises(ValueError):
            sx.log_factorial_table(-1)

    def test_capacity_checked_before_growth(self, monkeypatch):
        sx.log_factorial_table(20)
        size = sx._log_factorials.size
        monkeypatch.setattr(sx, "LATTICE_CAP", size)
        with pytest.raises(sx.CapacityError):
            sx.log_factorial_table(size)
        assert sx._log_factorials.size == size
        # a prefix already in the table needs no growth
        assert sx.log_factorial_table(size - 1).size == size


class TestMultinomialLogPmf:
    def test_hand_values(self):
        lp = multinomial_log_pmf(MultiIndex((1,), 2), sx.SimplexPoint((0.5,)))
        assert lp == pytest.approx(math.log(0.5), rel=1e-12)
        lp = multinomial_log_pmf(MultiIndex((0, 0), 0), sx.SimplexPoint((0.3, 0.3)))
        assert lp == pytest.approx(0.0, abs=1e-14)
        lp = multinomial_log_pmf(
            MultiIndex((1, 1), 3), sx.SimplexPoint((1.0 / 3.0, 1.0 / 3.0))
        )
        assert lp == pytest.approx(math.log(2.0 / 9.0), rel=1e-12)

    def test_boundary_conventions(self):
        # k_i = 0 at x_i = 0 contributes nothing; k_i > 0 there kills the pmf
        assert multinomial_log_pmf(
            MultiIndex((2,), 2), sx.SimplexPoint((0.0,))
        ) == -math.inf
        assert multinomial_log_pmf(
            MultiIndex((0,), 2), sx.SimplexPoint((0.0,))
        ) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multinomial_log_pmf(MultiIndex((1, 0), 2), sx.SimplexPoint((0.5,)))

    def test_permutation_symmetry(self):
        x = (0.2, 0.3, 0.1)  # full coords (0.2, 0.3, 0.1, 0.4)
        k = (2, 1, 0)  # full (2, 1, 0, 2), m = 5
        base = multinomial_log_pmf(MultiIndex(k, 5), sx.SimplexPoint(x))
        kf, xf = (2, 1, 0, 2), (0.2, 0.3, 0.1, 0.4)
        for perm in itertools.permutations(range(4)):
            kp = [kf[i] for i in perm]
            xp = [xf[i] for i in perm]
            lp = multinomial_log_pmf(
                MultiIndex(kp[:-1], 5), sx.SimplexPoint(xp[:-1])
            )
            assert lp == pytest.approx(base, rel=1e-12)

    def test_lattice_kernel_matches_scalar(self):
        d, m = 2, 6
        points = [sx.SimplexPoint(x) for x in [(0.2, 0.5), (0.0, 0.4), (1.0, 0.0), (0.0, 0.0)]]
        lat = sx.lattice_array(d, m)
        logp = sx.lattice_log_pmf(lat, np.array([p.full for p in points]),
                                  sx.log_factorial_table(m))
        want = [[multinomial_log_pmf(MultiIndex(k[:-1], m), p) for k in lat]
                for p in points]
        assert np.array_equal(logp, want)


def pmf_total(d, m, x):
    """sum_{||k||<=m} P_{k,m}(x) over the full lattice."""
    logp = sx.lattice_log_pmf(sx.lattice_array(d, m), np.array([x.full]),
                              sx.log_factorial_table(m))
    return float(np.exp(logp).sum())


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
        assert pmf_total(d, m, sx.SimplexPoint(x)) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(
        x1=st.floats(min_value=0.05, max_value=0.6),
        x2=st.floats(min_value=0.05, max_value=0.35),
        m=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=50)
    def test_sums_to_one_random(self, x1, x2, m):
        total = pmf_total(2, m, sx.SimplexPoint((x1, x2)))
        assert total == pytest.approx(1.0, abs=1e-12)


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

    def test_csv_round_trip(self, tmp_path):
        s = sx.sample_dirichlet((1.0, 1.0, 1.0), 50, seed=3)
        path = tmp_path / "samples.csv"
        s.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2"
        back = sx.SampleSet.from_csv(path)
        assert np.array_equal(back.points, s.points)
