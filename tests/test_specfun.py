import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernsimplex import specfun as sf
import oracles

mp.mp.dps = 40


class TestLogGamma:
    def test_known_values(self):
        assert sf.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert sf.log_gamma(0.5) == pytest.approx(0.57236494292470009, rel=1e-13)
        assert sf.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    @pytest.mark.parametrize("exponent", range(-6, 13, 2))
    def test_against_mpmath(self, exponent):
        z = 10.0**exponent * 1.37
        ref = float(mp.loggamma(z))
        assert sf.log_gamma(z) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sf.log_gamma(bad)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200)
    def test_shift_consistency(self, z):
        # ln Gamma(z+1) - ln Gamma(z) = ln z
        assert sf.log_gamma(z + 1.0) - sf.log_gamma(z) == pytest.approx(
            math.log(z), rel=1e-12, abs=1e-12
        )


class TestPolygamma:
    def test_known_values(self):
        assert sf.polygamma(0, 1.0) == pytest.approx(-0.57721566490153286, rel=1e-13)
        assert sf.polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
        assert sf.polygamma(0, 2.0) - sf.polygamma(0, 1.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("order", range(0, 9))
    def test_against_mpmath(self, order):
        # 12 + 2*order is where the upward shift stops and the series starts
        edge = 12.0 + 2.0 * order
        for z in (0.03, 0.7, 1.0, 3.3, 12.0, edge - 1e-9, edge + 1e-9, 145.0, 2.7e4):
            ref = float(mp.polygamma(order, z)) if order else float(mp.digamma(z))
            assert sf.polygamma(order, z) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("order", range(0, 9))
    @given(z=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=60)
    def test_recurrence(self, order, z):
        # psi^{(n)}(z+1) - psi^{(n)}(z) = (-1)^n n! / z^{n+1}
        lhs = sf.polygamma(order, z + 1.0) - sf.polygamma(order, z)
        rhs = (-1.0) ** order * math.factorial(order) / z ** (order + 1)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11 * abs(sf.polygamma(order, z)))

    @pytest.mark.parametrize("order", range(1, 9))
    def test_sign_alternation(self, order):
        for z in (0.2, 1.0, 7.0, 300.0):
            assert math.copysign(1.0, sf.polygamma(order, z)) == (-1.0) ** (order + 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sf.polygamma(0, 0.0)
        with pytest.raises(ValueError):
            sf.polygamma(9, 1.0)
        with pytest.raises(ValueError):
            sf.polygamma(-1, 1.0)

    @pytest.mark.parametrize("order", [True, False, np.int64(2), 2.0, "1", None, -1, 9])
    def test_order_validation(self, order):
        # a Python int in [0, 8], and not a bool (True once gave the trigamma)
        with pytest.raises(ValueError, match="order must be an integer"):
            sf.polygamma(order, 2.0)


class TestDuplicationResidual:
    @pytest.mark.parametrize("y", [1.0, 0.5, 17.25])
    def test_examples(self, y):
        assert abs(sf.duplication_residual(y)) <= 1e-12

    def test_log_spaced_grid(self):
        worst = max(
            abs(sf.duplication_residual(10.0 ** (-3.0 + 9.0 * i / 999.0)))
            for i in range(1000)
        )
        assert worst <= 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sf.duplication_residual(-2.0)
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                sf.duplication_residual(np.array([[1.0, 20.0], [bad, 3.0]]))


def _series_sweep():
    """Seeded log-uniform z on [1e-6, 1e8], plus every integer and half-integer
    up to 30 (as int and float) with its two float neighbours: where the shift
    counts and the 12 + 2n series thresholds change."""
    rng = np.random.Generator(np.random.PCG64(20180917))
    zs = [float(z) for z in np.exp(rng.uniform(math.log(1e-6), math.log(1e8), 4000))]
    for v in np.arange(0.5, 30.25, 0.5):
        zs += [float(np.nextafter(v, 0.0)), float(v), float(np.nextafter(v, np.inf))]
    return zs + list(range(1, 31))


class TestAgainstTermByTermSeries:
    """The table-driven series must reproduce the term-by-term oracle bit for bit."""

    zs = _series_sweep()

    def test_stirling_tail(self):
        got = sf._stirling_tail(np.array(self.zs, dtype=float))
        assert got.tolist() == [oracles._stirling_tail(z) for z in self.zs]


def _threshold_edges():
    """Every series threshold 12 + 2n and its two float neighbours."""
    edges = [12.0 + 2.0 * n for n in range(sf.MAX_POLY_ORDER + 1)]
    return [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]


def _array_sweep():
    """The seeded log-uniform z of _series_sweep, plus _threshold_edges."""
    rng = np.random.Generator(np.random.PCG64(20180917))
    return np.array(list(np.exp(rng.uniform(math.log(1e-6), math.log(1e8), 4000)))
                    + _threshold_edges())


class TestArrayRoute:
    """An ndarray z against the term-by-term scalar oracles: log_gamma and
    polygamma have one route each, on arrays."""

    # the union of both sweeps, in first-seen order
    zs = np.array(list(dict.fromkeys(_array_sweep().tolist() + _series_sweep())))

    @pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
    @pytest.mark.parametrize("order", [None] + list(range(sf.MAX_POLY_ORDER + 1)))
    def test_against_scalar_route(self, order, two_d):
        z = np.stack([self.zs, self.zs[::-1]]) if two_d else self.zs
        if order is None:
            got, scalar = sf.log_gamma(z), oracles.log_gamma
        else:
            got, scalar = sf.polygamma(order, z), lambda v: oracles.polygamma(order, v)
        want = np.array([scalar(float(v)) for v in z.reshape(-1)]).reshape(z.shape)
        assert got.shape == z.shape
        floor = 1.0 if order in (None, 0) else 0.0
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(floor, np.abs(want)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        z = np.array([[1.0, 2.0], [bad, 3.0]])
        with pytest.raises(ValueError):
            sf.log_gamma(z)
        for order in (0, 3):
            with pytest.raises(ValueError):
                sf.polygamma(order, z)

    @pytest.mark.parametrize("order", [None] + list(range(sf.MAX_POLY_ORDER + 1)))
    def test_float_and_array_entry_give_the_same_bits(self, order):
        # a float call costs about 0.2 ms, so every 40th z of the sweep
        zs = np.concatenate([self.zs[::40], _threshold_edges()])
        f = sf.log_gamma if order is None else lambda z: sf.polygamma(order, z)
        got = [f(float(z)) for z in zs]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == f(zs).tobytes()

    @pytest.mark.parametrize("order", [None] + list(range(sf.MAX_POLY_ORDER + 1)))
    def test_memory_layout_gives_the_same_bits(self, order):
        # many entries lie below the shift threshold, so every layout needs
        # the recurrence shifts written back to the right entries
        base = np.exp(np.linspace(math.log(0.05), math.log(60.0), 48)).reshape(6, 8)
        f = sf.log_gamma if order is None else lambda z: sf.polygamma(order, z)
        for z in (base.T, np.asfortranarray(base), base[::2, ::3], base.T[::-1, 1::2]):
            got, want = f(z), f(np.ascontiguousarray(z))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_overflow_as_scalar(self):
        # float ** int raises where numpy would return inf with a warning; at
        # tiny z the first recurrence term n!/z^{n+1} is past the float range
        huge = [(order, 1e200) for order in range(1, sf.MAX_POLY_ORDER + 1)]
        tiny = [(8, 1e-40), (8, 1e-35), (0, 1e-320), (1, 1e-160), (3, 1e-80)]
        for order, z in huge + tiny:
            with pytest.raises(OverflowError):
                sf.polygamma(order, z)
            with pytest.raises(OverflowError):
                sf.polygamma(order, np.array([2.0, z]))
        assert sf.log_gamma(np.array([1e200]))[0] == sf.log_gamma(1e200)
        assert math.isfinite(sf.log_gamma(1e200))

    def test_series_leaves_arguments_unchanged(self):
        w = np.array([0.5, 0.25])
        inv2 = w * w
        acc = np.array([1.0, 2.0])
        sf._series(sf._DIGAMMA_COEFS, inv2, inv2, acc)
        sf._series(sf._LOG_GAMMA_COEFS, w, inv2, acc)
        assert w.tolist() == [0.5, 0.25]
        assert inv2.tolist() == [0.25, 0.0625]
        assert acc.tolist() == [1.0, 2.0]


def _duplication_scale(y: float) -> float:
    """The size of the terms that duplication_residual(y) adds up.

    Below the Stirling threshold: y ln 4 plus, per log-gamma term, the
    larger of |ln Gamma(z)| and ln Gamma(13) (a z below 12 is shifted into
    [12, 13), so its rounding is on that scale, see oracles.log_coeff_scale).
    At and above it the fused form adds y log1p(1/(2y)) ~ 1/2, 1/2 and
    Stirling tails below 1/100: scale 1.
    """
    if y >= sf._STIRLING_THRESHOLD:
        return 1.0
    return y * math.log(4.0) + sum(max(abs(math.lgamma(z)), math.lgamma(13.0))
                                   for z in (2.0 * y, y, y + 0.5))


class TestDuplicationResidualArray:
    """The array route against the scalar oracle: array log_gamma and np.log1p
    may differ from the oracle in their last bits, so each entry must
    lie within 4 eps times _duplication_scale of the oracle (the worst over
    these sweeps was 0.53 eps times it)."""

    # the identity-check sweep, then log_gamma's array sweep (threshold edges included)
    sweep = [10.0 ** (-3.0 + 9.0 * i / 999.0) for i in range(1000)]
    zs = np.array(sweep + TestArrayRoute.zs.tolist())

    @pytest.mark.parametrize("two_d", [False, True], ids=["1d", "2d"])
    def test_against_oracle(self, two_d):
        z = np.stack([self.zs, self.zs[::-1]]) if two_d else self.zs
        got = sf.duplication_residual(z)
        assert got.shape == z.shape
        flat = z.reshape(-1).tolist()
        want = np.array([oracles.duplication_residual(v) for v in flat]).reshape(z.shape)
        tol = 4 * np.finfo(float).eps * np.array([_duplication_scale(v) for v in flat])
        assert np.all(np.abs(got - want) <= tol.reshape(z.shape))

    def test_float_and_array_entry_give_the_same_bits(self):
        zs = self.zs[::7]
        got = [sf.duplication_residual(float(z)) for z in zs]
        assert all(type(v) is float for v in got)
        assert np.array(got).tobytes() == sf.duplication_residual(zs).tobytes()

    def test_sweep_maximum_is_the_oracle_maximum(self):
        got = np.abs(sf.duplication_residual(np.array(self.sweep))).max()
        assert got == max(abs(oracles.duplication_residual(y)) for y in self.sweep)


class TestConcatenation:
    """The array routes work entry by entry: a call on a concatenation gives
    the calls on its pieces, bit for bit.  monotone's block route relies on
    this when it stacks a block of instances into one call.  Pieces of 1..33 entries put every
    entry in a vector body or a tail of numpy's SIMD loops."""

    LENGTHS = range(1, 34)

    @staticmethod
    def pieces(seed):
        # log-uniform on [1e-3, 1e3], across the shift thresholds 12..28
        rng = np.random.Generator(np.random.PCG64(seed))
        return [10.0 ** rng.uniform(-3.0, 3.0, k) for k in TestConcatenation.LENGTHS]

    @staticmethod
    def assert_split_equal(fn, pieces):
        whole = fn(np.concatenate(pieces))
        parts = np.concatenate([fn(p) for p in pieces])
        assert whole.view(np.int64).tolist() == parts.view(np.int64).tolist()

    @pytest.mark.parametrize("order", range(sf.MAX_POLY_ORDER + 1))
    def test_polygamma(self, order):
        self.assert_split_equal(lambda z: sf.polygamma(order, z), self.pieces(order))

    def test_log_gamma(self):
        self.assert_split_equal(sf.log_gamma, self.pieces(99))
