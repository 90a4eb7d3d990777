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

    def test_log_gamma(self):
        assert [sf.log_gamma(z) for z in self.zs] == [oracles.log_gamma(z) for z in self.zs]

    def test_duplication_residual(self):
        got = [sf.duplication_residual(z) for z in self.zs]
        assert got == [oracles.duplication_residual(z) for z in self.zs]

    @pytest.mark.parametrize("order", range(0, sf.MAX_POLY_ORDER + 1))
    def test_polygamma(self, order):
        got = [sf.polygamma(order, z) for z in self.zs]
        assert got == [oracles.polygamma(order, z) for z in self.zs]
