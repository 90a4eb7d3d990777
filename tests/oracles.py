"""Slow reference routes that the tests compare the package's fast paths with.

A scalar multi-index, its lexicographic lattice generator and the multinomial
pmf one (k, x) pair at a time (oracles for ``simplex.lattice_array`` and
``simplex.lattice_log_pmf``), and the empirical cdf by a direct
(queries x samples) comparison (the oracle for the estimators' binned cdf),
and the sup distance between two tables of values on one grid.

Then, log-gamma, polygamma and the duplication residual with each Bernoulli
series coefficient computed inside its term loop and a separate shift loop
for order 0: the reference that ``specfun``'s scalar log-gamma and
duplication residual must match bit for bit, and that its array routes,
polygamma's only route among them, must match to a few ulps.
``multinomial_log_pmf`` uses this ``log_gamma``.

Last, the complete-monotonicity scan one grid point at a time, on these
scalar special functions: the oracle for ``monotone.cm_scan``, which
evaluates the whole grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from bernsimplex.monotone import (DERIV_FLOOR_REL, DIFF_REL_TOL, DIFF_STEP, MAX_DIFF_ORDER,
                                  MonotoneInstance)
from bernsimplex.report import ScanReport
from bernsimplex.simplex import SampleSet, SimplexPoint, _check_capacity, lattice_size
from bernsimplex.specfun import (_BERNOULLI, _HALF_LOG_TWO_PI, _STIRLING_THRESHOLD,
                                 MAX_POLY_ORDER, _check_positive)


@dataclass(frozen=True)
class MultiIndex:
    """Integer vector k with ||k|| <= m; k_{d+1} = m - ||k|| is derived."""

    k: tuple
    m: int

    def __init__(self, k: Sequence[int], m: int):
        k = tuple(int(v) for v in k)
        if m < 0 or any(v < 0 for v in k):
            raise ValueError("multi-index entries and degree must be nonnegative")
        if sum(k) > m:
            raise ValueError(f"||k|| = {sum(k)} exceeds degree m = {m}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)

    @property
    def d(self) -> int:
        return len(self.k)

    @property
    def last(self) -> int:
        return self.m - sum(self.k)

    @property
    def full(self) -> tuple:
        return self.k + (self.last,)


def enumerate_lattice(d: int, m: int) -> Iterator[MultiIndex]:
    """Yield every k in N_0^d with ||k|| <= m once, lexicographically."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    _check_capacity(lattice_size(d, m), f"lattice rows for d={d}, m={m}")

    def rec(prefix, budget, depth):
        if depth == d:
            yield MultiIndex(prefix, m)
            return
        for v in range(budget + 1):
            yield from rec(prefix + (v,), budget - v, depth + 1)

    yield from rec((), m, 0)


def multinomial_log_pmf(k: MultiIndex, x: SimplexPoint) -> float:
    """ln P_{k,m}(x) with the 0*ln 0 = 0 convention; -inf on excluded boundary."""
    if k.d != x.d:
        raise ValueError(f"dimension mismatch: k has d={k.d}, x has d={x.d}")
    kf = k.full
    xf = x.full
    out = log_gamma(k.m + 1.0)
    for ki, xi in zip(kf, xf):
        out -= log_gamma(ki + 1.0)
        if ki > 0:
            if xi == 0.0:
                return -math.inf
            out += ki * math.log(xi)
    return out


def _empirical_cdf_many(samples: SampleSet, ys: np.ndarray) -> np.ndarray:
    """F_n at each row of ys, vectorized: (P,) from (P, d) queries."""
    dominated = np.all(samples.points[None, :, :] <= ys[:, None, :], axis=2)
    return dominated.mean(axis=1)


def empirical_cdf(samples: SampleSet, y) -> float:
    """F_n(y) = fraction of sample points componentwise <= y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (samples.d,):
        raise ValueError(f"query point must have d={samples.d} coordinates")
    return float(_empirical_cdf_many(samples, y[None, :])[0])


def sup_error_on_grid(values, reference) -> float:
    """max |values - reference| over matching grids."""
    a = np.asarray(values, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def _stirling_tail(z: float) -> float:
    # sum_k B_{2k} / (2k(2k-1) z^{2k-1})
    inv2 = 1.0 / (z * z)
    acc = 0.0
    w = 1.0 / z
    for k, b in enumerate(_BERNOULLI, start=1):
        acc += b / (2 * k * (2 * k - 1)) * w
        w *= inv2
    return acc


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0."""
    _check_positive(z)
    shift = 0.0
    while z < _STIRLING_THRESHOLD:
        shift -= math.log(z)
        z += 1.0
    return (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI + _stirling_tail(z) + shift


def _digamma_asymptotic(z: float) -> float:
    # psi(z) ~ log z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})
    inv2 = 1.0 / (z * z)
    acc = 0.0
    w = inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        acc += b / (2 * k) * w
        w *= inv2
    return math.log(z) - 0.5 / z - acc


def _polygamma_asymptotic(n: int, z: float) -> float:
    # psi^{(n)}(z) ~ (-1)^{n-1} [ (n-1)!/z^n + n!/(2 z^{n+1})
    #                             + sum_k B_{2k} (2k+n-1)!/((2k)! z^{2k+n}) ]
    fac_nm1 = math.factorial(n - 1)
    acc = fac_nm1 / z**n + fac_nm1 * n / (2.0 * z ** (n + 1))
    inv2 = 1.0 / (z * z)
    w = 1.0 / z**n * inv2
    for k, b in enumerate(_BERNOULLI, start=1):
        acc += b * (math.factorial(2 * k + n - 1) / math.factorial(2 * k)) * w
        w *= inv2
    return acc if (n - 1) % 2 == 0 else -acc


def polygamma(order: int, z: float) -> float:
    """psi^{(order)}(z) for z > 0; order 0 is the digamma function.

    Orders above 8 are rejected: the asymptotic series is only tuned
    (shift threshold, Bernoulli depth) up to that point.
    """
    if not isinstance(order, int) or order < 0 or order > MAX_POLY_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_POLY_ORDER}], got {order!r}")
    _check_positive(z)
    if order == 0:
        shift = 0.0
        while z < _STIRLING_THRESHOLD:
            shift -= 1.0 / z
            z += 1.0
        return _digamma_asymptotic(z) + shift
    # higher orders need a larger threshold: series terms carry (2k+n-1)!
    threshold = _STIRLING_THRESHOLD + 2.0 * order
    n = order
    sign = 1.0 if n % 2 == 0 else -1.0  # (-1)^n n!/z^{n+1} in the recurrence
    fac = math.factorial(n)
    shift = 0.0
    while z < threshold:
        shift -= sign * fac / z ** (n + 1)
        z += 1.0
    return _polygamma_asymptotic(n, z) + shift


def duplication_residual(y: float) -> float:
    """Signed defect of the Gamma duplication identity at y, in log scale.

    Analytically zero for every y > 0; the returned magnitude is a
    round-trip accuracy check of log_gamma.  For y >= 12 the Stirling
    expansions of the three log-gamma terms are combined analytically
    before evaluation, otherwise the O(y log y) leading terms cancel in
    floating point and swamp the 1e-12 contract at large y.
    """
    _check_positive(y, "y")
    if y < _STIRLING_THRESHOLD:
        lhs = y * math.log(4.0)
        rhs = (
            math.log(2.0)
            + 0.5 * math.log(math.pi)
            + log_gamma(2.0 * y)
            - log_gamma(y)
            - log_gamma(y + 0.5)
        )
        return lhs - rhs
    # fused form: residual = y*log1p(1/(2y)) - 1/2 - [S(2y) - S(y) - S(y+1/2)]
    ds = _stirling_tail(2.0 * y) - _stirling_tail(y) - _stirling_tail(y + 0.5)
    return y * math.log1p(0.5 / y) - 0.5 - ds


def log_g_eval(inst: MonotoneInstance, a: float, corrupt: bool = False) -> float:
    M = inst.weights.M
    out = log_gamma(a * M + 1.0)
    for g, x in inst.active_terms():
        out -= log_gamma(a * g + 1.0)
        out += (-1.0 if corrupt else 1.0) * a * g * math.log(x)
    return out


def g_eval(inst: MonotoneInstance, a: float, corrupt: bool = False) -> float:
    return math.exp(log_g_eval(inst, a, corrupt=corrupt))


def h_terms(inst: MonotoneInstance, a: float, n: int, corrupt: bool) -> list:
    """The signed terms whose left-to-right sum is h^{(n)}(a), one polygamma
    call per term."""
    M = inst.weights.M
    out = [-(M**n) * polygamma(n - 1, a * M + 1.0)]
    for g, x in inst.active_terms():
        out.append(g**n * polygamma(n - 1, a * g + 1.0))
        if n == 1:
            out.append((g if corrupt else -g) * math.log(x))
    return out


def h_derivative(inst: MonotoneInstance, a: float, n: int, corrupt: bool = False) -> float:
    terms = h_terms(inst, a, n, corrupt)
    return sum(terms[1:], terms[0])


def _h_derivative_scale(inst: MonotoneInstance, a: float, n: int) -> float:
    return max(abs(t) for t in h_terms(inst, a, n, False))


def _forward_difference(values, n: int) -> float:
    return sum((-1) ** (n - j) * math.comb(n, j) * values[j] for j in range(n + 1))


def cm_scan(inst: MonotoneInstance, grid, max_order: int = 6,
            corrupt: bool = False) -> ScanReport:
    """``monotone.cm_scan`` on a valid grid, one point and one order at a time."""
    grid = [float(a) for a in grid]
    report = ScanReport()
    diff_order = min(max_order, MAX_DIFF_ORDER)
    for a in grid:
        # derivative route: q_n = (-1)^{n-1} h^{(n)}(a) > 0 for n = 1..max_order
        for n in range(1, max_order + 1):
            value = (-1.0) ** (n - 1) * h_derivative(inst, a, n, corrupt=corrupt)
            scale = _h_derivative_scale(inst, a, n)
            margin = value + DERIV_FLOOR_REL * max(scale, 1.0)
            report.record(margin, (a, n, value, margin))
        # difference route
        gvals = [g_eval(inst, a + j * DIFF_STEP, corrupt=corrupt) for j in range(diff_order + 1)]
        for n in range(1, diff_order + 1):
            value = (-1.0) ** n * _forward_difference(gvals, n)
            tol = DIFF_REL_TOL * gvals[0]
            report.record(value + tol, (a, -n, value, value + tol))
    return report
