"""The S_{r,s,m} polynomial family on the simplex and its asymptotics.

    S_{r,s,m}(x) = sum_{||k|| <= m} P_{rk,rm}(x) P_{sk,sm}(x)
                 = (rm)! (sm)! sum_k prod_i x_i^{t k_i} / ((r k_i)! (s k_i)!),

t = r + s, at a point from that product form: one table of m+1 tilted
terms per coordinate, in Poisson form (simplex._poisson_weights at ranks
(r, s)), gathered over the lattice rows (simplex._lattice_rows); plus the
Gaussian local-limit density phi_{r,s}, the exact simplex integral of S via
the Dirichlet normalization constant, the central binomial lattice identity
in exact arithmetic, and the Gamma-ratio residual used in the large-m
expansion of the integral; the integral and the identity, sums over the
compositions of m, take all their degrees from composition_coefficient.
Ints and points follow simplex's rules (query points through _at_points);
s_eval takes one point (simplex._one_point), s_eval_grid (P, d) rows only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .simplex import (
    _at_points,
    _check_capacity,
    _check_ints,
    _lattice_floats,
    _lattice_rows,
    _one_point,
    _poisson_weights,
    _simplex_rows,
    lattice_array,
    log_factorial_table,
)
from .specfun import log_gamma, _stirling_tail

__all__ = [
    "s_eval",
    "s_eval_grid",
    "phi_eval",
    "det_covariance",
    "central_binomial_identity",
    "composition_coefficient",
    "s_integral_exact",
    "s_integral_closed_form",
    "asymptotic_constant",
    "gamma_ratio_residual",
    "simplex_midpoint_grid",
]

_SINGULAR_TOL = 1e-14


def s_eval_grid(r: int, s: int, m: int, d: int, xs: np.ndarray) -> np.ndarray:
    """S_{r,s,m} at each row of xs, the first d barycentric coordinates of P
    points.  A shape other than (P, d), a length-d point included, or then a
    row off the closed simplex (simplex._simplex_rows), raises ValueError."""
    _check_ints(r=r, s=s, m=m, d=d)
    _, evaluate = _at_points(_simplex_rows, xs, d, point=False)
    lat = lattice_array(d, m)
    w, scale = _poisson_weights((r, s), m)
    # the row sum is scaled once: scaling the products first moves S's bits
    return evaluate(lambda full: _lattice_rows(r + s, w, lat, full).sum(axis=1) * scale,
                    _lattice_floats(lat, w))


def s_eval(r: int, s: int, m: int, d: int, x) -> float:
    """S_{r,s,m}(x) in [0, 1] at one point x, a length-d sequence or, at d = 1,
    a scalar (simplex._one_point); ValueError, naming x's own shape, if x is
    not one d-simplex point.  Its coordinates go to s_eval_grid as one row,
    unclamped: the point rule is applied there, once."""
    _check_ints(r=r, s=s, m=m, d=d)
    return float(s_eval_grid(r, s, m, d, _one_point(x, d))[0])


def _det_rows(r: int, s: int, full: np.ndarray) -> np.ndarray:
    """det_covariance at full coordinate rows, or ValueError at a (near) zero one."""
    if np.any(full <= _SINGULAR_TOL):
        raise ValueError("covariance is singular: a coordinate is (near) zero")
    return (r * s * (r + s)) ** (full.shape[1] - 1) * np.prod(full, axis=1)


def det_covariance(r: int, s: int, x):
    """det of rs(r+s)(diag(x) - x x^T), the d x d covariance at a point x of
    the d-simplex, in closed form: (rs(r+s))^d * prod_{i=1}^{d+1} x_i.  x is
    one point or (P, d) rows, as simplex._at_points takes them."""
    _check_ints(r=r, s=s)
    full, evaluate = _at_points(_simplex_rows, x)
    return evaluate(lambda sub: _det_rows(r, s, sub), full.shape[1] + 1)


def phi_eval(r: int, s: int, x):
    """Gaussian local-limit density gcd(r,s)^d / ((2*pi)^{d/2} sqrt(det Sigma)),
    at x as det_covariance takes it."""
    _check_ints(r=r, s=s)
    full, evaluate = _at_points(_simplex_rows, x)
    d = full.shape[1] - 1
    return evaluate(lambda sub: math.gcd(r, s) ** d
                    / ((2.0 * math.pi) ** (d / 2.0) * np.sqrt(_det_rows(r, s, sub))), d + 2)


def _increasing(ms, least: int) -> list:
    """ms as a non-empty, strictly increasing list of ints >= least, else ValueError naming m."""
    ms = list(ms)
    # simplex's int rule on the first and one of each type; the rest increase from the first
    for m in ms[:1] + list({type(m): m for m in ms}.values()):
        _check_ints(least, m=m)
    if not ms or any(a >= b for a, b in zip(ms, ms[1:])):
        raise ValueError(f"m must be a non-empty, strictly increasing list, got {ms}")
    return ms


def composition_coefficient(series: Sequence[np.ndarray], degrees: Sequence[int]) -> np.ndarray:
    """Coefficient of z^m in prod_i sum_j series[i][j] z^j for each m of
    degrees (non-empty, strictly increasing, >= 0), from two or more factors
    of M+1 coefficients, M = max(degrees): all but the last are convolved once
    (cut at degree M), then one dot product per degree with the last reversed,
    so d+1 factors cost O(d M^2) and two O(m) per degree.  Exact, as an object
    array, on dtype=object integers."""
    degrees = _increasing(degrees, 0)
    top = degrees[-1]
    if len(series) < 2 or any(len(c) != top + 1 for c in series):
        raise ValueError(f"need two or more factors of length {top + 1}")
    acc, last = series[0], series[-1]
    for c in series[1:-1]:
        acc = np.convolve(acc, c)[: top + 1]
    return np.array([np.dot(acc[: m + 1], last[m::-1]) for m in degrees],
                    dtype=np.result_type(acc, last))


def central_binomial_identity(d_max: int, m_max: int) -> list:
    """Exact-equality reports for the lattice central-binomial identity

        sum_{||k|| <= m} prod_{i=1}^{d+1} C(2 k_i, k_i) = C(m + (d-1)/2, m) 4^m

    one dict {"d", "lhs", "rhs", "equal"} per d = 1..d_max, each side a list
    indexed by m = 0..m_max.  With k_{d+1} = m - ||k|| the left side runs over
    all compositions of m into d+1 parts, i.e. it is the coefficient of z^m
    in (sum_j C(2j,j) z^j)^{d+1}: one table of exact integers, multiplied by
    the series once per d (composition_coefficient at every degree up to
    m_max, (m_max+1)(m_max+2)/2 products), gives every d and m.  The right
    side is 2^m (d+1)(d+3)...(d+2m-1) / m! in closed form, from running products.
    """
    _check_ints(d_max=d_max)
    _check_ints(0, m_max=m_max)
    c = np.array([math.comb(2 * j, j) for j in range(m_max + 1)], dtype=object)
    table = c
    reports = []
    for d in range(1, d_max + 1):
        table = composition_coefficient([table, c], range(m_max + 1))
        lhs = table.tolist()
        num, factorial, rhs = 1, 1, []  # the numerator and m! at m = 0
        for m in range(1, m_max + 2):
            rhs.append(Fraction(num, factorial))  # at m - 1, then both step to m
            num, factorial = num * 2 * (d + 2 * m - 1), factorial * m
        reports.append({"d": d, "lhs": lhs, "rhs": rhs,
                        "equal": [a == b for a, b in zip(lhs, rhs)]})
    return reports


def s_integral_exact(r: int, s: int, ms: Sequence[int], d: int) -> np.ndarray:
    """Integral of S_{r,s,m} over the simplex via the Dirichlet reduction, as
    a float array over ms (non-empty, strictly increasing, >= 1).

    Each lattice term integrates in closed form:
        C_{rm,rk} C_{sm,sk} * prod_i Gamma((r+s)k_i + 1) / Gamma((r+s)m + d + 1)
    so the sum is the k-free factor times the z^m coefficient of
    (sum_j c_j z^j)^{d+1}, c_j = (tj)!/((rj)!(sj)!), t = r+s.  Tilting c_j by
    q^j, q = r^r s^s / t^t, keeps the terms O(1) and, as sum k_i = m, scales
    the coefficient by exactly q^m.  One series, cut at the largest m, serves all.
    """
    _check_ints(r=r, s=s, d=d)
    ms = _increasing(ms, 1)
    t, top = r + s, ms[-1]
    cost = (d - 1) * (top + 1) ** 2 + t * top  # the convolution, then the factorial table
    _check_capacity(cost, f"integral operations for d={d}, m={top}, r+s={t}")
    lf = log_factorial_table(t * top + d)
    log_q = r * math.log(r) + s * math.log(s) - t * math.log(t)
    j = np.arange(top + 1)
    tilted = np.exp(lf[t * j] - lf[r * j] - lf[s * j] + j * log_q)
    coefs = composition_coefficient([tilted] * (d + 1), ms)
    return np.array([coef * math.exp(lf[r * m] + lf[s * m] - lf[t * m + d] - m * log_q)
                     for coef, m in zip(coefs, ms)])


def s_integral_closed_form(d: int, m: int) -> float:
    """Closed form of the r = s = 1 integral:
    2^{-d} sqrt(pi) Gamma(m+1) / (Gamma(d/2+1/2) Gamma(m+d/2+1))."""
    _check_ints(d=d, m=m)
    return asymptotic_constant(d) * math.exp(log_gamma(m + 1.0) - log_gamma(m + d / 2.0 + 1.0))


def asymptotic_constant(d: int) -> float:
    """Large-m limit of m^{d/2} * integral of S_{1,1,m}: 2^{-d} sqrt(pi) / Gamma(d/2+1/2),
    k!/(2k)! at d = 2k, 2^{-d} sqrt(pi)/k! at d = 2k+1; 0.0, with no factorial, past d = 279."""
    _check_ints(d=d)
    if 0.5 * math.log(math.pi) - d * math.log(2) - log_gamma((d + 1) / 2.0) < -1080 * math.log(2):
        return 0.0
    k, odd = divmod(d, 2)
    if odd:
        return math.sqrt(math.pi) * math.ldexp(1 / math.factorial(k), -d)
    return math.factorial(k) / math.factorial(d)  # int / int rounds once


def gamma_ratio_residual(m: int) -> float:
    """m^2 * |Gamma(m+1)/(m^{1/2} Gamma(m+1/2)) - 1 - 1/(8m)|.

    For m >= 12 the log ratio is assembled from the Stirling expansion
    directly (the leading m log m terms cancel analytically); naive
    subtraction of ~m log m sized log-gammas would lose the m^{-2} tail.
    """
    _check_ints(m=m)
    if m < 12:
        log_ratio = log_gamma(m + 1.0) - 0.5 * math.log(m) - log_gamma(m + 0.5)
    else:
        a = math.log1p(1.0 / m)
        b = math.log1p(0.5 / m)
        log_ratio = (
            (m + 0.5) * a
            - m * b
            - 0.5
            + _stirling_tail(m + 1.0)
            - _stirling_tail(m + 0.5)
        )
    ratio = math.exp(log_ratio)
    return m * m * abs(ratio - 1.0 - 1.0 / (8.0 * m))


def simplex_midpoint_grid(d: int, resolution: int) -> np.ndarray:
    """Midpoint-rule nodes (k + 1/2)/resolution as (P, d) first coordinates,
    those at least 1/(2*resolution) from the boundary: 2||k|| + d <=
    2*resolution - 1 on the integers, C(K+d, d) nodes for K = floor(resolution
    - (d+1)/2).  The cell weight is resolution^{-d} per node."""
    _check_ints(d=d)
    _check_ints(2, resolution=resolution)
    top = (2 * resolution - 1 - d) // 2
    if top < 0:
        return np.empty((0, d))
    return (lattice_array(d, top)[:, :-1] + 0.5) / resolution
