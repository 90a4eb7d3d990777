"""Slow reference routes that the tests compare the package's fast paths with.

First, the closed-simplex and the unit-cube point rules one coordinate at a
time, with Python floats: the bit-for-bit oracles for
``simplex._simplex_rows`` and ``simplex._cube_rows``, which check and clamp
a whole (P, d) array of points at once.  Next to them, one point and one
weight vector as scalar objects (``SimplexPoint`` and ``WeightVector``), each
a one-row call of ``simplex._simplex_rows`` or ``simplex._weight_rows``: the
scalar routes below take them.

Then, a scalar multi-index, its lexicographic lattice generator and the multinomial
pmf one (k, x) pair at a time (oracles for ``simplex.lattice_array`` and
``lattice_log_pmf``); ``lattice_log_pmf``, the log-space kernel that S and
the estimators took their multinomial weights from before ``simplex``'s
Poisson tables (the oracle for ``simplex._poisson_weights`` and
``simplex._lattice_rows`` at ranks (1,)); the lattice array built by
recursion on d, one block of rows per first entry (the differential oracle for
``simplex.lattice_array``, which builds it in d array steps); the empirical
cdf by a direct (queries x samples) comparison (the oracle for the
estimators' binned cdf); the sup distance between two tables of values on
one grid; and the covariance determinant of a dense matrix (the oracle for
``spoly.det_covariance``'s closed form).

Then, log-gamma, polygamma and the duplication residual with each Bernoulli
series coefficient computed inside its term loop and a separate shift loop
for order 0: the reference that ``specfun``'s Stirling tail must match
bit for bit on arrays, and that its routes, on arrays for log-gamma,
polygamma and the duplication residual alike, must match to a few ulps.
``multinomial_log_pmf`` uses this ``log_gamma``.

Then, a scan report that records one margin at a time and keeps every row:
the oracle for ``report.ScanReport``, which keeps only the verdict and
records a whole block of margins at once.  The two scans below return it.

Then, the complete-monotonicity scan one grid point at a time, on these
scalar special functions: the oracle for ``monotone.cm_scan``, which
evaluates the whole grid at once and yields its rows.  Next to it, the
scan of one instance on the array special functions, one polygamma call per
term list and one log_gamma call per instance (``instance_*``): the
bit-for-bit oracle for ``monotone``'s block route, which stacks the
arguments of a whole block of instances into one call per order on the
kernel pair that ``ineq.log_coeff`` shares (``ineq._coef_stack`` and
``ineq._row_sum``).

Then, ln C(a) of one WeightVector at one a, and the three inequality
margins of one trial, on the scalar log-gamma above: the oracles for
``ineq.log_coeff`` and ``ineq.inequality_margins``, which evaluate a block
of trials in one array ``log_coeff`` call.  The inequality fuzzer one trial
at a time runs on them, with numpy's per-trial ``dirichlet`` and
``uniform`` draws: the oracle for ``ineq.fuzz_inequalities``, which draws
raw variates and yields the rows of a block.

Then, at integer weights and integer a, the exact multinomial coefficient
and the exact rational g(n), with the log of a long rational: the
differential oracles for the kernel pair (``ineq._coef_stack`` and
``ineq._row_sum``) under ``ineq.log_coeff`` and ``monotone.log_g_eval``.

Then, both sides of the central-binomial identity at one (d, m): the left
side as one ``composition_coefficient`` call, the right side as a product
loop of fractions; the oracles for ``spoly.central_binomial_identity``,
which builds every m <= m_max from one power series.  Beside them,
S_{r,s,m} at a rational point as an exact fraction, peeling off one
coordinate at a time in exact integers, and S_{r,s,m} at float points as
the lattice sum of the log-pmf kernel (``s_lattice``, the kernel
``spoly.s_eval_grid`` had before its Poisson tables): the oracles for
``spoly.s_eval`` and ``spoly.s_eval_grid``; and the integral of S_{r,s,m}
over the simplex as an exact fraction, by the same Dirichlet reduction on
exact integers, with the r = s = 1 closed form as a fraction: the oracles
for ``spoly.s_integral_exact`` and ``spoly.s_integral_closed_form``.

Then, the verdicts of ``s-table``, ``lclt-compare`` and ``identity-check``
as the one-line expressions they once were in ``cli``: the oracles for the
margins those subcommands now record in a ``report.ScanReport``, on finite
values (Python's ``max`` skips a NaN that is not the first entry).

Last, the per-value CSV field format: the oracle for the row formats the
CLI passes to ``simplex._write_csv``; the writer that formats one row at a
time: the oracle for ``simplex._write_csv``, which formats a whole block of
rows with one ``%``; and the rows of a stream of row blocks, the one way the
tests read what ``monotone.cm_scan`` and ``ineq.fuzz_inequalities`` yield.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from bernsimplex import specfun
from bernsimplex.ineq import FUZZ_TOL
from bernsimplex.monotone import (DERIV_FLOOR_REL, DIFF_REL_TOL, DIFF_STEP, MAX_DIFF_ORDER,
                                  MAX_H_ORDER, MonotoneInstance)
from bernsimplex.simplex import (SampleSet, _TOL, _check_capacity, _simplex_rows, _weight_rows,
                                lattice_size, log_factorial_table)
from bernsimplex.specfun import (_BERNOULLI, _HALF_LOG_TWO_PI, _STIRLING_THRESHOLD,
                                 MAX_POLY_ORDER, _check_positive)
from bernsimplex.spoly import composition_coefficient


def _left_sum(values) -> float:
    """values[0] + values[1] + ..., added left to right."""
    out = values[0]
    for v in values[1:]:
        out += v
    return out


def simplex_full(coords: Sequence[float]) -> tuple:
    """The d+1 coordinates of the closed-simplex point whose first d are
    coords: each entry finite and at least -_TOL and their sum at most
    1 + _TOL, else ValueError; then each entry clamped to [0, 1] and
    x_{d+1} = max(1 - ||x||, 0), sums left to right."""
    coords = tuple(float(c) for c in coords)
    if not coords:
        raise ValueError("simplex point needs at least one coordinate")
    if any(not math.isfinite(c) or c < -_TOL for c in coords):
        raise ValueError(f"coordinates must be finite and nonnegative, got {coords}")
    if _left_sum(coords) > 1.0 + _TOL:
        raise ValueError(f"coordinate sum of {coords} exceeds 1")
    coords = tuple(min(max(c, 0.0), 1.0) for c in coords)
    return coords + (max(1.0 - _left_sum(coords), 0.0),)


def cube_point(coords: Sequence[float]) -> tuple:
    """The unit-cube point coords: each entry in [-_TOL, 1 + _TOL] (so
    finite), else ValueError; then each entry clamped to [0, 1]."""
    coords = tuple(float(c) for c in coords)
    if not coords:
        raise ValueError("cube point needs at least one coordinate")
    # not (c < -_TOL or c > 1 + _TOL): that would let NaN through
    if not all(-_TOL <= c <= 1.0 + _TOL for c in coords):
        raise ValueError(f"coordinates must lie in [0, 1], got {coords}")
    return tuple(min(max(c, 0.0), 1.0) for c in coords)


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the closed d-simplex; full is (x, x_{d+1}) from _simplex_rows."""

    full: tuple

    def __init__(self, coords: Sequence[float]):
        object.__setattr__(self, "full", tuple(_simplex_rows([coords])[0].tolist()))

    @property
    def coords(self) -> tuple:
        return self.full[:-1]

    @property
    def d(self) -> int:
        return len(self.full) - 1

    @property
    def last(self) -> float:
        return self.full[-1]

    @property
    def interior(self) -> bool:
        return min(self.full) > 0.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights gamma (d+1 entries) with total M, by _weight_rows."""

    gamma: tuple
    M: float

    def __init__(self, gamma: Sequence[float]):
        M, *weights = _weight_rows([gamma])[0].tolist()
        object.__setattr__(self, "gamma", tuple(weights))
        object.__setattr__(self, "M", M)

    @property
    def d(self) -> int:
        return len(self.gamma) - 1


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


def lattice_array(d: int, m: int) -> np.ndarray:
    """Every k in N_0^d with ||k|| <= m, once and in lexicographic order, as
    the rows of an (N, d+1) int64 array (last column = m - ||k||)."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    _check_capacity(lattice_size(d, m), f"lattice rows for d={d}, m={m}")
    if d == 1:
        k = np.arange(m + 1, dtype=np.int64)[:, None]
    else:
        blocks = []
        for v in range(m + 1):
            sub = lattice_array(d - 1, m - v)[:, :-1]
            first = np.full((sub.shape[0], 1), v, dtype=np.int64)
            blocks.append(np.hstack([first, sub]))
        k = np.vstack(blocks)
    last = (m - k.sum(axis=1))[:, None]
    return np.hstack([k, last])


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


def lattice_log_pmf(lat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """ln P_{k,m}(x) for each query row x of xs (P, d+1 full coordinates, as
    _simplex_rows gives them) and each lattice row k of lat (N, d+1) summing
    to m; returns (P, N).

    Uses 0 ln 0 = 0, and -inf where k_i > 0 meets x_i = 0.  Entries are
    accumulated coordinate by coordinate with math.log, so a row does not
    depend on which other points share the call.
    """
    m = int(lat[0].sum())
    lf = log_factorial_table(m)
    logp = np.full((xs.shape[0], lat.shape[0]), lf[m])
    for i in range(lat.shape[1]):
        ki = lat[:, i]
        logp -= lf[ki]
        col = xs[:, i]
        logx = np.array([math.log(v) if v > 0.0 else 0.0 for v in col])
        logp += ki * logx[:, None]
        zero = col <= 0.0
        if np.any(zero):
            logp[zero] = np.where(ki > 0, -np.inf, logp[zero])
    return logp


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


def det_covariance(r: int, s: int, x: SimplexPoint) -> float:
    """det of rs(r+s)(diag(x) - x x^T), the d x d matrix assembled and given
    to a dense determinant."""
    xd = np.array(x.full)[:-1]
    sigma = r * s * (r + s) * (np.diag(xd) - np.outer(xd, xd))
    return float(np.linalg.det(sigma))


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


def log_g_eval(inst: MonotoneInstance, a: float) -> float:
    M = inst.M
    out = log_gamma(a * M + 1.0)
    for g, x in zip(inst.gamma, inst.full):
        if g > 0.0:  # log_gamma(1.0) is 3.55e-15 here, not 0
            out -= log_gamma(a * g + 1.0)
            out += (-1.0 if inst.corrupt else 1.0) * a * g * math.log(x)
    return out


def g_eval(inst: MonotoneInstance, a: float) -> float:
    return math.exp(log_g_eval(inst, a))


def h_terms(inst: MonotoneInstance, a: float, n: int) -> list:
    """The signed terms whose left-to-right sum is h^{(n)}(a), one polygamma
    call per term."""
    M = inst.M
    out = [-(M**n) * polygamma(n - 1, a * M + 1.0)]
    for g, x in zip(inst.gamma, inst.full):
        out.append(g**n * polygamma(n - 1, a * g + 1.0))
        if n == 1:
            out.append((g if inst.corrupt else -g) * math.log(x))
    return out


def h_derivative(inst: MonotoneInstance, a: float, n: int) -> float:
    terms = h_terms(inst, a, n)
    return sum(terms[1:], terms[0])


def _h_derivative_scale(inst: MonotoneInstance, a: float, n: int) -> float:
    return max(abs(t) for t in h_terms(inst, a, n))


def _forward_difference(values, n: int) -> float:
    return sum((-1) ** (n - j) * math.comb(n, j) * values[j] for j in range(n + 1))


@dataclass
class ScanReport:
    """A scan's verdict and every row it recorded, one margin at a time.
    Each margin is normalized so that the requirement is margin >= 0;
    max_violation is the most negative margin seen (0.0 if none), or NaN
    from the first NaN margin on."""

    max_violation: float = 0.0
    passed: bool = True
    # row layout is owner-defined; monotone scans use (a, order, value, margin),
    # the inequality fuzzer uses (trial, d, M, check, margin)
    rows: List[Tuple] = field(default_factory=list)

    def record(self, margin: float, row: Tuple) -> None:
        self.rows.append(row)
        if not margin >= 0.0:  # a NaN margin fails too
            self.passed = False
            if margin < self.max_violation or math.isnan(margin):
                self.max_violation = margin

    @property
    def min_margin(self) -> float:
        """The least last entry of the rows (inf if none), or NaN if any is NaN."""
        values = [math.inf] + [row[-1] for row in self.rows]
        return math.nan if any(math.isnan(v) for v in values) else min(values)


def cm_scan(inst: MonotoneInstance, grid, max_order: int = 6) -> ScanReport:
    """``monotone.cm_scan`` on a valid grid, one point and one order at a time."""
    grid = [float(a) for a in grid]
    report = ScanReport()
    diff_order = min(max_order, MAX_DIFF_ORDER)
    for a in grid:
        # derivative route: q_n = (-1)^{n-1} h^{(n)}(a) > 0 for n = 1..max_order
        for n in range(1, max_order + 1):
            value = (-1.0) ** (n - 1) * h_derivative(inst, a, n)
            scale = _h_derivative_scale(inst, a, n)
            margin = value + DERIV_FLOOR_REL * max(scale, 1.0)
            report.record(margin, (a, n, value, margin))
        # difference route
        gvals = [g_eval(inst, a + j * DIFF_STEP) for j in range(diff_order + 1)]
        for n in range(1, diff_order + 1):
            value = (-1.0) ** n * _forward_difference(gvals, n)
            tol = DIFF_REL_TOL * gvals[0]
            report.record(value + tol, (a, -n, value, value + tol))
    return report


def _check_a(a) -> None:
    if not np.all((np.asarray(a) > 0.0) & np.isfinite(a)):
        raise ValueError(f"a must be positive, got {a!r}")


def instance_log_g_eval(inst: MonotoneInstance, a):
    _check_a(a)
    lg = specfun.log_gamma(np.multiply.outer(inst.coefs, a) + 1.0)
    out = lg[0]
    for g, lx, lg_i in zip(inst.gamma, inst.log_x, lg[1:]):
        if g > 0.0:  # log_gamma(1.0) is 3.55e-15, not 0
            out = out - lg_i + a * g * lx
    return out


_exp = np.vectorize(math.exp, otypes=[float])


def instance_g_eval(inst: MonotoneInstance, a):
    return _exp(instance_log_g_eval(inst, a))[()]


def instance_h_terms(inst: MonotoneInstance, a, n: int) -> list:
    M = inst.M
    psi = specfun.polygamma(n - 1, np.multiply.outer(inst.coefs, a) + 1.0)
    out = [-(M**n) * psi[0]]
    for g, lx, p in zip(inst.gamma, inst.log_x, psi[1:]):
        if g > 0.0:
            out.append(g**n * p)
            if n == 1:
                out.append(-g * lx)
    return out


def instance_h_derivative(inst: MonotoneInstance, a, n: int):
    _check_a(a)
    if not isinstance(n, int) or n < 1 or n > MAX_H_ORDER:
        raise ValueError(f"order n must be an integer in [1, {MAX_H_ORDER}], got {n!r}")
    terms = instance_h_terms(inst, a, n)
    return sum(terms[1:], terms[0])


def instance_h_derivative_scale(inst: MonotoneInstance, a, n: int):
    return np.max(np.abs(np.broadcast_arrays(*instance_h_terms(inst, a, n))), axis=0)


def instance_cm_scan(inst: MonotoneInstance, grid, report, max_order: int = 6):
    """``monotone.cm_scan`` on one instance and a valid grid, as one array
    evaluation of the whole grid per order: rows (a, order, value, margin)."""
    grid = [float(a) for a in grid]
    a = np.array(grid)
    diff_order = min(max_order, MAX_DIFF_ORDER)
    values = [(-1.0) ** (n - 1) * instance_h_derivative(inst, a, n)
              for n in range(1, max_order + 1)]
    margins = [v + DERIV_FLOOR_REL * np.maximum(instance_h_derivative_scale(inst, a, n), 1.0)
               for n, v in enumerate(values, 1)]
    gvals = instance_g_eval(inst, a[:, None] + np.arange(diff_order + 1) * DIFF_STEP).T
    diffs = [(-1.0) ** n * _forward_difference(gvals, n) for n in range(1, diff_order + 1)]
    margins += [v + DIFF_REL_TOL * gvals[0] for v in diffs]
    orders = [*range(1, max_order + 1), *range(-1, -diff_order - 1, -1)]
    values, margins = np.array(values + diffs).T, np.array(margins).T
    report.record(margins)
    return ((ai, n, value, margin)
            for ai, value_row, margin_row in zip(grid, values.tolist(), margins.tolist())
            for n, value, margin in zip(orders, value_row, margin_row))


def log_coeff(w: WeightVector, a: float) -> float:
    """ln C(a) = ln Gamma(aM + 1) - sum_i ln Gamma(a gamma_i + 1) for a
    WeightVector w and a float a > 0, one scalar log_gamma call per term."""
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be positive, got {a!r}")
    out = log_gamma(a * w.M + 1.0)
    for g in w.gamma:
        if g > 0.0:
            out -= log_gamma(a * g + 1.0)
    return out


def check_weighted_logconvexity(w: WeightVector, a, lam) -> float:
    """sum_j lam_j ln C(a_j) - ln C(sum_j lam_j a_j); >= 0, zero iff all a_j equal."""
    a = [float(v) for v in a]
    lam = [float(v) for v in lam]
    if len(a) != len(lam) or len(a) < 2:
        raise ValueError("need k >= 2 nodes with matching weights")
    if any(v <= 0.0 for v in a):
        raise ValueError("all a_j must be positive")
    if any(not 0.0 < v < 1.0 for v in lam) or abs(sum(lam) - 1.0) > 1e-12:
        raise ValueError("lambda must lie in (0,1) and sum to 1")
    mix = sum(l * v for l, v in zip(lam, a))
    return sum(l * log_coeff(w, v) for l, v in zip(lam, a)) - log_coeff(w, mix)


def check_superadditivity(w: WeightVector, a) -> float:
    """ln C(sum a_j) - sum_j ln C(a_j); strictly positive for non-degenerate gamma."""
    a = [float(v) for v in a]
    if len(a) < 2:
        raise ValueError("need k >= 2 values")
    if any(v <= 0.0 for v in a):
        raise ValueError("all a_j must be positive")
    return log_coeff(w, sum(a)) - sum(log_coeff(w, v) for v in a)


def check_exchange(w: WeightVector, a1: float, a2: float, a3: float) -> float:
    """[ln C(a1) + ln C(a2+a3)] - [ln C(a1+a2) + ln C(a3)] for a1 <= a3;
    >= 0, zero iff a1 = a3."""
    if a1 > a3:
        raise ValueError(f"precondition a1 <= a3 violated: {a1} > {a3}")
    return (
        log_coeff(w, a1)
        + log_coeff(w, a2 + a3)
        - log_coeff(w, a1 + a2)
        - log_coeff(w, a3)
    )


def fuzz_draws(trials: int, dmax: int, seed: int) -> Iterator[tuple]:
    """(t, d, M, w, a, lam, a1, a2, a3) of each trial of ``ineq.fuzz_inequalities``,
    in its draw order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    log_lo, log_hi = math.log(0.05), math.log(20.0)
    for t in range(trials):
        d = int(rng.integers(1, dmax + 1))
        M = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
        gamma = M * rng.dirichlet(np.ones(d + 1))
        w = WeightVector(gamma)
        k = int(rng.integers(2, 6))
        a = np.exp(rng.uniform(log_lo, log_hi, size=k))
        lam = rng.dirichlet(np.ones(k))
        a1, a3 = sorted(np.exp(rng.uniform(log_lo, log_hi, size=2)))
        a2 = float(np.exp(rng.uniform(log_lo, log_hi)))
        yield t, d, M, w, a, lam, float(a1), a2, float(a3)


def fuzz_nodes(a, lam, a1: float, a2: float, a3: float) -> dict:
    """Check tag -> [(c_j, node_j)], such that the unsigned margin of that
    check is sum_j c_j ln C(node_j), with the nodes in float as the fuzzer
    forms them."""
    mix = sum(l * v for l, v in zip(lam, a))
    return {
        "a": [*zip(lam, a), (-1.0, mix)],
        "b": [(1.0, sum(a)), *((-1.0, v) for v in a)],
        "c": [(1.0, a1), (1.0, a2 + a3), (-1.0, a1 + a2), (-1.0, a3)],
    }


def log_coeff_scale(w: WeightVector, a: float) -> float:
    """Sum over the ln Gamma terms of ln C(a) of max(|ln Gamma(z)|, ln Gamma(13)).

    The float rounding of ln C(a) is a few eps times this.  A z below the
    Stirling threshold 12 is evaluated as ln Gamma of its shift into
    [12, 13) minus the logs of the shift, so its rounding is on the scale of
    ln Gamma(13) ~ 20 however close to 0 ln Gamma(z) itself is.
    """
    def term(z):
        return max(abs(math.lgamma(z)), math.lgamma(13.0))

    return term(a * w.M + 1.0) + sum(term(a * g + 1.0) for g in w.gamma if g > 0.0)


# At integer nodes ln C and ln g are logs of exact rationals.  log_gamma's
# contract is 1e-13 relative per term; over 2,400 seeded nodes (d = 1..5,
# integer gamma_i in 0..10, a in 1..30) log_coeff and log_g_eval came within
# 3.1e-16 of log_coeff_scale (plus sum_i |a gamma_i ln x_i| for ln g).
EXACT_REL_TOL = 2e-15


def integer_weights(rng: np.random.Generator, rows: int) -> list:
    """rows lists of d + 1 integer weights in 0..10 (d = 1..5, zeros
    included), each with a positive total."""
    out = [[int(g) for g in rng.integers(0, 11, rng.integers(2, 7))] for _ in range(rows)]
    return [g if sum(g) else [1] + g[1:] for g in out]


def multinomial(gamma, n: int) -> int:
    """(nM)! / prod_i (n gamma_i)! for integer weights gamma with total M, exact."""
    out = math.factorial(n * sum(gamma))
    for g in gamma:
        out //= math.factorial(n * g)
    return out


def g_exact(gamma, x, n: int) -> Fraction:
    """g(n) = multinomial(gamma, n) prod_i x_i^{n gamma_i} at integer weights and
    each float x_i taken as the rational it is, exact."""
    out = Fraction(multinomial(gamma, n))
    for g, xi in zip(gamma, x):
        out *= Fraction(xi) ** (n * g)
    return out


def log_rational(q: Fraction) -> float:
    """ln q of a rational q > 0, within a few ulps of |ln q| however long its
    numerator and denominator are: ln(q / 2^k) + k ln 2, q / 2^k in (1/2, 2)."""
    k = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log(float(q / Fraction(2) ** k)) + k * math.log(2.0)


def fuzz_inequalities(trials: int, dmax: int, seed: int, corrupt: bool = False) -> ScanReport:
    """``ineq.fuzz_inequalities``, one trial and one scalar check at a time."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    report = ScanReport()
    sgn = -1.0 if corrupt else 1.0
    for t, d, M, w, a, lam, a1, a2, a3 in fuzz_draws(trials, dmax, seed):
        m_a = sgn * check_weighted_logconvexity(w, a, lam)
        m_b = sgn * check_superadditivity(w, a)
        m_c = sgn * check_exchange(w, a1, a2, a3)
        for tag, margin in (("a", m_a), ("b", m_b), ("c", m_c)):
            report.record(margin + FUZZ_TOL, (t, d, M, tag, margin))
    return report


def central_binomial_lhs(d: int, m: int) -> int:
    """sum over ||k|| <= m of prod_{i=1}^{d+1} C(2 k_i, k_i), exact: the z^m
    coefficient of (sum_j C(2j,j) z^j)^{d+1}, on its own series of m + 1 terms."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    c = np.array([math.comb(2 * j, j) for j in range(m + 1)], dtype=object)
    return int(composition_coefficient([c] * (d + 1), [m])[0])


def central_binomial_rhs(d: int, m: int) -> Fraction:
    """C(m + (d-1)/2, m) * 4^m as an exact rational, one factor at a time."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    out = Fraction(4) ** m
    for j in range(1, m + 1):
        out *= Fraction(d - 1 + 2 * j, 2 * j)
    return out


def s_exact(r: int, s: int, m: int, p, q: int) -> Fraction:
    """S_{r,s,m} at the rational point x_i = p_i / q of the d-simplex, exact;
    p holds its d+1 nonnegative integer numerators, summing to q.

    With t = r + s and multinomial coefficients M, q^{tm} S =
    sum_k M(rm; rk) M(sm; sk) prod_i p_i^{t k_i}.  Peeling off one coordinate
    at a time, T_i(n) = sum_j C(rn, rj) C(sn, sj) p_i^{tj} T_{i+1}(n - j),
    with T_d(n) = p_d^{tn}, gives q^{tm} S = T_0(m) in exact integers."""
    if len(p) < 2 or min(p) < 0 or sum(p) != q:
        raise ValueError(f"need two or more nonnegative numerators summing to {q}, got {p}")
    t = r + s
    level = [p[-1] ** (t * n) for n in range(m + 1)]
    for i in range(len(p) - 2, -1, -1):
        power = [p[i] ** (t * j) for j in range(m + 1)]
        low = m if i == 0 else 0  # T_0 is needed at n = m only
        level = [0] * low + [sum(math.comb(r * n, r * j) * math.comb(s * n, s * j) * power[j]
                                 * level[n - j] for j in range(n + 1))
                             for n in range(low, m + 1)]
    return Fraction(level[m], q ** (t * m))


def s_lattice(r: int, s: int, m: int, d: int, xs) -> np.ndarray:
    """S_{r,s,m} at the (P, d) rows xs as the lattice sum of
    exp(ln P_{rk,rm}(x) + ln P_{sk,sm}(x)), both from lattice_log_pmf:
    spoly.s_eval_grid's kernel before its Poisson tables, bit for bit."""
    full = _simplex_rows(xs, d)
    lat = lattice_array(d, m)
    return np.exp(lattice_log_pmf(r * lat, full) + lattice_log_pmf(s * lat, full)).sum(axis=1)


def s_integral_rational(r: int, s: int, m: int, d: int) -> Fraction:
    """The integral of S_{r,s,m} over the d-simplex, exact: the Dirichlet
    reduction of spoly.s_integral_exact, (rm)! (sm)! coef / (tm+d)!, with
    t = r + s and coef the z^m coefficient of (sum_j c_j z^j)^{d+1} on the
    integers c_j = (tj)! / ((rj)! (sj)!)."""
    t = r + s
    fact = math.factorial
    c = np.array([fact(t * j) // (fact(r * j) * fact(s * j)) for j in range(m + 1)], dtype=object)
    coef = int(composition_coefficient([c] * (d + 1), [m])[0])
    return Fraction(fact(r * m) * fact(s * m) * coef, fact(t * m + d))


def _gamma_half(n: int) -> Fraction:
    """Gamma(n/2) for an integer n >= 1, over sqrt(pi) when n is odd."""
    k = n // 2
    if n % 2 == 0:
        return Fraction(math.factorial(k - 1))
    return Fraction(math.factorial(2 * k), 4**k * math.factorial(k))


def s_integral_closed_form_rational(d: int, m: int) -> Fraction:
    """2^{-d} sqrt(pi) m! / (Gamma((d+1)/2) Gamma(m+d/2+1)), exact: of
    d + 1 and 2m + d + 2 exactly one is odd, so the sqrt(pi) cancels."""
    return Fraction(math.factorial(m)) / (2**d * _gamma_half(d + 1) * _gamma_half(2 * m + d + 2))


def s_table_passes(scaled) -> bool:
    """No scaled error above twice the first one, plus 1e-12."""
    return max(scaled) <= 2.0 * scaled[0] + 1e-12


def lclt_compare_passes(errs) -> bool:
    """The errors fall strictly: a tie fails."""
    return all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


def identity_check_passes(equal_tables, worst) -> bool:
    """Each table's sides equal at every m >= 1, and the duplication
    residual within 1e-12."""
    return all(all(equal[1:]) for equal in equal_tables) and worst <= 1e-12


def csv_field(v) -> str:
    """One CSV field: a float (np.float64 included) as %.17g, anything else by str."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv_rows(path, header: str, row_format: str, rows, summary) -> None:
    """Header, one line row_format % tuple(row) per row, and the line
    summary() returns (if summary)."""
    line = row_format + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(line % tuple(row) for row in rows)
        if summary is not None:
            fh.write(summary() + "\n")


def rows_of(blocks) -> List[tuple]:
    """The rows of an iterable of (R, C) row blocks, in order, as tuples."""
    return [tuple(row) for block in blocks for row in block.tolist()]
