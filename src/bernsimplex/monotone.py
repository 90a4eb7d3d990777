"""Complete-monotonicity checks for the normalized multinomial probability

    g(a) = Gamma(aM + 1) / prod_i Gamma(a gamma_i + 1) * prod_i x_i^{a gamma_i}

over the d+1 barycentric coordinates of an interior simplex point.  The
module evaluates g, the derivatives of h = -log g through polygamma
functions, the auxiliary positivity function J_u, and the Kullback-Leibler
limit of h', and runs two-route monotonicity scans over a-grids.  g, ln g and
the derivatives of h take a float a or an ndarray of them; a scan evaluates
its whole grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import ScanReport
from .simplex import SimplexPoint, WeightVector
from .specfun import log_gamma, polygamma

__all__ = [
    "MonotoneInstance",
    "g_eval",
    "log_g_eval",
    "h_derivative",
    "j_eval",
    "kl_limit",
    "cm_scan",
    "DIFF_STEP",
    "DIFF_REL_TOL",
    "DERIV_FLOOR_REL",
]

# forward-difference certificate: step and tolerance relative to g(a)
DIFF_STEP = 0.05
DIFF_REL_TOL = 1e-7
# derivative certificate: positivity floor relative to the largest term
DERIV_FLOOR_REL = 1e-14

MAX_H_ORDER = 7
MAX_DIFF_ORDER = 6
GRID_CAP = 10**6


@dataclass(frozen=True)
class MonotoneInstance:
    """Weights (gamma, M) paired with a strictly interior simplex point."""

    weights: WeightVector
    point: SimplexPoint

    def __post_init__(self):
        if self.weights.d != self.point.d:
            raise ValueError("weights and point dimensions differ")
        if not self.point.interior:
            raise ValueError("point must be strictly interior")

    def active_terms(self):
        """(gamma_i, x_i) pairs with gamma_i > 0; zero-weight coordinates are
        deleted before evaluation (their Gamma(1) factors contribute nothing)."""
        return [
            (g, x)
            for g, x in zip(self.weights.gamma, self.point.full)
            if g > 0.0
        ]


def _check_a(a) -> None:
    if not np.all((np.asarray(a) > 0.0) & np.isfinite(a)):
        raise ValueError(f"a must be positive, got {a!r}")


def log_g_eval(inst: MonotoneInstance, a, corrupt: bool = False):
    """ln g(a).  corrupt=True flips the sign of the x-exponent term; it
    produces a non-CM function and exists only so scan harnesses can prove
    they reject bad input."""
    _check_a(a)
    M = inst.weights.M
    out = log_gamma(a * M + 1.0)
    for g, x in inst.active_terms():
        out -= log_gamma(a * g + 1.0)
        out += (-1.0 if corrupt else 1.0) * a * g * math.log(x)
    return out


# math.exp entry by entry: libm's bits, and its OverflowError where a
# corrupted g outgrows a float
_exp = np.vectorize(math.exp, otypes=[float])


def g_eval(inst: MonotoneInstance, a, corrupt: bool = False):
    return _exp(log_g_eval(inst, a, corrupt=corrupt))[()]


def _h_terms(inst: MonotoneInstance, a, n: int, corrupt: bool) -> list:
    """The signed terms whose left-to-right sum is h^{(n)}(a): -M^n psi^{(n-1)}(aM+1),
    then per active coordinate g^n psi^{(n-1)}(ag+1) and, for n = 1, -g ln x
    (+g ln x with corrupt=True).  One polygamma call on the stacked arguments
    a * [M, g_1, ...] + 1."""
    M = inst.weights.M
    active = inst.active_terms()
    psi = polygamma(n - 1, np.multiply.outer([M] + [g for g, _ in active], a) + 1.0)
    out = [-(M**n) * psi[0]]
    for (g, x), p in zip(active, psi[1:]):
        out.append(g**n * p)
        if n == 1:
            out.append((g if corrupt else -g) * math.log(x))
    return out


def h_derivative(inst: MonotoneInstance, a, n: int, corrupt: bool = False):
    """n-th derivative of h = -log g at a, via polygamma (1 <= n <= 7).

    With corrupt=True the x-exponent of g is sign-flipped (see log_g_eval);
    that only changes the n = 1 derivative.
    """
    _check_a(a)
    if not isinstance(n, int) or n < 1 or n > MAX_H_ORDER:
        raise ValueError(f"order n must be an integer in [1, {MAX_H_ORDER}], got {n!r}")
    terms = _h_terms(inst, a, n, corrupt)
    return sum(terms[1:], terms[0])


def _h_derivative_scale(inst: MonotoneInstance, a, n: int):
    """Magnitude of the largest term in the alternating sum for h^{(n)}(a)."""
    return np.max(np.abs(np.broadcast_arrays(*_h_terms(inst, a, n, False))), axis=0)


def j_eval(u, y: float) -> float:
    """J_u(y) = 1/(y-1) - sum_i 1/(y^{1/u_i} - 1) for y > 1; strictly
    positive whenever the u_i are positive and sum to 1.  Exponents are
    handled in log scale so tiny u_i cannot overflow y^{1/u_i}."""
    u = [float(v) for v in u]
    if any(v <= 0.0 for v in u):
        raise ValueError("all u_i must be positive")
    if abs(sum(u) - 1.0) > 1e-12:
        raise ValueError(f"u must sum to 1, got {sum(u)}")
    if not (math.isfinite(y) and y > 1.0):
        raise ValueError(f"need y > 1, got {y!r}")
    ly = math.log(y)

    def recip_expm1(t: float) -> float:
        # 1/(e^t - 1), safe for large t
        return math.exp(-t) if t > 700.0 else 1.0 / math.expm1(t)

    out = recip_expm1(ly)
    for v in u:
        out -= recip_expm1(ly / v)
    return out


def kl_limit(inst: MonotoneInstance) -> float:
    """M * D_KL(gamma/M || x): the large-a limit of h'(a).  Nonnegative;
    zero iff gamma_i/M = x_i for all i (0*log 0 = 0 for zero weights)."""
    M = inst.weights.M
    out = 0.0
    for g, x in zip(inst.weights.gamma, inst.point.full):
        if g > 0.0:
            p = g / M
            out += g * math.log(p / x)
    return max(out, 0.0) if out > -1e-15 else out


def _forward_difference(values, n: int):
    """Delta^n at the left end of n+1 equally spaced values (or equal-shape
    arrays of them)."""
    return sum((-1) ** (n - j) * math.comb(n, j) * values[j] for j in range(n + 1))


def cm_scan(
    inst: MonotoneInstance,
    grid,
    max_order: int = 6,
    corrupt: bool = False,
) -> ScanReport:
    """Two-route complete-monotonicity scan over an a-grid.

    Route (i), the primary certificate: h' > 0 and (-1)^n h^{(n+1)} > 0 for
    1 <= n <= max_order-1, from exact polygamma evaluation, with floor
    -DERIV_FLOOR_REL * scale.  Route (ii), a cross-check: forward
    differences of g alternate, (-1)^n Delta^n g(a) >= -DIFF_REL_TOL*g(a),
    for n <= min(max_order, 6).  Margins are normalized (>= 0 means pass).

    corrupt=True scans the sign-flipped g instead (self-test hook): the
    corrupted g is eventually increasing, so both routes must reject it
    on any grid reaching moderately large a.
    """
    grid = [float(a) for a in grid]
    if len(grid) > GRID_CAP:
        raise ValueError(f"grid of {len(grid)} points exceeds cap {GRID_CAP}")
    if not grid or any(a <= 0.0 for a in grid):
        raise ValueError("grid must be nonempty with positive entries")
    if sorted(grid) != grid:
        raise ValueError("grid must be sorted ascending")
    if not 1 <= max_order <= MAX_H_ORDER:
        raise ValueError(f"max_order must be in [1, {MAX_H_ORDER}]")

    a = np.array(grid)
    diff_order = min(max_order, MAX_DIFF_ORDER)
    # derivative route: q_n = (-1)^{n-1} h^{(n)}(a) > 0 for n = 1..max_order
    deriv = []
    for n in range(1, max_order + 1):
        h_n = np.broadcast_to(h_derivative(inst, a, n, corrupt=corrupt), a.shape)
        value = (-1.0) ** (n - 1) * h_n
        margin = value + DERIV_FLOOR_REL * np.maximum(_h_derivative_scale(inst, a, n), 1.0)
        deriv.append((n, value.tolist(), margin.tolist()))
    # difference route, on the (grid, step) block a + j * DIFF_STEP
    gvals = g_eval(inst, a[:, None] + np.arange(diff_order + 1) * DIFF_STEP, corrupt=corrupt).T
    tol = (DIFF_REL_TOL * gvals[0]).tolist()
    diff = [(-n, ((-1.0) ** n * _forward_difference(gvals, n)).tolist())
            for n in range(1, diff_order + 1)]

    report = ScanReport()
    for i, ai in enumerate(grid):
        for n, value, margin in deriv:
            report.record(margin[i], (ai, n, value[i], margin[i]))
        for order, value in diff:
            report.record(value[i] + tol[i], (ai, order, value[i], value[i] + tol[i]))
    return report
