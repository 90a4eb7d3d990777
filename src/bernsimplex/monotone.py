"""Complete-monotonicity checks for the normalized multinomial probability

    g(a) = Gamma(aM + 1) / prod_i Gamma(a gamma_i + 1) * prod_i x_i^{a gamma_i}

over the d+1 barycentric coordinates of an interior simplex point.  The
module evaluates g, the derivatives of h = -log g through polygamma
functions, the auxiliary positivity function J_u, and the Kullback-Leibler
limit of h', and runs two-route monotonicity scans over a-grids.  g, ln g and
the derivatives of h take a float a or an ndarray of them, and one
MonotoneInstance or a sequence of them (the result then has a leading
instance axis): one special-function call on the stacked arguments of every
instance, then each instance's terms added left to right in coordinate
order, a zero weight adding none, so an instance gets the same bits alone as
in any block.  Both steps are the kernel pair that ineq.log_coeff runs on,
ineq's _coef_stack and simplex's _row_sum.  A scan takes an iterable of
instances, evaluates a block of them over the whole grid at once and returns
an iterator over row blocks, one per instance.  A MonotoneInstance is built
from plain sequences, gamma and the first d coordinates of x, by simplex's
weight and point rules; all of the above read it alone, including its
self-test flag that flips g's x-exponent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ineq import _coef_stack
from .report import ScanReport
from .simplex import _block_len, _check_ints, _row_sum, _simplex_rows, _weight_rows
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
# kl_limit's rounding at gamma = M x: at most 2.4 M eps (d <= 12, 40,000 draws)
_KL_ROUND = 8.0 * np.finfo(float).eps

MAX_H_ORDER = 7
MAX_DIFF_ORDER = 6
GRID_CAP = 10**6


@dataclass(frozen=True)
class MonotoneInstance:
    """Weights gamma (total M) and a strictly interior point x of the d-simplex,
    its first d coordinates (full adds x_{d+1}), checked by simplex's rules.

    corrupt=True flips the sign of g's x-exponent: a non-CM g that exists only
    so scan harnesses can prove they reject bad input.  coefs is the weight
    rule's row (M, gamma_1, ...) and log_x the signed ln x_i of full, both
    over the positive weights only: a zero weight has no term."""

    gamma: tuple
    x: tuple
    corrupt: bool = False
    M: float = field(init=False, repr=False, compare=False)
    full: tuple = field(init=False, repr=False, compare=False)
    coefs: tuple = field(init=False, repr=False, compare=False)
    log_x: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        M, *gamma = _weight_rows([self.gamma])[0].tolist()
        full = tuple(_simplex_rows([self.x], len(gamma) - 1)[0].tolist())
        if min(full) <= 0.0:
            raise ValueError("point must be strictly interior")
        sign = -1.0 if self.corrupt else 1.0
        live = [(g, sign * math.log(v)) for g, v in zip(gamma, full) if g > 0.0]
        for name, value in (("gamma", tuple(gamma)), ("x", full[:-1]), ("M", M),
                            ("full", full), ("coefs", (M, *(g for g, _ in live))),
                            ("log_x", tuple(lx for _, lx in live))):
            object.__setattr__(self, name, value)


def _check_a(a) -> None:
    if not np.all((np.asarray(a) > 0.0) & np.isfinite(a)):
        raise ValueError(f"a must be positive, got {a!r}")


def _block(inst, a):
    """The instances of inst (one MonotoneInstance is the block (inst,)), their
    (B, K) term coefficients [M, g_1, ...], zero-padded to the longest
    instance, and the shared a as a read-only (B, *a.shape) view."""
    insts = (inst,) if isinstance(inst, MonotoneInstance) else tuple(inst)
    coefs = _padded([i.coefs for i in insts], 0.0)
    return insts, coefs, np.broadcast_to(a, (len(insts),) + np.shape(a))


def _padded(rows, fill: float, a=0.0):
    """The per-instance tuples rows, filled with fill to the longest: (B, K, 1, ...)
    to broadcast against a ((B, K) for a scalar a).  _row_sum adds -0.0 as nothing."""
    width = max(map(len, rows))
    out = np.array([row + (fill,) * (width - len(row)) for row in rows])
    return out.reshape(out.shape + (1,) * np.ndim(a))


def _unblock(inst, out):
    """out without its instance axis when inst is one instance."""
    return out[0] if isinstance(inst, MonotoneInstance) else out


def log_g_eval(inst, a):
    """ln g(a): one log_gamma call on the stacked arguments a * [M, g_1, ...] + 1;
    then ln Gamma(aM+1) - ln Gamma(a g_1+1) + a g_1 ln x_1 - ..., added left to
    right.  For a sequence of instances the result has a leading instance axis."""
    _check_a(a)
    insts, coefs, rows = _block(inst, a)
    lg = _coef_stack(log_gamma, coefs, rows)
    lg[:, 1:] *= -1.0  # x - y is x + (-y), bit for bit
    lx = _padded([(0.0, *i.log_x) for i in insts], -0.0, a)
    return _unblock(inst, _row_sum(lg, np.multiply.outer(coefs, a) * lx))


# math.exp entry by entry: libm's bits, and its OverflowError where a
# corrupted g outgrows a float
_exp = np.vectorize(math.exp, otypes=[float])


def g_eval(inst, a):
    return _exp(log_g_eval(inst, a))[()]


def _h_terms(inst, a, n: int):
    """The signed terms whose left-to-right sum is h^{(n)}(a), per instance:
    (psi, kl).  psi (B, K, *a.shape) holds -M^n psi^{(n-1)}(aM+1), then
    g^n psi^{(n-1)}(ag+1) per positive weight; for n = 1, kl follows each
    such term with -g ln x (+g ln x for a corrupt instance), and is
    None for n > 1.  One polygamma call on the stacked arguments
    a * [M, g_1, ...] + 1; the powers are Python's float ** int, whose bits
    numpy's power does not always match."""
    insts, coefs, rows = _block(inst, a)
    psi = _coef_stack(lambda z: polygamma(n - 1, z), coefs, rows)
    psi *= _padded([(-(i.M**n), *(g**n for g in i.coefs[1:])) for i in insts], -0.0, a)
    if n > 1:
        return psi, None
    return psi, _padded([(0.0, *(-g * lx for g, lx in zip(i.coefs[1:], i.log_x))) for i in insts],
                        -0.0, a)


def h_derivative(inst, a, n: int, scale: bool = False):
    """n-th derivative of h = -log g at a, via polygamma (1 <= n <= 7).
    A corrupt instance changes only the n = 1 derivative.  For a sequence of
    instances the result has a leading instance axis.  scale=True returns
    (value, largest term magnitude) from one term stack, value's bits unchanged."""
    _check_a(a)
    _check_ints(hi=MAX_H_ORDER, **{"order n": n})
    psi, kl = _h_terms(inst, a, n)
    value = _unblock(inst, _row_sum(psi, kl))
    if not scale:
        return value
    big = np.max(np.abs(psi), axis=1)
    return value, _unblock(inst, big if kl is None else np.maximum(big, np.max(np.abs(kl), axis=1)))


def j_eval(gamma, y: float) -> float:
    """J_u(y) = 1/(y-1) - sum_i 1/(y^{1/u_i} - 1) for y > 1 and u = gamma/M, by
    simplex's weight rule: > 0 for two or more positive weights, 0 for one (a
    zero weight adds nothing).  Exponents in log scale: no y^{1/u_i} overflows."""
    M, *gamma = _weight_rows([gamma])[0].tolist()
    if not (math.isfinite(y) and y > 1.0):
        raise ValueError(f"need y > 1, got {y!r}")
    ly = math.log(y)

    def recip_expm1(t: float) -> float:
        # 1/(e^t - 1), safe for large t
        return math.exp(-t) if t > 700.0 else 1.0 / math.expm1(t)

    out = recip_expm1(ly)
    for g in gamma:
        if g > 0.0:
            out -= recip_expm1(ly / (g / M))
    return out


def kl_limit(inst: MonotoneInstance) -> float:
    """The large-a limit of h'(a): M * D_KL(gamma/M || x), nonnegative and zero
    iff gamma_i/M = x_i for all i (0*log 0 = 0 for zero weights); a rounding
    below 0 of at most _KL_ROUND * M is clamped.  For a corrupt instance it is
    sum_i gamma_i ln(x_i gamma_i/M), which is negative and never clamped."""
    M = inst.M
    out = 0.0
    for g, x in zip(inst.gamma, inst.full):
        if g > 0.0:  # 0 ln 0 = 0
            p = g / M
            out += g * math.log(p * x if inst.corrupt else p / x)
    return out if inst.corrupt or out < -_KL_ROUND * M else max(out, 0.0)


def _forward_difference(values, n: int):
    """Delta^n at the left end of n+1 equally spaced values (or equal-shape
    arrays of them)."""
    return sum((-1) ** (n - j) * math.comb(n, j) * values[j] for j in range(n + 1))


def cm_scan(instances, grid, report: ScanReport, max_order: int = 6):
    """Two-route complete-monotonicity scan of each instance over an a-grid.

    Route (i), the primary certificate: h' > 0 and (-1)^n h^{(n+1)} > 0 for
    1 <= n <= max_order-1, from exact polygamma evaluation, with floor
    -DERIV_FLOOR_REL * scale.  Route (ii), a cross-check: forward
    differences of g alternate, (-1)^n Delta^n g(a) >= -DIFF_REL_TOL*g(a),
    for n <= min(max_order, 6).  Margins are normalized (>= 0 means pass).

    Returns an iterator over one (P * O, 5) object block of rows
    (i, a, order, value, margin) per instance, i its position in instances,
    P the grid's length and O the orders: 1..max_order, then -1, -2, ... of
    the difference route, per grid point.  It pulls the instances in blocks
    of at most simplex.BLOCK_BYTES of temporaries as the rows are read,
    evaluates each route once per order per block, and records a block's
    margins in report, in row order, before its first rows.

    A corrupt instance's g is eventually increasing, so both routes must
    reject it on any grid reaching moderately large a.
    """
    grid = [float(a) for a in grid]
    if len(grid) > GRID_CAP:
        raise ValueError(f"grid of {len(grid)} points exceeds cap {GRID_CAP}")
    if not grid or not all(0.0 < a < math.inf for a in grid) or sorted(grid) != grid:
        raise ValueError("grid must be nonempty and ascending, with finite positive entries")
    _check_ints(hi=MAX_H_ORDER, max_order=max_order)
    diff_order = min(max_order, MAX_DIFF_ORDER)
    # float64s of a term per g_eval argument, and of an instance per row
    per_term = 10 * len(grid) * (diff_order + 1)
    per_instance = 2 * len(grid) * (max_order + diff_order)
    return itertools.chain.from_iterable(
        _scan_block(block, start, grid, report, max_order, diff_order)
        for start, block in _blocks(instances, per_term, per_instance))


def _blocks(instances, per_term: int, per_instance: int):
    """(index of the first, block) for consecutive runs of instances holding
    at most simplex.BLOCK_BYTES together, or one instance: per_term float64s
    per term and per_instance more per instance."""
    floats = _block_len(1)
    block, size, start = [], 0, 0
    for inst in instances:
        cost = per_term * len(inst.coefs) + per_instance
        if block and size + cost > floats:
            yield start, block
            start, block, size = start + len(block), [], 0
        block.append(inst)
        size += cost
    if block:
        yield start, block


def _scan_block(block, start: int, grid, report: ScanReport, max_order: int, diff_order: int):
    """The row blocks of the instances start, start + 1, ... in block: one
    generator per block, whose arrays are freed before the next block is
    evaluated."""
    a = np.array(grid)
    # derivative route: q_n = (-1)^{n-1} h^{(n)}(a) > 0 for n = 1..max_order
    values, margins = [], []
    for n in range(1, max_order + 1):
        value, scale = h_derivative(block, a, n, scale=True)
        values.append((-1.0) ** (n - 1) * value)
        margins.append(values[-1] + DERIV_FLOOR_REL * np.maximum(scale, 1.0))
    # difference route, on the (instance, grid, step) block a + j * DIFF_STEP
    gvals = np.moveaxis(g_eval(block, a[:, None] + np.arange(diff_order + 1) * DIFF_STEP), -1, 0)
    diffs = [(-1.0) ** n * _forward_difference(gvals, n) for n in range(1, diff_order + 1)]
    margins += [v + DIFF_REL_TOL * gvals[0] for v in diffs]
    orders = [*range(1, max_order + 1), *range(-1, -diff_order - 1, -1)]
    # (instance, point, order) blocks, in row order
    values = np.array(values + diffs).transpose(1, 2, 0)
    margins = np.array(margins).transpose(1, 2, 0)
    report.record(margins)
    for i, value, margin in zip(itertools.count(start), values, margins):
        yield np.stack(np.broadcast_arrays(i, a[:, None], np.array(orders), value, margin),
                       axis=-1, dtype=object).reshape(-1, 5)
