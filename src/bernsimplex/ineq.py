"""Generalized multinomial coefficients and their convexity inequalities.

C(a) = Gamma(aM + 1) / prod_i Gamma(a gamma_i + 1) for weights gamma with
total M.  Log-convexity of the underlying probability function yields
three inequalities (weighted log-convexity, superadditivity, and an
exchange inequality); everything here is checked in log space so "strict
versus equality" resolves by an absolute tolerance instead of ratios of
huge coefficients.

Everything works on blocks of trials.  log_coeff takes a zero-padded (T, D)
weight matrix and a (T, K) array of a, and evaluates the whole block in one
array log_gamma call (_coef_stack) and one left fold (simplex's _row_sum): the
kernel pair behind every ln C, ln g and h^{(n)}, monotone's included.
inequality_margins validates T trials, forms all their nodes and gives
their (T, 3) margins from one log_coeff call.  The fuzzer draws a block from
raw variates (_draw_trials), takes its margins from inequality_margins,
records them in a ScanReport and yields them as one object block of rows.
"""

from __future__ import annotations

import math

import numpy as np

from .report import ScanReport
from .simplex import _block_len, _check_capacity, _check_ints, _row_sum, _weight_rows
from .specfun import log_gamma

__all__ = [
    "log_coeff",
    "inequality_margins",
    "fuzz_inequalities",
    "FUZZ_TOL",
]

FUZZ_TOL = 1e-10
_MAX_K = 5  # a fuzz trial draws k = 2.._MAX_K values a_j


def log_coeff(gamma, a):
    """The (T, K) block of ln C, entry (t, j) taken at weights gamma[t] and
    a[t, j].

    gamma is a (T, D) weight matrix, one gamma per row padded with zero
    weights, and a is a (T, K) array.  Entries of a must be finite and >= 0;
    a = 0 gives ln C(0) = 0, so a caller pads rows of unequal length with
    zeros.  Every live argument a*g + 1 (a > 0, g > 0 or g = M) goes into one
    array log_gamma call, and the terms are subtracted coordinate by
    coordinate from ln Gamma(aM + 1).
    """
    coefs = _weight_rows(gamma)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != coefs.shape[0]:
        raise ValueError(f"need a ({coefs.shape[0]}, K) array of a, got shape {a.shape}")
    if not np.all((a >= 0.0) & np.isfinite(a)):
        raise ValueError("every a must be finite and nonnegative")
    terms = _coef_stack(log_gamma, coefs, a)
    terms[:, 1:] *= -1.0  # x - y is x + (-y), bit for bit
    return _row_sum(terms)


def _coef_stack(fn, coefs, a) -> np.ndarray:
    """The (B, K, *S) array of fn(a c + 1) over a (B, K) zero-padded matrix c
    and a (B, *S) array a, both finite and >= 0.  fn gets one call, on the
    live pairs (c > 0 and a > 0) in row order; every other entry is a c = +0."""
    a = np.asarray(a)[:, None]
    coefs = coefs.reshape(coefs.shape + (1,) * (a.ndim - 2))
    arg = a * coefs
    live = (a > 0.0) & (coefs > 0.0)  # not arg > 0: a c may underflow to 0
    arg[live] = fn(arg[live] + 1.0)
    return arg


def inequality_margins(gamma, a, lam, a123) -> np.ndarray:
    """The (T, 3) margins of T trials, row t at weights gamma[t]:

        sum_j lam_j ln C(a_j) - ln C(sum_j lam_j a_j)      (weighted log-convexity)
        ln C(sum_j a_j) - sum_j ln C(a_j)                 (superadditivity)
        ln C(a1) + ln C(a2 + a3) - ln C(a1 + a2) - ln C(a3)   (exchange)

    over the live entries a_j > 0 of row t of the (T, K) array a, with their
    weights lam_j in lam, and (a1, a2, a3) in row t of the (T, 3) array a123.
    Each margin is >= 0; the first is zero iff all a_j are equal, the second
    is strictly positive for two or more nonzero weights, and the third is
    zero iff a1 = a3.

    A row needs k >= 2 live a_j, each lam_j in (0, 1) summing to 1 within
    1e-12, lam = 0 on the other entries, and finite positive a1 <= a3 and
    a2; anything else raises ValueError.  Sums over j are added left to
    right, and all nodes go through one log_coeff call.
    """
    a, lam, a123 = (np.asarray(v, dtype=float) for v in (a, lam, a123))
    if a.ndim != 2 or a.shape[1] < 2 or lam.shape != a.shape or a123.shape != (len(a), 3):
        raise ValueError(f"need (T, K) arrays a and lam with K >= 2 and a (T, 3) a123, "
                         f"got shapes {a.shape}, {lam.shape} and {a123.shape}")
    if not np.all(np.isfinite(a) & (a >= 0.0)):
        raise ValueError("every a_j must be finite and nonnegative")
    live = a > 0.0
    if np.any(live.sum(axis=1) < 2):
        raise ValueError("need k >= 2 positive a_j in every row")
    if np.any(live & ~((lam > 0.0) & (lam < 1.0))) or np.any(~live & (lam != 0.0)) or np.any(
            np.abs(_row_sum(lam) - 1.0) > 1e-12):
        raise ValueError("lambda must lie in (0,1) on the positive a_j, be 0 elsewhere "
                         "and sum to 1")
    if not np.all(np.isfinite(a123) & (a123 > 0.0)):
        raise ValueError("a1, a2 and a3 must be finite and positive")
    a1, a2, a3 = a123.T
    if np.any(a1 > a3):
        raise ValueError("precondition a1 <= a3 violated")

    k = a.shape[1]
    nodes = np.column_stack([a, _row_sum(lam * a), _row_sum(a), a1, a2 + a3, a1 + a2, a3])
    lc = log_coeff(gamma, nodes)
    lc_a, (lc_mix, lc_sum, lc_1, lc_23, lc_12, lc_3) = lc[:, :k], lc[:, k:].T
    return np.column_stack([
        _row_sum(lam * lc_a) - lc_mix,
        lc_sum - _row_sum(lc_a),
        lc_1 + lc_23 - lc_12 - lc_3,
    ])


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """exp of numpy's uniform(ln lo, ln hi), from the random() draws u behind it."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    return np.exp(log_lo + (log_hi - log_lo) * u)


def _draw_trials(rng: np.random.Generator, n: int, dmax: int):
    """The next n trials of rng: (ds, M, gamma, a, lam, a123).

    Per trial: d, M, its d + 1 weights in a row of gamma; the k a_j and lam_j
    in the first k entries of a row of a and lam; a1, a2, a3 with a1 <= a3.
    The rows of gamma, a and lam have zeros after their entries.
    The loop takes only raw variates, in the stream order of numpy's
    per-trial uniform and dirichlet(ones(.)) draws, and the maps after it
    give those draws' bits: uniform(lo, hi) is lo + (hi - lo) * random(),
    dirichlet(ones(k)) is k exponentials times 1 / (their sum, added left to
    right), and np.exp of an entry does not depend on the array around it.
    """
    ds, ks = [], []
    u_m, u_a, u_123 = np.empty(n), np.zeros((n, _MAX_K)), np.empty((n, 3))
    e_gamma, e_lam = np.zeros((n, dmax + 1)), np.zeros((n, _MAX_K))
    for i in range(n):
        d = int(rng.integers(1, dmax + 1))
        u_m[i] = rng.random()
        rng.standard_exponential(out=e_gamma[i, :d + 1])
        k = int(rng.integers(2, _MAX_K + 1))
        rng.random(out=u_a[i, :k])
        rng.standard_exponential(out=e_lam[i, :k])
        rng.random(out=u_123[i])
        ds.append(d)
        ks.append(k)
    M = _log_uniform(u_m, 0.1, 50.0)
    gamma = M[:, None] * (e_gamma * (1.0 / _row_sum(e_gamma))[:, None])
    live = np.arange(_MAX_K) < np.array(ks)[:, None]
    a = np.where(live, _log_uniform(u_a, 0.05, 20.0), 0.0)
    lam = e_lam * (1.0 / _row_sum(e_lam))[:, None]
    a13 = np.sort(_log_uniform(u_123[:, :2], 0.05, 20.0), axis=1)
    a123 = np.column_stack([a13[:, 0], _log_uniform(u_123[:, 2], 0.05, 20.0), a13[:, 1]])
    return ds, M, gamma, a, lam, a123


def fuzz_inequalities(trials: int, dmax: int, seed: int, report: ScanReport,
                      corrupt: bool = False):
    """Randomized harness over the three inequality checks.

    Per trial: d uniform on {1..dmax}, gamma = M * Dirichlet(1,..,1),
    M log-uniform on [0.1, 50], a_j log-uniform on [0.05, 20]; rows are
    (trial, d, M, check tag, margin).  Pass iff no margin is
    below -FUZZ_TOL.  corrupt=True flips margin signs (self-test hook).

    Returns an iterator over (3n, 5) object blocks of these rows, three per
    trial, that draws n trials a block, at most simplex.BLOCK_BYTES of
    temporaries, as the blocks are read: each block's margins come from one
    inequality_margins call and are recorded in report before the block is
    returned.  One trial past LATTICE_CAP raises CapacityError.
    """
    _check_ints(trials=trials, dmax=dmax)
    # gamma arguments per trial: at most _MAX_K + 6 nodes, d + 2 each
    per_trial = (_MAX_K + 6) * (dmax + 2)
    _check_capacity(per_trial, f"gamma arguments of one trial for dmax={dmax}")
    rng = np.random.Generator(np.random.PCG64(seed))
    block = _block_len(120 + 5 * per_trial)
    return (_fuzz_block(rng, start, min(block, trials - start), dmax, corrupt, report)
            for start in range(0, trials, block))


def _fuzz_block(rng, start: int, n: int, dmax: int, corrupt: bool, report: ScanReport):
    """The (3n, 5) object block of the rows of trials start, ..., start + n - 1,
    drawn next from rng."""
    ds, M, gamma, a, lam, a123 = _draw_trials(rng, n, dmax)
    margins = (-1.0 if corrupt else 1.0) * inequality_margins(gamma, a, lam, a123)
    report.record(margins, FUZZ_TOL)
    keys = (np.arange(start, start + n)[:, None], np.array(ds)[:, None], M[:, None])
    return np.stack(np.broadcast_arrays(*keys, np.array(["a", "b", "c"], dtype=object), margins),
                    axis=-1, dtype=object).reshape(-1, 5)
