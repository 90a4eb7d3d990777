"""Generalized multinomial coefficients and their convexity inequalities.

C(a) = Gamma(aM + 1) / prod_i Gamma(a gamma_i + 1) for a weight vector
(gamma, M).  Log-convexity of the underlying probability function yields
three inequalities (weighted log-convexity, superadditivity, and an
exchange inequality); everything here is checked in log space so "strict
versus equality" resolves by an absolute tolerance instead of ratios of
huge coefficients.

The check_* functions evaluate ln C one node at a time on scalar log_gamma.
The fuzzer works on a block of trials at once: it draws the block from raw
variates (_draw_trials) as one zero-padded weight matrix, log_coeff's array
form takes that matrix and every node of the block in one array log_gamma
call, and the margins are assembled from those values in the check_*
functions' arithmetic order, recorded in a ScanReport and yielded as rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .report import ScanReport
from .simplex import PMF_BLOCK_ELEMS, WeightVector, _check_capacity
from .specfun import log_gamma

__all__ = [
    "log_coeff",
    "check_weighted_logconvexity",
    "check_superadditivity",
    "check_exchange",
    "fuzz_inequalities",
    "FUZZ_TOL",
]

FUZZ_TOL = 1e-10
_MAX_K = 5  # a fuzz trial draws k = 2.._MAX_K values a_j


def log_coeff(w, a):
    """ln C(a) for a WeightVector w and a float a > 0.

    Array form: w a (T, D) weight matrix, one gamma per row padded with zero
    weights, and a a (T, K) array give the (T, K) block of ln C, row t taken
    at w[t].  Entries of a must be finite and >= 0; a = 0 gives ln C(0) = 0,
    so a caller pads rows of unequal length with zeros.  Every live argument
    a*g + 1 (a > 0, g > 0 or g = M) goes into one array log_gamma call, and
    the terms are subtracted coordinate by coordinate in the scalar order, so
    an entry differs from the scalar route only by array log_gamma's last bits.
    """
    if isinstance(w, WeightVector):
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"a must be positive, got {a!r}")
        out = log_gamma(a * w.M + 1.0)
        for g in w.gamma:
            if g > 0.0:
                out -= log_gamma(a * g + 1.0)
        return out
    coefs = _weight_block(w)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != coefs.shape[0]:
        raise ValueError(f"need a ({coefs.shape[0]}, K) array of a, got shape {a.shape}")
    if not np.all((a >= 0.0) & np.isfinite(a)):
        raise ValueError("every a must be finite and nonnegative")
    live = (coefs > 0.0)[:, :, None] & (a > 0.0)[:, None, :]
    terms = np.zeros(live.shape)
    terms[live] = log_gamma((a[:, None, :] * coefs[:, :, None])[live] + 1.0)
    out = terms[:, 0]
    for j in range(1, terms.shape[1]):
        out = out - terms[:, j]
    return out


def _weight_block(gamma) -> np.ndarray:
    """[M | gamma] of a (T, D) weight matrix, each row checked as WeightVector
    checks its gamma.  M is the row's sum as WeightVector forms it, with
    built-in sum (compensated from Python 3.12 on), on which zero padding on
    the right has no effect."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[1] < 2:
        raise ValueError(f"need a (T, D) weight matrix with D >= 2, got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma) & (gamma >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    M = np.array(list(map(sum, gamma.tolist())), dtype=float)
    if not np.all(M > 0.0):
        raise ValueError("total mass M must be positive")
    return np.column_stack([M, gamma])


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


def _colsum(x: np.ndarray) -> np.ndarray:
    """Row sums of x, added column by column from the left as Python's sum
    adds a list; zero padding on the right leaves them unchanged."""
    out = x[:, 0]
    for j in range(1, x.shape[1]):
        out = out + x[:, j]
    return out


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """exp of numpy's uniform(ln lo, ln hi), from the random() draws u behind it."""
    log_lo, log_hi = math.log(lo), math.log(hi)
    return np.exp(log_lo + (log_hi - log_lo) * u)


def _draw_trials(rng: np.random.Generator, n: int, dmax: int):
    """The next n trials of rng: (ds, M, gamma, live, a, lam, a123).

    Per trial: d, M, its d + 1 weights in a row of gamma; the k a_j and lam_j
    in the live entries of a row of a and lam; a1, a2, a3 with a1 <= a3.  The
    rows of gamma, a and lam have zeros after their entries.
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
    gamma = M[:, None] * (e_gamma * (1.0 / _colsum(e_gamma))[:, None])
    live = np.arange(_MAX_K) < np.array(ks)[:, None]
    a = np.where(live, _log_uniform(u_a, 0.05, 20.0), 0.0)
    lam = e_lam * (1.0 / _colsum(e_lam))[:, None]
    a13 = np.sort(_log_uniform(u_123[:, :2], 0.05, 20.0), axis=1)
    a123 = np.column_stack([a13[:, 0], _log_uniform(u_123[:, 2], 0.05, 20.0), a13[:, 1]])
    return ds, M, gamma, live, a, lam, a123


def fuzz_inequalities(trials: int, dmax: int, seed: int, report: ScanReport,
                      corrupt: bool = False):
    """Randomized harness over the three inequality checks.

    Per trial: d uniform on {1..dmax}, gamma = M * Dirichlet(1,..,1),
    M log-uniform on [0.1, 50], a_j log-uniform on [0.05, 20]; rows are
    (trial, d, M, check tag, margin).  Pass iff no margin is
    below -FUZZ_TOL.  corrupt=True flips margin signs (self-test hook).

    Returns an iterator over the rows that draws the trials in blocks as they
    are read: a block's nodes (the k a_j, sum_j lam_j a_j, sum_j a_j, a1,
    a2+a3, a1+a2 and a3 of every trial) go through one array log_coeff call,
    and its margins, assembled in the check_* functions' arithmetic order,
    are recorded in report before its first row.  One trial past LATTICE_CAP
    raises CapacityError.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    # gamma arguments per trial: at most _MAX_K + 6 nodes, d + 2 each
    per_trial = (_MAX_K + 6) * (dmax + 2)
    _check_capacity(per_trial, f"gamma arguments of one trial for dmax={dmax}")
    rng = np.random.Generator(np.random.PCG64(seed))
    # log_coeff peaks near 6 floats per gamma argument, so a block fits one pmf block
    block = max(1, PMF_BLOCK_ELEMS // (8 * per_trial))
    return itertools.chain.from_iterable(
        _fuzz_block(rng, start, min(block, trials - start), dmax, corrupt, report)
        for start in range(0, trials, block))


def _fuzz_block(rng, start: int, n: int, dmax: int, corrupt: bool, report: ScanReport):
    """The rows of trials start, ..., start + n - 1, drawn next from rng: one
    generator per block, whose arrays are freed before the next is drawn."""
    ds, M, gamma, live, a, lam, a123 = _draw_trials(rng, n, dmax)
    keys = [(start + i, d, m) for i, (d, m) in enumerate(zip(ds, M.tolist()))]
    # the validation of the check_* functions, on the whole block
    if np.any(a[live] <= 0.0):
        raise ValueError("all a_j must be positive")
    if np.any(~((lam[live] > 0.0) & (lam[live] < 1.0))) or np.any(
            np.abs(_colsum(lam) - 1.0) > 1e-12):
        raise ValueError("lambda must lie in (0,1) and sum to 1")
    a1, a2, a3 = a123.T
    if np.any(a1 > a3):
        raise ValueError("precondition a1 <= a3 violated")

    nodes = np.column_stack([a, _colsum(lam * a), _colsum(a), a1, a2 + a3, a1 + a2, a3])
    lc = log_coeff(gamma, nodes)
    lc_a, (lc_mix, lc_sum, lc_1, lc_23, lc_12, lc_3) = lc[:, :_MAX_K], lc[:, _MAX_K:].T
    margins = (-1.0 if corrupt else 1.0) * np.column_stack([
        _colsum(lam * lc_a) - lc_mix,
        lc_sum - _colsum(lc_a),
        lc_1 + lc_23 - lc_12 - lc_3,
    ])
    report.record(margins, FUZZ_TOL)
    for key, row in zip(keys, margins.tolist()):
        for tag, margin in zip("abc", row):
            yield key + (tag, margin)
