"""Generalized multinomial coefficients and their convexity inequalities.

C(a) = Gamma(aM + 1) / prod_i Gamma(a gamma_i + 1) for a weight vector
(gamma, M).  Log-convexity of the underlying probability function yields
three inequalities (weighted log-convexity, superadditivity, and an
exchange inequality); everything here is checked in log space so "strict
versus equality" resolves by an absolute tolerance instead of ratios of
huge coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .report import ScanReport
from .simplex import WeightVector
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


def log_coeff(w: WeightVector, a: float) -> float:
    """ln C(a)."""
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


def fuzz_inequalities(
    trials: int,
    dmax: int,
    seed: int,
    corrupt: bool = False,
) -> ScanReport:
    """Randomized harness over the three inequality checks.

    Per trial: d uniform on {1..dmax}, gamma = M * Dirichlet(1,..,1),
    M log-uniform on [0.1, 50], a_j log-uniform on [0.05, 20]; rows are
    (trial, d, M, check tag, margin).  Pass iff no margin is
    below -FUZZ_TOL.  corrupt=True flips margin signs (self-test hook).
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    report = ScanReport()
    log_lo, log_hi = math.log(0.05), math.log(20.0)
    for t in range(trials):
        d = int(rng.integers(1, dmax + 1))
        M = float(np.exp(rng.uniform(math.log(0.1), math.log(50.0))))
        gamma = M * rng.dirichlet(np.ones(d + 1))
        w = WeightVector(gamma)
        k = int(rng.integers(2, 6))
        a = np.exp(rng.uniform(log_lo, log_hi, size=k))
        lam = rng.dirichlet(np.ones(k))

        sgn = -1.0 if corrupt else 1.0
        m_a = sgn * check_weighted_logconvexity(w, a, lam)
        m_b = sgn * check_superadditivity(w, a)
        a1, a3 = sorted(np.exp(rng.uniform(log_lo, log_hi, size=2)))
        a2 = float(np.exp(rng.uniform(log_lo, log_hi)))
        m_c = sgn * check_exchange(w, float(a1), a2, float(a3))

        for tag, margin in (("a", m_a), ("b", m_b), ("c", m_c)):
            report.record(margin + FUZZ_TOL, (t, d, M, tag, margin))
    return report
