"""Slow reference routes that the tests compare the package's fast paths with.

A scalar multi-index, its lexicographic lattice generator and the multinomial
pmf one (k, x) pair at a time (oracles for ``simplex.lattice_array`` and
``simplex.lattice_log_pmf``), and the empirical cdf by a direct
(queries x samples) comparison (the oracle for the estimators' binned cdf),
and the sup distance between two tables of values on one grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from bernsimplex.simplex import SampleSet, SimplexPoint, _check_capacity, lattice_size
from bernsimplex.specfun import log_gamma


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
