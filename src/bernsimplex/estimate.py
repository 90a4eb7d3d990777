"""Empirical and Bernstein-smoothed cdf/density estimators.

The empirical cdf uses the standard convention F_n(y) = (1/n) #{j : y_j <= y}
componentwise (the source display reads the indicator the other way; as a
cdf smoother only the standard reading makes sense, so that is what is
implemented).  Likewise the hypercube cdf kernel uses the binomial pmf
exponent m - k_i on (1 - x_i).  Query points go through simplex._at_points,
and the multinomial weights come from the Poisson tables S uses
(simplex._poisson_weights at rank 1, simplex._lattice_rows).
"""

from __future__ import annotations

import functools

import numpy as np

from .simplex import (
    SampleSet,
    _at_points,
    _check_capacity,
    _check_ints,
    _cube_rows,
    _lattice_floats,
    _lattice_rows,
    _poisson_weights,
    _simplex_rows,
    lattice_array,
)

__all__ = [
    "bernstein_cdf_simplex",
    "bernstein_cdf_hypercube",
    "bernstein_density_hypercube",
]

# kind: (estimator name, samples' domain); by name, so a wrapper on it is called
ESTIMATOR_KINDS = {"simplex-cdf": ("bernstein_cdf_simplex", "simplex"),
                   "hypercube-cdf": ("bernstein_cdf_hypercube", "hypercube"),
                   "hypercube-density": ("bernstein_density_hypercube", "hypercube")}


def _bin_counts(samples: SampleSet, m: int) -> np.ndarray:
    """Sample counts in an int64 (m+1)^d box of per-axis bins.

    A coordinate y (in [0, 1], as SampleSet keeps it) goes to bin j, the
    smallest j in 0..m with y <= j/m as a float comparison (so bin j > 0 holds
    (j-1)/m < y <= j/m).  ceil(y*m) <= m is off by at most one at float ties.
    """
    d = samples.d
    _check_capacity((m + 1) ** d, f"(m+1)^d bins for d={d}, m={m}")
    y = samples.points
    j = np.ceil(y * m).astype(np.int64)
    j -= (j > 0) & (y <= (j - 1) / m)
    j += y > j / m
    shape = (m + 1,) * d
    flat = np.ravel_multi_index(tuple(j.T), shape)
    return np.bincount(flat, minlength=(m + 1) ** d).reshape(shape)


def _lattice_cdf_counts(samples: SampleSet, m: int) -> np.ndarray:
    """n F_n(k/m) for k in [0,m]^d: the (m+1)^d bin box, summed along each axis in place."""
    box = _bin_counts(samples, m)
    for axis in range(samples.d):
        np.cumsum(box, axis=axis, out=box)
    return box


def _query_points(samples: SampleSet, m: int, x, domain: str):
    """simplex._at_points' evaluate at the query points x by domain's point
    rule; checks that samples are tagged domain, then x, then m >= 1."""
    if samples.domain != domain:
        raise ValueError(f"samples must be tagged {domain}")
    _, evaluate = _at_points(_simplex_rows if domain == "simplex" else _cube_rows, x, samples.d)
    _check_ints(m=m)
    return evaluate


_contract = functools.partial(np.tensordot, axes=([0], [0]))


def _bernstein_sum(box: np.ndarray, deg: int):
    """The kernel of (P, d) rows x -> sum_k box[k] prod_i C(deg,k_i) x_i^{k_i}
    (1-x_i)^{deg-k_i}, box being (deg+1)^d, and the floats a row holds.

    The weights of each axis are the d = 1 multinomial pmf (k, deg-k) at
    (x_i, 1-x_i), one simplex._lattice_rows call per axis for each block of
    points, so a block holds one axis's deviance tables at a time.
    """
    lat = lattice_array(1, deg)
    w, scale = _poisson_weights((1,), deg)
    def kernel(xs):
        weights = [_lattice_rows(1, w, lat, np.column_stack([xi, 1.0 - xi])) * scale
                   for xi in xs.T]
        return [float(functools.reduce(_contract, rows, box)) for rows in zip(*weights)]
    return kernel, box.ndim * _lattice_floats(lat, w) + 16


def bernstein_cdf_simplex(samples: SampleSet, m: int, x):
    """sum_{||k|| <= m} F_n(k/m) P_{k,m}(x) on the simplex, x as
    simplex._at_points takes it.  F_n on the lattice is built once per call:
    O(n + (m+1)^d + P N), N = C(m+d, d)."""
    evaluate = _query_points(samples, m, x, "simplex")
    lat = lattice_array(samples.d, m)
    fn = _lattice_cdf_counts(samples, m)[tuple(lat[:, :-1].T)] / samples.n
    w, scale = _poisson_weights((1,), m)
    # a dot per row, not one (P, N) matmul: a row's bits may not depend on its block
    return evaluate(lambda full: [np.dot(fn, row) * scale
                                  for row in _lattice_rows(1, w, lat, full)],
                    _lattice_floats(lat, w))


def bernstein_cdf_hypercube(samples: SampleSet, m: int, x):
    """sum_{k in [0,m]^d} F_n(k/m) prod_i C(m,k_i) x_i^{k_i} (1-x_i)^{m-k_i},
    x as simplex._at_points takes it; F_n on the grid is built once per call."""
    evaluate = _query_points(samples, m, x, "hypercube")
    return evaluate(*_bernstein_sum(_lattice_cdf_counts(samples, m) / samples.n, m))


def bernstein_density_hypercube(samples: SampleSet, m: int, x):
    """m^d sum_{k in [0,m-1]^d} P_n((k/m, (k+1)/m]) prod_i C(m-1,k_i) x^{k_i} (1-x)^{m-1-k_i}.

    Cells are half-open on the left, so points with any coordinate equal to
    0 belong to no cell and contribute nothing.  x is as simplex._at_points
    takes it; the cell counts are built once per call."""
    evaluate = _query_points(samples, m, x, "hypercube")
    # cell k is bin k+1 of _bin_counts
    counts = _bin_counts(samples, m)[(slice(1, None),) * samples.d] / samples.n
    return m**samples.d * evaluate(*_bernstein_sum(counts, m - 1))
