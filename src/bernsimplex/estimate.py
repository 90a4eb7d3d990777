"""Empirical and Bernstein-smoothed cdf/density estimators.

The empirical cdf uses the standard convention F_n(y) = (1/n) #{j : y_j <= y}
componentwise (the source display reads the indicator the other way; as a
cdf smoother only the standard reading makes sense, so that is what is
implemented).  Likewise the hypercube cdf kernel uses the binomial pmf
exponent m - k_i on (1 - x_i).  Query points follow simplex's convention.
"""

from __future__ import annotations

import functools

import numpy as np

from .simplex import (
    SampleSet,
    _block_len,
    _check_capacity,
    _check_ints,
    _cube_rows,
    _simplex_rows,
    lattice_array,
    lattice_log_pmf,
)

__all__ = [
    "bernstein_cdf_simplex",
    "bernstein_cdf_hypercube",
    "bernstein_density_hypercube",
]

ESTIMATOR_KINDS = ("simplex-cdf", "hypercube-cdf", "hypercube-density")


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
    """x as rows by domain's point rule (_simplex_rows' full coordinates or
    _cube_rows' points), and whether it was one point (np.ndim(x) <= 1); also
    checks that samples are tagged domain and m >= 1."""
    if samples.domain != domain:
        raise ValueError(f"samples must be tagged {domain}")
    rule = _simplex_rows if domain == "simplex" else _cube_rows
    xs = rule(np.atleast_2d(x), samples.d)
    _check_ints(m=m)
    return xs, np.ndim(x) <= 1


_contract = functools.partial(np.tensordot, axes=([0], [0]))


def _bernstein_sum(box: np.ndarray, deg: int, xs: np.ndarray, single: bool):
    """sum_k box[k] prod_i C(deg,k_i) x_i^{k_i} (1-x_i)^{deg-k_i} for each row
    x of xs, box being (deg+1)^d; a float if single, else a (P,) array.

    The weights of each axis are the d = 1 multinomial pmf (k, deg-k) at
    (x_i, 1-x_i), one kernel call per axis for each block of points.
    """
    lat = lattice_array(1, deg)
    out = np.empty(len(xs))
    step = _block_len((xs.shape[1] + 1) * (deg + 1) + 16)
    for lo in range(0, len(xs), step):
        weights = [np.exp(lattice_log_pmf(lat, np.column_stack([xi, 1.0 - xi])))
                   for xi in xs[lo:lo + step].T]
        out[lo:lo + step] = [float(functools.reduce(_contract, rows, box))
                             for rows in zip(*weights)]
        del weights  # before the next block's are built
    return float(out[0]) if single else out


def bernstein_cdf_simplex(samples: SampleSet, m: int, x):
    """sum_{||k|| <= m} F_n(k/m) P_{k,m}(x) on the simplex.

    x is one point, its first d barycentric coordinates (returns a float), or
    a (P, d) array of points (returns a (P,) array).  F_n on the lattice is
    built once per call: O(n + (m+1)^d + P N), N = C(m+d, d).
    """
    full, single = _query_points(samples, m, x, "simplex")
    d = samples.d
    lat = lattice_array(d, m)
    fn = _lattice_cdf_counts(samples, m)[tuple(lat[:, :-1].T)] / samples.n
    out = np.empty(len(full))
    step = _block_len(2 * (lat.shape[0] + d + 6))
    for lo in range(0, len(full), step):
        out[lo:lo + step] = [np.dot(fn, row)
                             for row in np.exp(lattice_log_pmf(lat, full[lo:lo + step]))]
    return float(out[0]) if single else out


def bernstein_cdf_hypercube(samples: SampleSet, m: int, x):
    """sum_{k in [0,m]^d} F_n(k/m) prod_i C(m,k_i) x_i^{k_i} (1-x_i)^{m-k_i}.

    x is one point (returns a float) or a (P, d) array (returns a (P,) array);
    F_n on the grid is built once per call.
    """
    xs, single = _query_points(samples, m, x, "hypercube")
    return _bernstein_sum(_lattice_cdf_counts(samples, m) / samples.n, m, xs, single)


def bernstein_density_hypercube(samples: SampleSet, m: int, x):
    """m^d sum_{k in [0,m-1]^d} P_n((k/m, (k+1)/m]) prod_i C(m-1,k_i) x^{k_i} (1-x)^{m-1-k_i}.

    Cells are half-open on the left, so points with any coordinate equal to
    0 belong to no cell and contribute nothing.  x is one point (returns a
    float) or a (P, d) array (returns a (P,) array); the cell counts are
    built once per call.
    """
    xs, single = _query_points(samples, m, x, "hypercube")
    # cell k is bin k+1 of _bin_counts
    counts = _bin_counts(samples, m)[(slice(1, None),) * samples.d] / samples.n
    return m**samples.d * _bernstein_sum(counts, m - 1, xs, single)
