#!/usr/bin/env python3
"""Smoothed-cdf demo: draw a Dirichlet sample on the 2-simplex, evaluate
the Bernstein-smoothed cdf for several degrees, and report the sup
distance to the empirical cdf on an interior grid.

Usage: python3 scripts/estimator_demo.py [--n 2000] [--degrees 5,20,80]
"""

import argparse

import numpy as np

from bernsimplex import estimate as est
from bernsimplex import spoly
from bernsimplex.simplex import sample_dirichlet


def run(n: int, degrees, seed: int) -> None:
    samples = sample_dirichlet((2.0, 1.0, 1.0), n, seed=seed)
    grid = spoly.simplex_midpoint_grid(2, 15)[:, :-1]
    fn = [est.empirical_cdf(samples, tuple(row)) for row in grid]
    print(f"n = {n}, grid of {len(grid)} interior points")
    for m in degrees:
        fhat = est.bernstein_cdf_simplex(samples, m, grid)
        print(f"  degree m = {m:4d}: sup |smoothed - empirical| = "
              f"{est.sup_error_on_grid(fhat, fn):.5f}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--degrees", default="5,20,80")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    run(args.n, [int(t) for t in args.degrees.split(",")], args.seed)
