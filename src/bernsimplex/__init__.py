"""Multinomial/Bernstein numerics on the d-dimensional simplex.

Submodules: specfun (log-gamma/polygamma), simplex (point rules, lattices,
multinomial pmf, Dirichlet sampling), monotone (complete-monotonicity
scans), ineq (multinomial-coefficient inequalities), spoly (the S_{r,s,m}
family and its asymptotics), estimate (empirical/Bernstein estimators),
cli (command-line entry point).
"""

from . import estimate, ineq, monotone, simplex, specfun, spoly  # noqa: F401

__version__ = "0.1.0"
