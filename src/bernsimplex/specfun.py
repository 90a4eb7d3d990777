"""Log-gamma, digamma and polygamma evaluation on (0, inf).

Self-contained (no scipy): arguments are shifted upward by the recurrence
until they reach a Stirling-series threshold, then an asymptotic expansion
with Bernoulli coefficients through B_16 is summed.  Target accuracy is
~1e-13 relative, which is what every downstream tolerance in this package
assumes.
"""

from __future__ import annotations

import math

__all__ = [
    "log_gamma",
    "polygamma",
    "duplication_residual",
    "MAX_POLY_ORDER",
]

MAX_POLY_ORDER = 8

# B_2, B_4, ..., B_16
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_STIRLING_THRESHOLD = 12.0

# Series coefficients, built once.  Each is the float a term-by-term sum forms
# first (b / (2k), not b * (1 / (2k))), so every product c * w in _series
# rounds as in that sum, which tests/oracles.py keeps as the reference.
# ln Gamma: B_{2k} / (2k(2k-1)); psi: B_{2k} / (2k);
# psi^{(n)}: B_{2k} (2k+n-1)! / (2k)!, for n = 1..MAX_POLY_ORDER.
_LOG_GAMMA_COEFS = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, start=1))
_DIGAMMA_COEFS = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))
_POLYGAMMA_COEFS = {
    n: tuple(b * (math.factorial(2 * k + n - 1) / math.factorial(2 * k))
             for k, b in enumerate(_BERNOULLI, start=1))
    for n in range(1, MAX_POLY_ORDER + 1)
}


def _check_positive(z: float, name: str = "z") -> None:
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0.0):
        raise ValueError(f"{name} must be a finite positive real, got {z!r}")


def _series(coefs, w: float, inv2: float, acc: float = 0.0) -> float:
    """acc + sum_k coefs[k] * w * inv2**k, added term by term in k order."""
    for c in coefs:
        acc += c * w
        w *= inv2
    return acc


def _stirling_tail(z: float) -> float:
    # sum_k B_{2k} / (2k(2k-1) z^{2k-1})
    return _series(_LOG_GAMMA_COEFS, 1.0 / z, 1.0 / (z * z))


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0."""
    _check_positive(z)
    shift = 0.0
    while z < _STIRLING_THRESHOLD:
        shift -= math.log(z)
        z += 1.0
    return (z - 0.5) * math.log(z) - z + _HALF_LOG_TWO_PI + _stirling_tail(z) + shift


def polygamma(order: int, z: float) -> float:
    """psi^{(order)}(z) for z > 0; order 0 is the digamma function.

    Orders above 8 are rejected: the asymptotic series is only tuned
    (shift threshold, Bernoulli depth) up to that point.
    """
    if not isinstance(order, int) or order < 0 or order > MAX_POLY_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_POLY_ORDER}], got {order!r}")
    _check_positive(z)
    # higher orders need a larger threshold: series terms carry (2k+n-1)!
    threshold = _STIRLING_THRESHOLD + 2.0 * order
    n = order
    sign = 1.0 if n % 2 == 0 else -1.0  # (-1)^n n!/z^{n+1} in the recurrence
    fac = math.factorial(n)
    shift = 0.0
    while z < threshold:
        shift -= sign * fac / z ** (n + 1)
        z += 1.0
    inv2 = 1.0 / (z * z)
    if n == 0:
        # psi(z) ~ log z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})
        return math.log(z) - 0.5 / z - _series(_DIGAMMA_COEFS, inv2, inv2) + shift
    # psi^{(n)}(z) ~ (-1)^{n-1} [ (n-1)!/z^n + n!/(2 z^{n+1})
    #                             + sum_k B_{2k} (2k+n-1)!/((2k)! z^{2k+n}) ]
    fac_nm1 = math.factorial(n - 1)
    lead = fac_nm1 / z**n + fac_nm1 * n / (2.0 * z ** (n + 1))
    acc = _series(_POLYGAMMA_COEFS[n], 1.0 / z**n * inv2, inv2, lead)
    return (acc if n % 2 == 1 else -acc) + shift


def duplication_residual(y: float) -> float:
    """Signed defect of the Gamma duplication identity at y, in log scale.

    Analytically zero for every y > 0; the returned magnitude is a
    round-trip accuracy check of log_gamma.  For y >= 12 the Stirling
    expansions of the three log-gamma terms are combined analytically
    before evaluation, otherwise the O(y log y) leading terms cancel in
    floating point and swamp the 1e-12 contract at large y.
    """
    _check_positive(y, "y")
    if y < _STIRLING_THRESHOLD:
        lhs = y * math.log(4.0)
        rhs = (
            math.log(2.0)
            + 0.5 * math.log(math.pi)
            + log_gamma(2.0 * y)
            - log_gamma(y)
            - log_gamma(y + 0.5)
        )
        return lhs - rhs
    # fused form: residual = y*log1p(1/(2y)) - 1/2 - [S(2y) - S(y) - S(y+1/2)]
    ds = _stirling_tail(2.0 * y) - _stirling_tail(y) - _stirling_tail(y + 0.5)
    return y * math.log1p(0.5 / y) - 0.5 - ds
