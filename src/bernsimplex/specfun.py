"""Log-gamma, digamma and polygamma evaluation on (0, inf).

Self-contained (no scipy): arguments are shifted upward by the recurrence
until they reach a Stirling-series threshold, then an asymptotic expansion
with Bernoulli coefficients through B_16 is summed.  Target accuracy is
~1e-13 relative, which is what every downstream tolerance in this package
assumes.

``log_gamma``, ``polygamma`` and ``duplication_residual`` have one route
each, on arrays: an int or float argument runs as a 0-d array and comes back
as a float, with the bits it has inside any array.  The residual takes a
whole sweep in three log_gamma calls.  Array steps apply to all entries
still below the threshold at once; numpy's log and power may differ from
libm in the last bits.  polygamma raises OverflowError where
float ** int would and where n!/z^{n+1} does (tiny z); other overflows give
inf without a warning, as float arithmetic does.
"""

from __future__ import annotations

import math

import numpy as np

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


def _check_positive(z, name: str = "z") -> bool:
    """True for an int or float in (0, inf), False for an ndarray whose entries
    all are (the cue to return a float or an array), ValueError for anything else."""
    if isinstance(z, (int, float)) and math.isfinite(z) and z > 0.0:
        return True
    if isinstance(z, np.ndarray):
        bad = z[~((z > 0.0) & (z < math.inf))]
        if not bad.size:
            return False
        z = bad.flat[0].item()
    raise ValueError(f"{name} must be a finite positive real, got {z!r}")


def _series(coefs, w, inv2, acc=0.0):
    """acc + sum_k coefs[k] * w * inv2**k, added term by term in k order.
    Leaves its arguments unchanged, arrays included."""
    for c in coefs:
        acc = acc + c * w
        w = w * inv2
    return acc


def _pow(z: np.ndarray, k: int) -> np.ndarray:
    """z ** k, raising OverflowError where float ** int would."""
    out = z**k
    if np.isinf(out).any():
        raise OverflowError(34, "Numerical result out of range")
    return out


def _shift_up(z: np.ndarray, threshold: float, step):
    """Per entry of a copy of z: while z < threshold, shift -= step(z) and
    z += 1.  Returns (shifted z, shift).

    The entries below threshold are taken in ascending order.  Rounding is
    monotone, so the ones still below threshold after each step are always
    a prefix of that order, and every step works on a slice.
    """
    # C order, so that flat and shift.reshape(-1) are views, not copies
    z = np.array(z, dtype=float, order="C")
    shift = np.zeros(z.shape)
    flat = z.reshape(-1)
    order = np.flatnonzero(flat < threshold)
    order = order[np.argsort(flat[order])]
    zs, ss = flat[order], np.zeros(order.size)
    active = order.size
    while active:
        v = zs[:active]
        ss[:active] -= step(v)
        v += 1.0
        active = int(v.searchsorted(threshold))
    flat[order] = zs
    shift.reshape(-1)[order] = ss
    return z, shift


def _stirling_tail(z):
    # sum_k B_{2k} / (2k(2k-1) z^{2k-1})
    return _series(_LOG_GAMMA_COEFS, 1.0 / z, 1.0 / (z * z))


def log_gamma(z):
    """ln Gamma(z) for z > 0.  An ndarray z gives an array of its shape, an
    int or float z a float."""
    scalar = _check_positive(z)
    with np.errstate(over="ignore"):
        z, shift = _shift_up(z, _STIRLING_THRESHOLD, np.log)
        out = (z - 0.5) * np.log(z) - z + _HALF_LOG_TWO_PI + _stirling_tail(z) + shift
    return float(out) if scalar else out


def polygamma(order: int, z):
    """psi^{(order)}(z) for z > 0; order 0 is the digamma function.  An
    ndarray z gives an array of its shape, an int or float z a float.

    Orders above 8 are rejected: the asymptotic series is only tuned
    (shift threshold, Bernoulli depth) up to that point.
    """
    if isinstance(order, bool) or not isinstance(order, int) or not 0 <= order <= MAX_POLY_ORDER:
        raise ValueError(f"order must be an integer in [0, {MAX_POLY_ORDER}], got {order!r}")
    scalar = _check_positive(z)
    z = np.asarray(z, dtype=float)
    n = order
    # higher orders need a larger threshold: series terms carry (2k+n-1)!
    threshold = _STIRLING_THRESHOLD + 2.0 * n
    sign = 1.0 if n % 2 == 0 else -1.0  # (-1)^n n!/z^{n+1} in the recurrence
    fac = math.factorial(n)
    with np.errstate(over="ignore", divide="ignore"):
        # the sum is finite iff its largest term, n!/z^{n+1} at the smallest z, is
        if not np.isfinite(fac / np.min(z, initial=1.0) ** (n + 1)):
            raise OverflowError(34, "Numerical result out of range")
        z, shift = _shift_up(z, threshold, lambda v: sign * fac / v ** (n + 1))
        inv2 = 1.0 / (z * z)
        if n == 0:
            # psi(z) ~ log z - 1/(2z) - sum_k B_{2k} / (2k z^{2k})
            out = np.log(z) - 0.5 / z - _series(_DIGAMMA_COEFS, inv2, inv2) + shift
        else:
            # psi^{(n)}(z) ~ (-1)^{n-1} [ (n-1)!/z^n + n!/(2 z^{n+1})
            #                             + sum_k B_{2k} (2k+n-1)!/((2k)! z^{2k+n}) ]
            fac_nm1 = math.factorial(n - 1)
            lead = fac_nm1 / _pow(z, n) + fac_nm1 * n / (2.0 * _pow(z, n + 1))
            acc = _series(_POLYGAMMA_COEFS[n], 1.0 / _pow(z, n) * inv2, inv2, lead)
            out = (acc if n % 2 == 1 else -acc) + shift
    return float(out) if scalar else out


def duplication_residual(y):
    """Signed defect of the Gamma duplication identity at y, in log scale.
    An ndarray y gives an array of its shape, an int or float y a float.

    Analytically zero for every y > 0; the returned magnitude is a
    round-trip accuracy check of log_gamma.  For y >= 12 the Stirling
    expansions of the three log-gamma terms are combined analytically
    before evaluation, otherwise the O(y log y) leading terms cancel in
    floating point and swamp the 1e-12 contract at large y.
    """
    scalar = _check_positive(y, "y")
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape)
    small = y < _STIRLING_THRESHOLD
    z = y[small]
    out[small] = z * math.log(4.0) - (
        math.log(2.0)
        + 0.5 * math.log(math.pi)
        + log_gamma(2.0 * z)
        - log_gamma(z)
        - log_gamma(z + 0.5)
    )
    # fused form: residual = y*log1p(1/(2y)) - 1/2 - [S(2y) - S(y) - S(y+1/2)]
    z = y[~small]
    ds = _stirling_tail(2.0 * z) - _stirling_tail(z) - _stirling_tail(z + 0.5)
    out[~small] = z * np.log1p(0.5 / z) - 0.5 - ds
    return float(out) if scalar else out
