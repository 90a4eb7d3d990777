"""Processor-speed probes, so that timings survive a noisy shared host.

On the 2-vCPU shared host this benchmark was tuned on, the same Python code
runs up to twice as slow for tens of seconds at a time while other tenants
load the machine. Wall time still equals CPU time; the processor itself is
slower, so neither longer runs nor medians remove the swing.

Each timed stretch is therefore bracketed by a short probe: fixed
benchmark-owned code that does not touch bernsimplex. A time is reported in
nominal seconds, ``measured * NOMINAL[kind] / probe``, where ``probe`` is
the mean of the probe times just before and just after the stretch.
Because the probe never runs program code, a slower or faster program
moves the nominal time exactly as it moves the measured one.

Contention slows different kinds of work by different factors, so each
workload is probed with the kind of work that tracked it best on recordings
of all four (see NOTES.md): ``scalar`` is interpreter-bound scalar math
(specfun, the monotone and ineq loops), ``bulk`` is numpy work over
arrays of a few hundred KB (the empirical cdf) and ``mixed`` runs both, for
work that is both (the recursive lattice arrays: many small numpy calls
from Python, and a few large copies).
"""

from __future__ import annotations

import math
import time

import numpy as np

# Probe times on the quiet host (Intel Xeon 2.1 GHz, 2 vCPUs, Python 3.11,
# numpy 2.4); only their ratio to the probe matters for comparisons.
NOMINAL = {"scalar": 5.6e-4, "bulk": 2.1e-3}
NOMINAL["mixed"] = NOMINAL["scalar"] + NOMINAL["bulk"]

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_ARGS = [0.05 + 0.37 * i for i in range(60)]


def _lgamma(z: float) -> float:
    shift = 0.0
    while z < 12.0:
        shift -= math.log(z)
        z += 1.0
    w = 1.0 / z
    inv2 = w * w
    acc = 0.0
    for k, b in enumerate(_BERNOULLI, start=1):
        acc += b / (2 * k * (2 * k - 1)) * w
        w *= inv2
    return (z - 0.5) * math.log(z) - z + 0.9189385332046727 + acc + shift


def _scalar() -> float:
    return sum(_lgamma(a) for a in _ARGS for _ in range(5))


# The array probe writes into buffers allocated once, here: a fresh result
# would time the allocator and its page faults, which depend on what the
# program freed before, instead of the processor.
_SAMPLES = np.random.Generator(np.random.PCG64(0)).random((1500, 2))
_QUERIES = np.random.Generator(np.random.PCG64(1)).random((40, 1, 2))
_CMP = np.empty((40, 1500, 2), dtype=bool)
_HITS = np.empty((40, 1500), dtype=bool)


def _bulk() -> float:
    np.less_equal(_SAMPLES[None, :, :], _QUERIES, out=_CMP)
    np.all(_CMP, axis=2, out=_HITS)
    return float(np.count_nonzero(_HITS))


def _mixed() -> float:
    return _scalar() + _bulk()


_PROBES = {"scalar": _scalar, "bulk": _bulk, "mixed": _mixed}
PROBE_REPS = 3


def probe(kind: str) -> float:
    """Median of PROBE_REPS timings of the ``kind`` probe, in seconds."""
    fn = _PROBES[kind]
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[PROBE_REPS // 2]


def nominal(measured: float, kind: str, before: float, after: float) -> float:
    """``measured`` seconds rescaled to the probe's nominal speed."""
    return measured * NOMINAL[kind] * 2.0 / (before + after)
