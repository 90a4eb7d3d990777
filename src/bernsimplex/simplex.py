"""Simplex geometry and multinomial probability primitives.

Points, multi-index lattices, the multinomial pmf in log space, and a
seedable Dirichlet sampler.  All probabilities are kept in log space
end-to-end; exponentiation happens only at accumulation points (degrees in
the hundreds overflow direct factorials).
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import log_gamma

__all__ = [
    "SimplexPoint",
    "WeightVector",
    "SampleSet",
    "lattice_array",
    "lattice_size",
    "lattice_log_pmf",
    "sample_dirichlet",
    "log_factorial_table",
    "CapacityError",
    "LATTICE_CAP",
    "PMF_BLOCK_ELEMS",
]

LATTICE_CAP = 10**8
# float64 entries per block of a (points x lattice) pmf matrix
PMF_BLOCK_ELEMS = 1 << 20
_TOL = 1e-12


class CapacityError(RuntimeError):
    """Raised when a lattice, a bin box, an integral or a sample would exceed LATTICE_CAP."""


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: str, header: str, rows, summary: str | None) -> None:
    """Header, one comma-joined line per row and the summary line (if any).

    Atomic: written to a temp file in the target directory, then renamed.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
            if summary is not None:
                fh.write(summary + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _coord_header(d: int) -> str:
    """x1,...,xd: the names of a sample or query grid's coordinate columns."""
    return ",".join(f"x{i + 1}" for i in range(d))


@dataclass(frozen=True)
class SimplexPoint:
    """A point x in the closed d-simplex; x_{d+1} = 1 - ||x|| is derived."""

    coords: tuple

    def __init__(self, coords: Sequence[float]):
        coords = tuple(float(c) for c in coords)
        if not coords:
            raise ValueError("simplex point needs at least one coordinate")
        if any(not math.isfinite(c) or c < -_TOL for c in coords):
            raise ValueError(f"coordinates must be nonnegative, got {coords}")
        s = sum(coords)
        if s > 1.0 + _TOL:
            raise ValueError(f"coordinate sum {s} exceeds 1")
        # clamp tiny negative / overshoot noise
        coords = tuple(min(max(c, 0.0), 1.0) for c in coords)
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return len(self.coords)

    @property
    def last(self) -> float:
        return max(1.0 - sum(self.coords), 0.0)

    @property
    def full(self) -> tuple:
        """All d+1 barycentric coordinates."""
        return self.coords + (self.last,)

    @property
    def interior(self) -> bool:
        return min(self.full) > 0.0


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights gamma (d+1 entries) with total mass M."""

    gamma: tuple
    M: float

    def __init__(self, gamma: Sequence[float]):
        gamma = tuple(float(g) for g in gamma)
        if len(gamma) < 2:
            raise ValueError("need at least two weights (d >= 1)")
        if any(not math.isfinite(g) or g < 0.0 for g in gamma):
            raise ValueError(f"weights must be nonnegative, got {gamma}")
        M = sum(gamma)
        if M <= 0.0:
            raise ValueError("total mass M must be positive")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "M", M)

    @property
    def d(self) -> int:
        return len(self.gamma) - 1


@dataclass
class SampleSet:
    """n observations on the simplex or hypercube."""

    points: np.ndarray
    domain: str = "simplex"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, d) array")
        if self.domain not in ("simplex", "hypercube"):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample coordinates must be finite")
        if np.any(pts < -_TOL) or np.any(pts > 1.0 + _TOL):
            raise ValueError("sample coordinates outside [0, 1]")
        if self.domain == "simplex" and np.any(pts.sum(axis=1) > 1.0 + _TOL):
            raise ValueError("simplex samples must satisfy ||x|| <= 1")
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        """Write header x1,...,xd and one full-precision row per point, atomically."""
        _write_csv(path, _coord_header(self.d), self.points.tolist(), None)

    @classmethod
    def from_csv(cls, path, domain: str = "simplex") -> "SampleSet":
        """Read a file whose header x1,...,xd names each of its d columns."""
        with open(path) as fh:
            header = fh.readline().strip()
            # reject a file without rows here: np.loadtxt would warn on it
            first = next((line for line in fh if line.partition("#")[0].strip()), None)
            if first is None:
                raise ValueError(f"{path} has a header but no sample rows")
            points = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
        samples = cls(points=points, domain=domain)
        expected = _coord_header(samples.d)
        if header != expected:
            raise ValueError(f"header {header!r} of {path} does not name its "
                             f"{samples.d} columns {expected}")
        return samples


def lattice_size(d: int, m: int) -> int:
    """Number of multi-indices with d entries and ||k|| <= m: C(m+d, d)."""
    return math.comb(m + d, d)


def _check_capacity(size: int, what: str) -> None:
    """Raise CapacityError when size (rows, bins or operations) exceeds LATTICE_CAP."""
    if size > LATTICE_CAP:
        raise CapacityError(f"{what}: {size} exceeds the cap {LATTICE_CAP}")


def lattice_array(d: int, m: int) -> np.ndarray:
    """Every k in N_0^d with ||k|| <= m, once and in lexicographic order, as
    the rows of an (N, d+1) int64 array (last column = m - ||k||)."""
    if d < 1 or m < 0:
        raise ValueError(f"need d >= 1 and m >= 0, got d={d}, m={m}")
    _check_capacity(lattice_size(d, m), f"lattice rows for d={d}, m={m}")
    if d == 1:
        k = np.arange(m + 1, dtype=np.int64)[:, None]
    else:
        blocks = []
        for v in range(m + 1):
            sub = lattice_array(d - 1, m - v)[:, :-1]
            first = np.full((sub.shape[0], 1), v, dtype=np.int64)
            blocks.append(np.hstack([first, sub]))
        k = np.vstack(blocks)
    last = (m - k.sum(axis=1))[:, None]
    return np.hstack([k, last])


def log_factorial_table(n: int) -> np.ndarray:
    """lf[j] = ln(j!) for j = 0..n, each entry from log_gamma."""
    return np.array([log_gamma(j + 1.0) for j in range(n + 1)])


def lattice_log_pmf(lat: np.ndarray, xs: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """ln P_{k,m}(x) for each query row x of xs (P, d+1 full coordinates) and
    each lattice row k of lat (N, d+1); returns (P, N).

    lf is log_factorial_table(n) for any n >= m.  Uses 0 ln 0 = 0, and -inf
    where k_i > 0 meets x_i = 0.  Entries are accumulated coordinate by coordinate with
    math.log, so a row does not depend on which other points share the call.
    """
    logp = np.full((xs.shape[0], lat.shape[0]), lf[int(lat[0].sum())])
    for i in range(lat.shape[1]):
        ki = lat[:, i]
        logp -= lf[ki]
        col = xs[:, i]
        logx = np.array([math.log(v) if v > 0.0 else 0.0 for v in col])
        logp += ki * logx[:, None]
        zero = col <= 0.0
        if np.any(zero):
            logp[zero] = np.where(ki > 0, -np.inf, logp[zero])
    return logp


def sample_dirichlet(alpha: Sequence[float], n: int, seed: int) -> SampleSet:
    """n iid Dirichlet(alpha) draws; rows carry the first d of d+1 coordinates.

    Uses numpy's PCG64 generator; draws are normalized gamma variates (the
    generator's gamma sampler handles shape < 1 by accept-reject).
    """
    alpha = [float(a) for a in alpha]
    if len(alpha) < 2:
        raise ValueError("alpha needs at least two entries")
    if any(not math.isfinite(a) or a <= 0.0 for a in alpha):
        raise ValueError(f"alpha entries must be finite and positive, got {alpha}")
    if n < 1:
        raise ValueError("need n >= 1")
    _check_capacity(n * len(alpha), f"Dirichlet draws for n={n} and {len(alpha)} coordinates")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.gamma(shape=np.array(alpha), size=(n, len(alpha)))
    g /= g.sum(axis=1, keepdims=True)
    return SampleSet(points=g[:, :-1], domain="simplex")
