"""Simplex geometry and multinomial probability primitives.

Multi-index lattices, the multinomial weights of a lattice sum, a seedable
Dirichlet sampler and the sample set it returns.  Each input type has one
rule: _simplex_rows and _cube_rows for point rows, _weight_rows for weight
rows, _check_ints for integers.  An API that takes a point takes its first
d coordinates: a length-d sequence is one point (a float result), a (P, d)
array is P points (a (P,) result): _at_points owns that rule and the blocks.
The weights of S and of the estimators have one kernel, per-coordinate
Poisson tables (_poisson_weights) gathered over the lattice rows
(_lattice_rows): no factorial (degrees in the hundreds overflow it) and no
large logarithm is formed.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .specfun import _stirling_tail, log_gamma

__all__ = [
    "SampleSet",
    "lattice_array",
    "lattice_size",
    "sample_dirichlet",
    "log_factorial_table",
    "CapacityError",
    "LATTICE_CAP",
    "BLOCK_BYTES",
]

LATTICE_CAP = 10**8
# The bytes of temporaries one block of a blocked loop may hold.  Each loop
# gives _block_len what one item holds at the block's peak, in float64s read
# by tracemalloc with a scan's row blocks written by _write_csv: a cm_scan
# term 8.0-9.6 per g argument (gives 10), an instance 0-1.5 per row (gives 2),
# a fuzz trial 268-790 at dmax 1-12 (120 + 5 per gamma argument), a query
# point of _lattice_rows (S, the simplex cdf) 3.4..3.9T at the deviance
# tables and 2N + 1.3..2.6T at their gather (T = (d + 1)(m + 1) table
# entries, N lattice rows; 2N >= T, so _lattice_floats gives 2N + 3T + 8),
# 3..11 (deg + 1) in a hypercube sum, its d axes' weights and one axis's
# gather (gives d times the d = 1 figure + 16), 1-2 + (d + 1)/8 in det or
# phi (gives d + 2), a CSV row 7.6-8.3 per float column, one more if
# strided (gives 10); blocks peak at 48-92%.
BLOCK_BYTES = 1 << 22
_TOL = 1e-12


class CapacityError(RuntimeError):
    """Raised when a size would exceed LATTICE_CAP: lattice rows, the bins of
    a box, the ln j! table, the operations of an integral or an identity
    check, a query grid, Dirichlet draws or the gamma arguments of a fuzz trial."""


def _float_format(n: int) -> str:
    """The row format of n float columns."""
    return ",".join(["%.17g"] * n)


def _write_csv(path: str, header: str, row_format: str, blocks, summary) -> None:
    """Header, the rows of each block and the line summary() returns (if summary).

    A block is an (R, C) ndarray, written in row slices whose text and
    temporaries fit in BLOCK_BYTES, each with one %: (row_format + newline)
    once per row, % its entries in row order.  A caller gives each column its
    conversion: %.17g for floats (every float keeps its bits), %s for ints
    and strings, which need an object block (a float block prints 3 as 3.0).
    summary is called after the last block.  Atomic: a temp file in the
    target directory, renamed, or removed if anything raises.
    """
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(header + "\n")
            # map, not a generator expression, keeps no slice while the next is made
            fh.writelines(map(functools.partial(_block_text, row_format + "\n"),
                              itertools.chain.from_iterable(map(_row_slices, blocks))))
            if summary is not None:
                fh.write(summary() + "\n")
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.strerror:
            # name the requested path, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _row_slices(block: np.ndarray):
    """block's rows in slices whose text and temporaries fit in BLOCK_BYTES."""
    step = _block_len(10 * block.shape[1])
    return (block[lo:lo + step] for lo in range(0, len(block), step))


def _block_text(line: str, block: np.ndarray) -> str:
    """line (a row format and newline) once per row of block, % its entries."""
    return (line * len(block)) % tuple(block.ravel().tolist())


def _check_out(path: str) -> None:
    """Raise, before any work, the OSError _write_csv(path, ...) would raise:
    its own for '' or a directory, and mkstemp's for a directory it cannot
    write, probed where os.access refuses it.  Leaves no file behind."""
    if not path or os.path.isdir(path):
        _write_csv(path, "", "", (), None)
    directory = os.path.dirname(path) or "."
    if os.access(directory, os.W_OK | os.X_OK):
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    os.close(fd)
    os.unlink(tmp)


def _coord_header(d: int) -> str:
    """x1,...,xd: the names of a sample or query grid's coordinate columns."""
    return ",".join(f"x{i + 1}" for i in range(d))


def _check_ints(lo: int = 1, hi=None, **named) -> None:
    """The one integer rule: ValueError, naming the value, unless each named
    value is an int, not a bool, in [lo, hi] (no upper bound if hi is None)."""
    for name, value in named.items():
        if (isinstance(value, bool) or not isinstance(value, int) or value < lo
                or (hi is not None and value > hi)):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _shape_checked(xs, d, point=False) -> np.ndarray:
    """xs as a float (P, d) array, d >= 1 (the given d if not None); with
    point, also one point (a length-d sequence, or a scalar as d = 1) as one
    row.  Another shape raises ValueError naming xs's own shape."""
    given = np.asarray(xs, dtype=float)
    xs = np.atleast_2d(given) if point else given
    if xs.ndim != 2 or xs.shape[1] < 1 or d not in (None, xs.shape[1]):
        want = "d" if d is None else f"d={d}"
        raise ValueError(f"points must be a (P, {want}) array with d >= 1, got shape {given.shape}")
    return xs


def _clamped(xs: np.ndarray, off: np.ndarray, where: str) -> np.ndarray:
    """xs clamped to [0, 1] (where, not clip: it keeps -0.0), or ValueError
    naming the first row that off marks as off the where."""
    if np.any(off):
        raise ValueError(f"point {xs[np.argmax(off)].tolist()} is off the {where}")
    return np.where(xs < 0.0, 0.0, np.where(xs > 1.0, 1.0, xs))


def _simplex_rows(xs, d=None, point=False) -> np.ndarray:
    """The (P, d+1) full coordinates of the (P, d) rows xs, d >= 1 (the given
    d if not None, one point as a row with point): the one closed-simplex
    point rule.  Another shape, or then a row with a non-finite entry, an
    entry below -_TOL or a sum above 1 + _TOL raises ValueError; entries are
    then clamped to [0, 1] and x_{d+1} = max(1 - ||x||, 0).  Sums run left to
    right, so a row's bits depend neither on the other rows nor on the Python
    version."""
    xs = _shape_checked(xs, d, point)
    with np.errstate(invalid="ignore", over="ignore"):
        off = (~np.all(np.isfinite(xs) & (xs >= -_TOL), axis=1)
               | (np.add.accumulate(xs, axis=1)[:, -1] > 1.0 + _TOL))
    xs = _clamped(xs, off, "closed simplex")
    last = np.maximum(1.0 - np.add.accumulate(xs, axis=1)[:, -1], 0.0)
    return np.column_stack([xs, last])


def _cube_rows(xs, d=None, point=False) -> np.ndarray:
    """The (P, d) rows xs, d >= 1 (the given d if not None, one point as a row
    with point), clamped to [0, 1]: the one hypercube point rule.  Another
    shape, or then a row with a non-finite entry or one outside [-_TOL,
    1 + _TOL], raises ValueError."""
    xs = _shape_checked(xs, d, point)
    # ~(in range), not (out of range): NaN is in no range
    return _clamped(xs, ~np.all((xs >= -_TOL) & (xs <= 1.0 + _TOL), axis=1), "unit cube")


def _weight_rows(gamma) -> np.ndarray:
    """[M | gamma] of a (T, D) weight matrix, D >= 2: the one weight rule.  A row
    with a non-finite or negative weight or M <= 0 raises ValueError.  M is the
    row's built-in sum (compensated from Python 3.12 on): zero padding keeps it."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[1] < 2:
        raise ValueError(f"need a (T, D) weight matrix with D >= 2, got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma) & (gamma >= 0.0)):
        raise ValueError("weights must be finite and nonnegative")
    M = np.array(list(map(sum, gamma.tolist())), dtype=float)
    if not np.all(M > 0.0):
        raise ValueError("total mass M must be positive")
    return np.column_stack([M, gamma])


@dataclass(frozen=True)
class SampleSet:
    """n observations on the simplex or hypercube, read-only (n, d) rows as the
    domain's rule returns them: _simplex_rows less its last column, or _cube_rows."""

    points: np.ndarray
    domain: str = "simplex"

    def __post_init__(self):
        if self.domain not in ("simplex", "hypercube"):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        pts = self.points
        pts = _simplex_rows(pts)[:, :-1] if self.domain == "simplex" else _cube_rows(pts)
        if len(pts) == 0:
            raise ValueError("points must be a nonempty (n, d) array with d >= 1")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path) -> None:
        """Write header x1,...,xd and one full-precision row per point, atomically."""
        _write_csv(path, _coord_header(self.d), _float_format(self.d), [self.points], None)

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


def _block_len(floats_per_item: int) -> int:
    """Items per block (at least one): BLOCK_BYTES less numpy's ufunc buffers."""
    return max(1, (BLOCK_BYTES - 3 * 8 * np.getbufsize()) // (8 * floats_per_item))


def _one_point(x, d) -> np.ndarray:
    """x, one point (a length-d sequence, or a scalar as d = 1), as one
    (1, d) row: with the shape rule, more than one point raises ValueError
    naming x's own shape.  The rows are x's unclamped coordinates."""
    row = _shape_checked(x, d, point=True)
    if np.ndim(x) > 1:
        raise ValueError(f"need one point, a length-{d} sequence, got shape {np.shape(x)}")
    return row


def _at_points(rule, x, d=None, point=True):
    """x's rows by rule (_simplex_rows or _cube_rows), checked before any other
    work, and evaluate(kernel, floats), which runs kernel on blocks of rows
    that hold floats float64s each at their peak: a float for one point x (a
    length-d sequence, or a scalar as d = 1; refused if not point), else a
    (P,) array.  A row's value may not depend on the other rows of its block:
    blocks change no bits."""
    rows = rule(x, d, point)
    def evaluate(kernel, floats):
        out = np.empty(len(rows))
        step = _block_len(floats)
        for lo in range(0, len(rows), step):
            out[lo:lo + step] = kernel(rows[lo:lo + step])
        return float(out[0]) if np.ndim(x) <= 1 else out
    return rows, evaluate


def lattice_array(d: int, m: int) -> np.ndarray:
    """Every k in N_0^d with ||k|| <= m, once and in lexicographic order, as
    the rows of an (N, d+1) int64 array (last column = m - ||k||).

    Built in d array steps from one empty prefix with budget m: each step
    repeats every prefix (budget + 1) times, appends v = 0..budget as a new
    column and takes v from the budget, which ends as the last column.
    """
    _check_ints(d=d)
    _check_ints(0, m=m)
    _check_capacity(lattice_size(d, m), f"lattice rows for d={d}, m={m}")
    cols = []
    budget = np.array([m], dtype=np.int64)
    for _ in range(d):
        reps = budget + 1
        starts = np.repeat(np.cumsum(reps) - reps, reps)
        v = np.arange(starts.size, dtype=np.int64) - starts
        cols = [np.repeat(c, reps) for c in cols] + [v]
        budget = np.repeat(budget, reps) - v
    return np.column_stack(cols + [budget])


def log_factorial_table(n: int) -> np.ndarray:
    """lf[j] = ln(j!) for j = 0..n, with the bits of log_gamma(j + 1.0); more
    than LATTICE_CAP entries raise CapacityError before any work."""
    _check_ints(0, n=n)
    _check_capacity(n + 1, f"ln j! table entries for n={n}")
    return log_gamma(np.arange(n + 1) + 1.0)


# delta(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi), the error of Stirling's
# formula, for n = 1..11 (40-digit values, rounded); from n = 12 on it is
# specfun's Stirling tail, the series of ln Gamma(n + 1) past those terms
_STIRLING_ERRORS = np.array([
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841])
# 1/17, 1/15, ..., 1/3: (atanh(v) - v) / v^3 in Horner order, within 1e-17 for |v| < 0.1
_ATANH_TAIL = tuple(1.0 / k for k in range(17, 2, -2))


def _stirling_errors(n: np.ndarray) -> np.ndarray:
    """delta(n) at the positive integers n."""
    delta = _stirling_tail(n + 0.0)
    small = n < 12
    delta[small] = _STIRLING_ERRORS[n[small] - 1]
    return delta


def _poisson_weights(ranks: Sequence[int], m: int):
    """(w, scale), w for j = 0..m, of the product over f in ranks of the
    multinomial pmfs P_{fk,fm}(x) in Poisson form, t = sum(ranks):

        prod_f P_{fk,fm}(x) = scale * prod_i w[k_i] e^{-t D(k_i, m x_i)},

    D the Poisson deviance (_deviance).  As sum_i x_i = 1, P_{fk,fm}(x) =
    (fm)! e^{fm} / (fm)^{fm} * prod_i Pois(f k_i; fm x_i), and by Stirling's
    formula with its error delta, prod_f Pois(fj; fmx) = w[j] e^{-t D(j, mx)}:
    w[0] = 1 and w[j] = e^{-sum_f delta(fj)} / prod_f sqrt(2 pi f j).  The
    k-free factor is scale = prod_f sqrt(2 pi f m) e^{delta(fm)}, 1 at m = 0.
    Ranks (1,) give the plain pmf, (r, s) the terms of S_{r,s,m}.  No large
    logarithm is formed, so none is left to cancel."""
    n = len(ranks)
    j = np.arange(1, m + 1)
    delta = sum(_stirling_errors(f * j) for f in ranks)
    c = (2.0 * math.pi) ** (n / 2) * math.sqrt(math.prod(ranks))
    w = np.concatenate([[1.0], np.exp(-delta) / (c * j ** (n / 2))])
    return w, c * m ** (n / 2) * math.exp(delta[-1]) if m else 1.0


def _deviance(j: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """D(j, mu) = j ln(j/mu) + mu - j >= 0, broadcast, mu >= +0.0.  Near the
    mode, where |v| < 0.1 for v = (j - mu)/(j + mu), it is summed as
    v (j - mu) + 2j (atanh v - v), so a small D keeps its relative accuracy;
    D(0, mu) = mu, and D(j, mu) = inf for j > 0 where j/mu overflows (mu = 0
    included).  Built in place, the series only where it is kept: three
    arrays of the broadcast shape at the peak."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dev = j / mu
        np.log(dev, out=dev)
        dev *= j
        gap = j - mu
        dev -= gap
        v = j + mu
        np.divide(gap, v, out=v)
        near = (v > -0.1) & (v < 0.1)
        v, gap = v[near], gap[near]
        v2 = v * v
        tail = _ATANH_TAIL[0]
        for c in _ATANH_TAIL[1:]:
            tail = tail * v2 + c
        dev[near] = (gap + 2.0 * np.broadcast_to(j, dev.shape)[near] * v2 * tail) * v
    dev[..., 0] = mu[..., 0]
    return dev


def _lattice_rows(t: int, w: np.ndarray, lat: np.ndarray, full: np.ndarray) -> np.ndarray:
    """The (P, N) products prod_i w[k_i] e^{-t D(k_i, m x_i)} at the full
    coordinate rows full (P, d+1) and the rows k of lat (N, d+1) summing to
    m, from _poisson_weights' w and t = sum(ranks), unscaled: per row, a table
    of m+1 entries for each coordinate, gathered over the lattice rows and
    multiplied, one exp per table entry and none per lattice row.  np.take
    along axis 1 returns C-order rows, so a row's bits do not depend on the
    other rows of the call."""
    m = len(w) - 1
    # coordinate-major, so each coordinate's (P, m+1) table is contiguous and
    # np.take does not copy it; + 0.0: the point rule keeps a -0.0
    # coordinate, and D(j, -0.0) is NaN
    table = _deviance(np.arange(m + 1.0), m * full.T[:, :, None] + 0.0)
    table *= -t
    np.exp(table, out=table)
    table *= w
    prod = np.take(table[0], lat[:, 0], axis=1)
    for i in range(1, len(table)):
        prod *= np.take(table[i], lat[:, i], axis=1)
    return prod


def _lattice_floats(lat: np.ndarray, w: np.ndarray) -> int:
    """The float64s a row of _lattice_rows holds at its peak: 2N + 3(d + 1)(m + 1) + 8."""
    return 2 * len(lat) + 3 * lat.shape[1] * len(w) + 8


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
    _check_ints(n=n)
    _check_capacity(n * len(alpha), f"Dirichlet draws for n={n} and {len(alpha)} coordinates")
    rng = np.random.Generator(np.random.PCG64(seed))
    g = rng.gamma(shape=np.array(alpha), size=(n, len(alpha)))
    g /= g.sum(axis=1, keepdims=True)
    return SampleSet(points=g[:, :-1], domain="simplex")
