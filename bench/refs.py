"""Output checks against references that share no code with bernsimplex.

Every check reads a CSV the CLI wrote and compares its values with a
reference computed here from the invocation's inputs: closed forms in
``mpmath`` at 30 digits, exact integer and rational arithmetic, or a
direct ``mpmath`` sum of the defining formula. Seeded inputs the CLI draws
itself (cm-scan instances, fuzz trials, Dirichlet samples) are redrawn here
from the documented sampling protocol with numpy's PCG64 generator, and the
drawn values the CSV echoes (d, M, sample coordinates) must match them
exactly. A fast path that is wrong therefore cannot agree with itself.

Each check raises ``CheckError`` at the first wrong exit code, verdict,
layout or value, and records in ``Worst`` the largest
``|output - reference| / tolerance`` over the values it compared.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import mpmath
import numpy as np

from workloads import CM_ORDER

mpmath.mp.dps = 30

# tolerances, from the acceptance criteria and the package's own gates
REL_TOL_INTEGRAL = 1e-11  # criterion 02: exact vs closed-form integral
REL_TOL_S_POINT = 1e-11  # same accuracy for the pointwise lattice sum
ABS_TOL_ESTIMATE = 1e-12  # criterion 12: estimator identities
TOL_DUPLICATION = 1e-12  # criterion 11: duplication residual
FUZZ_TOL = 1e-10  # ineq.FUZZ_TOL: absolute margin tolerance
DERIV_REL_TOL = 1e-11  # criterion 11 polygamma tolerance, relative to the term scale
DIFF_REL_TOL = 1e-12  # forward differences of g, relative to the sum of |terms|
SAMPLE_ABS_TOL = 1e-15

DIFF_STEP = 0.05  # monotone.DIFF_STEP: the certificate's documented step
DERIV_FLOOR_REL = 1e-14  # monotone.DERIV_FLOOR_REL
CERT_DIFF_TOL = 1e-7  # monotone.DIFF_REL_TOL
MAX_DIFF_ORDER = 6

CM_SPOT_ROWS = 60
FUZZ_SPOT_TRIALS = 100


class CheckError(Exception):
    pass


def _read_csv(path):
    """(header, rows, summary) of a CLI CSV; rows are lists of strings."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise CheckError(f"no output {path}") from None
    if not lines:
        raise CheckError(f"empty output {path}")
    summary = None
    rows = []
    for line in lines[1:]:
        if line.startswith("# summary:"):
            summary = line[len("# summary:"):].strip()
        else:
            rows.append(line.split(","))
    return lines[0].split(","), rows, summary


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


def _status(summary: str, rc: int) -> None:
    _expect(summary is not None, "missing summary line")
    status = summary.split(",")[0].strip()
    _expect(status == ("pass" if rc == 0 else "fail"), f"summary {status!r} vs exit {rc}")


class Worst:
    """The largest |output - reference| / tolerance seen, and where."""

    def __init__(self):
        self.value = 0.0
        self.where = None

    def add(self, out: float, ref, tol: float, what: str) -> None:
        ratio = float(abs(mpmath.mpf(out) - ref) / tol)
        if not ratio <= 1.0:
            raise CheckError(f"{what}: output {out!r} vs reference {mpmath.nstr(ref, 20)}"
                             f" is {ratio:.3g} x tolerance")
        if ratio >= self.value:
            self.value, self.where = ratio, what


# ---------------------------------------------------------------- cm-scan
def _grid(spec: str):
    start, stop, step = (float(t) for t in spec.split(":"))
    return [start + i * step for i in range(int(round((stop - start) / step)) + 1)]


def _cm_instances(seed: int, d: int, count: int):
    """The documented draw: M log-uniform on [0.1, 10], gamma = M * Dir(1),
    x = Dir(1); the point keeps d coordinates and derives the last."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        m_total = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        gamma = [float(g) for g in m_total * rng.dirichlet(np.ones(d + 1))]
        x = [min(max(float(c), 0.0), 1.0) for c in rng.dirichlet(np.ones(d + 1))[:-1]]
        x.append(max(1.0 - sum(x), 0.0))
        out.append((gamma, sum(gamma), x))
    return out


def _h_terms(inst, a, n, corrupt):
    """The signed terms of h^(n)(a) for h = -log g."""
    gamma, M, x = inst
    a = mpmath.mpf(a)
    terms = [-(mpmath.mpf(M) ** n) * mpmath.polygamma(n - 1, a * M + 1)]
    for g, xi in zip(gamma, x):
        if g > 0.0:
            terms.append(mpmath.mpf(g) ** n * mpmath.polygamma(n - 1, a * g + 1))
            if n == 1:
                terms.append((1 if corrupt else -1) * mpmath.mpf(g) * mpmath.log(xi))
    return terms


def _g(inst, a, corrupt):
    gamma, M, x = inst
    a = mpmath.mpf(a)
    out = mpmath.loggamma(a * M + 1)
    for g, xi in zip(gamma, x):
        if g > 0.0:
            out += -mpmath.loggamma(a * g + 1) + (-1 if corrupt else 1) * a * g * mpmath.log(xi)
    return mpmath.exp(out)


def check_cm_scan(inv, path, rc, rng, worst):
    p = inv.params
    _, rows, summary = _read_csv(path)
    _status(summary, rc)
    grid = _grid(inv.argv[inv.argv.index("--grid") + 1])
    diff_order = min(CM_ORDER, MAX_DIFF_ORDER)
    per_a = [(n, "d") for n in range(1, CM_ORDER + 1)] + [(-n, "f") for n in range(1, diff_order + 1)]
    _expect(len(rows) == p["instances"] * len(grid) * len(per_a),
            f"{len(rows)} rows, expected {p['instances'] * len(grid) * len(per_a)}")
    margins = []
    i = 0
    for inst in range(p["instances"]):
        for a in grid:
            for order, _ in per_a:
                row = rows[i]
                i += 1
                _expect(int(row[0]) == inst and float(row[1]) == a and int(row[2]) == order,
                        f"row {i} is {row[:3]}, expected {inst},{a!r},{order}")
                margins.append(float(row[4]))
    low = min(margins)
    if p["corrupt"]:
        _expect(low < 0.0, "corrupted scan reports no violation")
    else:
        _expect(low >= 0.0, f"scan of a completely monotone g reports margin {low!r}")
    _expect(float(summary.split("max_violation=")[1]) == min(low, 0.0),
            "summary max_violation is not the least margin")
    insts = _cm_instances(p["seed"], p["d"], p["instances"])
    for idx in rng.choice(len(rows), size=min(CM_SPOT_ROWS, len(rows)), replace=False):
        row = rows[int(idx)]
        inst = insts[int(row[0])]
        a, order, value, margin = float(row[1]), int(row[2]), float(row[3]), float(row[4])
        if order > 0:
            terms = _h_terms(inst, a, order, p["corrupt"])
            ref = (-1) ** (order - 1) * mpmath.fsum(terms)
            scale = max(abs(t) for t in terms)
            tol = DERIV_REL_TOL * max(scale, 1)
            floor = DERIV_FLOOR_REL * max(scale, 1)
        else:
            n = -order
            gv = [_g(inst, a + j * DIFF_STEP, p["corrupt"]) for j in range(n + 1)]
            terms = [(-1) ** (n - j) * math.comb(n, j) * gv[j] for j in range(n + 1)]
            ref = (-1) ** n * mpmath.fsum(terms)
            # float64 rounding of the alternating sum scales with its terms,
            # not with g(a): a corrupted g grows so fast that they dwarf g(a)
            tol = DIFF_REL_TOL * sum(abs(t) for t in terms)
            floor = CERT_DIFF_TOL * gv[0]
        worst.add(value, ref, tol, f"cm-scan a={a!r} order={order}")
        worst.add(margin, ref + floor, tol, f"cm-scan margin a={a!r} order={order}")


# -------------------------------------------------------------- ineq-fuzz
def _log_coeff(gamma, M, a):
    a = mpmath.mpf(a)
    out = mpmath.loggamma(a * M + 1)
    for g in gamma:
        if g > 0.0:
            out -= mpmath.loggamma(a * g + 1)
    return out


def check_ineq_fuzz(inv, path, rc, rng, worst):
    p = inv.params
    _, rows, summary = _read_csv(path)
    _status(summary, rc)
    _expect(len(rows) == 3 * p["trials"], f"{len(rows)} rows for {p['trials']} trials")
    margins = [float(r[4]) for r in rows]
    _expect(min(margins) >= -FUZZ_TOL, f"fuzz margin {min(margins)!r} below -{FUZZ_TOL}")
    _expect(float(summary.split("min_margin=")[1]) == min(margins), "summary min_margin")
    spot = set(int(t) for t in rng.choice(p["trials"], size=min(FUZZ_SPOT_TRIALS, p["trials"]),
                                          replace=False))
    # the documented per-trial protocol of ineq.fuzz_inequalities
    draw = np.random.Generator(np.random.PCG64(p["seed"]))
    lo, hi = math.log(0.05), math.log(20.0)
    for t in range(p["trials"]):
        d = int(draw.integers(1, p["dmax"] + 1))
        M = float(np.exp(draw.uniform(math.log(0.1), math.log(50.0))))
        gamma = [float(g) for g in M * draw.dirichlet(np.ones(d + 1))]
        k = int(draw.integers(2, 6))
        a = [float(v) for v in np.exp(draw.uniform(lo, hi, size=k))]
        lam = [float(v) for v in draw.dirichlet(np.ones(k))]
        a1, a3 = sorted(float(v) for v in np.exp(draw.uniform(lo, hi, size=2)))
        a2 = float(np.exp(draw.uniform(lo, hi)))
        trial_rows = rows[3 * t: 3 * t + 3]
        for row, tag in zip(trial_rows, "abc"):
            _expect(int(row[0]) == t and int(row[1]) == d and float(row[2]) == M
                    and row[3] == tag, f"trial {t} row {row[:4]} does not match its draw")
        if t not in spot:
            continue
        Mw = sum(gamma)
        lc = lambda v: _log_coeff(gamma, Mw, v)  # noqa: E731
        mix = sum(l * v for l, v in zip(lam, a))
        refs = (
            mpmath.fsum(mpmath.mpf(l) * lc(v) for l, v in zip(lam, a)) - lc(mix),
            lc(sum(a)) - mpmath.fsum(lc(v) for v in a),
            lc(a1) + lc(a2 + a3) - lc(a1 + a2) - lc(a3),
        )
        for row, ref in zip(trial_rows, refs):
            worst.add(float(row[4]), ref, FUZZ_TOL, f"fuzz trial {t} check {row[3]}")


# --------------------------------------------------------- identity-check
def check_identity(inv, path, rc, rng, worst):
    p = inv.params
    _, rows, summary = _read_csv(path)
    _status(summary, rc)
    m_max = p["m_max"]
    c = [math.comb(2 * j, j) for j in range(m_max + 1)]
    i = 0
    series = list(c)
    for d in range(1, p["d_max"] + 1):
        nxt = [0] * (m_max + 1)
        for u, su in enumerate(series):
            for v in range(m_max + 1 - u):
                nxt[u + v] += su * c[v]
        series = nxt  # coefficients of C(z)^(d+1)
        for m in range(1, m_max + 1):
            rhs = Fraction(4) ** m
            for j in range(1, m + 1):
                rhs *= Fraction(d - 1 + 2 * j, 2 * j)
            expect = "exact" if Fraction(series[m]) == rhs else "MISMATCH"
            _expect(rows[i][:4] == ["central-binomial", str(d), str(m), expect],
                    f"identity row {rows[i]} vs {expect} at d={d} m={m}")
            i += 1
    dup = rows[i]
    _expect(dup[0] == "duplication" and len(rows) == i + 1, "duplication row")
    worst.add(float(dup[3].split("=")[1]), mpmath.mpf(0), TOL_DUPLICATION, "duplication residual")


# ---------------------------------------------------------------- s-table
def _closed_form(d, m):
    h = mpmath.mpf(d) / 2
    return (mpmath.mpf(2) ** -d * mpmath.sqrt(mpmath.pi) * mpmath.gamma(m + 1)
            / (mpmath.gamma(h + mpmath.mpf(1) / 2) * mpmath.gamma(m + h + 1)))


def check_s_table(inv, path, rc, rng, worst):
    p = inv.params
    d = p["d"]
    _, rows, summary = _read_csv(path)
    _status(summary, rc)
    _expect([int(r[3]) for r in rows] == p["m_list"], "s-table m column")
    limit_ref = mpmath.mpf(2) ** -d * mpmath.sqrt(mpmath.pi) / mpmath.gamma(mpmath.mpf(d + 1) / 2)
    scaled_ref = []
    for row in rows:
        m = int(row[3])
        value, limit, se = float(row[4]), float(row[5]), float(row[6])
        ref = mpmath.mpf(m) ** (mpmath.mpf(d) / 2) * _closed_form(d, m)
        worst.add(value, ref, REL_TOL_INTEGRAL * ref, f"s-table d={d} m={m}")
        worst.add(limit, limit_ref, REL_TOL_INTEGRAL * limit_ref, f"s-table limit d={d}")
        _expect(se == m * abs(value - limit), f"s-table scaled_error at m={m}")
        scaled_ref.append(m * abs(ref - limit_ref))
    bounded = max(scaled_ref) <= 2 * scaled_ref[0] + mpmath.mpf("1e-12")
    _expect(bounded == (rc == 0), f"s-table verdict {rc} vs reference bounded={bounded}")


# ----------------------------------------------------------- lclt-compare
def _s_barycenter(r, s, m, d) -> Fraction:
    """S_{r,s,m} at the barycenter, exactly.

    With multinomials M(n; k) the sum is
    sum_k M(rm; rk) M(sm; sk) / (d+1)^((r+s)m); peeling off the first
    coordinate gives T_d(m) = sum_j C(rm, rj) C(sm, sj) T_{d-1}(m - j) with
    T_0 = 1, in exact integers.
    """
    def step(n, prev):
        return sum(math.comb(r * n, r * j) * math.comb(s * n, s * j) * prev[n - j]
                   for j in range(n + 1))

    level = [1] * (m + 1)  # T_0
    for _ in range(d - 1):
        level = [step(n, level) for n in range(m + 1)]
    return Fraction(step(m, level), (d + 1) ** ((r + s) * m))


def check_lclt(inv, path, rc, rng, worst):
    p = inv.params
    d, r, s = p["d"], p["r"], p["s"]
    _, rows, summary = _read_csv(path)
    _status(summary, rc)
    _expect([int(row[3]) for row in rows] == p["m_list"], "lclt m column")
    x = mpmath.mpf(1) / (d + 1)
    phi_ref = (mpmath.mpf(math.gcd(r, s)) ** d
               / ((2 * mpmath.pi) ** (mpmath.mpf(d) / 2)
                  * mpmath.sqrt(mpmath.mpf(r * s * (r + s)) ** d * x ** (d + 1))))
    errs = []
    for row in rows:
        m = int(row[3])
        value, phi, err = float(row[4]), float(row[5]), float(row[6])
        exact = _s_barycenter(r, s, m, d)
        ref = mpmath.mpf(m) ** (mpmath.mpf(d) / 2) * mpmath.mpf(exact.numerator) / exact.denominator
        worst.add(value, ref, REL_TOL_S_POINT * ref, f"lclt d={d} r={r} s={s} m={m}")
        worst.add(phi, phi_ref, REL_TOL_S_POINT * phi_ref, f"lclt phi d={d} r={r} s={s}")
        _expect(err == abs(value - phi), f"lclt abs_error at m={m}")
        errs.append(abs(ref - phi_ref))
    decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    _expect(decreasing == (rc == 0), f"lclt verdict {rc} vs reference decreasing={decreasing}")


# ------------------------------------------------------------- sample-gen
def read_samples(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        pts = np.loadtxt(fh, delimiter=",", ndmin=2)
    _expect(header == [f"x{i + 1}" for i in range(pts.shape[1])], f"sample header {header}")
    return pts


def check_sample_gen(inv, path, rc, rng, worst):
    p = inv.params
    _expect(rc == 0, f"sample-gen exit {rc}")
    pts = read_samples(path)
    draw = np.random.Generator(np.random.PCG64(p["seed"]))
    g = draw.gamma(shape=np.array(p["alpha"]), size=(p["n"], len(p["alpha"])))
    ref = (g / g.sum(axis=1, keepdims=True))[:, :-1]
    _expect(pts.shape == ref.shape, f"samples shape {pts.shape} vs {ref.shape}")
    diff = float(np.max(np.abs(pts - ref)))
    worst.add(diff, mpmath.mpf(0), SAMPLE_ABS_TOL, "Dirichlet samples")


# --------------------------------------------------------------- estimate
def _lattice(d, m):
    """All k in N^d with |k| <= m, first coordinate slowest."""
    if d == 1:
        return [(k,) for k in range(m + 1)]
    return [(v,) + rest for v in range(m + 1) for rest in _lattice(d - 1, m - v)]


def _ecdf_counts(samples: np.ndarray, ys: np.ndarray) -> np.ndarray:
    out = np.empty(len(ys), dtype=np.int64)
    for lo in range(0, len(ys), 256):
        blk = ys[lo:lo + 256]
        out[lo:lo + 256] = np.all(samples[None, :, :] <= blk[:, None, :], axis=2).sum(axis=1)
    return out


def _binom_weights(m, x):
    x = mpmath.mpf(x)
    return [mpmath.binomial(m, k) * x**k * (1 - x) ** (m - k) for k in range(m + 1)]


def check_estimate(inv, path, rc, rng, worst, samples):
    p = inv.params
    d, m, kind, res = p["d"], p["m"], p["kind"], p["resolution"]
    _expect(rc == 0, f"estimate exit {rc}")
    header, rows, _ = _read_csv(path)
    _expect(header == [f"x{i + 1}" for i in range(d)] + ["value"], f"estimate header {header}")
    pts = np.array([[float(v) for v in row[:d]] for row in rows])
    values = [float(row[d]) for row in rows]
    n = samples.shape[0]
    if kind == "simplex-cdf":
        k = np.array(_lattice(d, res - 1), dtype=float)
        xs = (k + 0.5) / res
        grid = xs[xs.sum(axis=1) <= 1.0 - 0.5 / res]
        _expect(pts.shape == grid.shape and np.array_equal(pts, grid), "simplex query grid")
        lat = _lattice(d, m)
        fn = _ecdf_counts(samples, np.array(lat, dtype=float) / m)
        lf = [mpmath.log(mpmath.factorial(j)) for j in range(m + 1)]
        for x, out in zip(pts, values):
            full = [float(c) for c in x] + [max(1.0 - sum(float(c) for c in x), 0.0)]
            lx = [mpmath.log(c) for c in full]
            acc = mpmath.mpf(0)
            for kk, cnt in zip(lat, fn):
                if cnt:
                    kf = kk + (m - sum(kk),)
                    acc += int(cnt) * mpmath.exp(
                        lf[m] - mpmath.fsum(lf[v] for v in kf)
                        + mpmath.fsum(v * l for v, l in zip(kf, lx)))
            worst.add(out, acc / n, ABS_TOL_ESTIMATE, f"{kind} d={d} m={m} at {[float(c) for c in x]}")
        return
    axis = np.linspace(0.0, 1.0, res)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    _expect(pts.shape == grid.shape and np.array_equal(pts, grid), "hypercube query grid")
    if kind == "hypercube-cdf":
        cells = list(np.ndindex(*(m + 1,) * d))
        mass = _ecdf_counts(samples, np.array(cells, dtype=float) / m)
        deg, scale = m, 1
    else:
        # cells (k/m, (k+1)/m] per axis; a coordinate at 0 lies in none
        bounds = np.arange(1, m) / m
        idx = np.stack([np.searchsorted(bounds, samples[:, i], side="left")
                        for i in range(d)], axis=1)
        inside = np.all(samples > 0.0, axis=1)
        cells = list(np.ndindex(*(m,) * d))
        counts = {}
        for row in idx[inside]:
            counts[tuple(int(v) for v in row)] = counts.get(tuple(int(v) for v in row), 0) + 1
        mass = [counts.get(c, 0) for c in cells]
        deg, scale = m - 1, m**d
    for x, out in zip(pts, values):
        w = [_binom_weights(deg, c) for c in x]
        acc = mpmath.mpf(0)
        for cell, cnt in zip(cells, mass):
            if cnt:
                term = mpmath.mpf(int(cnt))
                for i, ki in enumerate(cell):
                    term *= w[i][ki]
                acc += term
        ref = acc * scale / n
        worst.add(out, ref, ABS_TOL_ESTIMATE * max(1, abs(ref)), f"{kind} d={d} m={m} at {[float(c) for c in x]}")


CHECKS = {
    "cm-scan": check_cm_scan,
    "ineq-fuzz": check_ineq_fuzz,
    "identity-check": check_identity,
    "s-table": check_s_table,
    "lclt-compare": check_lclt,
    "sample-gen": check_sample_gen,
}


def check_invocation(inv, pass_dir, rc, rng, worst) -> None:
    """Raise CheckError unless the invocation's exit code and output are right."""
    _expect(rc == inv.expect_rc, f"exit code {rc}, expected {inv.expect_rc}")
    path = os.path.join(pass_dir, inv.out)
    sub = inv.argv[0]
    if sub == "estimate":
        samples = read_samples(os.path.join(pass_dir, f"samples_d{inv.params['d']}.csv"))
        check_estimate(inv, path, rc, rng, worst, samples)
    else:
        CHECKS[sub](inv, path, rc, rng, worst)
