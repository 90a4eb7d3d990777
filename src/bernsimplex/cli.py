"""Command-line surface for the verification suites and experiments.

Subcommands: cm-scan, ineq-fuzz, s-table, lclt-compare, identity-check,
estimate, sample-gen.  Exit codes: 0 = pass, 1 = a verified mathematical
property failed, 2 = usage/validation error (no output file is written in
that case).  Flags beat config-file entries (plain key=value lines), which
beat built-in defaults; BERNSIMPLEX_OUTDIR redirects relative output paths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import estimate as est
from . import ineq, monotone, spoly
from .simplex import CapacityError, SampleSet, SimplexPoint, WeightVector, sample_dirichlet

__all__ = ["main"]

OUTDIR_ENV = "BERNSIMPLEX_OUTDIR"


class UsageError(Exception):
    pass


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _resolve_out(path: str) -> str:
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _write_csv(path: str, lines) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    path = _resolve_out(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_grid_spec(spec: str):
    """'start:stop:step' -> ascending grid including stop (within step/2)."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except Exception as exc:
        raise UsageError(f"bad grid spec {spec!r}, expected start:stop:step") from exc
    if step <= 0 or stop < start or start <= 0:
        raise UsageError(f"bad grid spec {spec!r}")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def _parse_int_list(spec: str):
    try:
        vals = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad integer list {spec!r}") from exc
    if not vals:
        raise UsageError("empty list")
    return vals


def _apply_config(args: argparse.Namespace) -> None:
    """Fill still-unset options from a key=value config file (flags win)."""
    if not getattr(args, "config", None):
        return
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    with open(args.config) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            key = key.replace("-", "_")
            if getattr(args, key, None) is None:
                setattr(args, key, value)


def _random_instance(rng, d: int) -> monotone.MonotoneInstance:
    m_total = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    gamma = m_total * rng.dirichlet(np.ones(d + 1))
    x = rng.dirichlet(np.ones(d + 1))
    return monotone.MonotoneInstance(WeightVector(gamma), SimplexPoint(x[:-1]))


def _cmd_cm_scan(args) -> int:
    d = int(args.d)
    instances = int(args.instances)
    max_order = int(args.max_order)
    if d < 1:
        raise UsageError(f"need d >= 1, got {d}")
    if instances < 1:
        raise UsageError("need at least one instance")
    if not 1 <= max_order <= monotone.MAX_H_ORDER:
        raise UsageError(f"max-order must be in [1, {monotone.MAX_H_ORDER}]")
    grid = _parse_grid_spec(args.grid)
    rng = np.random.Generator(np.random.PCG64(int(args.seed)))
    lines = ["instance,a,order,value,margin"]
    ok = True
    worst = 0.0
    for i in range(instances):
        inst = _random_instance(rng, d)
        report = monotone.cm_scan(inst, grid, max_order=max_order, corrupt=args.self_test_corrupt)
        ok = ok and report.passed
        worst = min(worst, report.max_violation)
        for a, order, value, margin in report.rows:
            lines.append(f"{i},{_fmt(a)},{order},{_fmt(value)},{_fmt(margin)}")
    status = "pass" if ok else "fail"
    lines.append(f"# summary: {status}, max_violation={worst:.17g}")
    _write_csv(args.out, lines)
    print(f"cm-scan: {status} over {instances} instances, max_violation={worst:.17g}")
    return 0 if ok else 1


def _cmd_ineq_fuzz(args) -> int:
    trials = int(args.trials)
    dmax = int(args.dmax)
    if trials < 1:
        raise UsageError("need trials >= 1")
    if dmax < 1:
        raise UsageError("need dmax >= 1")
    report = ineq.fuzz_inequalities(trials, dmax, int(args.seed), corrupt=args.self_test_corrupt)
    lines = ["trial,d,M,check,margin"]
    min_margin = math.inf
    for t, d, m_total, check, margin in report.rows:
        min_margin = min(min_margin, margin)
        lines.append(f"{t},{d},{_fmt(m_total)},{check},{_fmt(margin)}")
    status = "pass" if report.passed else "fail"
    lines.append(f"# summary: {status}, min_margin={min_margin:.17g}")
    _write_csv(args.out, lines)
    print(f"ineq-fuzz: {status} over {trials} trials, min margin={min_margin:.17g}")
    return 0 if report.passed else 1


def _cmd_s_table(args) -> int:
    d, r, s = int(args.d), int(args.r), int(args.s)
    if min(d, r, s) < 1:
        raise UsageError("d, r, s must be >= 1")
    m_list = _parse_int_list(args.m_list)
    if any(m < 1 for m in m_list):
        raise UsageError("all m must be >= 1")
    limit = spoly.asymptotic_constant(d)
    lines = ["d,r,s,m,value,limit,scaled_error"]
    scaled = []
    for m in m_list:
        value = m ** (d / 2.0) * spoly.s_integral_exact(spoly.SPolyParams(r, s, m, d))
        se = m * abs(value - limit)
        scaled.append(se)
        lines.append(f"{d},{r},{s},{m},{_fmt(value)},{_fmt(limit)},{_fmt(se)}")
    bounded = max(scaled) <= 2.0 * scaled[0] + 1e-12
    status = "pass" if bounded else "fail"
    lines.append(f"# summary: {status}, max_scaled_error={max(scaled):.17g}")
    _write_csv(args.out, lines)
    print(f"s-table: {status}, scaled errors {['%.6g' % v for v in scaled]}")
    return 0 if bounded else 1


def _cmd_lclt_compare(args) -> int:
    d, r, s = int(args.d), int(args.r), int(args.s)
    if min(d, r, s) < 1:
        raise UsageError("d, r, s must be >= 1")
    m_list = _parse_int_list(args.m_list)
    bary = SimplexPoint([1.0 / (d + 1)] * d)
    phi = spoly.phi_eval(r, s, bary)
    lines = ["d,r,s,m,scaled_value,phi,abs_error"]
    errs = []
    for m in m_list:
        value = m ** (d / 2.0) * spoly.s_eval(spoly.SPolyParams(r, s, m, d), bary)
        errs.append(abs(value - phi))
        lines.append(f"{d},{r},{s},{m},{_fmt(value)},{_fmt(phi)},{_fmt(errs[-1])}")
    decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    status = "pass" if decreasing else "fail"
    lines.append(f"# summary: {status}")
    _write_csv(args.out, lines)
    print(f"lclt-compare: {status}, errors {['%.6g' % v for v in errs]}")
    return 0 if decreasing else 1


def _cmd_identity_check(args) -> int:
    d_max, m_max = int(args.d_max), int(args.m_max)
    if d_max < 1 or m_max < 1:
        raise UsageError("d-max and m-max must be >= 1")
    lines = ["kind,d,m,detail"]
    ok = True
    for d in range(1, d_max + 1):
        for m in range(1, m_max + 1):
            rep = spoly.central_binomial_identity(d, m)
            ok = ok and rep["equal"]
            lines.append(f"central-binomial,{d},{m},{'exact' if rep['equal'] else 'MISMATCH'}")
    from .specfun import duplication_residual

    worst = 0.0
    for i in range(1000):
        y = 10.0 ** (-3.0 + 9.0 * i / 999.0)
        worst = max(worst, abs(duplication_residual(y)))
    dup_ok = worst <= 1e-12
    ok = ok and dup_ok
    lines.append(f"duplication,, ,max_residual={worst:.17g}")
    status = "pass" if ok else "fail"
    lines.append(f"# summary: {status}")
    _write_csv(args.out, lines)
    print(f"identity-check: {status} (duplication max residual {worst:.3g})")
    return 0 if ok else 1


def _cmd_estimate(args) -> int:
    if not args.samples or not os.path.exists(args.samples):
        raise UsageError(f"samples file not found: {args.samples!r}")
    kind = args.kind
    if kind not in est.ESTIMATOR_KINDS:
        raise UsageError(f"kind must be one of {est.ESTIMATOR_KINDS}")
    m = int(args.m)
    resolution = int(args.grid)
    if m < 1 or resolution < 2:
        raise UsageError("need m >= 1 and grid resolution >= 2")
    domain = "simplex" if kind == "simplex-cdf" else "hypercube"
    samples = SampleSet.from_csv(args.samples, domain=domain)
    d = samples.d
    if kind == "simplex-cdf":
        grid_pts = spoly.simplex_midpoint_grid(d, resolution)[:, :-1]
        values = est.bernstein_cdf_simplex(samples, m, grid_pts)
    else:
        axes = [np.linspace(0.0, 1.0, resolution) for _ in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid_pts = np.stack([g.ravel() for g in mesh], axis=1)
        fn = est.bernstein_cdf_hypercube if kind == "hypercube-cdf" else est.bernstein_density_hypercube
        values = fn(samples, m, grid_pts)
    header = ",".join(f"x{i + 1}" for i in range(d)) + ",value"
    lines = [header]
    for row, v in zip(grid_pts, values):
        lines.append(",".join(_fmt(float(c)) for c in row) + f",{_fmt(float(v))}")
    _write_csv(args.out, lines)
    print(f"estimate: wrote {len(values)} grid values to {args.out}")
    return 0


def _cmd_sample_gen(args) -> int:
    try:
        alpha = [float(tok) for tok in args.alpha.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad alpha list {args.alpha!r}") from exc
    n = int(args.n)
    if len(alpha) < 2 or any(a <= 0 for a in alpha) or n < 1:
        raise UsageError("need >= 2 positive alpha entries and n >= 1")
    samples = sample_dirichlet(alpha, n, int(args.seed))
    samples.to_csv(_resolve_out(args.out))
    print(f"sample-gen: wrote {n} Dirichlet draws to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bernsimplex")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("cm-scan", help="complete-monotonicity scan on random instances")
    common(p)
    p.add_argument("--d", default=None)
    p.add_argument("--instances", default=None)
    p.add_argument("--grid", default=None, help="a-grid as start:stop:step")
    p.add_argument("--max-order", dest="max_order", default=None)
    p.add_argument("--self-test-corrupt", action="store_true")
    p.set_defaults(func=_cmd_cm_scan, defaults={
        "seed": "0", "out": "cm_scan.csv", "d": "2", "instances": "50",
        "grid": "0.1:10:0.25", "max_order": "7"})

    p = sub.add_parser("ineq-fuzz", help="randomized combinatorial-inequality harness")
    common(p)
    p.add_argument("--trials", default=None)
    p.add_argument("--dmax", default=None)
    p.add_argument("--self-test-corrupt", action="store_true")
    p.set_defaults(func=_cmd_ineq_fuzz, defaults={
        "seed": "0", "out": "ineq_fuzz.csv", "trials": "1000", "dmax": "5"})

    p = sub.add_parser("s-table", help="convergence table for the scaled simplex integral")
    common(p)
    p.add_argument("--d", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--m-list", dest="m_list", default=None)
    p.set_defaults(func=_cmd_s_table, defaults={
        "seed": "0", "out": "s_table.csv", "d": "1", "r": "1", "s": "1",
        "m_list": "5,10,20,40,80"})

    p = sub.add_parser("lclt-compare", help="scaled S versus its Gaussian limit at the barycenter")
    common(p)
    p.add_argument("--d", default=None)
    p.add_argument("--r", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--m-list", dest="m_list", default=None)
    p.set_defaults(func=_cmd_lclt_compare, defaults={
        "seed": "0", "out": "lclt_compare.csv", "d": "1", "r": "1", "s": "1",
        "m_list": "16,64,256,1024"})

    p = sub.add_parser("identity-check", help="exact lattice identity and duplication residual")
    common(p)
    p.add_argument("--d-max", dest="d_max", default=None)
    p.add_argument("--m-max", dest="m_max", default=None)
    p.set_defaults(func=_cmd_identity_check, defaults={
        "seed": "0", "out": "identity_check.csv", "d_max": "4", "m_max": "60"})

    p = sub.add_parser("estimate", help="evaluate an estimator on a grid")
    common(p)
    p.add_argument("--samples", default=None)
    p.add_argument("--kind", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--grid", default=None, help="grid resolution per axis")
    p.set_defaults(func=_cmd_estimate, defaults={
        "seed": "0", "out": "estimate.csv", "kind": "simplex-cdf", "m": "20",
        "grid": "25"})

    p = sub.add_parser("sample-gen", help="generate a Dirichlet sample CSV")
    common(p)
    p.add_argument("--alpha", default=None)
    p.add_argument("--n", default=None)
    p.set_defaults(func=_cmd_sample_gen, defaults={
        "seed": "0", "out": "samples.csv", "alpha": "1,1,1", "n": "1000"})

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize
        return 2 if exc.code else 0
    try:
        _apply_config(args)
        for key, value in args.defaults.items():
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        return args.func(args)
    except (UsageError, ValueError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
