"""Command-line surface for the verification suites and experiments.

Subcommands: cm-scan, ineq-fuzz, s-table, lclt-compare, identity-check,
estimate, sample-gen.  Exit codes: 0 = pass, 1 = a verified mathematical
property failed, 2 = usage, validation or I/O error (no output file is
written in that case).  Each ``key = value`` line of a --config file becomes
the flag ``--key=value``, placed ahead of the flags typed on the command line,
so flags beat the config file, which beats the built-in defaults, and an
unknown key is a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import estimate as est
from . import ineq, monotone, spoly
from .report import ScanReport
from .simplex import (CapacityError, SampleSet, _check_capacity, _check_ints, _check_out,
                      _coord_header, _float_format, _write_csv, sample_dirichlet)
from .specfun import duplication_residual

__all__ = ["main"]


class UsageError(Exception):
    pass


# the rows of s-table and lclt-compare: d, r, s, m, then three floats
_S_ROW = "%s,%s,%s,%s,%.17g,%.17g,%.17g"


def _status(report) -> str:
    return "pass" if report.passed else "fail"


def _grid_spec(spec: str):
    """'start:stop:step' -> ascending grid including stop (within step/2)."""
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {spec!r}, expected start:stop:step") from None
    if not (0.0 < start <= stop and step > 0.0):
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}")
    # counted before the list is built; the 0.5 matches the rounding below
    if not (stop - start) / step < monotone.GRID_CAP - 0.5:
        raise argparse.ArgumentTypeError(
            f"grid {spec!r} has more than {monotone.GRID_CAP} points")
    n = int(round((stop - start) / step))
    return [start + i * step for i in range(n + 1)]


def _list_of(kind):
    """argparse type for a comma-separated list of kind (int or float)."""

    def parse(spec: str):
        try:
            vals = [kind(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {kind.__name__} list {spec!r}") from None
        if not vals:
            raise argparse.ArgumentTypeError("empty list")
        return vals

    return parse


def _increasing_ints(spec: str):
    """argparse type for a comma-separated, strictly increasing list of ints."""
    vals = _list_of(int)(spec)
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError(f"list {spec!r} must be strictly increasing")
    return vals


def _config_flags(path: str):
    """The lines of a key=value config file as --key=value flags."""
    flags = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _random_instance(rng, d: int, corrupt: bool = False) -> monotone.MonotoneInstance:
    m_total = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    gamma = m_total * rng.dirichlet(np.ones(d + 1))
    x = rng.dirichlet(np.ones(d + 1))
    return monotone.MonotoneInstance(gamma, x[:-1], corrupt)


def _cmd_cm_scan(args) -> int:
    _check_ints(d=args.d, instances=args.instances)
    rng = np.random.Generator(np.random.PCG64(args.seed))
    report = ScanReport()
    # each grid point formatted once, not once per (instance, order) row
    a_text = np.array(["%.17g" % a for a in args.grid], dtype=object)
    # instances are drawn as the scan pulls its blocks, which draws nothing
    instances = (_random_instance(rng, args.d, args.self_test_corrupt)
                 for _ in range(args.instances))
    def blocks():
        # an instance's block runs over the grid, its orders within each point
        for b in monotone.cm_scan(instances, args.grid, report, max_order=args.max_order):
            b[:, 1] = np.repeat(a_text, len(b) // len(a_text))
            yield b

    try:
        _write_csv(args.out, "instance,a,order,value,margin", "%s,%s,%s,%.17g,%.17g", blocks(),
                   lambda: f"# summary: {_status(report)}, "
                           f"max_violation={report.max_violation:.17g}")
    except OverflowError:
        raise UsageError(f"numerical overflow scanning an a-grid whose largest point is "
                         f"{args.grid[-1]}; lower the grid's stop") from None
    print(f"cm-scan: {_status(report)} over {args.instances} instances, "
          f"max_violation={report.max_violation:.17g}")
    return 0 if report.passed else 1


def _cmd_ineq_fuzz(args) -> int:
    report = ScanReport()
    blocks = ineq.fuzz_inequalities(args.trials, args.dmax, args.seed, report,
                                    corrupt=args.self_test_corrupt)
    _write_csv(args.out, "trial,d,M,check,margin", "%s,%s,%.17g,%s,%.17g", blocks,
               lambda: f"# summary: {_status(report)}, min_margin={report.min_margin:.17g}")
    print(f"ineq-fuzz: {_status(report)} over {args.trials} trials, "
          f"min margin={report.min_margin:.17g}")
    return 0 if report.passed else 1


def _cmd_s_table(args) -> int:
    d, r, s = args.d, args.r, args.s
    if (r, s) != (1, 1):
        raise UsageError("s-table knows the large-m limit only for r = s = 1; "
                         "use lclt-compare for other (r, s)")
    integrals = spoly.s_integral_exact(r, s, args.m_list, d).tolist()  # d, m >= 1, capacity first
    limit = spoly.asymptotic_constant(d)
    rows = []
    for m, integral in zip(args.m_list, integrals):
        value = m ** (d / 2.0) * integral
        rows.append((d, r, s, m, value, limit, m * abs(value - limit)))
    scaled = np.array([row[-1] for row in rows])
    report = ScanReport()
    # bound - scaled >= 0 exactly where scaled <= bound; a NaN fails
    report.record(2.0 * scaled[0] + 1e-12 - scaled)
    _write_csv(args.out, "d,r,s,m,value,limit,scaled_error", _S_ROW,
               [np.array(rows, dtype=object)],
               lambda: f"# summary: {_status(report)}, max_scaled_error={np.max(scaled):.17g}")
    print(f"s-table: {_status(report)}, scaled errors {['%.6g' % v for v in scaled]}")
    return 0 if report.passed else 1


def _cmd_lclt_compare(args) -> int:
    d, r, s = args.d, args.r, args.s
    _check_ints(d=d, r=r, s=s)
    bary = [1.0 / (d + 1)] * d
    phi = spoly.phi_eval(r, s, bary)
    rows = []
    for m in args.m_list:
        value = m ** (d / 2.0) * spoly.s_eval(r, s, m, d, bary)
        rows.append((d, r, s, m, value, phi, abs(value - phi)))
    errs = np.array([row[-1] for row in rows])
    report = ScanReport()
    # the errors fall strictly: for floats a > b exactly where nextafter(a, -inf)
    # >= b, so a tie fails; one m gives no margin
    report.record(np.nextafter(errs[:-1], -np.inf) - errs[1:])
    _write_csv(args.out, "d,r,s,m,scaled_value,phi,abs_error", _S_ROW,
               [np.array(rows, dtype=object)], lambda: f"# summary: {_status(report)}")
    print(f"lclt-compare: {_status(report)}, errors {['%.6g' % v for v in errs]}")
    return 0 if report.passed else 1


def _cmd_identity_check(args) -> int:
    _check_ints(d_max=args.d_max, m_max=args.m_max)
    # (m_max + 1)(m_max + 2)/2 exact products per d, one dot per degree: within this
    _check_capacity(args.d_max * (args.d_max + 1) // 2 * (args.m_max + 1) ** 2,
                    f"identity operations for d-max={args.d_max}, m-max={args.m_max}")
    rows = []
    report = ScanReport()
    for table in spoly.central_binomial_identity(args.d_max, args.m_max):
        equal = table["equal"]
        report.record(np.where(equal[1:], 0.0, -1.0))  # -1 per mismatch at m >= 1
        rows.extend(("central-binomial", table["d"], m, "exact" if equal[m] else "MISMATCH")
                    for m in range(1, args.m_max + 1))
    # Python's float power, not np.logspace, whose values differ in the last bits
    ys = np.array([10.0 ** (-3.0 + 9.0 * i / 999.0) for i in range(1000)])
    worst = float(np.abs(duplication_residual(ys)).max())
    report.record(1e-12 - worst)
    rows.append(("duplication", "", " ", f"max_residual={worst:.17g}"))
    _write_csv(args.out, "kind,d,m,detail", "%s,%s,%s,%s", [np.array(rows, dtype=object)],
               lambda: f"# summary: {_status(report)}")
    print(f"identity-check: {_status(report)} (duplication max residual {worst:.3g})")
    return 0 if report.passed else 1


def _cmd_estimate(args) -> int:
    if not args.samples:
        raise UsageError("estimate needs --samples FILE")
    _check_ints(2, grid=args.grid)
    name, domain = est.ESTIMATOR_KINDS[args.kind]
    samples = SampleSet.from_csv(args.samples, domain=domain)
    d = samples.d
    if domain == "simplex":
        grid_pts = spoly.simplex_midpoint_grid(d, args.grid)
    else:
        _check_capacity(args.grid ** d, f"query grid of {args.grid}^{d} points")
        axes = [np.linspace(0.0, 1.0, args.grid) for _ in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid_pts = np.stack([g.ravel() for g in mesh], axis=1)
    values = getattr(est, name)(samples, args.m, grid_pts)
    header = _coord_header(d) + ",value"
    _write_csv(args.out, header, _float_format(d + 1), [np.column_stack([grid_pts, values])], None)
    print(f"estimate: wrote {len(values)} grid values to {args.out}")
    return 0


def _cmd_sample_gen(args) -> int:
    samples = sample_dirichlet(args.alpha, args.n, args.seed)
    samples.to_csv(args.out)
    print(f"sample-gen: wrote {args.n} Dirichlet draws to {args.out}")
    return 0


# the flags s-table and lclt-compare share, ahead of their --m-list
_S_FLAGS = (("--d", dict(type=int, default=1)), ("--r", dict(type=int, default=1)),
            ("--s", dict(type=int, default=1)))
# name: (handler, default --out, help, takes --seed, other flags as (flag, keywords))
_COMMANDS = {
    "cm-scan": (_cmd_cm_scan, "cm_scan.csv", "complete-monotonicity scan on random instances",
                True, (("--d", dict(type=int, default=2)),
                       ("--instances", dict(type=int, default=50)),
                       ("--grid", dict(type=_grid_spec, default="0.1:10:0.25",
                                       help="a-grid as start:stop:step")),
                       ("--max-order", dict(type=int, default=7,
                                            choices=range(1, monotone.MAX_H_ORDER + 1))),
                       ("--self-test-corrupt", dict(action="store_true")))),
    "ineq-fuzz": (_cmd_ineq_fuzz, "ineq_fuzz.csv", "randomized combinatorial-inequality harness",
                  True, (("--trials", dict(type=int, default=1000)),
                         ("--dmax", dict(type=int, default=5)),
                         ("--self-test-corrupt", dict(action="store_true")))),
    "s-table": (_cmd_s_table, "s_table.csv",
                "convergence table for the scaled simplex integral (r = s = 1)", False,
                _S_FLAGS + (("--m-list", dict(type=_increasing_ints, default="5,10,20,40,80")),)),
    "lclt-compare": (_cmd_lclt_compare, "lclt_compare.csv",
                     "scaled S versus its Gaussian limit at the barycenter", False,
                     _S_FLAGS + (("--m-list", dict(type=_increasing_ints,
                                                   default="16,64,256,1024")),)),
    "identity-check": (_cmd_identity_check, "identity_check.csv",
                       "exact lattice identity and duplication residual", False,
                       (("--d-max", dict(type=int, default=4)),
                        ("--m-max", dict(type=int, default=60)))),
    "estimate": (_cmd_estimate, "estimate.csv", "evaluate an estimator on a grid", False,
                 (("--samples", dict(default=None)),
                  ("--kind", dict(choices=est.ESTIMATOR_KINDS, default="simplex-cdf")),
                  ("--m", dict(type=int, default=20)),
                  ("--grid", dict(type=int, default=25, help="grid resolution per axis")))),
    "sample-gen": (_cmd_sample_gen, "samples.csv", "generate a Dirichlet sample CSV", True,
                   (("--alpha", dict(type=_list_of(float), default="1,1,1")),
                    ("--n", dict(type=int, default=1000)))),
}


def _build_parser(name=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named: its help, usage
    errors and parsed values are the full parser's for that subcommand."""
    parser = argparse.ArgumentParser(prog="bernsimplex")
    # the usage line of an unrecognized-argument error lists every subcommand
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if name is None else "{%s}" % ",".join(_COMMANDS))
    for command in _COMMANDS if name is None else (name,):
        func, out, about, seeded, flags = _COMMANDS[command]
        p = sub.add_parser(command, help=about)
        p.set_defaults(func=func)
        p.add_argument("--out", default=out)
        p.add_argument("--config", default=None)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a known subcommand gets a parser of its own, about a quarter of the full
    # one's cost; a usage or help text that lists every subcommand needs them all
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # after the subcommand name, so that flags typed later win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        _check_out(args.out)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize
        return 2 if exc.code else 0
    except (UsageError, ValueError, CapacityError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
