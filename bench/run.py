#!/usr/bin/env python3
"""bernsimplex benchmark: four seeded CLI workloads, checked outputs.

    python3 bench/run.py --workload {certify,fuzz,asymptotics,estimate} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout (the directory holding ``src/``).
It measures set-up in several fresh interpreters before and after running
the workload in one more (``worker.py``) for ``--seconds``, checks pass 0's
outputs against independent references (``refs.py``) outside the timed
region, and prints one JSON object as the last line of standard output.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run.
A ``# meta`` line before it records the machine and the code measured.
Scratch files live in ``.bench_out/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_REPS = 5
# A bare interpreter that imports numpy and no bernsimplex: set-up is
# reported as measured * BARE_NOMINAL_S / (the bare start-up measured next
# to it), which divides out the host's speed as speed.py does for passes.
BARE_CMD = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
BARE_NOMINAL_S = 0.15  # the median bare start-up measured on the baseline host
START_TIMEOUT_S = 60  # for a fresh interpreter to print ready, or a set-up run to exit
WORKER_TIMEOUT_S = 100
OUT_DIR = ".bench_out"

# traced function -> the workloads it serves; a run of one of these that
# never calls it fails (a name the program no longer has is only noted)
LAYER_FUNCS = {
    "specfun.polygamma": ("certify",),
    "specfun.log_gamma": ("fuzz", "certify"),
    "specfun.duplication_residual": ("fuzz",),
    "simplex.lattice_array": ("asymptotics", "estimate"),
    "simplex.log_factorial_table": ("asymptotics",),
    "simplex.sample_dirichlet": ("estimate",),
    "simplex.SampleSet.to_csv": ("estimate",),
    "simplex.SampleSet.from_csv": ("estimate",),
    "monotone.cm_scan": ("certify",),
    "monotone.h_derivative": ("certify",),
    "monotone.g_eval": ("certify",),
    "ineq.fuzz_inequalities": ("fuzz",),
    "ineq.log_coeff": ("fuzz",),
    "spoly.s_integral_exact": ("asymptotics",),
    "spoly.s_eval": ("asymptotics",),
    "spoly.s_eval_grid": ("asymptotics",),
    "spoly.central_binomial_identity": ("fuzz",),
    "estimate.bernstein_cdf_simplex": ("estimate",),
    "estimate.bernstein_cdf_hypercube": ("estimate",),
    "estimate.bernstein_density_hypercube": ("estimate",),
    "report.ScanReport.record": ("certify",),
    "cli.main": WORKLOADS,
}

# (metric, unit, traced function, field) for plain per-function counters
LAYER_COUNTERS = [
    ("specfun.polygamma.calls", "count", "specfun.polygamma", "calls"),
    ("specfun.polygamma.evals", "count", "specfun.polygamma", "evals"),
    ("specfun.polygamma.self_s", "s", "specfun.polygamma", "self_s"),
    ("specfun.log_gamma.calls", "count", "specfun.log_gamma", "calls"),
    ("specfun.log_gamma.evals", "count", "specfun.log_gamma", "evals"),
    ("specfun.log_gamma.self_s", "s", "specfun.log_gamma", "self_s"),
    ("specfun.duplication_residual.self_s", "s", "specfun.duplication_residual", "self_s"),
    ("simplex.lattice_array.calls", "count", "simplex.lattice_array", "calls"),
    ("simplex.lattice_array.rows", "count", "simplex.lattice_array", "evals"),
    ("simplex.lattice_array.self_s", "s", "simplex.lattice_array", "self_s"),
    ("simplex.log_factorial_table.calls", "count", "simplex.log_factorial_table", "calls"),
    ("simplex.log_factorial_table.self_s", "s", "simplex.log_factorial_table", "self_s"),
    ("simplex.sample_dirichlet.self_s", "s", "simplex.sample_dirichlet", "self_s"),
    ("monotone.cm_scan.calls", "count", "monotone.cm_scan", "calls"),
    ("monotone.cm_scan.self_s", "s", "monotone.cm_scan", "self_s"),
    ("monotone.h_derivative.calls", "count", "monotone.h_derivative", "calls"),
    ("monotone.g_eval.calls", "count", "monotone.g_eval", "calls"),
    ("ineq.fuzz_inequalities.self_s", "s", "ineq.fuzz_inequalities", "self_s"),
    ("ineq.log_coeff.calls", "count", "ineq.log_coeff", "calls"),
    ("spoly.s_integral_exact.calls", "count", "spoly.s_integral_exact", "calls"),
    ("spoly.s_integral_exact.self_s", "s", "spoly.s_integral_exact", "self_s"),
    ("spoly.s_eval.calls", "count", "spoly.s_eval", "calls"),
    ("spoly.s_eval_grid.points", "count", "spoly.s_eval_grid", "evals"),
    ("spoly.s_eval_grid.self_s", "s", "spoly.s_eval_grid", "self_s"),
    ("spoly.central_binomial_identity.self_s", "s", "spoly.central_binomial_identity", "self_s"),
    ("estimate.bernstein_cdf_simplex.calls", "count", "estimate.bernstein_cdf_simplex", "calls"),
    ("estimate.bernstein_cdf_simplex.self_s", "s", "estimate.bernstein_cdf_simplex", "self_s"),
    ("estimate.bernstein_cdf_hypercube.calls", "count", "estimate.bernstein_cdf_hypercube", "calls"),
    ("estimate.bernstein_cdf_hypercube.self_s", "s", "estimate.bernstein_cdf_hypercube", "self_s"),
    ("estimate.bernstein_density_hypercube.calls", "count",
     "estimate.bernstein_density_hypercube", "calls"),
    ("estimate.bernstein_density_hypercube.self_s", "s",
     "estimate.bernstein_density_hypercube", "self_s"),
    ("report.ScanReport.record.calls", "count", "report.ScanReport.record", "calls"),
    ("report.ScanReport.record.self_s", "s", "report.ScanReport.record", "self_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("cli.self_s", "s", "cli.main", "self_s"),
]
_FIELD = {"calls": 0, "evals": 1, "self_s": 2, "total_s": 3}

# metrics derived from context counters and the pass records
LAYER_DERIVED = [
    ("simplex.lattice_array.bytes_computed", "B"),
    ("simplex.SampleSet.io_s", "s"),
    ("simplex.SampleSet.io_bytes", "B"),
    ("monotone.polygamma_evals_per_check", "ratio"),
    ("ineq.log_gamma_evals_per_trial", "ratio"),
    ("spoly.lattice_rows_per_value", "ratio"),
    ("estimate.lattice_builds_per_query", "ratio"),
    ("cli.bytes_out", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("check.max_err_over_tol", "ratio"),
    ("check.fail_ratio", "ratio"),
]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "err_headroom": "ratio"}
PER_LAYER_UNITS = dict([(m, u) for m, u, _, _ in LAYER_COUNTERS] + LAYER_DERIVED)


def _fail(msg: str, code: int = 2) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return code


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client and no threads: keep BLAS single-threaded as well
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("BERNSIMPLEX_OUTDIR", None)
    return env


def _worker_cmd(args, workdir=None, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if workdir:
        cmd += ["--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _spawn_ready(cmd, env):
    """Start ``cmd``; return (process, seconds from spawn to its ``ready`` line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    started, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
    line = proc.stdout.readline() if started else ""
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc, timeout: float, what: str) -> None:
    """Wait for ``proc`` to exit; kill it and raise if it takes longer or fails."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{what} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited {proc.returncode}")


def _start_up(cmd, env) -> float:
    """Seconds from spawning ``cmd`` to its ``ready`` line; waits for its exit."""
    proc, ready = _spawn_ready(cmd, env)
    _finish(proc, START_TIMEOUT_S, "set-up run")
    return ready


def measure_setup(args, env):
    """(set-up, bare start-up) seconds of SETUP_REPS fresh interpreters each,
    after one warm-up; bare start-ups bracket every set-up sample."""
    setups, bares = [], []
    for i in range(SETUP_REPS + 1):
        bare = _start_up(BARE_CMD, env)
        ready = _start_up(_worker_cmd(args, setup_only=True), env)
        if i:
            setups.append(ready)
            bares.append(bare)
    bares.append(_start_up(BARE_CMD, env))
    return setups, bares


def verify(plan, result, workdir, seed):
    """Return (attempted, failed, refs.Worst over pass 0, failure notes)."""
    rng = np.random.Generator(np.random.PCG64([seed, 7]))
    worst = refs.Worst()
    pass0 = result["passes"][0]["invocations"]
    bad = {}
    for inv, rec in zip(plan, pass0):
        if rec["error"]:
            bad[inv.name] = rec["error"]
            continue
        try:
            refs.check_invocation(inv, os.path.join(workdir, "pass0"), rec["rc"], rng, worst)
        except refs.CheckError as exc:
            bad[inv.name] = str(exc)
        except (ValueError, IndexError, KeyError) as exc:  # output the checks cannot parse
            bad[inv.name] = f"malformed output: {type(exc).__name__}: {exc}"
    attempted = failed = 0
    notes = dict(bad)
    for k, p in enumerate(result["passes"]):
        for inv, rec, ref in zip(plan, p["invocations"], pass0):
            attempted += 1
            why = None
            if inv.name in bad:
                why = bad[inv.name]
            elif rec["error"] or rec["rc"] != inv.expect_rc:
                why = rec["error"] or f"exit {rec['rc']}"
            elif rec["sha256"] != ref["sha256"]:
                why = f"pass {k} output differs from pass 0"
            if why:
                failed += 1
                notes.setdefault(inv.name, why)
    return attempted, failed, worst, notes


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(args, plan, result, attempted, failed, worst) -> dict:
    tr = result["trace"]
    first = tr["passes"][0]
    for snap in tr["passes"][1:]:
        counts = {k: v[:2] for k, v in snap["stats"].items()}
        if counts != {k: v[:2] for k, v in first["stats"].items()} or snap["counts"] != first["counts"]:
            raise RuntimeError("traced counts differ between passes")
    present = set(tr["present"])
    never_hit = [name for name, serves in LAYER_FUNCS.items()
                 if args.workload in serves and name in present
                 and first["stats"].get(name, [0])[0] == 0]
    if never_hit:
        raise RuntimeError(f"wrapped names never hit on {args.workload}: {never_hit}")

    def stat(name, field):
        values = [snap["stats"].get(name, [0, 0, 0.0, 0.0])[_FIELD[field]] for snap in tr["passes"]]
        return _median(values) if field in ("self_s", "total_s") else values[0]

    out = {metric: stat(name, field) for metric, _, name, field in LAYER_COUNTERS}
    c = first["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced_wall = _median([p["wall_s"] for p in result["passes"] if p["traced"]])
    estimate_queries = sum(rec.get("queries", 0) for inv, rec in
                           zip(plan, untraced[0]["invocations"])
                           if inv.params.get("kind") == "simplex-cdf")
    s_values = sum(len(inv.params["m_list"]) for inv in plan
                   if inv.argv[0] in ("s-table", "lclt-compare"))
    out.update({
        "simplex.lattice_array.bytes_computed": c.get("lattice_array.bytes_computed", 0),
        "simplex.SampleSet.io_s": (stat("simplex.SampleSet.to_csv", "total_s")
                                   + stat("simplex.SampleSet.from_csv", "total_s")),
        "simplex.SampleSet.io_bytes": c.get("SampleSet.io_bytes", 0),
        "monotone.polygamma_evals_per_check": ratio(c.get("cm_scan.polygamma_evals", 0),
                                                    c.get("cm_scan.rows", 0)),
        "ineq.log_gamma_evals_per_trial": ratio(c.get("fuzz.log_gamma_evals", 0),
                                                c.get("fuzz.trials", 0)),
        "spoly.lattice_rows_per_value": ratio(c.get("spoly.lattice_rows", 0), s_values),
        "estimate.lattice_builds_per_query": ratio(c.get("estimate.lattice_builds", 0),
                                                   estimate_queries),
        "cli.bytes_out": sum(rec["bytes"] for rec in untraced[0]["invocations"]),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - _median([p["wall_s"] for p in untraced]),
        "check.max_err_over_tol": worst.value,
        "check.fail_ratio": failed / attempted,
    })
    return out


def _meta(root: str, args) -> dict:
    src = os.path.join(root, "src", "bernsimplex")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    rev = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(), "git_rev": rev,
            "src_lines": lines}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bernsimplex", "cli.py")):
        return _fail("no src/bernsimplex/cli.py here; run from the root of a bernsimplex checkout")

    env = _env(root)
    workdir = os.path.join(root, OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = build_plan(args.workload, args.seed)
        # half the set-up samples before the workload and half after it, so
        # that one stretch of host contention cannot hold all of them
        setups, bares = measure_setup(args, env)
        proc, _ = _spawn_ready(_worker_cmd(args, workdir), env)
        _finish(proc, args.seconds + WORKER_TIMEOUT_S, "worker")
        more_setups, more_bares = measure_setup(args, env)
        setups += more_setups
        bares += more_bares
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
        attempted, failed, worst, notes = verify(plan, result, workdir, args.seed)
        for name, why in sorted(notes.items()):
            print(f"# FAILED {name}: {why}", file=sys.stderr)
        if args.trace:
            metrics = per_layer(args, plan, result, attempted, failed, worst)
            units = PER_LAYER_UNITS
            spans = os.path.join(workdir, "spans.json")
            shutil.copyfile(spans, os.path.join(root, OUT_DIR, f"spans-{args.workload}.json"))
        else:
            metrics = {
                "wall_s": _median([p["wall_s"] for p in result["passes"]]),
                "setup_s": _median(setups) * BARE_NOMINAL_S / _median(bares),
                "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
                "err_headroom": 1.0 - worst.value,
            }
            units = END_TO_END_UNITS
    except RuntimeError as exc:
        return _fail(str(exc), 3)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = _meta(root, args)
    meta["passes"] = len(result["passes"])
    meta["setup_samples_s"] = setups
    meta["bare_start_up_samples_s"] = bares
    meta["worst_check"] = [worst.value, worst.where]
    meta["raw_wall_s"] = _median([p["raw_s"] for p in result["passes"] if not p["traced"]])
    if args.trace:
        meta["absent"] = sorted(set(LAYER_FUNCS) - set(result["trace"]["present"]))
        meta["trace_entry_cost_s"] = result["trace"]["entry_cost_s"]
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
