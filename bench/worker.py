"""Runs one workload in a fresh process: the program under test.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only]

It imports ``bernsimplex.cli``, builds the seeded plan, prints ``ready`` (the
end of set-up) and then runs passes of the plan as a closed loop, one
``cli.main(argv)`` call after another, until ``--seconds`` have passed. The
first pass writes into ``DIR/pass0``, which the parent verifies; later
passes write into ``DIR/pass`` and must reproduce pass 0 byte for byte.
With ``--trace 1`` traced and untraced passes alternate. Results go to
``DIR/result.json``; nothing is verified or judged here.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import bernsimplex.cli as cli

import speed
from tracer import Tracer
from workloads import build_plan

PROBE_KIND = {"certify": "scalar", "fuzz": "scalar", "asymptotics": "mixed",
              "estimate": "bulk"}
MIN_PASSES = 3


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run_pass(plan, pass_dir: str, kind: str) -> dict:
    """One closed-loop pass; only the ``cli.main`` calls are timed."""
    if os.path.isdir(pass_dir):
        shutil.rmtree(pass_dir)
    os.makedirs(pass_dir)
    os.chdir(pass_dir)
    invs = []
    before = speed.probe(kind)
    for inv in plan:
        sink = io.StringIO()
        err = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(list(inv.argv))
        except Exception as exc:  # a raising invocation is a failed one, not a crash
            rc, err = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - t0
        after = speed.probe(kind)
        invs.append({"name": inv.name, "rc": rc, "error": err, "raw_s": raw,
                     "probe_s": [before, after],
                     "wall_s": speed.nominal(raw, kind, before, after)})
        before = after
    for rec, inv in zip(invs, plan):
        path = os.path.join(pass_dir, inv.out)
        exists = os.path.exists(path)
        rec["sha256"] = _digest(path) if exists else None
        rec["bytes"] = os.path.getsize(path) if exists else 0
        if inv.argv[0] == "estimate" and exists:
            with open(path) as fh:
                rec["queries"] = sum(1 for _ in fh) - 1
    return {"raw_s": sum(r["raw_s"] for r in invs),
            "wall_s": sum(r["wall_s"] for r in invs), "invocations": invs}


def _snapshot(tracer: Tracer, pass_result: dict) -> dict:
    factor = pass_result["wall_s"] / pass_result["raw_s"]
    return {
        "factor": factor,
        "stats": {k: [v.calls, v.evals, v.self_s * factor, v.total_s * factor]
                  for k, v in tracer.stats.items()},
        "counts": dict(tracer.counts),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    plan = build_plan(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    kind = PROBE_KIND[args.workload]
    workdir = os.path.abspath(args.workdir)
    tracer = Tracer() if args.trace else None
    passes, traced, spans = [], [], None
    t_end = time.perf_counter() + args.seconds
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        pass_dir = os.path.join(workdir, "pass0" if i == 0 else "pass")
        if trace_this:
            tracer.reset()
            tracer.install()
            try:
                res = run_pass(plan, pass_dir, kind)
            finally:
                tracer.uninstall()
            traced.append(_snapshot(tracer, res))
            if spans is None:
                spans = tracer.spans
        else:
            res = run_pass(plan, pass_dir, kind)
        res["traced"] = trace_this
        passes.append(res)
        i += 1
        untraced = sum(1 for p in passes if not p["traced"])
        enough = untraced >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() >= t_end:
            break
    os.chdir(workdir)
    result = {
        "probe_kind": kind,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = {"passes": traced, "present": sorted(tracer.present),
                           "entry_cost_s": tracer.entry_cost}
        with open(os.path.join(workdir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
