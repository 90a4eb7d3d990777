"""Per-layer tracing from outside the program.

The tracer wraps the public functions of every bernsimplex module, and the
few methods named in ``METHODS``, without editing the program: it replaces
the defining module's attribute and every other module binding that holds
the same function object (``monotone.polygamma``, ``spoly.lattice_array``,
``cli.sample_dirichlet``, ...), and restores them all on ``uninstall``.

Each wrapped call adds to per-name counters (calls, argument evaluations,
self time). Self time is a call's duration minus the time of the wrapped
calls it made, each counted with its wrapper's own cost: the part the
wrapper times (from its entry to its end) plus ``entry_cost``, the rest of
an empty wrapper's cost per call, measured once at start. So the tracing
overhead is charged to no one's self time.

Spans are kept only for ``cli.main`` and the library calls it makes
directly; deeper, hot scalar calls (``polygamma``, ``log_gamma``, ...) are
aggregated into counters under that span instead of one span per call.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "bernsimplex"
MODULES = ("specfun", "simplex", "monotone", "ineq", "spoly", "estimate", "report", "cli")
METHODS = (("simplex", "SampleSet", "to_csv"), ("simplex", "SampleSet", "from_csv"),
           ("report", "ScanReport", "record"))

# outermost-only accounting for recursive functions
RECURSIVE = {"simplex.lattice_array"}
S_VALUE_FUNCS = ("spoly.s_integral_exact", "spoly.s_eval_grid")
ESTIMATORS = ("estimate.bernstein_cdf_simplex", "estimate.bernstein_cdf_hypercube",
              "estimate.bernstein_density_hypercube")
SPAN_DEPTH = 2
# loops that measure an empty wrapper's cost: calls per loop, loops
ENTRY_COST_CALLS = 20000
ENTRY_COST_REPS = 5


class Stat:
    __slots__ = ("calls", "evals", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.evals = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Wraps bernsimplex functions; one instance per worker process."""

    def __init__(self):
        self.present = set()
        self._patches = []  # (owner, attr, original)
        self.entry_cost = 0.0
        self.entry_cost = self._measure_entry_cost()
        self.reset()

    def reset(self) -> None:
        self.stats = defaultdict(Stat)
        # context counters, keyed by metric name
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []  # frames: [child_time, span-or-None]
        self._active = defaultdict(int)

    def _measure_entry_cost(self) -> float:
        """Seconds per call that an empty wrapper costs its caller beyond
        what it charges it, the median over ENTRY_COST_REPS loops."""
        def noop():
            return None

        wrapped = self._wrap("entry_cost", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(ENTRY_COST_REPS):
            self.reset()
            # deep enough that the calls keep no spans, like hot scalar calls
            self._stack.extend([0.0, None] for _ in range(SPAN_DEPTH))
            t0 = clock()
            for _ in range(ENTRY_COST_CALLS):
                wrapped()
            wrapped_s = clock() - t0
            t0 = clock()
            for _ in range(ENTRY_COST_CALLS):
                noop()
            bare_s = clock() - t0
            charged = self._stack[-1][0]
            costs.append(max(wrapped_s - charged - bare_s, 0.0) / ENTRY_COST_CALLS)
        return sorted(costs)[ENTRY_COST_REPS // 2]

    # -- installation --------------------------------------------------
    def _modules(self):
        return {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}

    def install(self) -> None:
        if self._patches:
            return
        mods = self._modules()
        all_mods = [m for k, m in sys.modules.items()
                    if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for short, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn):
                    continue
                qual = f"{short}.{attr}"
                wrapped = self._wrap(qual, fn)
                self.present.add(qual)
                for owner in all_mods:
                    for name, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, name, fn, wrapped)
        for short, cls_name, meth in METHODS:
            qual = f"{short}.{cls_name}.{meth}"
            cls = getattr(mods[short], cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                continue
            self.present.add(qual)
            if isinstance(raw, classmethod):
                self._patch(cls, meth, raw, classmethod(self._wrap(qual, raw.__func__)))
            else:
                self._patch(cls, meth, raw, self._wrap(qual, raw))

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- wrapping ------------------------------------------------------
    def _wrap(self, qual: str, fn):
        tracer = self
        clock = time.perf_counter
        recursive = qual in RECURSIVE
        after = _AFTER.get(qual)

        def wrapper(*args, **kwargs):
            active = tracer._active
            if recursive and active[qual]:
                return fn(*args, **kwargs)
            entered = clock()
            st = tracer._stack
            try:
                span = None
                if len(st) < SPAN_DEPTH:
                    span = {"name": qual, "parent": st[-1][1]["id"] if st else None,
                            "id": len(tracer.spans), "inner": {}}
                    tracer.spans.append(span)
                frame = [0.0, span if span is not None else (st[-1][1] if st else None)]
                st.append(frame)
                active[qual] += 1
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    st.pop()
                    active[qual] -= 1
                    stat = tracer.stats[qual]
                    stat.calls += 1
                    stat.total_s += elapsed
                    self_s = elapsed - frame[0]
                    stat.self_s += self_s
                    if span is not None:
                        span["start"] = t0
                        span["end"] = t0 + elapsed
                    elif frame[1] is not None:
                        inner = frame[1]["inner"].setdefault(qual, [0, 0.0])
                        inner[0] += 1
                        inner[1] += self_s
                if after is not None:
                    after(tracer, args, kwargs, out)
                else:
                    stat.evals += 1
                return out
            finally:
                if st:
                    st[-1][0] += clock() - entered + tracer.entry_cost

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        return wrapper


def _size(z) -> int:
    return int(getattr(z, "size", 1))


def _after_polygamma(tr, args, kwargs, out):
    n = _size(args[1] if len(args) > 1 else kwargs["z"])
    tr.stats["specfun.polygamma"].evals += n
    if tr._active["monotone.cm_scan"]:
        tr.counts["cm_scan.polygamma_evals"] += n


def _after_log_gamma(tr, args, kwargs, out):
    n = _size(args[0] if args else kwargs["z"])
    tr.stats["specfun.log_gamma"].evals += n
    if tr._active["ineq.fuzz_inequalities"]:
        tr.counts["fuzz.log_gamma_evals"] += n


def _after_lattice_array(tr, args, kwargs, out):
    rows = int(out.shape[0])
    tr.stats["simplex.lattice_array"].evals += rows
    tr.counts["lattice_array.bytes_computed"] += int(out.nbytes)
    if any(tr._active[name] for name in S_VALUE_FUNCS):
        tr.counts["spoly.lattice_rows"] += rows
    if any(tr._active[name] for name in ESTIMATORS):
        tr.counts["estimate.lattice_builds"] += 1


def _after_s_eval_grid(tr, args, kwargs, out):
    tr.stats["spoly.s_eval_grid"].evals += _size(out)


def _after_record(tr, args, kwargs, out):
    tr.stats["report.ScanReport.record"].evals += 1
    if tr._active["monotone.cm_scan"]:
        tr.counts["cm_scan.rows"] += 1


def _after_sampleset_io(tr, args, kwargs, out):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tr.counts["SampleSet.io_bytes"] += os.path.getsize(path)


def _after_fuzz(tr, args, kwargs, out):
    trials = args[0] if args else kwargs["trials"]
    tr.counts["fuzz.trials"] += int(trials)


_AFTER = {
    "specfun.polygamma": _after_polygamma,
    "specfun.log_gamma": _after_log_gamma,
    "simplex.lattice_array": _after_lattice_array,
    "spoly.s_eval_grid": _after_s_eval_grid,
    "report.ScanReport.record": _after_record,
    "simplex.SampleSet.to_csv": _after_sampleset_io,
    "simplex.SampleSet.from_csv": _after_sampleset_io,
    "ineq.fuzz_inequalities": _after_fuzz,
}
