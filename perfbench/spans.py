"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``TRACED`` by a wrapper
at every module attribute of the package that binds it, so calls between
modules (``experiments`` calling ``simulate``, ``cli`` calling
``run_forgetting``) are seen as well as calls from the benchmark.  A span
is (id, name, start, end, parent id, round, thread).  Parents come from a
thread-local stack; a span opened on a pool thread with an empty stack is
adopted by the innermost span open on the main thread, which is the
caller blocked on the pool.  Spans stay in memory until ``write``.

Counts computed from call arguments are kept per round:

- ``gridfilter.kernel_cells``: sum of m^2 over kernel builds;
- the distinct (model, grid) pairs the kernel was built for;
- ``bounds.envelope_cells``: quadrature points x observations over the
  Upsilon/Psi batches.
"""

from __future__ import annotations

import collections
import functools
import itertools
import statistics
import sys
import threading
import time

TRACED = {
    "models": ["simulate", "log_likelihood"],
    "rng": ["substream"],
    "gridfilter": ["transition_kernel", "init_filter", "filter_step",
                   "tv_distance", "run_two_filters"],
    "experiments": ["run_forgetting", "estimate_r_sequences", "fit_rate",
                    "emit_report"],
    "bounds": ["log_upsilon_batch", "log_psi_batch", "phi", "upsilon",
               "find_ld_set_for_eta", "certify_ld_set", "sharp_bound",
               "geometric_bound"],
    "verify": ["run_suite", "exact_delta", "exact_denominator_bound",
               "supermartingale_check"],
    "cli": ["main"],
    "reports": ["write_csv"],
}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

# Spans whose direct children are the per-replication work of a pool.
POOL_PARENTS = ("experiments.run_forgetting", "experiments.estimate_r_sequences")

# Quadrature sizes the batch envelopes use when called without one
# (bounds.log_upsilon_batch and bounds.log_psi_batch defaults).
UPSILON_QUAD_M = 4096
PSI_QUAD_M = 2048


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _finite(model):
    return model.kind == "finite"


def _count_kernel(tracer, args, kwargs):
    model, grid = args[0], _arg(args, kwargs, 1, "grid")
    m = model.m if _finite(model) else grid.m
    tracer.add("gridfilter.kernel_cells", m * m)
    with tracer.lock:
        # the model is kept so that its id is not reused within the round
        tracer.kernel_pairs[tracer.round][(id(model), grid)] = model


def _count_upsilon(tracer, args, kwargs):
    model, ys = args[0], _arg(args, kwargs, 2, "ys")
    quad = _arg(args, kwargs, 3, "quad")
    if _finite(model):
        points = model.m
    else:
        points = quad.m if quad is not None else UPSILON_QUAD_M
    tracer.add("bounds.envelope_cells", points * len(ys))


def _count_psi(tracer, args, kwargs):
    model, D, ys = args[0], args[1], _arg(args, kwargs, 2, "ys")
    if _finite(model):
        points = len(D.states)
    else:
        points = _arg(args, kwargs, 3, "quad_m", PSI_QUAD_M)
    tracer.add("bounds.envelope_cells", points * len(ys))


COUNTERS = {
    "gridfilter.transition_kernel": _count_kernel,
    "bounds.log_upsilon_batch": _count_upsilon,
    "bounds.log_psi_batch": _count_psi,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.round = None
        self.counts = collections.defaultdict(float)  # (round, key) -> value
        self.kernel_pairs = collections.defaultdict(dict)  # round -> {(id, grid): model}
        self.lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._origin = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value):
        with self.lock:
            self.counts[(self.round, key)] += value

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            sid = next(self._ids)
            if count is not None:
                count(self, args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start - self._origin, end - self._origin,
                                   parent, self.round, threading.get_ident()))

        return traced

    def install(self, package):
        """Wrap every TRACED function at each module attribute binding it."""
        prefix = package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for modname, fnames in TRACED.items():
            mod = sys.modules[f"{prefix}.{modname}"]
            for fname in fnames:
                name = f"{modname}.{fname}"
                if fname == "log_likelihood":
                    # a method: wrap it on each model class that defines it
                    for cls in vars(mod).values():
                        if isinstance(cls, type) and cls.__module__ == mod.__name__ \
                                and fname in vars(cls):
                            setattr(cls, fname, self.wrap(name, vars(cls)[fname]))
                    continue
                original = getattr(mod, fname)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def self_times(self):
        """Per span id: duration minus the union of its children's intervals."""
        children = collections.defaultdict(list)
        for sid, _, start, end, parent, _, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (end - start) - covered
        return out

    def per_round(self):
        """{round: {span name: (self seconds, calls)}} plus pool busy/wall pairs."""
        selfs = self.self_times()
        table = collections.defaultdict(lambda: collections.defaultdict(lambda: [0.0, 0]))
        child_busy = collections.defaultdict(float)
        for sid, name, start, end, parent, rnd, _ in self.spans:
            cell = table[rnd][name]
            cell[0] += selfs[sid]
            cell[1] += 1
            child_busy[parent] += end - start
        pools = collections.defaultdict(list)
        for sid, name, start, end, _, rnd, _ in self.spans:
            if name in POOL_PARENTS:
                pools[rnd].append((child_busy[sid], end - start))
        return table, pools

    def write(self, path):
        threads = {}
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,round,thread\n")
            for sid, name, start, end, parent, rnd, ident in sorted(self.spans):
                tid = threads.setdefault(ident, len(threads))
                fh.write(f"{sid},{name},{start!r},{end!r},"
                         f"{'' if parent is None else parent},{rnd},{tid}\n")


def layer_metrics(tracer, rounds_by_part, threads):
    """Per-pass per-layer figures: medians over a part's rounds, summed over parts.

    ``rounds_by_part`` maps each part to the round ids that ran it.
    """
    table, pools = tracer.per_round()
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    counts = collections.defaultdict(float)
    kernel_calls = kernel_distinct = 0
    busy = wall = 0.0
    for rounds in rounds_by_part.values():
        first = rounds[0]
        for name in SPAN_NAMES:
            self_s[name] += statistics.median(table[r][name][0] for r in rounds)
            calls[name] += table[first][name][1]
        for key in ("gridfilter.kernel_cells", "bounds.envelope_cells"):
            counts[key] += tracer.counts.get((first, key), 0.0)
        kernel_calls += table[first]["gridfilter.transition_kernel"][1]
        kernel_distinct += len(tracer.kernel_pairs.get(first, ()))
        for r in rounds:
            for b, w in pools.get(r, ()):
                busy += b
                wall += threads * w
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_s[name], "s")
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["gridfilter.kernel_cells"] = (int(counts["gridfilter.kernel_cells"]), "count")
    metrics["gridfilter.transition_kernel.redundant_share"] = (
        1.0 - kernel_distinct / kernel_calls if kernel_calls else 0.0, "share")
    metrics["bounds.envelope_cells"] = (int(counts["bounds.envelope_cells"]), "count")
    metrics["experiments.parallel_eff"] = (busy / wall if wall else 0.0, "share")
    metrics["trace.self_sum_s"] = (sum(self_s.values()), "s")
    return metrics
