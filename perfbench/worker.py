"""One fresh interpreter of the benchmark: set up a workload, then time it.

Started by run.py from the root of a checkout, as

    python3 perfbench/worker.py --workload W --seed S --t0 T --setup-only
    python3 perfbench/worker.py --workload W --seed S --t0 T --seconds N --trace 0|1

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, imports, input and model
construction and the warm-up.  The last line of standard output is one JSON
object.
"""

import os

BLAS_THREADS = 1
# pinned before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def environment(workload):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "worker_threads": workload.threads}


# Host speed drifts by up to 1.5-2x over minutes, which no run length
# averages out.  A fixed probe that does not touch the package is timed
# around every round, and each round's time is scaled by the probe's time
# around it: the result is the time the round would take on a host where
# the probe takes PROBE_REF_S.  A change to the package moves the round and
# not the probe.
PROBE_SHARE = 0.15   # probing time per round, as a share of the round's time
# the probe's median time on the 2-vCPU x86-64 host the figures in
# README.md were taken on, so that round_s reads close to its wall time there
PROBE_REF_S = 0.010
_rng = np.random.default_rng(12345)
_PROBE_LOGK = np.log(_rng.random((400, 400)))
_PROBE_ENV = _rng.standard_normal((2048, 64))
# preallocated, so that the probe's time does not depend on the allocator's
# state, which the package's own allocations change
_PROBE_A = np.empty_like(_PROBE_LOGK)
_PROBE_E = np.empty_like(_PROBE_ENV)
_PROBE_MX = np.empty(400)
_PROBE_V = np.empty(400)
_PROBE_X = np.array([0.2, 0.3, 0.5])
_PROBE_Q = _rng.random((3, 3)) / 3.0
_PROBE_Y = np.empty(3)


def speed_probe():
    """Time a fixed mix like the workloads': log-sum-exp over a 400 x 400
    matrix and an elementwise envelope (array arithmetic), then as long
    again in calls on 3-element arrays, where the interpreter dominates."""
    t0 = time.perf_counter()
    a, mx, v = _PROBE_A, _PROBE_MX, _PROBE_V
    v.fill(0.0)
    for _ in range(6):
        np.add(_PROBE_LOGK, v[:, None], out=a)
        np.max(a, axis=0, out=mx)
        np.subtract(a, mx, out=a)
        np.exp(a, out=a)
        np.sum(a, axis=0, out=v)
        np.log(v, out=v)
        v += mx
        v -= v.max()
    e = _PROBE_E
    np.abs(_PROBE_ENV, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.cumsum(e, axis=1, out=e)
    x, q, y = _PROBE_X, _PROBE_Q, _PROBE_Y
    seen = {}
    for i in range(1200):
        np.dot(q, x, out=y)
        np.exp(y, out=y)
        seen[i & 31] = float(y.sum()) / (1 + i % 7)
    return time.perf_counter() - t0


def probe_block(seconds):
    """Median probe time over probes that together take PROBE_SHARE x seconds."""
    times = [speed_probe()]
    while sum(times) < PROBE_SHARE * seconds:
        times.append(speed_probe())
    return statistics.median(times)


def run_rounds(workload, seconds, tracer=None, first_round=0):
    """Run parts in rotation: one full pass, then more while time is left.

    A part is started only if its last time, with its probes, still fits in
    ``seconds``.  Returns per-part wall times, the same scaled to the
    reference speed by the workload's ``probe_weight``, round ids and the
    failed round count.
    """
    parts = workload.parts
    weight = workload.probe_weight
    share = PROBE_SHARE if weight else 0.0
    times = {p: [] for p in parts}
    scaled = {p: [] for p in parts}
    rounds = {p: [] for p in parts}
    failed = 0
    start = time.monotonic()
    # a workload of weight 0 is not probed: its probe time reads PROBE_REF_S
    probe_before = probe_block(0.0) if share else PROBE_REF_S
    k = 0
    while True:
        part = parts[k % len(parts)]
        if (k >= len(parts) and time.monotonic() - start
                + (1 + share) * times[part][-1] > seconds):
            break
        round_id = first_round + k
        if tracer is not None:
            tracer.round = round_id
        t0 = time.perf_counter()
        try:
            result = workload.run(part)
            elapsed = time.perf_counter() - t0
            ok = workload.check(part, workload.summarise(part, result))
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"round {round_id} ({workload.name}/{part}) failed its check",
                  file=sys.stderr)
            failed += 1
        probe_after = probe_block(elapsed) if share else PROBE_REF_S
        times[part].append(elapsed)
        scaled[part].append(
            elapsed * (PROBE_REF_S / ((probe_before + probe_after) / 2)) ** weight)
        rounds[part].append(round_id)
        probe_before = probe_after
        k += 1
    return times, scaled, rounds, failed


def round_s(times):
    """Time of one pass over all parts: the sum of per-part medians."""
    return sum(statistics.median(t) for t in times.values())


def part_stats(times):
    out = {}
    for part, t in times.items():
        q = statistics.quantiles(t, n=4) if len(t) > 1 else [t[0]] * 3
        out[part] = {"n": len(t), "q1": q[0], "median": statistics.median(t), "q3": q[2]}
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import hmmforget
    import spans
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        env = environment(workload)
        if workload.threads * BLAS_THREADS > env["nproc"]:
            print(f"{workload.threads} worker threads x {BLAS_THREADS} BLAS threads "
                  f"exceed {env['nproc']} processors", file=sys.stderr)
            return 2
        workload.warm_up()
        speed_probe()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        result = {"workload": workload.name, "seed": workload.seed, "env": env,
                  "setup_s": setup_s}
        if not args.trace:
            times, scaled, _, failed = run_rounds(workload, args.seconds)
            attempted = 0
            result["round_s"] = round_s(scaled)
            result["wall_round_s"] = round_s(times)
            result["probe_weight"] = workload.probe_weight
            result["samples"] = {p: {"wall_s": times[p], "scaled_s": scaled[p]}
                                 for p in workload.parts}
        else:
            # one untraced pass as the base of the tracing overhead, then traced rounds
            base, _, _, failed = run_rounds(workload, 0.0)
            attempted = sum(map(len, base.values()))
            tracer = spans.Tracer()
            tracer.install(hmmforget)
            times, _, rounds, traced_failed = run_rounds(
                workload, args.seconds - sum(map(sum, base.values())), tracer,
                first_round=attempted)
            failed += traced_failed
            layers = spans.layer_metrics(tracer, rounds, workload.threads)
            layers["trace.round_s"] = (round_s(times), "s")
            layers["trace.untraced_round_s"] = (round_s(base), "s")
            layers["trace.overhead_s"] = (round_s(times) - round_s(base), "s")
            result["layers"] = layers
            result["untraced_parts"] = part_stats(base)
            path = os.path.join(ROOT, ".perfbench_out",
                                f"spans-{workload.name}-seed{workload.seed}.csv")
            tracer.write(path)
            result["spans_file"] = os.path.relpath(path, ROOT)
        result["parts"] = part_stats(times)
        result["attempted"] = attempted + sum(map(len, times.values()))
        result["failed"] = failed
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
