"""Benchmark of the hmmforget package: one workload, one seed, one run.

    python3 perfbench/run.py --workload forgetting|rseq|longbound|oracles \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the package is imported from ./src.
Each run starts SETUP_STARTS fresh interpreters that only set the workload
up, then one that sets it up and runs rounds for --seconds.  ``setup_s``
is the median set-up time over all of them.  With --trace 0 the last line
of standard output carries the end-to-end metrics (setup_s, round_s,
peak_rss_mb); with --trace 1 it carries the per-layer metrics of a traced
run.  On the single-threaded workloads ``round_s`` is scaled to a
reference host speed by a probe timed around every round (see worker.py).  A round that raises or fails its
correctness check counts in ``failed``.  The full record, with per-part
quartiles and the environment, is written to .perfbench_out/.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("forgetting", "rseq", "longbound", "oracles")
SETUP_STARTS = 2        # set-up-only interpreters, besides the measuring one
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150     # the whole run must end within 180 s


def start_worker(args, extra, timeout):
    """Run worker.py in a fresh interpreter; return its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--t0", repr(time.monotonic())]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    proc = subprocess.run(cmd + extra, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "hmmforget", "__init__.py")):
        print(f"no hmmforget sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    try:
        setups = [start_worker(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_STARTS)]
        record = start_worker(args, ["--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], RUN_TIMEOUT_S)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])
    record["setup_starts"] = setups

    if args.trace:
        metrics = record["layers"]
    else:
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "round_s": (record["round_s"], "s"),
                   "peak_rss_mb": (record["peak_rss_mb"], "MB")}
    record["error_rate"] = record["failed"] / record["attempted"]
    path = os.path.join(ROOT, ".perfbench_out",
                        f"result-{record['workload']}-seed{record['seed']}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"{record['workload']} seed {record['seed']}: env {json.dumps(record['env'])}")
    for part, st in record["parts"].items():
        print(f"  {part}: n={st['n']} q1={st['q1']:.4f} median={st['median']:.4f} "
              f"q3={st['q3']:.4f} s")
    if record.get("probe_weight"):
        print(f"  round_s {record['round_s']:.4f} s scaled to the reference speed "
              f"with weight {record['probe_weight']}, {record['wall_round_s']:.4f} s "
              f"of wall time")
    print(f"  setup starts {[round(s, 4) for s in setups]} s; "
          f"error_rate {record['error_rate']} ({record['failed']}/{record['attempted']})")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
