"""Write fingerprints.json: every workload's outputs at its default seed.

    python3 perfbench/fingerprint.py

Run it from the root of a checkout at the commit whose outputs are the
reference.  rseq is fingerprinted with one worker thread and benchmarked
with two, so its check also tests that results do not depend on the
thread count.
"""

import json
import os
import shutil
import sys

import worker  # pins BLAS threads and puts ./src on the path
import workloads


def main():
    workdir = os.path.join(worker.ROOT, ".perfbench_out", "fingerprint")
    os.makedirs(workdir, exist_ok=True)
    out = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(None, workdir, threads=1)
            out[name] = {part: workload.summarise(part, workload.run(part))
                         for part in workload.parts}
            print(name, json.dumps(out[name]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.FINGERPRINTS, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
