"""Record perfbench/reference.json: the output of every op of every
workload at the reference seed, from the code in this checkout's src/.

    python3 perfbench/record_reference.py

Re-record only from a commit whose outputs are trusted; the benchmark
compares every later commit against this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 1905  # the seed of the committed configs

sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import git_commit, run_jobs  # noqa: E402
from tracing import Recorder  # noqa: E402


def main():
    ops = {}
    for name, wl in workloads.WORKLOADS.items():
        workers = 1  # results do not depend on the worker count
        ctx = workloads.setup(name, REFERENCE_SEED, workers, Recorder())
        for op_id, kind, value in run_jobs(ctx, wl.jobs + wl.probes, workloads, "bench.pass"):
            if kind == "error":
                raise SystemExit(f"{op_id} raised; not recording a reference")
            ops[op_id] = value
    with open(HERE / "reference.json", "w") as fh:
        json.dump({"seed": REFERENCE_SEED, "git_commit": git_commit(), "ops": ops},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(ops)} ops")


if __name__ == "__main__":
    main()
