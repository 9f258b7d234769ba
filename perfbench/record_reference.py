"""Record the reference outputs that run.py checks every op against.

    python3 perfbench/record_reference.py

Run from the repository root on the commit whose outputs are the reference.
For every workload, both sizes and every input seed (0 .. INPUT_SEEDS-1) it
sets the workload up and runs each op of its cycle once; the output digests
are written to perfbench/reference.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from harness import REFERENCE  # noqa: E402
from workloads import INPUT_SEEDS, WORKLOADS  # noqa: E402


def record(workload, size, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--workdir", workdir]
    harness = os.path.join(HERE, "harness.py")
    try:
        for role in (["setup", "--write"], ["ops", "--record"]):
            subprocess.run([sys.executable, harness] + role + common, check=True)
        with open(os.path.join(workdir, "ops.json")) as f:
            return json.load(f)["reference"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ref = {}
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "record")
    for workload in WORKLOADS:
        for size in ("full", "smoke"):
            table = ref.setdefault(workload, {}).setdefault(size, {})
            for seed in range(INPUT_SEEDS):
                table[str(seed)] = record(workload, size, seed, workdir)
                print(workload, size, seed, flush=True)
            with open(REFERENCE, "w") as f:
                json.dump(ref, f, indent=1, sort_keys=True)
                f.write("\n")


if __name__ == "__main__":
    main()
