"""Record the reference output fingerprints the benchmark compares against.

Run from the repository root on the commit whose outputs are the
reference::

    python3 perfbench/record.py --workloads campaign service --seeds 0-20

Each (workload, seed) runs one iteration in a fresh interpreter; its
fingerprint is merged into ``perfbench/fingerprints.json``.  A later
commit whose outputs differ on a recorded seed counts that run as
failed, so a change that alters outputs on purpose records again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import BUDGET_S, HERE, ROOT, WORKLOADS, run_child  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS)
    )
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-20"))
    args = parser.parse_args(argv)
    path = os.path.join(HERE, "fingerprints.json")
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
    scratch_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch_root, exist_ok=True)
    for workload in args.workloads:
        for seed in args.seeds:
            workdir = tempfile.mkdtemp(prefix="record-", dir=scratch_root)
            try:
                deadline = time.monotonic() + BUDGET_S
                result = run_child(
                    workload, seed, 0.0, 0, workdir, deadline, iterations=1
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result["errors"]:
                print(f"{workload} seed {seed}: not recorded, {result['errors']}")
                continue
            recorded.setdefault(workload, {})[str(seed)] = result["fingerprint"]
            print(f"{workload} seed {seed}: {result['fingerprint']}", flush=True)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(recorded, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
