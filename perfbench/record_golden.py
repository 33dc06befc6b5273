"""Record the output bytes the benchmark checks runs against.

    python3 perfbench/record_golden.py

Runs every request of every workload for the default seed once and
writes, per workload, a digest of each request's output keyed by its
input to perfbench/golden.json.  A later run whose input has a recorded
digest must print the same bytes.
Re-record only when the program's output is meant to change.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import GOLDEN_PATH, digest  # noqa: E402


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, workloads.DEFAULT_SEED)
        recorded = {}
        for op in workload.ops:
            result = op.run()
            reason = op.verify(result)
            if reason:
                print(f"{name}: {op.key}: {reason}", file=sys.stderr)
                return 1
            recorded[op.key] = digest(op.render(result))
        golden[name] = recorded
        print(f"{name}: {len(recorded)} outputs recorded", flush=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
