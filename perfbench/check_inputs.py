"""Check that benchmark inputs are a pure function of the workload seed.

For every workload, inputs generated twice from one seed must be
byte-identical and inputs from two different seeds must differ.  Run from
the repository root:

    python3 perfbench/check_inputs.py

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys

import run  # sets up the import path and thread limits
import workloads as wl


def digest(workload, seed: int) -> str:
    if workload.backend == "supernet":
        return wl.input_digest(workload, seed, [])
    run.OUT.mkdir(exist_ok=True)
    paths = run.space_paths(workload, seed)
    try:
        run.write_spaces(workload, seed, paths)
        return wl.input_digest(workload, seed, paths)
    finally:
        for path in paths:
            path.unlink(missing_ok=True)


def main() -> int:
    ok = True
    for name, workload in sorted(wl.WORKLOADS.items()):
        first, again, other = digest(workload, 0), digest(workload, 0), digest(workload, 1)
        same = first == again
        differ = first != other
        ok = ok and same and differ
        print(f"{name}: seed 0 twice identical={same}; seeds 0 and 1 differ={differ}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
