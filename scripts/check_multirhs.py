"""Deterministic gate on a ``repro bench-multirhs`` report.

Asserts what does not depend on the host's clock: every lane converged,
each batched lane took exactly the iterations of its sequential solve,
and one batched solve issues the reductions of its slowest lane while
the sequential solves issue the sum over lanes (4^4, mass 0.1, tol 1e-8:
1152 -> 313 at batch 4, 3526 -> 318 at batch 12).  The wall-clock
speedup and the minor page faults per apply are printed, not gated.

Usage: python scripts/check_multirhs.py BENCH_multirhs.json
"""

import json
import sys

#: The system the counts below belong to (the bench's defaults).
SYSTEM = {"dims": [4, 4, 4, 4], "mass": 0.1, "csw": 1.0, "tol": 1e-8,
          "epsilon": 0.25, "seed": 0}
#: batch -> (sequential, batched) global reductions on that system.
REDUCTIONS = {1: (313, 313), 2: (601, 313), 3: (874, 313), 4: (1152, 313),
              6: (1753, 313), 8: (2339, 313), 12: (3526, 318)}


def main(path: str) -> None:
    with open(path) as fh:
        report = json.load(fh)
    config = {key: report["config"][key] for key in SYSTEM}
    assert config == SYSTEM, f"counts are for {SYSTEM}, report ran {config}"
    for entry in report["results"]:
        batch = entry["batch"]
        assert entry["all_converged"], f"batch {batch} did not converge"
        assert entry["batched_iterations"] == entry["sequential_iterations"], (
            f"batch {batch}: lanes iterate differently batched"
        )
        counts = (entry["sequential_reductions"], entry["batched_reductions"])
        assert counts == REDUCTIONS.get(batch, counts), (
            f"batch {batch}: reductions {counts} != {REDUCTIONS[batch]}"
        )
        print(f"batch {batch:3d} OK: reductions {counts[0]} -> {counts[1]}, "
              f"speedup {entry['speedup']:.2f}x, minor faults/apply "
              f"{entry.get('minor_faults_per_apply')} (not gated)")


if __name__ == "__main__":
    main(sys.argv[1])
