#!/usr/bin/env bash
# Multi-RHS batching benchmark (docs/api.md).
#
# 1. Runs `python -m repro bench-multirhs` at batch sizes 1/2/3/4/6/8/12
#    (its default) on a small Wilson-clover system, timing the batched
#    execution path against the same solves run sequentially, with the
#    minor page faults per operator application of each batched solve
#    beside it, and writes the JSON report to BENCH_multirhs.json at the
#    repo root.
# 2. Gates what is deterministic (scripts/check_multirhs.py: every lane
#    converged, per-lane iterations unchanged by batching, reductions
#    1152 -> 313 at batch 4 and 3526 -> 318 at batch 12); the wall-clock
#    speedup and the faults are recorded and printed, not asserted.
# 3. Runs the fast test lane (`-m "not slow"`), which includes the
#    batched-kernel equality, multi-RHS solver, and batched-halo tests,
#    so the batched path cannot silently rot.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

python -m repro bench-multirhs \
    --dims 4 4 4 4 --mass 0.1 --tol 1e-8 \
    --output BENCH_multirhs.json

python -m repro.metrics.bench_schema BENCH_multirhs.json

python scripts/check_multirhs.py BENCH_multirhs.json

python -m pytest -q -m "not slow"
