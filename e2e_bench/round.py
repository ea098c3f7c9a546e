"""One round of one workload, in a fresh process.

    python -m e2e_bench.round '<json arguments>'

set-up → one untimed warm-up operation → n timed operations →
verification; a traced round runs the n operations twice (tracer on,
then off) and ends with the layer probes.  The result is one
``E2E_BENCH_ROUND {json}`` line on stdout.  The parent (``harness.py``)
owns the process group and the round timeout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from e2e_bench.spans import Recorder, self_seconds_by_kind, write_chrome_trace

MARKER = "E2E_BENCH_ROUND "
TRACE_KINDS = ("dslash", "halo", "gather", "comm", "scatter", "interior",
               "exterior", "precond", "matvec", "blas", "reduction", "solver")


def run_round(args: dict) -> dict:
    recorder = Recorder(args["round_id"])
    with recorder.span("round") as round_span:
        with recorder.span("setup.import"):
            import numpy
            import repro.trace
            from repro.kernels import resolve_kernel

            from e2e_bench import probes, workloads

        tracer = None
        if args["traced"]:
            tracer = repro.trace.Tracer()
            tracer.epoch = round_span["start"]
        workload = workloads.build(args["workload"], args["seed"])
        traced_ops = None
        probe_values: dict = {}
        try:
            with repro.trace.tracing(tracer) if tracer else nullcontext():
                with recorder.span("setup.inputs"):
                    workload.make_inputs()
                with recorder.span("setup.operator"):
                    workload.make_operator()
                warmup = workload.warmup(recorder)
                setup_s = time.perf_counter() - args["t_spawn"]
                ops = workload.window(args["ops"], recorder)
            if tracer and workload.traceable:
                # The same operations again with the program's tracer off,
                # moments later in the same process: what the traced ones
                # and the probes below are compared with.
                traced_ops = ops
                ops = workload.window(args["ops"], recorder, "untraced")
            every = (traced_ops or []) + ops
            with recorder.span("verify"):
                problems = workload.verify([warmup] + every)
            summary = workload.summarize(ops)
            if tracer:
                probe_values = probes.run_probes(recorder, workload)
        finally:
            workload.close()

    failures = [f"warm-up: {warmup.error}"] if warmup.error else []
    failures += [f"op {i}: {op.error}" for i, op in enumerate(every)
                 if op.error]
    failures += [f"verify: {p}" for p in problems]
    good = [op for op in ops if op.error is None]
    # A failed warm-up or verification leaves no operation of the round
    # trustworthy: they all count as failed.
    failed = (len(every) if warmup.error or problems
              else sum(op.error is not None for op in every))
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "round": args["round_id"],
        "traced": args["traced"],
        "setup_s": setup_s,
        "op_seconds": [op.seconds for op in good],
        "window_s": max(op.end for op in ops) - min(op.start for op in ops),
        "rhs": len(good) * workload.w.rhs_per_op,
        "attempted": len(every),
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": usage / 1024.0,
        "numpy": numpy.__version__,
        "kernel_tiers": {
            family: resolve_kernel("auto", operator=family).name
            for family in ("wilson", "staggered")
        },
        **summary,
    }
    if tracer:
        probe_values["setup.import_s"] = recorder.seconds("setup.import")
        if workload.operator_setup_metric:
            probe_values[workload.operator_setup_metric] = (
                recorder.seconds("setup.operator"))
        events = [
            {"lane": ev.rank, "kind": ev.kind,
             "start": tracer.epoch + ev.start,
             "end": tracer.epoch + ev.start + ev.duration}
            for ev in tracer.events
        ]
        kinds = self_seconds_by_kind(events, recorder.intervals("op["))
        result["probes"] = probe_values
        if traced_ops:
            result["traced_op_seconds"] = [
                op.seconds for op in traced_ops if op.error is None]
            result["trace_kinds"] = {
                f"trace.kind.{kind}_s": kinds.get(kind, 0.0) / len(traced_ops)
                for kind in TRACE_KINDS
            }
        write_chrome_trace(
            Path(args["out"]) / f"trace_{args['workload']}.json",
            repro.trace.events_to_chrome(tracer.events), recorder,
            tracer.epoch,
        )
    return result


def main(argv: list[str]) -> int:
    result = run_round(json.loads(argv[0]))
    print(MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
