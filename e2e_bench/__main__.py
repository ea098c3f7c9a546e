"""Command line: ``run`` and ``compare`` (see ``e2e_bench/README.md``).

``run`` serves both the humans' form from the issue
(``python -m e2e_bench run [--seed S] [--workload W] [--trace] [--out DIR]``)
and the benchmark driver's form
(``... run --workload W --seed N --seconds T --trace 0|1``): the last
line of its standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from e2e_bench import spec


def format_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_workload(name: str, why: str, result: dict, decl: dict) -> None:
    flags = " [oversubscribed]" if result["oversubscribed"] else ""
    print(f"\n{name}{flags} — {why}")
    for m in decl["end_to_end"]:
        rec = result.get("end_to_end", {}).get(m["name"])
        if rec is not None:
            print(f"  {m['name']:<34}{format_value(rec['value']):>14} "
                  f"{rec['unit']:<6} n={rec['samples']}")
    if "end_to_end" in result or result["failed"]:
        print(f"  {'failed_frac':<34}{format_value(result['failed_frac']):>14}"
              f" ratio  ({result['failed']} of {result['attempted']} "
              "operations)")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")
    for metric, rec in result["per_layer"].items():
        tag = "  exact" if rec["exact"] else ""
        print(f"  {metric:<34}{format_value(rec['value']):>14} "
              f"{rec['unit']:<6}{tag}")
    if result.get("counts_repeat") is False:
        print("    WARNING exact counts differed between operations")


def contract_line(doc: dict, decl: dict, trace: str) -> dict:
    """The benchmark driver's result object for a one-workload run."""
    (result,) = doc["workloads"].values()
    metrics = {}
    if trace != "1":
        metrics.update({k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in result.get("end_to_end", {}).items()})
    if trace != "0":
        # The driver wants every declared layer metric on every workload:
        # one that does not apply here (no daemon, no ranks) reads 0.
        for m in decl["per_layer"]:
            rec = result["per_layer"].get(m["name"])
            metrics[m["name"]] = {
                "value": rec["value"] if rec else 0.0, "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0
        and result.get("counts_repeat", True),
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }


def cmd_run(args) -> int:
    from e2e_bench import harness

    if not (spec.SRC / "repro" / "__init__.py").is_file():
        print(f"e2e_bench: the program under test is missing: "
              f"{spec.SRC / 'repro'} not found", file=sys.stderr)
        return 3
    decl = spec.declared()
    why = spec.reasons()
    names = args.workload or list(why)
    unknown = [n for n in names if n not in spec.WORKLOADS]
    if unknown:
        print(f"e2e_bench: unknown workload {unknown}; "
              f"choose from {list(why)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    rounds = 1 if args.smoke else spec.ROUNDS
    print(f"e2e_bench run: seed {args.seed}, workloads {names}, "
          f"trace {args.trace}" + (", SMOKE" if args.smoke else ""))
    doc = harness.measure(
        names, args.seed, rounds, args.seconds,
        untraced=args.trace != "1", traced=args.trace != "0",
        out_dir=out_dir, smoke=args.smoke,
    )
    for name in names:
        print_workload(name, why[name], doc["workloads"][name], decl)
    host = doc["host"]
    print(f"\nhost: {host['cpu_count']} cpus, load "
          f"{host['loadavg_1min_start']:.2f} -> "
          f"{host['loadavg_1min_end']:.2f}, BLAS threads "
          f"{host['blas_threads']}, python {host['python']}, numpy "
          f"{host.get('numpy')}, kernel auto -> {host.get('kernel_auto')}")
    result_file = out_dir / f"result_{time.time_ns()}.json"
    result_file.write_text(json.dumps(doc, indent=1))
    print(f"result written to {result_file}")

    results = doc["workloads"].values()
    complete = all(
        ("end_to_end" in r or args.trace == "1")
        and (args.trace == "0" or "core.unattributed_frac" in r["per_layer"])
        for r in results)
    correct = complete and all(r["failed"] == 0 for r in results)
    if len(names) == 1:
        line = contract_line(doc, decl, args.trace)
        line["correct"] = line["correct"] and correct
    else:
        line = {"correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "result": str(result_file)}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure and verify the workloads")
    run.add_argument("--workload", action="append",
                     help="workload name (repeatable; default: all six, gated or not)")
    run.add_argument("--seed", type=int, default=0,
                     help="gauge rng = S, sources = S+1, wire data = S+2")
    run.add_argument("--seconds", type=float, default=None,
                     help="measured seconds per run; rescales the frozen "
                          "operations-per-round (default: as frozen)")
    run.add_argument("--trace", nargs="?", const="both", default="0",
                     choices=("0", "1", "both"),
                     help="0: untraced pass only; 1: traced pass only; "
                          "bare --trace: both")
    run.add_argument("--smoke", action="store_true",
                     help="1 round x 1 operation; marked, rejected by compare")
    run.add_argument("--out", default=str(spec.OUT_DIR),
                     help="directory for result and trace files")
    cmp_ = sub.add_parser("compare", help="verdict on two result sets")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        from e2e_bench.compare import compare

        return compare(args.a, args.b)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
