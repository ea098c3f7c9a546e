"""``python -m e2e_bench compare A B`` — the verdict on two result sets.

A result set is a directory of result files written by ``run``, one such
file, or a ``.jsonl`` file with one result per line; A is the parent, B
the change.  Both sets must hold the same seeds, run with the same
rounds and operations per round.  Nothing is compared across seeds: the
k-th run of a seed in A is paired with the k-th run of that seed in B,
and per (end-to-end metric, workload) row the benchmark's own bound from
``BENCHMARK.json`` applies to the pairs' ratios B/A:

* ``ok``          the median ratio is no worse than 1 by more than the bound;
* ``regression``  it is worse by more than the bound;
* ``unresolved``  the spread of the ratios (their interquartile range
  over their median) exceeds the bound, so the row proves nothing —
  unless B reads better than A in every pair.

Exact-count layer metrics must be identical in every run of the same
seed, and no run may have a failed operation.  The exit code is the
verdict: 0 all rows ok, 1 otherwise, 2 unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from e2e_bench import spec


class UnusableInput(Exception):
    pass


def load_set(path: str) -> list[dict]:
    p = Path(path)
    if p.is_dir():
        texts = [f.read_text() for f in sorted(p.glob("*.json"))]
    elif p.suffix == ".jsonl":
        texts = p.read_text().splitlines()
    else:
        texts = [p.read_text()]
    docs = [json.loads(t) for t in texts if t.strip()]
    docs = [d for d in docs if d.get("schema") == "e2e_bench/1"]
    if any(d.get("smoke") for d in docs):
        raise UnusableInput(f"{path}: smoke results carry no evidence")
    if not docs:
        raise UnusableInput(f"{path}: no results found")
    return docs


def shape_of(docs: list[dict]) -> dict:
    """What must agree between two sets before their times may be
    paired: per workload, the seeds run (in order) and the run shape."""
    shape: dict[str, dict] = {}
    for d in docs:
        for name in d["workloads"]:
            entry = shape.setdefault(name, {"seeds": [], "run": set()})
            entry["seeds"].append(d["seed"])
            entry["run"].add((d["rounds"], d["ops_per_round"][name]))
    for entry in shape.values():
        entry["seeds"].sort()
    return shape


def pairs_of(set_a, set_b, workload: str, metric: str) -> list[tuple]:
    """``(a, b)`` values of one row: the k-th run of each seed in A with
    the k-th run of the same seed in B."""
    def by_seed(docs):
        values: dict[int, list[float]] = {}
        for d in docs:
            rec = d["workloads"].get(workload, {}).get("end_to_end", {})
            if metric in rec:
                values.setdefault(d["seed"], []).append(rec[metric]["value"])
        return values

    a, b = by_seed(set_a), by_seed(set_b)
    return [pair for seed in sorted(a) for pair in zip(a[seed], b.get(seed, []))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def row_verdict(pairs: list[tuple], better: str, bound: float) -> dict:
    """Verdict from the per-pair ratios B/A, each turned so that above 1
    is worse."""
    ratios = [b / a if better == "lower" else a / b for a, b in pairs]
    q1, median, q3 = quartiles(ratios)
    spread = (q3 - q1) / median
    if spread > bound:
        verdict = "ok" if max(ratios) < 1.0 else "unresolved"
    else:
        verdict = "regression" if median - 1.0 > bound else "ok"
    return {"a": quartiles([a for a, _ in pairs]),
            "b": quartiles([b for _, b in pairs]),
            "worse_by": median - 1.0, "spread": spread, "verdict": verdict}


def compare(path_a: str, path_b: str, out=print) -> int:
    try:
        set_a, set_b = load_set(path_a), load_set(path_b)
        shape_a, shape_b = shape_of(set_a), shape_of(set_b)
        for name in sorted(set(shape_a) | set(shape_b)):
            if shape_a.get(name) != shape_b.get(name):
                raise UnusableInput(
                    f"{name}: the sets differ in seeds, rounds or operations "
                    f"per round ({shape_a.get(name)} vs {shape_b.get(name)})")
            if len(shape_a[name]["run"]) > 1:
                raise UnusableInput(f"{name}: runs of different shape in "
                                    f"one set {sorted(shape_a[name]['run'])}")
    except UnusableInput as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    decl = spec.declared()
    bad = 0
    out(f"A = {path_a} ({len(set_a)} runs)   B = {path_b} ({len(set_b)} runs)")
    out("worse by / spread: median and interquartile range of the ratios "
        "B/A of runs paired by seed")
    out(f"{'workload':<22}{'metric':<13}{'A q1/median/q3':<28}"
        f"{'B q1/median/q3':<28}{'pairs':>6}{'worse by':>9}{'spread':>8}"
        f"{'bound':>7}  verdict")
    for name in (n for n in spec.WORKLOADS if n in shape_a):
        for m in decl["end_to_end"]:
            pairs = pairs_of(set_a, set_b, name, m["name"])
            if len(pairs) < 2:
                out(f"{name:<22}{m['name']:<13}fewer than 2 paired runs")
                bad += 1
                continue
            row = row_verdict(pairs, m["better"], m["bound"])
            bad += row["verdict"] != "ok"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            out(f"{name:<22}{m['name']:<13}{fmt(row['a']):<28}"
                f"{fmt(row['b']):<28}{len(pairs):>6}{row['worse_by']:>+9.1%}"
                f"{row['spread']:>8.1%}{m['bound']:>7.0%}  {row['verdict']}")

    # Exact counts: identical in every run of one seed, on both sides.
    seen: dict[tuple, set] = {}
    for doc in set_a + set_b:
        for name, result in doc["workloads"].items():
            for metric, rec in result.get("per_layer", {}).items():
                if rec.get("exact"):
                    seen.setdefault((doc["seed"], name, metric),
                                    set()).add(rec["value"])
    mismatched = {k: v for k, v in seen.items() if len(v) > 1}
    for (seed, name, metric), values in sorted(mismatched.items()):
        out(f"count mismatch: seed {seed} {name} {metric}: {sorted(values)}")
    out(f"exact counts: {len(seen) - len(mismatched)} of {len(seen)} "
        "(seed, workload, metric) rows identical in every run")
    failed = [(label, doc["seed"], name, r["failed"], r["attempted"])
              for label, docs in (("A", set_a), ("B", set_b))
              for doc in docs for name, r in doc["workloads"].items()
              if r["failed"]]
    for label, seed, name, n, of in failed:
        out(f"failed operations: set {label} seed {seed} {name}: {n} of {of}")
    bad += len(mismatched) + len(failed)
    out("verdict: " + ("ok" if not bad else f"{bad} row(s) not ok"))
    return 0 if not bad else 1
