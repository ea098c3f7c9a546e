"""Self-test of the benchmark (not of the program): run as

    PYTHONPATH=src python -m pytest e2e_bench -q

It is outside tier-1's ``testpaths`` because it runs every workload once
(``run --smoke --trace``, about two minutes on the 2-core host).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from e2e_bench import spec
from e2e_bench.compare import compare, row_verdict
from e2e_bench.spans import BENCH_PID, self_seconds_by_kind

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DECLARED = spec.declared()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e_smoke")
    proc = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "run", "--smoke", "--trace",
         "--out", str(out)],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    (result_file,) = out.glob("result_*.json")
    return out, json.loads(result_file.read_text()), proc.stdout


def test_declaration_is_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    gated = {w["name"] for w in DECLARED["workloads"]}
    assert not gated & set(spec.UNGATED)
    assert set(spec.WORKLOADS) == gated | set(spec.UNGATED)
    assert list(spec.reasons()) == list(spec.WORKLOADS)
    assert DECLARED["paths"] == ["e2e_bench"]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    layer = {m["name"] for m in DECLARED["per_layer"]}
    assert spec.EXACT_COUNTS <= layer


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    _, doc, _ = smoke
    assert doc["smoke"] is True
    units = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    emitted_somewhere = set()
    assert list(doc["workloads"]) == list(spec.WORKLOADS)
    for result in doc["workloads"].values():
        assert result["failed"] == 0, result["failures"]
        for m in DECLARED["end_to_end"]:
            rec = result["end_to_end"][m["name"]]
            assert rec["unit"] == m["unit"] and rec["value"] > 0
        for name, rec in result["per_layer"].items():
            assert rec["unit"] == units[name]
        emitted_somewhere |= set(result["per_layer"])
    # A layer metric may not apply to a workload (no daemon, no ranks);
    # comm.parallel_eff is withheld on an oversubscribed host.
    missing = set(units) - emitted_somewhere
    assert missing <= {"comm.parallel_eff"}, missing


def test_exact_counts_are_integers_and_repeat(smoke):
    _, doc, _ = smoke
    for name, result in doc["workloads"].items():
        assert result["counts_repeat"], name
        for metric, rec in result["per_layer"].items():
            if rec["exact"]:
                assert isinstance(rec["value"], int), (name, metric)


def test_layer_estimates_do_not_exceed_the_solve(smoke):
    _, doc, _ = smoke
    for name, result in doc["workloads"].items():
        layer = result["per_layer"]
        total = sum(rec["value"] for metric, rec in layer.items()
                    if metric.startswith("core.est_"))
        assert total > 0, name
        # unattributed_frac = 1 - total / solve_s.  Library workloads time
        # both in the traced round's one process, moments apart — but the
        # smoke round has one operation, the estimates cover up to 98% of
        # it (asqtad_multishift), and the host's 10-20 s slow bursts can
        # fall on the probes and not on the operation: -0.022 was seen.
        # The serve solves run in the daemon and the probes in its client:
        # two processes, and estimates that cover nearly the whole operation.
        slack = 0.10 if spec.WORKLOADS[name].kind == "serve" else 0.05
        assert layer["core.unattributed_frac"]["value"] >= -slack, (
            name, total)


def test_every_span_has_a_parent_and_its_round(smoke):
    out, _, _ = smoke
    for name in spec.WORKLOADS:
        trace = json.loads((out / f"trace_{name}.json").read_text())
        spans = [e for e in trace["traceEvents"]
                 if e.get("pid") == BENCH_PID and e["ph"] == "X"]
        ids = {s["args"]["id"] for s in spans}
        roots = [s for s in spans if s["args"]["parent"] is None]
        assert [s["name"] for s in roots] == ["round"]
        for s in spans:
            assert s["args"]["round"] == "traced"
            assert s["ts"] >= 0 and s["dur"] >= 0
            assert s["args"]["parent"] in ids or s is roots[0]
        names = {s["name"] for s in spans}
        assert {"setup.import", "setup.inputs", "setup.operator", "warmup",
                "verify"} <= names
        assert any(n.startswith("op[") for n in names)
        assert any(n.startswith("probe.") for n in names)


def test_smoke_results_are_rejected_by_compare(smoke, capsys):
    out, _, _ = smoke
    assert compare(str(out), str(out)) == 2
    assert "smoke" in capsys.readouterr().err


def test_last_line_is_one_json_object(smoke):
    _, _, stdout = smoke
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1


def test_row_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    # seeds differ by far more than the bound; pairs of one seed agree
    by_seed = [1.0, 1.6, 0.7, 1.2, 2.0]

    def pairs(factors):
        return [(a, a * f) for a, f in zip(by_seed, factors)]

    assert row_verdict(pairs(steady), "lower", 0.10)["verdict"] == "ok"
    slower = [f * 1.2 for f in steady]
    assert row_verdict(pairs(slower), "lower", 0.10)["verdict"] == "regression"
    assert row_verdict(pairs(slower), "higher", 0.10)["verdict"] == "ok"
    faster = [f / 1.2 for f in steady]
    assert row_verdict(pairs(faster), "lower", 0.10)["verdict"] == "ok"
    assert row_verdict(pairs(faster), "higher", 0.10)["verdict"] == "regression"
    noisy = [1.0, 1.3, 0.8, 1.1, 0.7]
    assert row_verdict(pairs(noisy), "lower", 0.10)["verdict"] == "unresolved"
    # wide spread, but B beats A in every pair
    assert row_verdict(pairs([0.5, 0.6, 0.4, 0.65, 0.3]), "lower",
                       0.10)["verdict"] == "ok"


def result_doc(seed, solve_s, ops=2, iterations=60):
    names = list(spec.WORKLOADS)
    return {
        "schema": "e2e_bench/1", "smoke": False, "seed": seed, "rounds": 3,
        "ops_per_round": dict.fromkeys(names, ops),
        "workloads": {name: {
            "failed": 0, "attempted": 3 * ops,
            "end_to_end": {
                m["name"]: {"value": solve_s, "unit": m["unit"]}
                for m in DECLARED["end_to_end"]},
            "per_layer": {"solvers.iterations": {
                "value": iterations, "unit": "count", "exact": True}},
        } for name in names},
    }


def write_set(path, docs):
    path.write_text("\n".join(json.dumps(d) for d in docs))
    return str(path)


def test_compare_pairs_by_seed_and_rejects_mismatched_sets(tmp_path, capsys):
    a = write_set(tmp_path / "a.jsonl",
                  [result_doc(s, 1.0 + s, iterations=60 + s) for s in range(4)])
    same = write_set(tmp_path / "b.jsonl",
                     [result_doc(s, (1.0 + s) * 1.01, iterations=60 + s)
                      for s in range(4)])
    lines: list[str] = []
    assert compare(a, same, out=lines.append) == 0
    rows = [ln for ln in lines if ln.endswith("  ok")]
    assert len(rows) == len(spec.WORKLOADS) * len(DECLARED["end_to_end"])

    other_count = write_set(
        tmp_path / "c.jsonl",
        [result_doc(s, 1.0 + s, iterations=61) for s in range(4)])
    assert compare(a, other_count, out=lines.append) == 1
    assert any(ln.startswith("count mismatch") for ln in lines)

    for name, docs in (
        ("seeds", [result_doc(s, 1.0) for s in range(1, 5)]),
        ("ops", [result_doc(s, 1.0, ops=3) for s in range(4)]),
    ):
        bad = write_set(tmp_path / f"{name}.jsonl", docs)
        assert compare(a, bad) == 2
        assert "differ in seeds, rounds or operations" in capsys.readouterr().err


def test_self_time_subtracts_covered_children():
    events = [
        {"lane": 0, "kind": "halo", "start": 0.0, "end": 10.0},
        {"lane": 0, "kind": "comm", "start": 1.0, "end": 4.0},
        {"lane": 0, "kind": "comm", "start": 5.0, "end": 6.0},
        {"lane": 0, "kind": "dslash", "start": 20.0, "end": 21.0},  # outside
        {"lane": 1, "kind": "halo", "start": 0.0, "end": 8.0},
    ]
    kinds = self_seconds_by_kind(events, [(0.0, 10.0)])
    # mean over the two lanes: halo (10 - 4) and 8, comm 4 and 0
    assert kinds == {"halo": 7.0, "comm": 2.0}
