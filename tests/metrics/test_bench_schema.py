"""The unified BENCH_*.json schema: wrap, validate, the bench-kind
registry, CLI, and the committed reference files."""

import json
from pathlib import Path

import pytest

from repro.metrics.bench_schema import (
    BENCH_KINDS,
    BENCH_SCHEMA_VERSION,
    BenchKind,
    host_info,
    main,
    register_bench_kind,
    validate_bench,
    validate_bench_file,
    wrap_bench,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _spmd_doc(**overrides):
    doc = wrap_bench(
        "spmd",
        config={"dims": [4, 4, 4, 8], "ranks": 4, "grid": [1, 1, 2, 2]},
        metrics={"speedup": 1.5},
        results=[{
            "backend": "threads", "seconds": 1.0,
            "converged": True, "iterations": 20,
        }],
    )
    doc.update(overrides)
    return doc


class TestWrap:
    def test_wrap_produces_valid_document(self):
        doc = _spmd_doc()
        assert validate_bench(doc) == []
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["bench"] == "spmd"
        assert doc["config"]["ranks"] == 4
        assert doc["metrics"]["speedup"] == 1.5

    def test_wrap_fills_host_block(self):
        doc = _spmd_doc()
        for key in ("cpu_count", "platform", "python"):
            assert key in doc["host"]

    def test_wrap_rejects_non_scalar_metrics(self):
        with pytest.raises(ValueError):
            wrap_bench(
                "spmd",
                config={"dims": [4], "ranks": 1, "grid": [1]},
                metrics={"bad": [1, 2]},
                results=[{
                    "backend": "x", "seconds": 1.0,
                    "converged": True, "iterations": 1,
                }],
            )

    def test_host_info_reports_this_machine(self):
        host = host_info()
        assert host["cpu_count"] >= 1
        assert host["python"]


class TestValidate:
    def test_flags_every_problem(self):
        problems = validate_bench({"schema_version": 99})
        joined = "\n".join(problems)
        assert "schema_version" in joined
        assert "bench" in joined
        assert "host" in joined
        assert "metrics" in joined

    def test_non_object_rejected(self):
        assert validate_bench([]) != []

    def test_file_validator(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_spmd_doc()))
        assert validate_bench_file(str(good)) == []
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert validate_bench_file(str(bad)) != []


class TestKindRegistry:
    """The per-kind requirements that make bench-smoke reject malformed
    artifacts (ISSUE 10 satellite)."""

    def test_known_kinds_registered(self):
        for kind in ("spmd", "multirhs", "precond", "wilson_dslash_hotpath",
                     "scaling"):
            assert kind in BENCH_KINDS
        assert "serve" not in BENCH_KINDS

    def test_unknown_kind_is_a_violation(self):
        doc = _spmd_doc(bench="made_up_kind")
        problems = validate_bench(doc)
        assert any("unknown bench kind" in p for p in problems)
        # The violation names the known kinds so the writer can fix it.
        assert any("scaling" in p for p in problems)

    def test_wrap_refuses_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown bench kind"):
            wrap_bench("made_up_kind", config={}, metrics={})

    def test_missing_required_config_key(self):
        doc = _spmd_doc()
        del doc["config"]["grid"]
        problems = validate_bench(doc)
        assert any("missing 'grid'" in p for p in problems)

    def test_missing_required_result_key(self):
        doc = _spmd_doc()
        del doc["results"][0]["seconds"]
        problems = validate_bench(doc)
        assert any("missing 'seconds'" in p for p in problems)

    def test_results_required(self):
        doc = _spmd_doc()
        del doc["results"]
        problems = validate_bench(doc)
        assert any("non-empty results" in p for p in problems)

    def test_non_object_result_entry(self):
        doc = _spmd_doc()
        doc["results"].append("oops")
        problems = validate_bench(doc)
        assert any("must be an object" in p for p in problems)

    def test_scaling_kind_requirements(self):
        entry = {
            "ranks": 2, "grid": [1, 1, 1, 2], "measured_seconds": 1.0,
            "model_seconds": 0.5, "measured_efficiency": 0.9,
            "model_efficiency": 0.95, "measured_comm_fraction": 0.1,
            "model_comm_fraction": 0.2,
        }
        doc = wrap_bench(
            "scaling",
            config={"dims": [4, 4, 4, 8], "ranks": [1, 2],
                    "backend": "threads"},
            metrics={"min_measured_efficiency": 0.9},
            results=[entry],
        )
        assert validate_bench(doc) == []
        del doc["results"][0]["model_seconds"]
        problems = validate_bench(doc)
        assert any("model_seconds" in p for p in problems)

    def test_register_is_idempotent_per_name(self):
        before = BENCH_KINDS["spmd"]
        try:
            register_bench_kind(BenchKind("spmd"))
            assert BENCH_KINDS["spmd"].required_config == ()
        finally:
            register_bench_kind(before)


class TestCLI:
    def test_ok_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_spmd_doc()))
        assert main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main([str(path)]) == 1

    def test_no_args_exit_two(self, capsys):
        assert main([]) == 2


class TestCommittedReferences:
    @pytest.mark.parametrize(
        "name",
        [
            "BENCH_spmd.json",
            "BENCH_multirhs.json",
            "BENCH_hotpath.json",
            "BENCH_precond.json",
            "BENCH_scaling.json",
        ],
    )
    def test_committed_bench_files_valid(self, name):
        path = REPO_ROOT / name
        doc = json.loads(path.read_text())
        assert validate_bench(doc) == [], name
