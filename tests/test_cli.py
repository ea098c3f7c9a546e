"""The command-line driver."""

import pytest

from repro.cli import build_parser, main
from repro import io


class TestHelp:
    def test_every_subcommand_listed_with_help(self, capsys):
        """The --help table derives from the subparser registry: every
        registered command must appear with a one-line description."""
        parser = build_parser()
        sub = next(
            a for a in parser._subparsers._group_actions
            if hasattr(a, "choices")
        )
        commands = set(sub.choices)
        assert {
            "solve", "generate", "trace", "report", "info",
            "bench-multirhs", "bench",
        } <= commands
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "commands:" in out
        for name in commands:
            assert name in out

    def test_epilog_lines_carry_descriptions(self):
        parser = build_parser()
        lines = parser.epilog.splitlines()[1:]
        table = lines[: lines.index("")]  # the availability note follows
        assert len(table) == 18  # fig5..fig10 + 12 named commands
        for line in table:
            name, _, help_ = line.strip().partition(" ")
            assert help_.strip(), f"command {name} has no help line"


class TestServeDefaults:
    def test_help_prints_the_one_default_group_size(self, capsys):
        """``--max-batch``'s default and its help line are the
        coalescer's constant, and the load bench's sweep ends on it."""
        from repro.serve.coalescer import DEFAULT_MAX_BATCH
        from repro.serve.loadgen import MAX_BATCH_SWEEP

        args = build_parser().parse_args(["serve"])
        assert args.max_batch == DEFAULT_MAX_BATCH == MAX_BATCH_SWEEP[-1]
        for command, words in (
            ("serve", f"(default {DEFAULT_MAX_BATCH}:"),
            ("bench-serve", "default 1 2 4 8 12)"),
        ):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            out = " ".join(capsys.readouterr().out.split())
            assert words in out


class TestFigures:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
    def test_fig_commands_run(self, n, capsys):
        assert main([f"fig{n}"]) == 0
        out = capsys.readouterr().out
        assert f"Fig" in out
        assert len(out.splitlines()) >= 3

    def test_fig5_mentions_precisions(self, capsys):
        main(["fig5"])
        out = capsys.readouterr().out
        assert "SP" in out and "HP" in out

    def test_fig10_mentions_partitionings(self, capsys):
        main(["fig10"])
        out = capsys.readouterr().out
        for label in ("ZT", "YZT", "XYZT"):
            assert label in out


class TestSolve:
    def test_bicgstab(self, capsys):
        rc = main(["solve", "--dims", "4", "4", "4", "8", "--tol", "1e-6"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_gcr_dd(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--tol", "1e-5", "--mr-steps", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gcr-dd" in out and "blocks=4" in out

    def test_gcr_dd_spmd_backend(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--tol", "1e-5", "--mr-steps", "4",
            "--backend", "threads",
        ])
        assert rc == 0
        assert "backend=threads" in capsys.readouterr().out

    def test_backend_requires_gcr_dd(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--backend", "threads",
        ])
        assert rc == 2
        assert "gcr-dd" in capsys.readouterr().err


class TestBenchSPMD:
    def test_bench_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        rc = main([
            "bench", "--dims", "4", "4", "4", "8", "--ranks", "4",
            "--repeats", "1", "--backend", "sequential",
            "--backend", "threads", "--output", str(out_path),
        ])
        assert rc == 0
        import json

        report = json.loads(out_path.read_text())
        from repro.metrics.bench_schema import validate_bench

        assert validate_bench(report) == []
        assert report["config"]["ranks"] == 4
        assert report["host"]["cpu_count"] is not None
        assert report["metrics"]["threads_speedup_vs_sequential"] > 0
        backends = [e["backend"] for e in report["results"]]
        assert backends == ["sequential", "threads"]
        assert all(e["bitwise_equal_to_first_backend"]
                   for e in report["results"])
        assert report["results"][1]["speedup_vs_sequential"] > 0


class TestKernels:
    def test_capability_matrix_printed(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        from repro.kernels import backend_names

        for name in backend_names():
            assert name in out
        assert "kernel backends:" in out

    def test_help_epilog_carries_availability_note(self):
        from repro.kernels import availability_note

        assert availability_note() in build_parser().epilog

    def test_solve_accepts_explicit_kernel(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--tol", "1e-6",
            "--kernel", "numpy",
        ])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_solve_rejects_unknown_kernel(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8",
            "--kernel", "cuda",
        ])
        assert rc == 2
        assert "SolveRequest.kernel" in capsys.readouterr().err


class TestPrecond:
    def test_capability_matrix_printed(self, capsys):
        assert main(["precond"]) == 0
        out = capsys.readouterr().out
        from repro.precond import precond_names

        for name in precond_names():
            assert name in out
        assert "preconditioners:" in out

    def test_help_epilog_carries_availability_note(self):
        from repro.precond import availability_note

        assert availability_note() in build_parser().epilog

    def test_solve_accepts_explicit_precond(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--tol", "1e-5", "--mr-steps", "4",
            "--precond", "ras",
        ])
        assert rc == 0
        assert "precond=ras" in capsys.readouterr().out

    def test_solve_rejects_unknown_precond(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--precond", "ilu",
        ])
        assert rc == 2
        assert "precond" in capsys.readouterr().err

    def test_precond_requires_gcr_dd(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--precond", "ras",
        ])
        assert rc == 2
        assert "gcr-dd" in capsys.readouterr().err

    def test_bench_precond_sweep_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench_precond.json"
        rc = main([
            "bench", "--dims", "4", "4", "4", "8", "--ranks", "4",
            "--repeats", "1", "--tol", "1e-5", "--mr-steps", "4",
            "--precond", "none", "--precond", "schwarz",
            "--output", str(out_path),
        ])
        assert rc == 0
        import json

        report = json.loads(out_path.read_text())
        from repro.metrics.bench_schema import validate_bench

        assert validate_bench(report) == []
        assert [e["precond"] for e in report["results"]] == [
            "none", "schwarz",
        ]
        assert all(e["converged"] for e in report["results"])
        assert (report["metrics"]["schwarz_iterations"]
                < report["metrics"]["none_iterations"])


class TestGenerate:
    def test_generate_and_save(self, tmp_path, capsys):
        out_path = tmp_path / "gen.npz"
        rc = main([
            "generate", "--dims", "4", "4", "4", "4", "--beta", "5.7",
            "--sweeps", "4", "--output", str(out_path),
        ])
        assert rc == 0
        assert "plaquette" in capsys.readouterr().out
        gauge, extra = io.load_gauge(out_path)
        assert extra["beta"] == 5.7
        assert 0.0 < gauge.plaquette() < 1.0

    def test_hot_start(self, capsys):
        rc = main([
            "generate", "--dims", "4", "4", "4", "4", "--beta", "1.0",
            "--sweeps", "2", "--start", "hot",
        ])
        assert rc == 0


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Edge" in out and "M2050" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
