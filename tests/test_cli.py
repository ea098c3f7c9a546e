"""The command-line driver."""

import pytest

from repro.cli import build_parser, main


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
            "solve", "trace", "report", "info",
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
        assert len(table) == 16  # fig5..fig10 + 10 named commands
        for line in table:
            name, _, help_ = line.strip().partition(" ")
            assert help_.strip(), f"command {name} has no help line"


class TestServeDefaults:
    def test_help_prints_the_one_default_group_size(self, capsys):
        """``--max-batch``'s default and its help line are the
        coalescer's constant."""
        from repro.serve.coalescer import DEFAULT_MAX_BATCH

        args = build_parser().parse_args(["serve"])
        assert args.max_batch == DEFAULT_MAX_BATCH
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"(default {DEFAULT_MAX_BATCH}:" in out


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
        err = capsys.readouterr().err
        assert "SolveRequest.backend" in err and "gcr-dd" in err

    def test_overlap_requires_backend(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--overlap",
        ])
        assert rc == 2
        assert "SolveRequest.overlap" in capsys.readouterr().err


class TestTrace:
    def test_overlap_runs_under_the_default_backend(self, tmp_path, capsys):
        """``trace --overlap`` needs no --backend: the overlapped schedule
        runs under the default sequential one."""
        rc = main([
            "trace", "--dims", "4", "4", "4", "8", "--grid", "1", "1", "1",
            "2", "--overlap", "--no-model",
            "--output", str(tmp_path / "trace.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out and "overlap" in out
        assert (tmp_path / "trace.json").exists()

    def test_overlap_help_does_not_demand_a_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        assert "needs --backend" not in capsys.readouterr().out


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
        assert "SolveRequest.precond" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sap", "twolevel"])
    def test_solve_rejects_a_precond_no_entry_registers(self, name, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--method", "gcr-dd",
            "--blocks", "4", "--precond", name,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "SolveRequest.precond" in err and repr(name) in err
        assert "auto, schwarz, ras, multisplit, none" in err

    def test_precond_requires_gcr_dd(self, capsys):
        rc = main([
            "solve", "--dims", "4", "4", "4", "8", "--precond", "ras",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "SolveRequest.precond" in err and "gcr-dd" in err

    @pytest.mark.parametrize("name", ["twolevel", "ilu"])
    def test_bench_refuses_a_precond_no_entry_registers(self, name, capsys):
        rc = main([
            "bench", "--dims", "4", "4", "4", "8", "--ranks", "4",
            "--precond", "none", "--precond", name,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert repr(name) in err and "Traceback" not in err
        assert "valid choices: auto, schwarz, ras, multisplit, none" in err

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


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Edge" in out and "M2050" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_the_load_bench_command_is_gone(self, capsys):
        """``bench-serve`` left with the daemon's load bench: argparse
        refuses it like any other unknown command."""
        with pytest.raises(SystemExit) as exc:
            main(["bench-serve"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench-serve'" in capsys.readouterr().err
