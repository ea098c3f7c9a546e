"""Command-line driver: ``python -m repro <command>``.

A small application shell over the library, in the spirit of the QUDA
test/benchmark executables.  The full subcommand table is generated from
the registered subparsers (see :func:`build_parser`) and printed by
``python -m repro --help`` — it cannot drift from the actual commands.
The families: ``figN`` regenerate the paper's figure tables from the
performance model, ``solve``/``generate`` run real numerics on synthetic
configurations, ``bench``/``bench-multirhs`` time the SPMD execution
backends and the batched multi-RHS path, ``trace`` captures a Perfetto
timeline of a distributed solve (docs/observability.md), ``serve`` runs
the coalescing solve daemon (docs/serving.md), ``bench-serve`` load-tests
that daemon, ``scaling-sweep`` runs the measured-vs-model strong-scaling
sweep (docs/observability.md, "Scaling observatory"), ``report`` draws
ASCII charts, and ``info`` prints the hardware/calibration summary.
"""

from __future__ import annotations

import argparse
import os
import sys


def _cmd_fig(args) -> int:
    from repro.core.scaling import (
        DslashScalingStudy,
        MultishiftScalingStudy,
        WilsonSolverScalingStudy,
    )
    from repro.perfmodel.kernels import OperatorKind
    from repro.perfmodel.machines import CPU_MACHINES
    from repro.precision import DOUBLE, HALF, SINGLE

    fig = args.figure
    if fig == 5:
        gpus = [8, 16, 32, 64, 128, 256]
        print("Fig. 5 — Wilson-clover dslash (Gflops/GPU), V=32^3x256")
        for prec, label in [(SINGLE, "SP"), (HALF, "HP")]:
            study = DslashScalingStudy(
                (32, 32, 32, 256), OperatorKind.WILSON_CLOVER, prec, 12
            )
            rates = "  ".join(
                f"{p.gflops_per_gpu:7.1f}" for p in study.run(gpus)
            )
            print(f"  {label}: {rates}")
    elif fig == 6:
        gpus = [32, 64, 128, 256]
        print("Fig. 6 — asqtad dslash (Gflops/GPU), V=64^3x192")
        for label, dims in [("ZT", (3, 2)), ("YZT", (3, 2, 1)),
                            ("XYZT", (3, 2, 1, 0))]:
            for prec, pl in [(DOUBLE, "DP"), (SINGLE, "SP")]:
                study = DslashScalingStudy(
                    (64, 64, 64, 192), OperatorKind.ASQTAD, prec, 18,
                    partition_dims=dims,
                )
                rates = "  ".join(
                    f"{p.gflops_per_gpu:6.1f}" for p in study.run(gpus)
                )
                print(f"  {label:>4} {pl}: {rates}")
    elif fig in (7, 8):
        study = WilsonSolverScalingStudy()
        print("Figs. 7-8 — BiCGstab vs GCR-DD, V=32^3x256")
        print("  GPUs  bicg-Tf  gcr-Tf  bicg-s  gcr-s  speedup")
        for n in [4, 8, 16, 32, 64, 128, 256]:
            b, g = study.bicgstab_point(n), study.gcr_point(n)
            print(
                f"  {n:4d}  {b.tflops:7.2f} {g.tflops:7.2f}"
                f"  {b.seconds:6.2f} {g.seconds:6.2f}"
                f"  {b.seconds / g.seconds:6.2f}x"
            )
    elif fig == 9:
        print("Fig. 9 — CPU capability machines (Tflops), V=32^3x256")
        cores = [4096, 8192, 16384, 32768]
        print("  cores: " + "  ".join(f"{c:>7d}" for c in cores))
        for m in CPU_MACHINES:
            rates = "  ".join(f"{m.sustained_tflops(c):7.2f}" for c in cores)
            print(f"  {m.name}: {rates}")
    elif fig == 10:
        ms = MultishiftScalingStudy()
        print("Fig. 10 — asqtad multi-shift (total Tflops), V=64^3x192")
        for label, dims in [("ZT", (3, 2)), ("YZT", (3, 2, 1)),
                            ("XYZT", (3, 2, 1, 0))]:
            rates = "  ".join(
                f"{ms.point(n, dims).tflops:5.2f}" for n in (64, 128, 256)
            )
            print(f"  {label:>4}: {rates}")
    else:
        print(f"no such figure: {fig}", file=sys.stderr)
        return 2
    return 0


def _cmd_solve(args) -> int:
    from repro.comm.grid import choose_grid
    from repro.core import GCRDDConfig
    from repro.core.api import SolveRequest, solve
    from repro.lattice import GaugeField, Geometry, SpinorField

    geometry = Geometry(tuple(args.dims))
    gauge = GaugeField.weak(geometry, epsilon=args.epsilon, rng=args.seed)
    b = SpinorField.random(geometry, rng=args.seed + 1).data
    request = SolveRequest(
        operator="wilson_clover", gauge=gauge, rhs=b,
        mass=args.mass, csw=args.csw, method=args.method, tol=args.tol,
        kernel=args.kernel,
    )
    extra = ""
    if args.method == "gcr-dd":
        grid = choose_grid(args.blocks, (3, 2, 1, 0), geometry.dims)
        request.grid = grid
        request.config = GCRDDConfig(tol=args.tol)
        request.tol = None  # the config carries the tolerance
        request.precond = args.precond
        request.precond_steps = args.mr_steps
        request.precond_overlap = args.precond_overlap
        request.backend = args.backend
        request.overlap = args.overlap
        extra = f" grid={grid.label} blocks={grid.size}"
        if args.backend:
            extra += f" backend={args.backend}"
        if args.overlap and not args.backend:
            print("--overlap needs --backend (the overlapped halo schedule "
                  "is an SPMD execution path)", file=sys.stderr)
            return 2
    elif args.backend or args.overlap:
        print("--backend/--overlap require --method gcr-dd", file=sys.stderr)
        return 2
    elif args.precond != "auto":
        print("--precond requires --method gcr-dd", file=sys.stderr)
        return 2
    try:
        res = solve(request)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    status = "converged" if res.converged else "FAILED"
    resolved = (res.extras or {}).get("precond")
    if resolved:
        extra += f" precond={resolved}"
    print(
        f"{args.method} on {geometry!r}: {status} in {res.iterations} "
        f"iterations, residual {res.residual:.2e}{extra}"
    )
    overlap = (res.report.ranks or {}).get("overlap") if args.overlap else None
    if overlap and overlap.get("fraction") is not None:
        print(
            f"  halo overlap: {overlap['exchanges']} overlapped exchanges, "
            f"{overlap['fraction']:.1%} of the comm window hidden behind "
            "the interior kernel"
        )
    if args.report:
        res.report.write(args.report)
        print(f"wrote solve report to {args.report}")
    return 0 if res.converged else 1


def _cmd_bench_multirhs(args) -> int:
    """Benchmark the batched multi-RHS path against sequential solves."""
    import json
    import time

    import numpy as np

    from repro.core.api import SolveRequest, solve
    from repro.lattice import GaugeField, Geometry, SpinorField
    from repro.util.counters import tally

    try:
        import resource
    except ImportError:  # no getrusage here: the faults column is null
        resource = None

    geometry = Geometry(tuple(args.dims))
    gauge = GaugeField.weak(geometry, epsilon=args.epsilon, rng=args.seed)
    batches = sorted(set(args.batches))
    sources = np.stack(
        [
            SpinorField.random(geometry, rng=args.seed + 1 + i).data
            for i in range(max(batches))
        ]
    )

    def request(rhs):
        return SolveRequest(
            operator="wilson_clover", gauge=gauge, rhs=rhs,
            mass=args.mass, csw=args.csw, tol=args.tol,
        )

    from repro.metrics.bench_schema import wrap_bench

    solve(request(sources))  # warm caches (incl. batched scratch) untimed

    def minor_faults():
        if resource is None:
            return None
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def timed_best(fn):
        """Best-of-N wall time (with that run's tally and minor page
        faults): the minimum is the run least disturbed by scheduler
        noise, which on a shared host swings single-shot timings by tens
        of percent.  The operation counts are deterministic across
        repeats; the faults are the allocator's (it unmaps and re-maps
        the wide batches' temporaries: docs/performance_model.md, "Who
        pays the allocator") and depend on what the heap has seen."""
        best = None
        for _ in range(max(args.repeats, 1)):
            with tally() as t:
                faults = minor_faults()
                t0 = time.perf_counter()
                result = fn()
                dt = time.perf_counter() - t0
                if faults is not None:
                    faults = minor_faults() - faults
            if best is None or dt < best[0]:
                best = (dt, result, t, faults)
        return best

    config = {
        "operator": "wilson_clover",
        "method": "bicgstab",
        "dims": list(geometry.shape),
        "mass": args.mass,
        "csw": args.csw,
        "tol": args.tol,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    results = []
    metrics = {}
    for nb in batches:
        rhs = sources[:nb]
        seq_seconds, seq, seq_tally, _ = timed_best(
            lambda: [solve(request(rhs[i])) for i in range(nb)]
        )
        bat_seconds, bat, bat_tally, bat_faults = timed_best(
            lambda: solve(request(rhs)) if nb > 1 else solve(request(rhs[0]))
        )
        bat_iters = (
            [int(i) for i in np.atleast_1d(bat.iterations)]
        )
        entry = {
            "batch": nb,
            "sequential_seconds": seq_seconds,
            "batched_seconds": bat_seconds,
            "speedup": seq_seconds / bat_seconds if bat_seconds else 0.0,
            "sequential_iterations": [int(r.iterations) for r in seq],
            "batched_iterations": bat_iters,
            "sequential_reductions": seq_tally.reductions,
            "batched_reductions": bat_tally.reductions,
            "minor_faults_per_apply": (
                None if bat_faults is None else bat_faults
                / sum(bat_tally.operator_applications.values())
            ),
            "all_converged": bool(
                all(r.converged for r in seq) and np.all(bat.converged)
            ),
        }
        results.append(entry)
        metrics[f"speedup_batch_{nb}"] = entry["speedup"]
        metrics[f"batched_seconds_batch_{nb}"] = bat_seconds
        per_apply = entry["minor_faults_per_apply"]
        print(
            f"batch {nb:3d}: sequential {seq_seconds:7.2f}s, "
            f"batched {bat_seconds:7.2f}s, speedup {entry['speedup']:5.2f}x, "
            f"reductions {seq_tally.reductions} -> {bat_tally.reductions}, "
            "minor faults/apply "
            + ("n/a" if per_apply is None else f"{per_apply:.1f}")
        )
    report = wrap_bench("multirhs", config, metrics, results=results)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0 if all(e["all_converged"] for e in results) else 1


def _bench_precond(args) -> int:
    """Benchmark GCR-DD under each requested preconditioner (one grid,
    one gauge field, one rhs) and emit a bench-schema JSON report."""
    import json
    import time

    from repro.comm.grid import choose_grid
    from repro.core.gcrdd import GCRDDConfig, GCRDDSolver
    from repro.dirac.wilson import WilsonCloverOperator
    from repro.lattice import GaugeField, Geometry, SpinorField
    from repro.metrics.bench_schema import wrap_bench
    from repro.precond import resolve_precond
    from repro.util.counters import tally

    geometry = Geometry(tuple(args.dims))
    grid = choose_grid(args.ranks, (3, 2, 1, 0), geometry.dims)
    gauge = GaugeField.weak(geometry, epsilon=args.epsilon, rng=args.seed)
    b = SpinorField.random(geometry, rng=args.seed + 1).data
    op = WilsonCloverOperator(
        gauge, mass=args.mass, csw=args.csw, kernel=args.kernel
    )

    names = []
    for name in args.preconds:
        resolved = resolve_precond(name, operator="wilson").name
        if resolved not in names:
            names.append(resolved)

    config = {
        "operator": "wilson_clover",
        "method": "gcr-dd",
        "dims": list(geometry.shape),
        "grid": list(grid.dims),
        "ranks": grid.size,
        "mass": args.mass,
        "csw": args.csw,
        "tol": args.tol,
        "precond_steps": args.mr_steps,
        "precond_overlap": args.precond_overlap,
        "preconds": names,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    results = []
    metrics = {}
    for name in names:
        solver = GCRDDSolver(op, grid, GCRDDConfig(
            tol=args.tol, precond=name,
            precond_steps=args.mr_steps,
            precond_overlap=args.precond_overlap,
        ))
        solver.solve(b)  # warm caches untimed
        best = None
        for _ in range(max(args.repeats, 1)):
            with tally() as t:
                t0 = time.perf_counter()
                res = solver.solve(b)
                dt = time.perf_counter() - t0
            if best is None or dt < best[0]:
                best = (dt, res, t)
        seconds, res, t = best
        entry = {
            "precond": name,
            "seconds": seconds,
            "converged": bool(res.converged),
            "iterations": int(res.iterations),
            "residual": float(res.residual),
            "matvecs": int(res.matvecs),
            "reductions": t.reductions,
        }
        results.append(entry)
        metrics[f"{name}_seconds"] = seconds
        metrics[f"{name}_iterations"] = float(res.iterations)
        print(
            f"{name:>11}: {seconds:7.2f}s, {res.iterations:4d} iterations, "
            f"residual {res.residual:.2e}"
        )
    report = wrap_bench("precond", config, metrics, results=results)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0 if all(e["converged"] for e in results) else 1


def _cmd_bench_spmd(args) -> int:
    """Benchmark the SPMD execution backends on one GCR-DD solve — or,
    with --precond, sweep GCR-DD preconditioners instead."""
    import json
    import time

    import numpy as np

    from repro.comm.backends import process_backend_available
    from repro.comm.grid import choose_grid
    from repro.core.gcrdd import GCRDDConfig
    from repro.core.spmd import SPMDGCRDDSolver
    from repro.lattice import GaugeField, Geometry, SpinorField
    from repro.metrics.bench_schema import wrap_bench
    from repro.util.counters import tally

    if args.preconds:
        return _bench_precond(args)

    geometry = Geometry(tuple(args.dims))
    grid = choose_grid(args.ranks, (3, 2, 1, 0), geometry.dims)
    gauge = GaugeField.weak(geometry, epsilon=args.epsilon, rng=args.seed)
    b = SpinorField.random(geometry, rng=args.seed + 1).data
    # With --overlap every schedule runs the split interior/exterior
    # path: the overlapped exchange is bit-identical to *split* blocking
    # (same summation order), while the fused stencil sums hops in a
    # different order — one shared bit-reference needs one kernel path.
    solver = SPMDGCRDDSolver(
        gauge, args.mass, args.csw, grid,
        config=GCRDDConfig(tol=args.tol, precond_steps=args.mr_steps),
        timeout=args.timeout,
        kernel=args.kernel,
        schedule="split" if args.overlap else "auto",
    )

    backends = list(args.backends or ("sequential", "threads", "processes"))
    if "processes" in backends and not process_backend_available():
        print("processes backend unavailable (no fork); skipping",
              file=sys.stderr)
        backends.remove("processes")

    # The host block records the machine (parallel backends cannot beat
    # sequential with fewer cores than ranks — speedups need context).
    config = {
        "operator": "wilson_clover",
        "method": "gcr-dd",
        "dims": list(geometry.shape),
        "grid": list(grid.dims),
        "ranks": grid.size,
        "mass": args.mass,
        "csw": args.csw,
        "tol": args.tol,
        "precond_steps": args.mr_steps,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "repeats": args.repeats,
        "schedule": "split" if args.overlap else "fused",
        "kernel": solver.kernel,
    }
    results = []

    schedules = [False] + ([True] if args.overlap else [])
    reference = None
    for backend in backends:
        for overlap in schedules:
            # warm caches/forks (and the persistent rank pool) untimed
            solver.solve(b, backend=backend, overlap=overlap)
            best = None
            for _ in range(max(args.repeats, 1)):
                with tally() as t:
                    t0 = time.perf_counter()
                    res = solver.solve(b, backend=backend, overlap=overlap)
                    dt = time.perf_counter() - t0
                if best is None or dt < best[0]:
                    best = (dt, res, t)
            seconds, res, t = best
            history = [float(r) for r in res.residual_history]
            if reference is None:
                reference = (res.x, history)
            bitwise = bool(
                np.array_equal(res.x, reference[0])
                and history == reference[1]
            )
            label = f"{backend}{'+overlap' if overlap else ''}"
            entry = {
                "backend": backend,
                "overlap": overlap,
                "seconds": seconds,
                "converged": bool(res.converged),
                "iterations": int(res.iterations),
                "residual": float(res.residual),
                "comm_bytes": t.comm_bytes,
                "messages": t.messages,
                "reductions": t.reductions,
                "bitwise_equal_to_first_backend": bitwise,
            }
            results.append(entry)
            print(
                f"{label:>18}: {seconds:7.2f}s, {res.iterations} "
                f"iterations, residual {res.residual:.2e}, "
                f"bitwise match: {bitwise}"
            )

    seq = next(
        (e for e in results
         if e["backend"] == "sequential" and not e["overlap"]),
        None,
    )
    if seq:
        for e in results:
            e["speedup_vs_sequential"] = (
                seq["seconds"] / e["seconds"] if e["seconds"] else 0.0
            )
    metrics = {}
    for e in results:
        key = f"{e['backend']}{'_overlap' if e['overlap'] else ''}"
        metrics[f"{key}_seconds"] = e["seconds"]
        if "speedup_vs_sequential" in e:
            metrics[f"{key}_speedup_vs_sequential"] = (
                e["speedup_vs_sequential"]
            )
    report = wrap_bench("spmd", config, metrics, results=results)
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    ok = all(
        e["converged"] and e["bitwise_equal_to_first_backend"]
        for e in results
    )
    return 0 if ok else 1


def _cmd_generate(args) -> int:
    from repro.gauge.heatbath import HeatbathUpdater
    from repro.lattice import GaugeField, Geometry
    from repro import io as repro_io

    geometry = Geometry(tuple(args.dims))
    start = (
        GaugeField.hot(geometry, rng=args.seed)
        if args.start == "hot"
        else GaugeField.unit(geometry)
    )
    updater = HeatbathUpdater(
        beta=args.beta, or_steps=args.or_steps, rng_seed=args.seed
    )
    gauge, history = updater.thermalize(
        start, sweeps=args.sweeps, measure_every=max(args.sweeps // 8, 1)
    )
    print(f"beta={args.beta} {args.start}-start on {geometry!r}")
    for i, plaq in enumerate(history):
        print(f"  measurement {i}: plaquette = {plaq:.5f}")
    if args.output:
        repro_io.save_gauge(
            args.output, gauge,
            extra={"beta": args.beta, "sweeps": args.sweeps},
        )
        print(f"saved configuration to {args.output}")
    return 0


def _cmd_report(args) -> int:
    """Solve-report tooling (`show`/`diff`) and the default `figs` ASCII
    charts of the headline figures."""
    if args.action == "show":
        return _report_show(args)
    if args.action == "diff":
        return _report_diff(args)
    return _report_figs(args)


def _report_show(args) -> int:
    import json

    from repro.metrics import render_report, validate_report

    if not args.path:
        print("report show needs a report path", file=sys.stderr)
        return 2
    with open(args.path) as fh:
        doc = json.load(fh)
    problems = validate_report(doc)
    if problems:
        print(f"{args.path}: INVALID solve report", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(render_report(doc))
    return 0


def _report_diff(args) -> int:
    """The perf regression gate: nonzero exit when the current report
    regressed past the tolerances relative to the baseline."""
    import json

    from repro.metrics import diff_reports, format_diff, validate_report

    if not args.path or not args.baseline:
        print("report diff needs a report path and --baseline",
              file=sys.stderr)
        return 2
    with open(args.path) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    for label, doc in (("current", current), ("baseline", baseline)):
        problems = validate_report(doc)
        if problems:
            print(f"{label} report is invalid:", file=sys.stderr)
            for p in problems:
                print(f"  - {p}", file=sys.stderr)
            return 2
    regressions, notes = diff_reports(
        current, baseline,
        tolerance=args.tolerance, count_tolerance=args.count_tolerance,
    )
    print(format_diff(regressions, notes))
    return 1 if regressions else 0


def _report_figs(args) -> int:
    """ASCII log-log charts of the headline figures."""
    from repro.core.scaling import DslashScalingStudy, WilsonSolverScalingStudy
    from repro.perfmodel.kernels import OperatorKind
    from repro.precision import HALF, SINGLE
    from repro.report import loglog_chart

    gpus = [8, 16, 32, 64, 128, 256]
    sp = DslashScalingStudy((32, 32, 32, 256), OperatorKind.WILSON_CLOVER,
                            SINGLE, 12)
    hp = DslashScalingStudy((32, 32, 32, 256), OperatorKind.WILSON_CLOVER,
                            HALF, 12)
    print(loglog_chart(
        "Fig. 5 — Wilson-clover dslash strong scaling (model)",
        "GPUs", "Gf/GPU",
        {
            "SP": (gpus, [p.gflops_per_gpu for p in sp.run(gpus)]),
            "HP": (gpus, [p.gflops_per_gpu for p in hp.run(gpus)]),
        },
    ))
    print()
    study = WilsonSolverScalingStudy()
    solver_gpus = [4, 8, 16, 32, 64, 128, 256]
    print(loglog_chart(
        "Fig. 7 — solver sustained Tflops (model)",
        "GPUs", "Tflops",
        {
            "BiCGstab": (
                solver_gpus,
                [study.bicgstab_point(n).tflops for n in solver_gpus],
            ),
            "GCR-DD": (
                solver_gpus,
                [study.gcr_point(n).tflops for n in solver_gpus],
            ),
        },
    ))
    return 0


def _cmd_trace(args) -> int:
    """Capture a Perfetto trace of a distributed Wilson(-clover) GCR-DD
    solve, with the modeled Fig. 4 timeline as a parallel track."""
    from repro import trace as tracelib
    from repro.comm.grid import ProcessGrid
    from repro.core.gcrdd import GCRDDConfig
    from repro.core.spmd import SPMDGCRDDSolver
    from repro.lattice import GaugeField, Geometry, SpinorField
    from repro.perfmodel.kernels import KernelModel, OperatorKind
    from repro.perfmodel.machines import EDGE
    from repro.perfmodel.streams import model_dslash_time
    from repro.report import timeline_chart
    from repro.trace.model import timeline_events
    from repro.util.counters import tally

    geometry = Geometry(tuple(args.dims))
    grid = ProcessGrid(tuple(args.grid))
    gauge = GaugeField.weak(geometry, epsilon=args.epsilon, rng=args.seed)
    b = SpinorField.random(geometry, rng=args.seed + 1).data

    # The split (interior/exterior) execution path is what the paper's
    # Fig. 4 schedules, so a trace always uses it; the rank programs run
    # under --backend (default: the deterministic sequential backend),
    # and --overlap traces the live overlapped schedule.
    tracer = tracelib.Tracer()
    with tracelib.tracing(tracer), tally() as t:
        solver = SPMDGCRDDSolver(
            gauge, args.mass, args.csw, grid,
            config=GCRDDConfig(tol=args.tol, precond=args.precond,
                               precond_steps=args.mr_steps),
            backend=args.backend or "sequential", schedule="split",
            overlap=args.overlap, kernel=args.kernel,
        )
        res = solver.solve(b)
    events = list(tracer.events)
    status = "converged" if res.converged else "FAILED"
    mode = f" backend={args.backend}" if args.backend else ""
    mode += " overlap" if args.overlap else ""
    print(
        f"gcr-dd on {geometry!r}, grid={grid.label} ranks={grid.size}: "
        f"{status} in {res.iterations} iterations, "
        f"residual {res.residual:.2e}{mode}"
    )

    if not args.no_model:
        op_kind = (
            OperatorKind.WILSON_CLOVER if args.csw else OperatorKind.WILSON
        )
        kernel = KernelModel(
            op_kind, solver.config.policy.inner, reconstruct=12
        )
        timeline = model_dslash_time(
            kernel, EDGE.gpu, EDGE.interconnect,
            solver.partition.local_dims, grid.partitioned_dims,
        )
        # Modeled times are Fermi-hardware seconds (~us/dslash); stretch
        # the tiled applications across the measured window so the two
        # tracks are structurally comparable on one axis.
        window = max((ev.end for ev in events), default=1.0)
        scale = window / (timeline.total_time * args.model_repeat)
        events += timeline_events(
            timeline, repeat=args.model_repeat, scale=scale
        )

    path = tracelib.write_chrome_trace(args.output, events)
    print(
        f"wrote {len(events)} events to {path} — open in "
        "https://ui.perfetto.dev or chrome://tracing"
    )
    print()
    print(tracelib.format_table(events, top=args.top))
    kernel_totals = tracelib.timed_kernel_totals(events)
    if kernel_totals:
        print()
        print("trace vs tally cross-check (identical by construction):")
        for name in sorted(kernel_totals):
            print(
                f"  {name}: trace {kernel_totals[name] * 1e3:.3f} ms, "
                f"tally {t.kernel_seconds.get(name, 0.0) * 1e3:.3f} ms"
            )
    if args.ascii:
        print()
        print(timeline_chart(
            "timeline (one row per rank/kind; model track rescaled)",
            tracelib.ascii_tracks(events),
        ))
    return 0 if res.converged else 1


def _status(line: str) -> None:
    """Print a status line of a long-running command.  Whoever was
    reading stdout may be gone by now (a supervisor that closed the
    pipe), and that must not take the process down: the line is dropped
    and stdout pointed at the null device, so the interpreter's flush at
    exit has somewhere to go."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_serve(args) -> int:
    """Run the coalescing solve daemon (docs/serving.md).

    Boots a :class:`~repro.serve.service.SolveService` with the given
    coalescing knobs, fronts it with the HTTP/JSONL server, and serves
    until SIGINT/SIGTERM — on which it stops accepting (503), drains the
    queued and in-flight solves, and exits cleanly.
    """
    import signal
    import threading

    from repro.serve import ServeServer, SolveService

    service = SolveService(
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        capacity=args.queue_limit,
        default_timeout=args.default_timeout or None,
    ).start()
    server = ServeServer(
        service, host=args.host, port=args.port, verbose=args.verbose
    )
    print(
        f"repro serve on {server.url} — "
        f"max_batch={service.coalescer.max_batch} "
        f"max_wait={args.max_wait}s queue_limit={args.queue_limit}"
    )
    print("routes: POST /v1/solve, POST /v1/solve/jsonl, GET /metrics, "
          "GET /v1/stats, GET /healthz")

    def _signal(signum, frame):
        # Stop first, then say so: nothing the report does may keep the
        # drain from starting.  shutdown() joins the dispatcher; run it
        # off the signal frame.
        threading.Thread(target=server.stop, daemon=True).start()
        _status(f"\nsignal {signal.Signals(signum).name}: draining...")

    signal.signal(signal.SIGINT, _signal)
    signal.signal(signal.SIGTERM, _signal)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - belt and braces
        server.stop()
    stats = service.stats()
    ratio = stats["coalesce_ratio"]
    _status(
        f"drained: {stats['batches_total']} batches, "
        f"{stats['batched_requests_total']} requests"
        + (f", coalesce ratio {ratio:.2f}" if ratio else "")
    )
    return 0


def _cmd_bench_serve(args) -> int:
    """Load-bench the solve daemon: requests/sec and p50/p99 latency vs
    ``max_batch``, against a real in-process daemon on a loopback port
    (docs/serving.md, "Load benchmarking")."""
    import json

    from repro.serve.loadgen import MAX_BATCH_SWEEP, run_load_bench

    report = run_load_bench(
        dims=tuple(args.dims),
        max_batch_values=tuple(args.max_batch_values or MAX_BATCH_SWEEP),
        concurrency=args.concurrency,
        requests_per_client=args.requests_per_client,
        max_wait=args.max_wait,
        seed=args.seed,
        progress=print,
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output}")
    ok = all(e["errors"] == 0 and e["requests"] > 0
             for e in report["results"])
    return 0 if ok else 1


def _cmd_scaling_sweep(args) -> int:
    """Measured-vs-model strong-scaling sweep (docs/observability.md,
    "Scaling observatory").

    Runs live SPMD solves across the rank counts on one fixed lattice,
    replays each configuration through the Edge performance model, and
    emits the schema-valid BENCH_scaling artifact plus ASCII knee /
    efficiency charts.
    """
    import json

    from repro.analysis.scaling_sweep import knee_chart, run_scaling_sweep

    report, points = run_scaling_sweep(
        dims=tuple(args.dims),
        ranks=tuple(args.ranks),
        tol=args.tol,
        mr_steps=args.mr_steps,
        seed=args.seed,
        backend=args.backend,
        repeats=args.repeats,
        timeout=args.timeout,
        progress=print,
    )
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    chart = knee_chart(points)
    print()
    print(chart)
    if args.plot_output:
        with open(args.plot_output, "w") as fh:
            fh.write(chart + "\n")
        print(f"\nwrote {args.plot_output}")
    print(f"wrote {args.output}")
    if any(p.oversubscribed for p in points):
        print(
            "note: rank counts above host cpu_count "
            f"({report['host']['cpu_count']}) are flagged oversubscribed — "
            "measured speedups there reflect scheduling, not hardware"
        )
    return 0 if all(p.converged for p in points) else 1


def _print_capability_matrix(title, columns, rows, note) -> int:
    """Print a registry's capability matrix: identity/availability, the
    named capability ``columns`` of each row, then the availability note."""
    def cell(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, list):
            return ",".join(v.replace("complex", "c") for v in value)
        return str(value)

    keys = ("name", "priority", "available") + columns
    table = [(title, "prio", "available") + columns]
    for row in rows:
        table.append(tuple(cell(row[key]) for key in keys))
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    for i, r in enumerate(table):
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))
    print()
    print(note)
    for row in rows:
        if not row["available"]:
            print(f"  {row['name']}: {row['unavailable_reason']}")
    return 0


def _cmd_precond(args) -> int:
    """Print the preconditioner capability matrix (registry-derived)."""
    from repro.precond import availability_note, capability_matrix

    return _print_capability_matrix(
        "precond", ("operators", "batched", "spmd", "overlapping", "dtypes"),
        capability_matrix(), availability_note(),
    )


def _cmd_kernels(args) -> int:
    """Print the kernel-backend capability matrix (registry-derived).
    This is where the compiled tier may build: the matrix asks every
    backend whether it is available."""
    from repro.kernels import availability_note, capability_matrix, get_backend

    _print_capability_matrix(
        "backend", ("operators", "batched", "split", "packed", "dtypes"),
        capability_matrix(), availability_note(),
    )
    compiled = get_backend("c")
    if compiled.available:
        print(f"  c: {compiled.library_path} (multiply probe passed)")
    return 0


def _cmd_info(args) -> int:
    from repro import __version__
    from repro.perfmodel.machines import CPU_MACHINES, EDGE

    print(f"repro {__version__} — 'Scaling Lattice QCD beyond 100 GPUs' "
          "(SC'11) reproduction")
    print(f"modeled GPU cluster: {EDGE.name}, up to {EDGE.max_gpus} x "
          f"{EDGE.gpu.name}")
    net = EDGE.interconnect
    print(f"  PCI-E {net.pcie_GBs} GB/s, host copies {net.host_copy_GBs} "
          f"GB/s, IB {net.ib_GBs} GB/s per GPU")
    print("comparison machines: " + ", ".join(m.name for m in CPU_MACHINES))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    registered: list[tuple[str, str]] = []

    def add_command(name: str, help_: str):
        """Register a subcommand; the --help table derives from this
        registry, so a command cannot be added without a help line."""
        registered.append((name, help_))
        return sub.add_parser(name, help=help_, description=help_)

    for n in (5, 6, 7, 8, 9, 10):
        p = add_command(f"fig{n}", f"print the Fig. {n} model table")
        p.set_defaults(func=_cmd_fig, figure=n)

    p = add_command("solve", "run a real Wilson-clover solve")
    p.add_argument("--dims", type=int, nargs=4, default=[8, 8, 8, 16],
                   metavar=("NX", "NY", "NZ", "NT"))
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--csw", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="gauge disorder of the synthetic configuration")
    p.add_argument("--method", choices=["bicgstab", "gcr-dd"],
                   default="bicgstab")
    p.add_argument("--blocks", type=int, default=4,
                   help="Schwarz blocks (gcr-dd)")
    p.add_argument("--mr-steps", type=int, default=10,
                   help="preconditioner block-solve MR steps (gcr-dd)")
    p.add_argument("--precond", type=str, default="auto",
                   help="gcr-dd preconditioner (see 'repro precond'; "
                        "default auto)")
    p.add_argument("--precond-overlap", type=int, default=1,
                   help="domain overlap depth for the overlapping "
                        "preconditioners (ras/multisplit; default 1)")
    p.add_argument("--backend",
                   choices=["sequential", "threads", "processes"],
                   default=None,
                   help="run gcr-dd as SPMD rank programs under this "
                        "execution backend (default: global-view driver)")
    p.add_argument("--overlap", action="store_true",
                   help="overlapped halo schedule (gcr-dd + --backend): "
                        "interior kernel runs while faces are in flight")
    p.add_argument("--kernel", type=str, default="auto",
                   help="dslash kernel backend (see 'repro kernels'; "
                        "default auto)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", type=str, default="",
                   help="write the SolveReport JSON artifact here")
    p.set_defaults(func=_cmd_solve)

    p = add_command(
        "bench",
        "benchmark the SPMD execution backends on a GCR-DD solve",
    )
    p.add_argument("--dims", type=int, nargs=4, default=[8, 8, 8, 16],
                   metavar=("NX", "NY", "NZ", "NT"))
    p.add_argument("--ranks", type=int, default=4,
                   help="virtual ranks / Schwarz blocks (default 4)")
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--csw", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--mr-steps", type=int, default=10,
                   help="preconditioner block-solve MR steps")
    p.add_argument("--precond", dest="preconds", action="append",
                   default=None,
                   help="sweep GCR-DD preconditioners instead of "
                        "backends; repeatable (see 'repro precond')")
    p.add_argument("--precond-overlap", type=int, default=1,
                   help="domain overlap depth for the overlapping "
                        "preconditioners (ras/multisplit; default 1)")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="gauge disorder of the synthetic configuration")
    p.add_argument("--backend", dest="backends", action="append",
                   choices=["sequential", "threads", "processes"],
                   help="backend to benchmark; repeatable (default: all)")
    p.add_argument("--overlap", action="store_true",
                   help="also benchmark the overlapped halo schedule on "
                        "each backend (asserted bitwise against blocking)")
    p.add_argument("--kernel", type=str, default="auto",
                   help="dslash kernel backend (see 'repro kernels'; "
                        "default auto)")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats per backend; best is kept")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-wait deadlock timeout under threads/processes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default="BENCH_spmd.json",
                   help="JSON report path")
    p.set_defaults(func=_cmd_bench_spmd)

    p = add_command(
        "bench-multirhs",
        "benchmark batched multi-RHS solves vs sequential",
    )
    p.add_argument("--dims", type=int, nargs=4, default=[4, 4, 4, 4],
                   metavar=("NX", "NY", "NZ", "NT"))
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--csw", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="gauge disorder of the synthetic configuration")
    p.add_argument("--batches", type=int, nargs="+",
                   default=[1, 2, 3, 4, 6, 8, 12],
                   help="batch sizes to benchmark (default %(default)s)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timing repeats per measurement; best is kept")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default="BENCH_multirhs.json",
                   help="JSON report path")
    p.set_defaults(func=_cmd_bench_multirhs)

    p = add_command("generate", "heatbath gauge generation")
    p.add_argument("--dims", type=int, nargs=4, default=[4, 4, 4, 8],
                   metavar=("NX", "NY", "NZ", "NT"))
    p.add_argument("--beta", type=float, default=5.7)
    p.add_argument("--sweeps", type=int, default=24)
    p.add_argument("--or-steps", type=int, default=1)
    p.add_argument("--start", choices=["hot", "cold"], default="cold")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default="",
                   help="save the final configuration (.npz)")
    p.set_defaults(func=_cmd_generate)

    p = add_command(
        "trace",
        "capture a Perfetto trace of a distributed GCR-DD solve",
    )
    p.add_argument("--dims", type=int, nargs=4, default=[8, 8, 8, 16],
                   metavar=("NX", "NY", "NZ", "NT"))
    p.add_argument("--grid", type=int, nargs=4, default=[2, 1, 1, 1],
                   metavar=("PX", "PY", "PZ", "PT"),
                   help="virtual rank grid (default 2 1 1 1)")
    p.add_argument("--mass", type=float, default=0.1)
    p.add_argument("--csw", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--mr-steps", type=int, default=4,
                   help="preconditioner block-solve MR steps")
    p.add_argument("--precond", type=str, default="auto",
                   help="rank-local preconditioner for the traced solve "
                        "(schwarz/none; default auto)")
    p.add_argument("--epsilon", type=float, default=0.25,
                   help="gauge disorder of the synthetic configuration")
    p.add_argument("--backend",
                   choices=["sequential", "threads", "processes"],
                   default=None,
                   help="trace the SPMD rank programs under this backend "
                        "(default: sequential)")
    p.add_argument("--overlap", action="store_true",
                   help="overlapped halo schedule (needs --backend)")
    p.add_argument("--kernel", type=str, default="auto",
                   help="dslash kernel backend (see 'repro kernels'; "
                        "default auto)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default="trace.json",
                   help="trace_event JSON output path")
    p.add_argument("--top", type=int, default=12,
                   help="rows in the printed summary table (0 = all)")
    p.add_argument("--ascii", action="store_true",
                   help="also print an ASCII timeline")
    p.add_argument("--no-model", action="store_true",
                   help="omit the modeled Fig. 4 track")
    p.add_argument("--model-repeat", type=int, default=1,
                   help="tiled modeled dslash applications (default 1)")
    p.set_defaults(func=_cmd_trace)

    p = add_command(
        "report",
        "figs: ASCII charts of Figs. 5/7; show/diff: solve-report tools",
    )
    p.add_argument("action", nargs="?", choices=["figs", "show", "diff"],
                   default="figs",
                   help="figs (default): model charts; show: render a "
                        "SolveReport JSON; diff: regression-gate two")
    p.add_argument("path", nargs="?", default="",
                   help="solve-report JSON (the current one for diff)")
    p.add_argument("--baseline", type=str, default="",
                   help="baseline solve-report JSON to diff against")
    p.add_argument("--tolerance", type=float, default=0.2,
                   help="allowed relative increase for measured timings "
                        "(default 0.2)")
    p.add_argument("--count-tolerance", type=float, default=0.0,
                   help="allowed relative increase for deterministic "
                        "counters (default 0: any growth fails)")
    p.set_defaults(func=_cmd_report)

    from repro.serve.coalescer import DEFAULT_MAX_BATCH
    from repro.serve.loadgen import MAX_BATCH_SWEEP

    p = add_command(
        "serve",
        "run the coalescing solve daemon (HTTP/JSONL front)",
    )
    p.add_argument("--host", type=str, default="127.0.0.1",
                   help="interface to bind (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 picks a free port; default 8787)")
    p.add_argument("--max-batch", type=int, default=DEFAULT_MAX_BATCH,
                   help="lanes per batched solve (default %(default)s: "
                        "the spin x colour sources of one propagator)")
    p.add_argument("--max-wait", type=float, default=0.05,
                   help="coalescing window in seconds (default 0.05)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded queue capacity; submits beyond it are "
                        "rejected with 429 (default 64)")
    p.add_argument("--default-timeout", type=float, default=0.0,
                   help="queue deadline in seconds for requests without "
                        "their own timeout_seconds (0 = none)")
    p.add_argument("--verbose", action="store_true",
                   help="per-request access logs on stderr")
    p.set_defaults(func=_cmd_serve)

    p = add_command(
        "bench-serve",
        "load-bench the daemon: req/s and latency vs max_batch",
    )
    p.add_argument("--dims", type=int, nargs=4, default=[4, 4, 4, 4],
                   metavar=("X", "Y", "Z", "T"),
                   help="lattice dims of the served problem "
                        "(default 4 4 4 4)")
    p.add_argument("--max-batch", type=int, action="append",
                   dest="max_batch_values", metavar="N",
                   help="a max_batch value to sweep (repeatable; default "
                        + " ".join(map(str, MAX_BATCH_SWEEP)) + ")")
    p.add_argument("--concurrency", type=int, default=8,
                   help="concurrent client threads per point (default 8)")
    p.add_argument("--requests-per-client", type=int, default=4,
                   help="solves each client issues per point (default 4)")
    p.add_argument("--max-wait", type=float, default=0.02,
                   help="coalescing window in seconds (default 0.02)")
    p.add_argument("--seed", type=int, default=5,
                   help="gauge/rhs seed of the served problem (default 5)")
    p.add_argument("--output", type=str, default="BENCH_serve.json",
                   help="bench artifact path (default BENCH_serve.json)")
    p.set_defaults(func=_cmd_bench_serve)

    p = add_command(
        "scaling-sweep",
        "measured-vs-model strong-scaling sweep across rank counts",
    )
    p.add_argument("--dims", type=int, nargs=4, default=[4, 4, 4, 8],
                   metavar=("X", "Y", "Z", "T"),
                   help="fixed lattice dims for every point "
                        "(default 4 4 4 8)")
    p.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4],
                   metavar="N",
                   help="rank counts to sweep (default 1 2 4)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="outer solver tolerance (default 1e-6)")
    p.add_argument("--mr-steps", type=int, default=4,
                   help="MR smoother steps in the domain preconditioner "
                        "(default 4)")
    p.add_argument("--seed", type=int, default=11,
                   help="gauge seed (default 11)")
    p.add_argument("--backend", type=str, default="threads",
                   choices=("threads", "processes"),
                   help="SPMD backend for the measured track "
                        "(default threads)")
    p.add_argument("--repeats", type=int, default=1,
                   help="timed repeats per point; best is kept (default 1)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-solve SPMD timeout in seconds (default 120)")
    p.add_argument("--output", type=str, default="BENCH_scaling.json",
                   help="bench artifact path (default BENCH_scaling.json)")
    p.add_argument("--plot-output", type=str, default=None,
                   help="also write the ASCII knee/efficiency chart to "
                        "this file (CI uploads it as an artifact)")
    p.set_defaults(func=_cmd_scaling_sweep)

    p = add_command("precond", "print the preconditioner capability matrix")
    p.set_defaults(func=_cmd_precond)

    p = add_command("kernels", "print the kernel-backend capability matrix")
    p.set_defaults(func=_cmd_kernels)

    p = add_command("info", "print version and model summary")
    p.set_defaults(func=_cmd_info)

    from repro.kernels import availability_note
    from repro.precond import availability_note as precond_note

    width = max(len(name) for name, _ in registered)
    parser.epilog = "commands:\n" + "\n".join(
        f"  {name:<{width}}  {help_}" for name, help_ in registered
    ) + f"\n\n{availability_note()}\n{precond_note()}"
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
