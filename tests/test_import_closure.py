"""What a process loads.  Every solve, round child, forked rank worker,
daemon and client imports the package, and none compiles bytecode it
does not run: the package surfaces resolve a name on first use
(``repro._exports``), the serve client rests on the wire codec alone
(``serve/wire.py``: NumPy and ``serve.errors``), and ``solve()`` imports
a route's GCR-DD, domain-decomposition, staggered, multi-shift or
mixed-precision modules in the branch that runs it.  The library depends
on NumPy alone.

Each entry point runs in a fresh child and names packages it must not
load; the gate is the module set, the seconds are printed for the CI log,
not asserted (the host wanders +-30%).  The public surface beside it —
every package's ``__all__`` — is pinned as a set, and each name must
resolve."""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
from types import ModuleType

import pytest

import repro

#: Importing the library, the serve package (client and daemon) and the
#: CLI may load NumPy and none of these.  ``subprocess`` is the compiled
#: kernel tier's: registering the tier at import neither builds nor loads
#: anything, so only the one process per host that compiles imports it.
FORBIDDEN = ("scipy", "matplotlib", "pytest", "subprocess")

CLOSURE = f"""
import sys, time
start = time.perf_counter()
import repro, repro.serve, repro.cli
seconds = time.perf_counter() - start
loaded = sorted(
    name for name in sys.modules
    if name.split(".")[0] in {FORBIDDEN!r}
)
print(f"import repro, repro.serve, repro.cli: {{seconds:.3f}} s, "
      f"{{len(sys.modules)}} modules")
assert not loaded, loaded
"""

HELP = """
import sys
from repro.cli import main
for argv in (["--help"], ["serve", "--help"]):
    try:
        main(argv)
    except SystemExit as exit:
        assert exit.code == 0, argv
assert not any(name.split(".")[0] == "scipy" for name in sys.modules)
"""

#: What no entry point below loads: the routes a Wilson BiCGstab solve
#: does not take (GCR-DD and its blocks, the SPMD ranks, staggered,
#: multi-shift, mixed precision) and the performance model.
#: A name stands for itself and everything under it.
UNUSED = (
    "repro.analysis", "repro.comm.backends", "repro.comm.shm",
    "repro.core.gcrdd", "repro.core.scaling", "repro.core.spmd",
    "repro.dd", "repro.dirac.staggered",
    "repro.gauge.asqtad", "repro.multigpu", "repro.perfmodel",
    "repro.solvers.eigen", "repro.solvers.mixed", "repro.solvers.multishift",
    "repro.solvers.refine", "repro.trace.model",
)

#: The solver stack, none of which a serve client needs.
SOLVER = (
    "repro.comm", "repro.core", "repro.dirac", "repro.kernels",
    "repro.metrics", "repro.precond", "repro.serve.request",
    "repro.serve.service", "repro.solvers",
)

#: Every child starts the clock first and ends with this line: the
#: seconds since, and the modules it holds, as JSON.
START = "import json, sys, time\nstart = time.perf_counter()\n"
REPORT = (
    'print(json.dumps({"seconds": time.perf_counter() - start, '
    '"modules": sorted(sys.modules)}))'
)

SOLVE = """
from repro import GaugeField, Geometry, SolveRequest, SpinorField, solve
geometry = Geometry((4, 4, 4, 4))
result = solve(SolveRequest(
    operator="wilson_clover", mass=0.1, tol=1e-6,
    gauge=GaugeField.weak(geometry, epsilon=0.25, rng=0),
    rhs=SpinorField.random(geometry, rng=1).data,
))
assert result.converged
"""

CLIENT = """
import numpy as np
from repro.serve import ServeClient, encode_array
from repro.serve.wire import pack_inline_rhs
ServeClient("http://127.0.0.1:8787")
array = np.zeros((4, 4, 4, 4, 4, 3), complex)
nested = encode_array(array)
packed = pack_inline_rhs({
    "operator": "wilson_clover", "mass": 0.1,
    "gauge": {"kind": "weak", "dims": [4, 4, 4, 4]},
    "rhs": {"kind": "data", "real": nested["real"], "imag": nested["imag"]},
})
assert packed["rhs"]["b64"] == encode_array(array, packed=True)["b64"]
"""

#: ``python -m repro serve --port 0`` up to its banner: the first line it
#: prints reports instead, and ends the process.
DAEMON = f"""
import os, runpy

class Banner:
    def write(self, text):
        if text.startswith("repro serve on"):
            sys.stdout = sys.__stdout__
            {REPORT}
            sys.stdout.flush()
            os._exit(0)
        return len(text)

    def flush(self):
        pass

sys.stdout = Banner()
sys.argv = ["repro", "serve", "--port", "0"]
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""

#: Entry point -> (the child's code, the packages it must not load).
ENTRY_POINTS = {
    "import repro": (
        "import repro\n" + REPORT,
        UNUSED + SOLVER + ("repro.lattice", "repro.serve", "numpy"),
    ),
    "wilson bicgstab solve": (SOLVE + REPORT, UNUSED + ("repro.serve",)),
    "serve client": (CLIENT + REPORT, UNUSED + SOLVER),
    "serve daemon boot": (DAEMON, UNUSED),
}


@pytest.fixture()
def run(child_env):
    def run(code: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", code], env=child_env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


def test_import_loads_no_scipy_matplotlib_or_pytest(run):
    print(run(CLOSURE))


def test_help_needs_no_scipy(run):
    out = run(HELP)
    assert "usage:" in out and "serve" in out


def _compiled_tier_cached() -> bool:
    """Whether a child finds the compiled kernel tier built: this process
    builds it where it can, into the cache the children share."""
    from repro.kernels import get_backend

    return get_backend("c").available


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_only_what_it_runs(run, entry):
    code, absent = ENTRY_POINTS[entry]
    forbidden = FORBIDDEN
    if entry == "wilson bicgstab solve" and not (
        sys.platform == "linux" and _compiled_tier_cached()
    ):
        # A process that compiles the tier (or whose compiler fails) runs
        # the compiler; off Linux the stdlib asks ``uname -p`` for the
        # report's platform string.
        forbidden = tuple(n for n in FORBIDDEN if n != "subprocess")
    doc = json.loads(run(START + code).splitlines()[-1])
    loaded = doc["modules"]
    print(f"{entry}: {doc['seconds']:.3f} s, {len(loaded)} modules, "
          f"{sum(n.split('.')[0] == 'repro' for n in loaded)} of them repro")
    unwanted = sorted(
        name for name in loaded
        if any(name == a or name.startswith(a + ".") for a in absent)
        or name.split(".")[0] in forbidden
    )
    assert not unwanted, unwanted


def test_report_names_the_platform_without_uname_p(run):
    """A solve report's host ``platform`` is ``platform.platform()``
    wherever ``uname -p`` adds nothing to it — composed without running
    ``uname -p`` (that ``subprocess`` stays out is the solve entry point's
    check above)."""
    out = run(SOLVE + """
import platform
uname = platform.uname()
print(result.report.host["platform"])
if uname.processor in ("unknown", "", uname.machine):
    assert result.report.host["platform"] == platform.platform()
""")
    assert out.strip()


#: Every package's public names, as they were before the surfaces went
#: lazy: a set per package, order free.
SURFACE = {
    "repro": (
        "AdditiveSchwarzPreconditioner AsqtadOperator BatchedSolverResult "
        "BlockPartition BoundarySpec DOUBLE EvenOddPreconditionedWilson "
        "GCRDDConfig GCRDDSolver GaugeField Geometry HALF HaloExchanger "
        "KernelBackend KernelUnavailableError NaiveStaggeredOperator "
        "OverlappingSchwarzPreconditioner PERIODIC PHYSICAL Precision "
        "PrecisionPolicy ProcessGrid SINGLE SINGLE_HALF_HALF "
        "SPMDGCRDDSolver SolveRequest SolverResult SpinorField "
        "StaggeredNormalOperator Tally WilsonCloverOperator __version__ "
        "batched_bicgstab batched_cg batched_gcr bicgstab capability_matrix "
        "cg cgnr choose_grid gcr kernel_choices mr multishift_cg "
        "multishift_with_refinement resolve_kernel solve tally"
    ),
    "repro.comm": (
        "BACKENDS Communicator DeadlockError Mailbox MailboxCommunicator "
        "ProcessGrid RankOutcome SPMDError ShmCommunicator choose_grid "
        "process_backend_available reduce_in_rank_order run_rank_programs"
    ),
    "repro.core": (
        "GCRDDConfig GCRDDSolver SPMDGCRDDSolver SolveRequest solve"
    ),
    "repro.dd": (
        "AdditiveSchwarzPreconditioner MultiSplittingPreconditioner "
        "OverlappingSchwarzPreconditioner"
    ),
    "repro.dirac": (
        "AsqtadOperator BoundarySpec EvenOddPreconditionedWilson "
        "LatticeOperator NaiveStaggeredOperator NormalOperator PERIODIC "
        "PHYSICAL ShiftedOperator StaggeredNormalOperator "
        "WilsonCloverOperator apply_clover build_clover_field link_apply "
        "staggered_phases"
    ),
    "repro.gauge": (
        "AsqtadLinks average_plaquette build_asqtad_links path_product "
        "plaquette_field shift_field"
    ),
    "repro.kernels": (
        "AUTO CBackend KernelBackend KernelCapabilities "
        "KernelUnavailableError NumpyBackend NumpyReferenceBackend "
        "OPERATOR_FAMILIES availability_note available_backends "
        "backend_names capability_matrix convert_field get_backend "
        "kernel_choices register_backend resolve_kernel"
    ),
    "repro.lattice": (
        "DIRECTIONS FieldLayout GaugeField Geometry STAGGERED_SPINS "
        "SpinorField T WILSON_SPINS X Y Z gauge_layout spinor_layout"
    ),
    "repro.linalg": "blas gamma su3",
    "repro.metrics": (
        "ALLREDUCE_WAIT BARRIER_WAIT BENCH_SCHEMA_VERSION Counter "
        "DEFAULT_BUCKET_SPEC Gauge Histogram MetricsRegistry RECV_WAIT "
        "REPORT_SCHEMA_VERSION SolveReport WAIT_METRICS build_solve_report "
        "config_fingerprint diff_reports format_diff host_info log_buckets "
        "rank_wait_stats render_report straggler_summary to_jsonl "
        "to_prometheus validate_bench validate_bench_file validate_report "
        "wrap_bench"
    ),
    "repro.multigpu": (
        "BlockPartition HaloExchanger HaloLayout RankHaloEngine "
        "RankOperator"
    ),
    "repro.perfmodel": (
        "BiCGstabModel CPUMachine CPU_MACHINES DslashTimeline EDGE "
        "GCRDDModel GPUCluster GPUSpec InterconnectSpec KRAKEN KernelModel "
        "M2050 MultishiftModel OperatorKind SolverWorkload "
        "model_dslash_time"
    ),
    "repro.precond": (
        "AUTO MultisplitEntry NoneEntry OPERATOR_FAMILIES "
        "PrecondCapabilities PrecondEntry PrecondSettings "
        "PrecondUnavailableError RASEntry SchwarzEntry "
        "availability_note available_preconds capability_matrix get_precond "
        "precond_choices precond_names register_precond resolve_precond "
        "schwarz_block_solve"
    ),
    "repro.report": "AsciiPlot loglog_chart timeline_chart",
    "repro.serve": (
        "CoalesceOutcome Coalescer DeadlineExpiredError QueueFullError "
        "QueuedRequest RequestValidationError SERVABLE_OPERATORS "
        "ServeClient ServeError ServeServer ServedResult ServiceClosedError "
        "ServiceRequest SolveFailedError SolveQueue SolveService Ticket "
        "decode_array encode_array error_from_dict"
    ),
    "repro.solvers": (
        "ArraySpace BatchedArraySpace BatchedSolverResult "
        "MultishiftRefineResult Operator "
        "STAGGERED_SPACE SolverResult SpectrumEstimate WILSON_SPACE "
        "batched_bicgstab batched_cg batched_defect_correction batched_gcr "
        "batched_mr batched_pcg batched_space_for_nspin bicgstab cg cgnr "
        "defect_correction estimate_condition_number gcr lanczos_spectrum "
        "mixed_precision_bicgstab mixed_precision_cg mr multishift_cg "
        "multishift_with_refinement pcg space_for_nspin"
    ),
    "repro.trace": (
        "MODEL_RANK SpanStat TraceEvent TraceFormatError Tracer "
        "active_tracer ascii_tracks emit_complete events_to_chrome "
        "format_table instant kind_totals load_chrome_trace span summarize "
        "timed_kernel_totals timeline_events tracing validate_chrome_trace "
        "write_chrome_trace"
    ),
    "repro.util": "Tally current_tally make_rng tally",
}


#: Names the surfaces no longer hand out, by the package that did: the
#: multiplicative and two-level Schwarz variants, the two-level registry
#: entry, the model-driven tuner, the daemon's load bench and the
#: precision wrapper GCR's inner matvec no longer needs.
REMOVED = {
    "repro": (
        "SAPPreconditioner", "TwoLevelSchwarzPreconditioner",
        "tune_dslash_partitioning", "tune_precision_policy",
        "tune_wilson_solver",
    ),
    "repro.core": (
        "tune", "tune_dslash_partitioning", "tune_precision_policy",
        "tune_wilson_solver",
    ),
    "repro.dd": (
        "sap", "twolevel", "SAPPreconditioner",
        "TwoLevelSchwarzPreconditioner",
    ),
    "repro.precond": ("TwoLevelEntry",),
    "repro.serve": ("loadgen",),
    "repro.solvers": ("PrecisionWrappedOperator",),
}


def _packages() -> list[str]:
    return ["repro"] + sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    )


def test_every_package_keeps_its_public_names():
    exported = {}
    for name in _packages():
        package = importlib.import_module(name)
        if hasattr(package, "__all__"):
            exported[name] = set(package.__all__)
            assert len(package.__all__) == len(exported[name]), name
            for attr in package.__all__:
                value = getattr(package, attr)
                # linalg's three names are its submodules; no other is one
                assert name == "repro.linalg" or not isinstance(
                    value, ModuleType), (name, attr)
            assert exported[name] <= set(dir(package)), name
    assert exported == {
        name: set(names.split()) for name, names in SURFACE.items()
    }


@pytest.mark.parametrize("package", sorted(REMOVED))
def test_a_removed_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    for name in REMOVED[package]:
        assert name not in module.__all__ and name not in dir(module), name
        with pytest.raises(AttributeError, match=repr(name)):
            getattr(module, name)


@pytest.mark.parametrize("module", [
    "repro.core.tune", "repro.dd.sap", "repro.dd.twolevel",
    "repro.serve.loadgen",
])
def test_a_removed_module_is_not_importable(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_the_cli_parser_loads_no_solve_or_bench_module(run):
    """Building the parser (every invocation, daemon boot included) takes
    the serve package's constants and nothing of its solve side."""
    out = run(
        "import sys\n"
        "from repro.cli import build_parser\n"
        "before = set(sys.modules)\n"
        "build_parser()\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = {name for name in out.split() if name.startswith("repro.serve")}
    assert added <= {
        "repro.serve", "repro.serve.coalescer", "repro.serve.errors",
        "repro.serve.queue",
    }, added


def test_a_name_its_module_shares_stays_the_name(run):
    """``solvers.cg`` is a module and ``cg`` its function: importing the
    module first must not leave the module where the name belongs."""
    run(
        "import repro.solvers.cg, repro.solvers.gcr\n"
        "from repro.solvers import cg, gcr\n"
        "from repro import cg as root_cg\n"
        "assert callable(cg) and callable(gcr) and root_cg is cg, (cg, gcr)"
    )


def test_star_import_binds_every_public_name(run):
    out = run(
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "print(' '.join(sorted(set(namespace) - {'__builtins__'})))"
    )
    assert set(out.split()) == set(SURFACE["repro"].split())
