"""Layer probes (traced pass only): benchmark-owned spans around direct
calls into each layer's public functions, on the workload's own arrays.

Every probe reports the median wall seconds of one call.  Probes run
after the traced round's operations and verification, in the same
process, so they sit moments away from the untraced operations they are
compared with and never touch an end-to-end number.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from e2e_bench.workloads import weak_gauge

#: Messages / reductions timed inside one comm-probe rank program.
COMM_REPEATS = 50


def timed_calls(recorder, name: str, fn, repeats: int) -> float:
    """Median seconds of ``fn()`` over ``repeats`` spans (one untimed
    call first, so lazy caches are filled)."""
    fn()
    samples = []
    for _ in range(repeats):
        with recorder.span(f"probe.{name}") as s:
            fn()
        samples.append(s["end"] - s["start"])
    return statistics.median(samples)


def comm_probe_program(comm, payload) -> dict:
    """Rank program: median seconds of one allreduce and of one
    neighbour send+receive of a halo-face-sized array."""
    face, repeats = payload
    peer = (comm.rank + 1) % comm.size

    def median_of(fn):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    def sendrecv():
        comm.send(peer, face)
        comm.recv(peer)

    comm.barrier()
    return {
        "allreduce": median_of(lambda: comm.allreduce_sum(1.0)),
        "sendrecv": median_of(sendrecv),
    }


def noop_program(comm, payload):
    return None


def kernel_probes(recorder, out: dict, op, x, ref_op=None) -> None:
    """Stencil cost of the workload's operator, against the program's
    own flop/byte accounting (bytes are computed from array sizes)."""
    from repro.util import tally

    out["dirac.apply_s"] = timed_calls(
        recorder, "dirac.apply", lambda: op.apply(x), 15)
    with tally() as t:
        op.apply(x)
    out["_apply_flops"], out["_apply_bytes"] = t.flops, t.bytes_moved
    if ref_op is not None:
        out["kernels.ref_apply_s"] = timed_calls(
            recorder, "kernels.ref_apply", lambda: ref_op.apply(x), 3)


def linalg_probes(recorder, out: dict, x, site_axes: int) -> None:
    from repro.linalg import blas
    from repro.precision import quantize_half
    from repro.util import tally

    y = x[::-1].copy()
    out["linalg.axpy_s"] = timed_calls(
        recorder, "linalg.axpy", lambda: blas.axpy(0.5, x, y), 20)
    out["linalg.cdot_s"] = timed_calls(
        recorder, "linalg.cdot", lambda: blas.cdot(x, y), 20)
    out["linalg.norm2_s"] = timed_calls(
        recorder, "linalg.norm2", lambda: blas.norm2(x), 20)
    with tally() as t:
        blas.axpy(0.5, x, y)
    out["_axpy_bytes"] = t.bytes_moved
    out["precision.half_roundtrip_s"] = timed_calls(
        recorder, "precision.quantize_half",
        lambda: quantize_half(x, site_axes=site_axes), 5)


def library_probes(recorder, workload) -> dict:
    """Probes for a ``LibraryWorkload`` (after its round has run)."""
    from repro.util import tally

    w = workload.w
    out: dict = {}
    x = workload.rhs.astype(w.dtype)
    out["gauge.field_build_s"] = timed_calls(
        recorder, "gauge.field_build",
        lambda: weak_gauge(workload.geometry, workload.seed), 3)
    if workload.staggered:
        from repro import AsqtadOperator, StaggeredNormalOperator

        out["dirac.operator_build_s"] = timed_calls(
            recorder, "dirac.operator_build",
            lambda: AsqtadOperator(workload.links, w.mass), 3)
        op = StaggeredNormalOperator(AsqtadOperator(workload.links, w.mass))
        kernel_probes(recorder, out, op, x)
    else:
        from repro import WilsonCloverOperator

        def build(kernel="auto"):
            return WilsonCloverOperator(workload.gauge, w.mass, 1.0,
                                        kernel=kernel)

        out["dirac.operator_build_s"] = timed_calls(
            recorder, "dirac.operator_build", build, 3)
        op = build()
        kernel_probes(recorder, out, op, x, ref_op=build("numpy_ref"))
    linalg_probes(recorder, out, x, site_axes=1 if workload.staggered else 2)

    if w.grid is None:
        return out
    from repro import (
        AdditiveSchwarzPreconditioner, BlockPartition, GCRDDConfig,
        HaloExchanger, ProcessGrid,
    )

    partition = BlockPartition(workload.geometry, ProcessGrid(w.grid))
    backend = w.request.get("backend")
    if w.request.get("precond") != "none":
        settings = GCRDDConfig().precond_settings()
        if backend is None:
            # Global view: one application loops over every block.
            schwarz = AdditiveSchwarzPreconditioner(
                op, partition, mr_steps=settings.steps, omega=settings.omega,
                precision=settings.precision)
            out["_blocks"] = schwarz.n_blocks

            def precondition():
                return schwarz(x)
        else:
            # SPMD: every rank solves its own block side by side, through
            # the rank-local helper the rank programs call.
            from repro.precond import schwarz_block_solve
            from repro.solvers import ArraySpace

            block_op = op.restrict_to_block(partition, 0)
            r_loc = np.ascontiguousarray(x[partition.slices(0)])
            out["_blocks"] = 1

            def precondition():
                return schwarz_block_solve(
                    block_op, r_loc, steps=settings.steps,
                    omega=settings.omega, precision=settings.precision,
                    space=ArraySpace(site_axes=2))

        out["dd.schwarz_apply_s"] = timed_calls(
            recorder, "dd.schwarz_apply", precondition, 3)
        with tally() as t:
            precondition()
        # Bytes of one application over all blocks, as the merged report
        # tally counts them.
        out["_precond_bytes"] = (
            t.bytes_moved * partition.n_ranks // out["_blocks"])
    if backend is None:
        return out

    exchanger = HaloExchanger(partition)
    blocks = partition.split(x)
    out["multigpu.halo_exchange_s"] = timed_calls(
        recorder, "multigpu.halo_exchange",
        lambda: exchanger.exchange_spinor(blocks), 5)
    out.update(comm_probes(recorder, backend, w.procs, blocks[0][0]))
    out["core.spmd_fixed_s"] = timed_calls(
        recorder, "core.spmd_fixed",
        lambda: _solve(workload.request(tol=0.9)), 2)
    # The same request on one rank: the numerator of comm.parallel_eff.
    with recorder.span("probe.core.one_rank_solve") as s:
        _solve(workload.request(grid=ProcessGrid((1, 1, 1, 1)),
                                backend="sequential"))
    out["_one_rank_solve_s"] = s["end"] - s["start"]
    return out


def _solve(request):
    from repro import solve

    result = solve(request)
    if not result.converged:
        raise RuntimeError("probe solve did not converge")


def comm_probes(recorder, backend: str, ranks: int, face) -> dict:
    """Message, reduction and pool-start cost on the workload's backend."""
    from repro.comm import run_rank_programs
    from repro.comm.shm import shutdown_pools

    shutdown_pools()  # so the next call pays the pool start
    with recorder.span("probe.comm.pool_start") as s:
        run_rank_programs(noop_program, ranks, backend=backend)
    out = {"comm.pool_start_s": s["end"] - s["start"]}
    with recorder.span("probe.comm.messages"):
        outcomes = run_rank_programs(
            comm_probe_program, ranks,
            payloads=[(np.ascontiguousarray(face), COMM_REPEATS)] * ranks,
            backend=backend,
        )
    out["comm.allreduce_s"] = max(o.value["allreduce"] for o in outcomes)
    out["comm.sendrecv_s"] = max(o.value["sendrecv"] for o in outcomes)
    return out


def serve_probes(recorder, workload) -> dict:
    """Probes for the ``ServeWorkload``: the batched stencil the daemon
    runs (pad_to lanes) and the wire codec on one lattice-sized array."""
    from repro import WilsonCloverOperator
    from repro.serve import ServiceRequest, decode_array, encode_array

    w = workload.w
    out = {}
    out["gauge.field_build_s"] = timed_calls(
        recorder, "gauge.field_build",
        lambda: weak_gauge(workload.geometry, workload.seed), 3)
    gauge = weak_gauge(workload.geometry, workload.seed)
    out["dirac.operator_build_s"] = timed_calls(
        recorder, "dirac.operator_build",
        lambda: WilsonCloverOperator(gauge, w.mass, 1.0), 3)
    lanes = workload.window_stats["pad_to"] or 1
    batch = np.stack([workload.sources[0][k % w.rhs_per_op]
                      for k in range(lanes)])
    kernel_probes(
        recorder, out, WilsonCloverOperator(gauge, w.mass, 1.0), batch,
        ref_op=WilsonCloverOperator(gauge, w.mass, 1.0, kernel="numpy_ref"),
    )
    linalg_probes(recorder, out, batch[0], site_axes=2)
    array = workload.sources[0][1]
    wire = encode_array(array)
    line = json.dumps(workload.payloads[0][1])
    out["serve.encode_array_s"] = timed_calls(
        recorder, "serve.encode_array", lambda: encode_array(array), 10)
    out["serve.decode_array_s"] = timed_calls(
        recorder, "serve.decode_array", lambda: decode_array(wire), 10)
    out["serve.request_parse_s"] = timed_calls(
        recorder, "serve.request_parse",
        lambda: ServiceRequest.from_wire(json.loads(line)), 10)
    return out


def run_probes(recorder, workload) -> dict:
    """All probes of one workload."""
    probe = serve_probes if workload.w.kind == "serve" else library_probes
    out = probe(recorder, workload)
    out["kernels.achieved_gflops"] = (
        out["_apply_flops"] / out["dirac.apply_s"] / 1e9)
    out["kernels.achieved_gbps"] = (
        out["_apply_bytes"] / out["dirac.apply_s"] / 1e9)
    if "kernels.ref_apply_s" in out:
        out["kernels.speedup_vs_ref"] = (
            out["kernels.ref_apply_s"] / out["dirac.apply_s"])
    if "dd.schwarz_apply_s" in out:
        out["dd.block_solve_s"] = out["dd.schwarz_apply_s"] / out["_blocks"]
    return out
