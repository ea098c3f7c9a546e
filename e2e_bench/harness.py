"""Parent side: spawn round children, reap them, aggregate the metrics.

The driver is one process and is idle while a round child runs, so a
round never has more than ``Workload.procs`` busy processes.  Every
child is the leader of its own process group; the group is killed when
the round ends for any reason (normal exit, timeout, Ctrl-C, an
exception here), so a daemon or rank process never outlives its round.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from e2e_bench import spec
from e2e_bench.round import MARKER


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def run_round(workload: str, seed: int, ops: int, traced: bool,
              round_id: str, out_dir) -> dict:
    """Run one round child to completion; a crash or timeout becomes a
    result with every planned operation failed.  ``t_spawn`` starts the
    child's set-up clock (``perf_counter`` is system-wide on Linux)."""
    args = {
        "workload": workload, "seed": seed, "ops": ops, "traced": traced,
        "round_id": round_id, "out": str(out_dir),
        "t_spawn": time.perf_counter(),
    }
    proc = subprocess.Popen(
        [sys.executable, "-m", "e2e_bench.round", json.dumps(args)],
        stdout=subprocess.PIPE, text=True, cwd=spec.ROOT,
        env=spec.child_env(), start_new_session=True,
    )
    why = None
    try:
        stdout, _ = proc.communicate(timeout=spec.ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, why = "", f"round exceeded {spec.ROUND_TIMEOUT_S:g} s"
    finally:
        kill_group(proc)
    for line in reversed(stdout.splitlines()):
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER):])
    why = why or f"round child exited {proc.returncode} without a result"
    planned = spec.operations(spec.WORKLOADS[workload], ops, traced)
    return {"round": round_id, "traced": traced, "attempted": planned,
            "failed": planned, "failures": [why], "op_seconds": [], "rhs": 0}


def host_block() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1min_start": os.getloadavg()[0],
        "blas_threads": spec.PINNED_THREADS,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def measure(names: list[str], seed: int, rounds: int, seconds: float | None,
            untraced: bool, traced: bool, out_dir,
            smoke: bool = False) -> dict:
    """Run the requested passes and return the result document.

    The untraced pass runs ``rounds`` rounds per workload, interleaved
    across workloads (w1r1, w2r1, ..., w1r2, ...) so a slow phase of the
    shared host spreads over all of them.  The traced pass is one more
    round per workload; end-to-end numbers never come from it.
    """
    host = host_block()
    plan = {n: 1 if smoke else spec.scaled_ops(spec.WORKLOADS[n], seconds)
            for n in names}
    collected: dict[str, dict] = {
        n: {"untraced": [], "traced": None} for n in names
    }

    def go(name, traced_round, round_id):
        started = time.perf_counter()
        result = run_round(name, seed, plan[name], traced_round, round_id,
                           out_dir)
        print(f"  {name} {round_id}: {time.perf_counter() - started:5.1f} s"
            + (f"  FAILED: {'; '.join(result['failures'])}"
               if result["failed"] else ""), flush=True)
        return result

    if untraced:
        dead = set()
        for r in range(rounds):
            for name in names:
                if name in dead:
                    continue
                result = go(name, False, f"r{r}")
                collected[name]["untraced"].append(result)
                if "setup_s" not in result:  # crashed or timed out: stop
                    dead.add(name)
                    result["attempted"] = result["failed"] = (
                        result["attempted"] * (rounds - r))
    if traced:
        for name in names:
            collected[name]["traced"] = go(name, True, "traced")

    doc = {
        "schema": "e2e_bench/1", "smoke": smoke, "seed": seed,
        "rounds": rounds if untraced else 0, "ops_per_round": plan,
        "passes": [p for p, on in (("untraced", untraced),
                                   ("traced", traced)) if on],
        "host": host, "workloads": {},
    }
    for name in names:
        doc["workloads"][name] = aggregate(name, collected[name], host)
    finished = [r for group in collected.values()
                for r in group["untraced"] + [group["traced"]]
                if r and "numpy" in r]
    if finished:
        host["numpy"] = finished[0]["numpy"]
        host["kernel_auto"] = finished[0]["kernel_tiers"]
    host["loadavg_1min_end"] = os.getloadavg()[0]
    return doc


def metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def aggregate(name: str, runs: dict, host: dict) -> dict:
    """One workload's metrics from its round results."""
    w = spec.WORKLOADS[name]
    decl = spec.declared()
    rounds, traced = runs["untraced"], runs["traced"]
    every = rounds + ([traced] if traced else [])
    out = {
        "oversubscribed": w.procs > (host["cpu_count"] or 1),
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "failures": [f"{r['round']}: {f}" for r in every
                     for f in r["failures"]],
    }
    out["failed_frac"] = out["failed"] / max(1, out["attempted"])

    ok_rounds = [r for r in rounds if r["op_seconds"]]
    if ok_rounds:
        samples = [s for r in ok_rounds for s in r["op_seconds"]]
        values = {
            "solve_s": statistics.median(samples),
            "rhs_per_s": statistics.median(
                r["rhs"] / r["window_s"] for r in ok_rounds),
            "setup_s": statistics.median(r["setup_s"] for r in ok_rounds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in ok_rounds),
        }
        out["end_to_end"] = {
            m["name"]: metric(
                values[m["name"]], m["unit"],
                samples=len(samples if m["name"] == "solve_s" else ok_rounds))
            for m in decl["end_to_end"]
        }

    # Layer metrics: counts and program-reported times come from the
    # untraced rounds (from the traced round's untraced operations when
    # there is no untraced pass); probes, trace self-times and derived
    # ones need the traced round.
    source = ok_rounds or ([traced] if traced and traced["op_seconds"]
                           else [])
    layer: dict[str, float] = {}
    if source:
        layer.update(source[-1]["counts"])
        if layer.get("kernels.bytes_moved"):
            layer["kernels.flops_per_byte"] = (
                layer["kernels.flops"] / layer["kernels.bytes_moved"])
        keys = {k for r in source for k in r["reported"]}
        for k in keys:
            layer[k] = statistics.median(
                r["reported"][k] for r in source if k in r["reported"])

        def exact(r):
            return {k: v for k, v in r["counts"].items()
                    if spec.is_exact(k, name)}

        out["counts_repeat"] = all(
            r["counts_repeat"] and exact(r) == exact(source[0])
            for r in source)
    if traced and traced["op_seconds"] and "probes" in traced:
        layer.update(derived(w, layer, traced, out))
    units = {m["name"]: m["unit"] for m in decl["per_layer"]}
    out["per_layer"] = {
        k: metric(v, units[k], exact=spec.is_exact(k, name))
        for k, v in sorted(layer.items()) if k in units
    }
    return out


def derived(w: spec.Workload, layer: dict, traced: dict, out: dict) -> dict:
    """Probe values, trace self-times, and the per-call-probe × count
    estimates of where one operation's wall time goes.  Every time here
    was taken in the traced round's one process, so the operations, their
    traced twins and the probes are moments apart."""
    probes = traced["probes"]
    values = {k: v for k, v in probes.items() if not k.startswith("_")}
    solve_s = statistics.median(traced["op_seconds"])
    if traced.get("traced_op_seconds"):
        values.update(traced["trace_kinds"])
        values["trace.overhead_frac"] = (
            statistics.median(traced["traced_op_seconds"]) / solve_s - 1.0)

    # Rank processes each work on 1/procs of the lattice side by side;
    # client connections of the serve workload share one dispatcher.
    share = w.procs if w.kind == "library" else 1
    matvecs = layer.get("solvers.matvecs", 0)
    est = {"core.est_dirac_s": probes["dirac.apply_s"] * matvecs / share}
    if "multigpu.halo_exchange_s" in probes:
        # Per outer matvec: a rank's share of the in-process pack/unpack,
        # plus one face each way per partitioned dimension at the
        # backend's measured message cost.
        faces = 2 * sum(1 for extent in w.grid if extent > 1)
        est["core.est_halo_s"] = matvecs * (
            probes["multigpu.halo_exchange_s"] / share
            + faces * probes["comm.sendrecv_s"])
    if "dd.schwarz_apply_s" in probes:
        # The probe is what one application costs in wall time: all blocks
        # in turn (global view) or one rank's own block (rank processes).
        est["core.est_precond_s"] = (
            probes["dd.schwarz_apply_s"] * layer["precond.applies"])
    # BLAS outside the preconditioner: the bytes the program's tally
    # counted beyond operator and preconditioner applications (computed
    # from array sizes), at the bandwidth the axpy probe reached; plus,
    # between rank processes, one allreduce per global reduction.
    blas_bytes = (
        layer.get("kernels.bytes_moved", 0)
        - probes["_apply_bytes"] * matvecs
        - probes.get("_precond_bytes", 0) * layer.get("precond.applies", 0)
    )
    est["core.est_linalg_s"] = (
        max(0.0, blas_bytes) / probes["_axpy_bytes"]
        * probes["linalg.axpy_s"] / share
        + layer.get("linalg.reductions", 0) * probes.get("comm.allreduce_s", 0))
    values.update(est)
    values["core.unattributed_frac"] = 1.0 - sum(est.values()) / solve_s
    if "_one_rank_solve_s" in probes and not out["oversubscribed"]:
        values["comm.parallel_eff"] = (
            probes["_one_rank_solve_s"] / (w.procs * solve_s))
    return values
