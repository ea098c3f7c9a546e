"""The six workloads, driven through the program's public surface only.

Both workload kinds expose the same steps to ``round.py``:
``make_inputs`` → ``make_operator`` → ``warmup`` → ``window(n)`` (timed) → ``verify`` → ``summarize`` → ``close``.
Imports of ``repro`` happen inside the round child, after its
``setup.import`` span has started.
"""

from __future__ import annotations

import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from e2e_bench import spec

EPSILON = 0.25


@dataclass
class Op:
    """One timed operation: a ``solve()`` call or a ``solve_many`` post."""

    start: float
    end: float
    error: str | None = None
    #: Solution arrays (library) or wire ``solution`` objects (serve).
    solutions: list = field(default_factory=list)
    #: The public report dict (library) or the response docs (serve).
    detail: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@contextmanager
def op_deadline(seconds: float):
    """Raise ``TimeoutError`` in the main thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"operation exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def weak_gauge(geometry, seed: int):
    """The gauge configuration every workload uses (rng = the seed)."""
    from repro import GaugeField

    return GaugeField.weak(geometry, epsilon=EPSILON, rng=seed)


def rel_residual(apply, x, b) -> float:
    return float(np.linalg.norm(b - apply(x)) / np.linalg.norm(b))


# ----------------------------------------------------------------------
# layer metrics read from the public SolveReport dict
# ----------------------------------------------------------------------
def report_counts(report: dict) -> dict:
    """Exact counts of one solve, from its public report."""
    tally, solve = report["tally"], report["solve"]
    by_precision = report["iterations_by_precision"]
    applications = tally["operator_applications"]
    precond = sum(n for k, n in applications.items() if k.endswith("_precond"))
    applies = sum(applications.values()) - precond
    return {
        "solvers.iterations": solve["iterations"],
        "solvers.matvecs": solve["matvecs"],
        "solvers.restarts": solve["restarts"],
        "precision.iters_half": by_precision.get("half", 0),
        "precision.iters_single": by_precision.get("single", 0),
        "precision.iters_double": by_precision.get("double", 0),
        "linalg.reductions": tally["reductions"],
        "linalg.local_reductions": tally["local_reductions"],
        "dirac.applies": applies,
        # Dirac applications inside the preconditioner's block solves:
        # everything that was not one of the outer solver's matvecs.
        "dd.block_applies": applies - solve["matvecs"] if precond else 0,
        "precond.applies": precond,
        "kernels.flops": tally["flops"],
        "kernels.bytes_moved": tally["bytes_moved"],
        "multigpu.comm_bytes": tally["comm_bytes"],
        "multigpu.messages": tally["messages"],
    }


def report_times(report: dict) -> dict:
    """Program-reported seconds of one solve.  Kernel seconds are summed
    over ranks in the report, so they are divided by the rank count;
    waits are the slowest rank's."""
    ranks = report.get("ranks") or {}
    n_ranks = ranks.get("count") or 1
    kernels = report["tally"]["kernel_seconds"]
    out = {
        "kernels.dslash_busy_s": sum(
            s for k, s in kernels.items() if k.endswith("dslash")
        ) / n_ranks,
    }
    if "halo_exchange" in kernels:
        out["multigpu.halo_busy_s"] = kernels["halo_exchange"] / n_ranks
    for metric, key in (
        ("comm.allreduce_wait_s", "spmd_allreduce_wait_seconds"),
        ("comm.recv_wait_s", "spmd_recv_wait_seconds"),
    ):
        waits = [w[key]["seconds"] for w in ranks.get("wait", {}).values()
                 if key in w]
        if waits:
            out[metric] = max(waits)
    straggler = (ranks.get("straggler") or {}).get("max_over_median")
    if straggler is not None:
        out["comm.straggler_ratio"] = straggler
    hidden = (ranks.get("overlap") or {}).get("fraction")
    if hidden is not None:
        out["multigpu.overlap_hidden_frac"] = hidden
    return out


def median_by_key(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


# ----------------------------------------------------------------------
# library workloads: one operation = one solve(SolveRequest)
# ----------------------------------------------------------------------
class LibraryWorkload:
    #: ``solve`` runs in the round child, under its tracer.
    traceable = True

    def __init__(self, workload: spec.Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.staggered = workload.operator.startswith("asqtad")
        #: The layer metric the ``setup.operator`` span measures, if any.
        self.operator_setup_metric = (
            "gauge.asqtad_links_s" if self.staggered else None)

    def make_inputs(self) -> None:
        from repro import Geometry, SpinorField

        self.geometry = Geometry(self.w.dims)
        self.gauge = weak_gauge(self.geometry, self.seed)
        self.rhs = SpinorField.random(
            self.geometry, nspin=1 if self.staggered else 4,
            rng=self.seed + 1,
        ).data

    def make_operator(self) -> None:
        """Set-up a user pays once per configuration: the asqtad fat and
        long links.  (``solve`` builds the Wilson-clover operator itself
        on every call, so that cost is inside ``solve_s``.)"""
        if self.staggered:
            from repro.gauge.asqtad import build_asqtad_links

            self.links = build_asqtad_links(self.gauge)

    def request(self, **overrides):
        from repro import ProcessGrid, SolveRequest

        fields = dict(
            operator=self.w.operator,
            gauge=self.links if self.staggered else self.gauge,
            rhs=self.rhs, mass=self.w.mass, tol=self.w.tol,
            **self.w.request,
        )
        if self.w.grid is not None:
            fields["grid"] = ProcessGrid(self.w.grid)
        fields.update(overrides)
        return SolveRequest(**fields)

    def operation(self) -> Op:
        from repro import solve

        request = self.request()
        start = time.perf_counter()
        try:
            with op_deadline(spec.OP_TIMEOUT_S):
                result = solve(request)
        except Exception as exc:  # boundary: any failure is a failed op
            return Op(start, time.perf_counter(),
                      error=f"{type(exc).__name__}: {exc}")
        op = Op(start, time.perf_counter())
        op.solutions = (
            list(result.solutions) if self.staggered else [result.x]
        )
        op.detail = result.report.to_dict()
        if not result.converged:
            op.error = "converged=False"
        return op

    def warmup(self, recorder) -> Op:
        with recorder.span("warmup"):
            return self.operation()

    def window(self, n: int, recorder, label: str = "op") -> list[Op]:
        ops = []
        for i in range(n):
            with recorder.span(f"{label}[{i}]"):
                ops.append(self.operation())
        return ops

    def verify(self, ops: list[Op]) -> list[str]:
        """Reference-tier residual of the last solution, and bitwise
        repeat of every operation's solution (warm-up included)."""
        good = [op for op in ops if op.error is None]
        if not good:
            return []
        problems = []
        for i, op in enumerate(good[1:], 1):
            if not all(np.array_equal(a, b)
                       for a, b in zip(good[0].solutions, op.solutions)):
                problems.append(f"solution of operation {i} differs "
                                "bitwise from the first")
        limit = 10 * self.w.tol
        for label, apply, x in self._reference_systems(good[-1]):
            res = rel_residual(apply, x, self.rhs)
            if not res <= limit:
                problems.append(f"{label}: reference residual {res:.3e} "
                                f"> {limit:.1e}")
        return problems

    def _reference_systems(self, op: Op):
        """``(label, apply, x)`` per solved system, with an operator built
        independently of the one ``solve`` used."""
        if self.staggered:
            from repro import AsqtadOperator, StaggeredNormalOperator

            base = AsqtadOperator(self.links, self.w.mass)
            for sigma, x in zip(self.w.request["shifts"], op.solutions):
                yield (f"shift {sigma:g}",
                       StaggeredNormalOperator(base, sigma).apply, x)
        else:
            from repro import WilsonCloverOperator

            ref = WilsonCloverOperator(
                self.gauge, self.w.mass, 1.0, kernel="numpy_ref"
            )
            yield "numpy_ref", ref.apply, op.solutions[0]

    def summarize(self, ops: list[Op]) -> dict:
        solved = [op for op in ops if op.detail is not None]
        if not solved:
            return {"counts": {}, "reported": {}, "counts_repeat": False}
        counts = [report_counts(op.detail) for op in solved]
        return {
            "counts": counts[-1],
            "counts_repeat": all(c == counts[0] for c in counts),
            "reported": median_by_key(
                [report_times(op.detail) for op in solved]),
        }

    def close(self) -> None:
        from repro.comm.shm import shutdown_pools

        shutdown_pools()


# ----------------------------------------------------------------------
# serve workload: one operation = one client-side solve_many round trip
# ----------------------------------------------------------------------
class ServeWorkload:
    operator_setup_metric = "serve.boot_s"
    #: The solves run in the daemon, whose CLI has no tracing switch.
    traceable = False

    def __init__(self, workload: spec.Workload, seed: int):
        self.w = workload
        self.seed = seed
        self.daemon = None
        self.window_stats = None

    def make_inputs(self) -> None:
        """The 12 sources of one propagator, six per connection: even
        lines are point sources named on the wire, odd lines are dense
        inline arrays (a stochastic source) so decode cost is real."""
        from repro import Geometry, SpinorField
        from repro.serve import encode_array

        self.geometry = Geometry(self.w.dims)
        rng = np.random.default_rng(self.seed + 1)
        site = [int(rng.integers(0, d)) for d in self.w.dims]
        base = {
            "operator": self.w.operator, "mass": self.w.mass,
            "tol": self.w.tol, "return_solution": True,
            "gauge": {"kind": "weak", "dims": list(self.w.dims),
                      "epsilon": EPSILON, "seed": self.seed},
            **self.w.request,
        }
        self.payloads, self.sources = [], []
        for conn in range(self.w.procs):
            lines, arrays = [], []
            for k in range(self.w.rhs_per_op):
                index = conn * self.w.rhs_per_op + k
                spin, color = divmod(index, 3)
                if k % 2 == 0:
                    array = SpinorField.point_source(
                        self.geometry, tuple(site), spin=spin, color=color
                    ).data
                    rhs = {"kind": "point", "site": site,
                           "spin": spin, "color": color}
                else:
                    array = SpinorField.random(
                        self.geometry, rng=self.seed + 2 + index
                    ).data
                    wire = encode_array(array)
                    rhs = {"kind": "data", "real": wire["real"],
                           "imag": wire["imag"]}
                lines.append({**base, "rhs": rhs})
                arrays.append(array)
            self.payloads.append(lines)
            self.sources.append(arrays)

    def make_operator(self) -> None:
        """Boot ``python -m repro serve`` at its CLI defaults (the port is
        a deployment setting: 0 picks a free one) and wait for /healthz."""
        from repro.serve import ServeClient

        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True, env=spec.child_env(),
        )
        banner = self.daemon.stdout.readline()
        match = re.search(r"http://\S+", banner)
        if match is None:
            raise RuntimeError(f"daemon did not announce a URL: {banner!r}")
        self.url = match.group(0)
        self.client = ServeClient(self.url, timeout=spec.OP_TIMEOUT_S)
        deadline = time.monotonic() + spec.OP_TIMEOUT_S
        while True:
            try:
                if self.client.health().get("status") == "ok":
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def _post(self, client, conn: int) -> Op:
        start = time.perf_counter()
        try:
            docs = client.solve_many(self.payloads[conn])
        except Exception as exc:  # boundary: any failure is a failed op
            return Op(start, time.perf_counter(),
                      error=f"{type(exc).__name__}: {exc}")
        op = Op(start, time.perf_counter(), detail=docs)
        bad = [d for d in docs
               if d.get("status") != "ok" or not d.get("converged")]
        if bad or len(docs) != len(self.payloads[conn]):
            op.error = f"{len(bad)} of {len(docs)} responses not ok"
        else:
            op.solutions = [d["solution"] for d in docs]
        return op

    def warmup(self, recorder) -> Op:
        """One post fills the daemon's gauge and operator caches."""
        with recorder.span("warmup"):
            return self._post(self.client, 0)

    def window(self, n: int, recorder, label: str = "op") -> list[Op]:
        """Closed loop: each connection posts its half-propagator ``n``
        times, the next post only after the previous reply."""
        from repro.serve import ServeClient

        per_conn: list[list[Op]] = [[] for _ in range(self.w.procs)]

        def drive(conn: int) -> None:
            client = ServeClient(self.url, timeout=spec.OP_TIMEOUT_S)
            for _ in range(n):
                per_conn[conn].append(self._post(client, conn))

        before = self.client.stats()
        threads = [threading.Thread(target=drive, args=(c,))
                   for c in range(self.w.procs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = self.client.stats()
        self.window_stats = {
            key: after[key] - before[key]
            for key in ("batches_total", "batched_requests_total")
        }
        self.window_stats["pad_to"] = after["pad_to"]
        self.per_conn = per_conn
        for conn, ops in enumerate(per_conn):
            for i, op in enumerate(ops):
                recorder.add(f"{label}[c{conn}.{i}]", op.start, op.end,
                             recorder.current)
        return [op for ops in per_conn for op in ops]

    def verify(self, ops: list[Op]) -> list[str]:
        from repro import WilsonCloverOperator
        from repro.serve import decode_array

        problems = []
        limit = 10 * self.w.tol
        for op in ops:
            for doc in op.detail or ():
                if doc.get("status") == "ok" and not doc["residual"] <= limit:
                    problems.append(f"response {doc['id']}: residual "
                                    f"{doc['residual']:.3e} > {limit:.1e}")
        for conn, conn_ops in enumerate(self.per_conn):
            good = [op for op in conn_ops if op.error is None]
            if any(op.solutions != good[0].solutions for op in good[1:]):
                problems.append(f"connection {conn}: a post's solutions "
                                "differ bitwise from the first post's")
        last = next((op for op in reversed(self.per_conn[0])
                     if op.error is None), None)
        if last is not None:
            ref = WilsonCloverOperator(
                weak_gauge(self.geometry, self.seed),
                self.w.mass, 1.0, kernel="numpy_ref",
            )
            line = 1  # an inline-data line: exercises the wire both ways
            res = rel_residual(ref.apply, decode_array(last.solutions[line]),
                               self.sources[0][line])
            if not res <= limit:
                problems.append(f"decoded solution: reference residual "
                                f"{res:.3e} > {limit:.1e}")
        return problems

    def summarize(self, ops: list[Op]) -> dict:
        """Counts are per propagator (one post of each connection), so
        they compare with ``solve_s``: while one post is in flight the
        daemon does about one propagator's work for both connections."""
        docs = [d for op in ops for d in (op.detail or ())]
        ok = [d for d in docs if d.get("status") == "ok"]
        posts = max(1, len(self.per_conn[0]))
        batches = {}
        for d in ok:
            key = (d["report"]["wall_seconds"], d["timing"]["solve_seconds"])
            batches[key] = d
        counts: dict = {}
        for d in batches.values():
            for k, v in report_counts(d["report"]).items():
                counts[k] = counts.get(k, 0) + v / posts
        counts["solvers.iterations"] = sum(
            d["iterations"]
            for conn_ops in self.per_conn
            for d in (conn_ops[-1].detail or ())
            if d.get("status") == "ok"
        )
        stats = self.window_stats
        counts["serve.batches"] = stats["batches_total"] / posts
        counts["serve.rejected"] = len(docs) - len(ok)

        def timing(key):
            return [d["timing"][key] for d in ok]

        reported = {}
        if ok:
            reported = {
                "kernels.dslash_busy_s": sum(
                    report_times(d["report"])["kernels.dslash_busy_s"]
                    for d in batches.values()) / posts,
                "serve.queue_wait_p50_s": statistics.median(
                    timing("queue_seconds")),
                "serve.coalesce_wait_p50_s": statistics.median(
                    timing("coalesce_wait_seconds")),
                "serve.batch_solve_p50_s": statistics.median(
                    d["timing"]["solve_seconds"] for d in batches.values()),
                "serve.request_latency_p50_s": statistics.median(
                    timing("latency_seconds")),
                "serve.request_latency_p90_s": statistics.quantiles(
                    timing("latency_seconds"), n=10)[8],
                "serve.wire_s": statistics.median(
                    op.seconds - max(d["timing"]["latency_seconds"]
                                     for d in op.detail)
                    for op in ops if op.error is None),
            }
        if stats["batches_total"]:
            ratio = stats["batched_requests_total"] / stats["batches_total"]
            reported["serve.coalesce_ratio"] = ratio
            if stats["pad_to"]:
                reported["serve.lane_occupancy"] = ratio / stats["pad_to"]
        return {"counts": counts, "reported": reported,
                "counts_repeat": True}

    def close(self) -> None:
        if self.daemon is None:
            return
        self.daemon.send_signal(signal.SIGTERM)
        try:
            self.daemon.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon.stdout.close()


def build(name: str, seed: int):
    workload = spec.WORKLOADS[name]
    cls = ServeWorkload if workload.kind == "serve" else LibraryWorkload
    return cls(workload, seed)
