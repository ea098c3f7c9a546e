"""A solve's team of helper threads lives for the solve and no longer.

The compiled calls of one ``solve()`` — the Schur apply, ``prepare_rhs``,
``reconstruct_residual`` and BiCGstab's fused steps; GCR-DD's whole matrix
and its Schwarz block solves — run on ONE team (``c_backend.solve_team``):
its helpers start with the first call, park between calls and are joined
before ``solve()`` returns, also when it raises.  The team is the solving thread's, so two Python threads
solving on one configuration at once each have their own, and the
process's fork handler joins every open team's helpers first, so a fork
in the middle of a solve copies no helper.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from _c_grid import needs_c
from repro import GaugeField, Geometry, ProcessGrid, SolveRequest, SpinorField, solve
from repro.dirac import EvenOddPreconditionedWilson, WilsonCloverOperator
from repro.kernels import c_backend
from repro.solvers import multirhs

pytestmark = [
    needs_c,
    pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="fewer than 2 CPUs allowed: a team has no helper",
    ),
    pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="no per-thread listing"
    ),
]

GEOMETRY = Geometry((8, 8, 8, 4))


def threads() -> set:
    return set(os.listdir("/proc/self/task"))


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.weak(GEOMETRY, epsilon=0.25, rng=0)


def request(gauge, seed=1, batch=0):
    rhs = [SpinorField.random(GEOMETRY, rng=seed + i).data for i in range(batch or 1)]
    return SolveRequest(
        operator="wilson_clover", gauge=gauge,
        rhs=np.stack(rhs) if batch else rhs[0], mass=0.1, tol=1e-8,
        method="bicgstab",
    )


@pytest.fixture(scope="module")
def alone(gauge):
    """The single-thread solutions: one right-hand side, and three."""
    return solve(request(gauge)).x.tobytes(), solve(request(gauge, batch=3)).x.tobytes()


@pytest.fixture
def watch(monkeypatch):
    """Call ``hook`` from inside the BiCGstab loop, once a coefficient
    computation, with the thread listing seen there recorded."""
    seen, hooks = [], []
    real = multirhs._lanewise

    def lanewise(*args):
        seen.append(threads())
        for hook in hooks:
            hook(len(seen))
        return real(*args)

    monkeypatch.setattr(multirhs, "_lanewise", lanewise)
    return seen, hooks


def test_the_team_parks_between_calls_and_leaves_with_the_solve(gauge, alone, watch):
    seen, _ = watch
    before = threads()
    result = solve(request(gauge))
    assert result.x.tobytes() == alone[0]
    # between two calls of the loop the helpers are there, parked
    assert all(len(inside - before) >= 1 for inside in seen[1:])
    assert threads() <= before


def test_the_team_follows_its_caller(gauge, alone, watch):
    """The solving thread moved onto its helper's CPU in the middle of a
    solve: the helper is bound to the CPU it left at the next call (where
    ``run_team`` would bind a call's helper), and the bits stay."""
    _, hooks = watch
    before, allowed = threads(), os.sched_getaffinity(0)
    moved, bound = [], []

    def helpers():
        return [int(tid) for tid in threads() - before]

    def hook(calls):
        if calls == 3:  # onto a helper's CPU
            cpu = min(os.sched_getaffinity(helpers()[0]))
            os.sched_setaffinity(0, {cpu})
            moved.append(cpu)
        elif calls == 6:
            bound.extend(os.sched_getaffinity(tid) for tid in helpers())

    hooks.append(hook)
    try:
        result = solve(request(gauge))
    finally:
        os.sched_setaffinity(0, allowed)
    assert result.x.tobytes() == alone[0]
    assert moved and bound
    assert all(moved[0] not in cpus for cpus in bound)


def test_no_helper_outlives_a_solve_that_raises(gauge, watch):
    _, hooks = watch

    def deadline(calls):
        if calls == 10:
            raise TimeoutError("operation exceeded its deadline")

    hooks.append(deadline)
    before = threads()
    with pytest.raises(TimeoutError):
        solve(request(gauge))
    assert threads() <= before


@pytest.mark.parametrize("batch", [0, 3])
def test_a_team_stopped_between_every_two_calls(gauge, alone, watch, batch):
    """The helpers joined (as before a fork) between every two compiled
    calls of a solve and started again by the next: each restarted helper
    runs only the calls posted after its start, and the solve keeps its
    bits."""
    _, hooks = watch
    before = threads()
    hooks.append(lambda calls: c_backend._stop_teams())
    for _ in range(3):
        result = solve(request(gauge, batch=batch))
        assert result.x.tobytes() == alone[1 if batch else 0]
    assert threads() <= before


def test_a_fork_inside_and_after_a_solve(gauge, alone, watch):
    """The fork handler joins the team's helpers before the process forks;
    the next call starts them again, and the solve keeps its bits.  A child
    forked in the middle of a solve, and one forked right after, runs a
    compiled even-odd apply of its own."""
    _, hooks = watch
    before = threads()
    forked = []

    def child_applies():
        pid = os.fork()
        if pid == 0:  # the child: one apply on the compiled tier, then out
            code = 1
            try:
                eo = EvenOddPreconditionedWilson(
                    WilsonCloverOperator(gauge, mass=0.1, csw=1.0, kernel="c")
                )
                x = SpinorField.random(eo.geometry, rng=3).data
                code = 0 if np.isfinite(eo.apply(x)).all() else 1
            finally:
                os._exit(code)
        # no helper of the parent's team was alive across the fork
        forked.append((pid, threads() <= before))

    hooks.append(lambda calls: calls == 5 and child_applies())
    result = solve(request(gauge))
    assert result.x.tobytes() == alone[0]
    child_applies()
    for pid, no_helper in forked:
        assert reap(pid) == 0
        assert no_helper
    assert len(forked) == 2


def reap(pid, seconds=120):
    """The exit code of the child ``pid``, or ``None`` (it is killed)
    where it has not ended within ``seconds``."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


def test_two_threads_solving_at_once(gauge, alone):
    """Two Python threads solving on one configuration at the same time,
    each on its own team: both give the single-thread bits."""
    before = threads()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(solve, request(gauge, batch=3 if i % 2 else 0))
            for i in range(4)
        ]
        results = [f.result(timeout=300) for f in futures]
    for i, result in enumerate(results):
        assert result.x.tobytes() == alone[i % 2]
    # a joined Python thread leaves the listing a moment after its join
    deadline = time.monotonic() + 5
    while not threads() <= before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threads() <= before


def gcrdd_request(gauge):
    """The benchmark's GCR-DD request (Schwarz blocks 1x1x2x2) on this
    lattice: the whole matrix and the block solves, no even-odd call."""
    return SolveRequest(
        operator="wilson_clover", gauge=gauge,
        rhs=SpinorField.random(GEOMETRY, rng=1).data, mass=0.1, csw=1.0,
        tol=1e-6, method="gcr-dd", grid=ProcessGrid((1, 1, 2, 2)),
        precond="auto",
    )


@pytest.fixture(scope="module")
def gcrdd_alone(gauge):
    return solve(gcrdd_request(gauge)).x.tobytes()


@pytest.fixture
def compiled_calls(monkeypatch):
    """Call ``hook`` at the start of every compiled team call (where it
    asks for the solve's team), with the thread listing seen there
    recorded."""
    seen, hooks = [], []
    real = c_backend._team

    def team(library):
        seen.append(threads())
        for hook in hooks:
            hook(len(seen))
        return real(library)

    monkeypatch.setattr(c_backend, "_team", team)
    return seen, hooks


def test_a_gcrdd_solve_starts_its_helpers_once(gauge, gcrdd_alone, compiled_calls):
    """Every whole-matrix apply and every block solve of a GCR-DD solve
    runs on the same helpers, started by the first call that needs them,
    and none is left when the solve returns."""
    seen, _ = compiled_calls
    before = threads()
    result = solve(gcrdd_request(gauge))
    assert result.x.tobytes() == gcrdd_alone
    helpers = set().union(*(inside - before for inside in seen))
    assert len(seen) > 40  # 25 applies and 20 block solves, or about
    assert 1 <= len(helpers) <= len(os.sched_getaffinity(0)) - 1
    assert all(inside - before == helpers for inside in seen[2:])
    assert threads() <= before


def test_a_gcrdd_team_stopped_between_every_two_calls(gauge, gcrdd_alone, compiled_calls):
    """The helpers joined (as before a fork) before every compiled call of
    a GCR-DD solve and started again by that call: the same bits."""
    _, hooks = compiled_calls
    before = threads()
    hooks.append(lambda calls: c_backend._stop_teams())
    for _ in range(2):
        assert solve(gcrdd_request(gauge)).x.tobytes() == gcrdd_alone
    assert threads() <= before
