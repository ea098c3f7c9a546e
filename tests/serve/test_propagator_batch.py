"""A propagator is one batch: the coalescer's default group size is the
twelve spin x colour sources of one configuration.

Driven the way the end-to-end benchmark drives it — ``python -m repro
serve`` at its CLI defaults, two connections posting half a propagator
each, point and dense sources alternating — and held against the same
sources solved alone and four at a time: the width of the batch is a
matter of dispatch, never of bits.
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.lattice import Geometry, SpinorField
from repro.serve import (
    ServeClient,
    ServeServer,
    SolveService,
    decode_array,
    encode_array,
)
from repro.serve.coalescer import DEFAULT_MAX_BATCH, Coalescer
from repro.serve.queue import SolveQueue

DIMS = [4, 4, 4, 4]


def propagator_lines() -> list[dict]:
    """Twelve sources on one configuration, one per (spin, colour):
    even lines a point source named on the wire, odd lines a dense field
    shipped inline — the benchmark's mix."""
    geometry = Geometry(tuple(DIMS))
    lines = []
    for index in range(12):
        spin, color = divmod(index, 3)
        if index % 2 == 0:
            rhs = {"kind": "point", "site": [0, 0, 0, 0],
                   "spin": spin, "color": color}
        else:
            rhs = {"kind": "data", **encode_array(
                SpinorField.random(geometry, rng=50 + index).data)}
        lines.append({
            "id": f"s{index}", "operator": "wilson_clover",
            "method": "bicgstab", "mass": 0.1, "csw": 1.0, "tol": 1e-8,
            "gauge": {"kind": "weak", "dims": DIMS, "epsilon": 0.25,
                      "seed": 3},
            "rhs": rhs, "return_solution": True,
        })
    return lines


def solution_bytes(docs) -> dict:
    assert [d["status"] for d in docs] == ["ok"] * len(docs)
    assert all(d["converged"] for d in docs)
    return {d["id"]: decode_array(d["solution"]).tobytes() for d in docs}


@pytest.fixture(scope="module")
def four_lane_bytes():
    """Every source's solution from a daemon told ``max_batch=4``: the
    explicit setting still caps a group at four lanes."""
    server = ServeServer(
        SolveService(max_batch=4, max_wait=0.2).start(), port=0).start()
    try:
        docs = ServeClient(server.url).solve_many(propagator_lines())
        stats = server.service.stats()
    finally:
        server.stop()
    assert [d["batch"]["occupancy"] for d in docs] == [4] * 12
    assert (stats["max_batch"], stats["batches_total"]) == (4, 3)
    return solution_bytes(docs)


def test_the_default_is_one_propagator():
    assert DEFAULT_MAX_BATCH == 12
    assert Coalescer(SolveQueue()).max_batch == DEFAULT_MAX_BATCH
    stats = SolveService().stats()
    assert stats["max_batch"] == stats["pad_to"] == DEFAULT_MAX_BATCH


def test_two_connections_of_six_lines_are_one_batch(child_env,
                                                    four_lane_bytes):
    lines = propagator_lines()
    halves = [lines[:6], lines[6:]]
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=child_env,
    )
    try:
        banner = daemon.stdout.readline()
        assert f"max_batch={DEFAULT_MAX_BATCH} " in banner
        client = ServeClient(
            re.search(r"http://\S+", banner).group(0), timeout=120)
        # Alone first: twelve batches of one, the gauge and the operator
        # built on the way.
        alone = solution_bytes([client.solve(line) for line in lines])

        # The second connection has the coalescing window (50 ms at the
        # defaults) to arrive in; a host that stalls a thread for longer
        # than that gets another go.
        for _ in range(3):
            before = client.stats()
            docs: list = [None, None]
            gate = threading.Barrier(2)

            def drive(conn):
                gate.wait()
                docs[conn] = client.solve_many(halves[conn])

            threads = [threading.Thread(target=drive, args=(c,))
                       for c in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            after = client.stats()
            if after["batches_total"] - before["batches_total"] == 1:
                break
        assert after["batches_total"] - before["batches_total"] == 1
        assert (after["batched_requests_total"]
                - before["batched_requests_total"]) == 12
        assert after["max_batch"] == after["pad_to"] == 12
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.wait(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
    together = docs[0] + docs[1]
    assert [d["batch"]["occupancy"] for d in together] == [12] * 12
    assert sorted(d["batch"]["lane"] for d in together) == list(range(12))
    wide = solution_bytes(together)
    assert wide == alone
    assert wide == four_lane_bytes


def test_a_lone_half_propagator_does_not_wait_for_lanes_that_never_come():
    service = SolveService().start()  # the defaults: 12 lanes, 50 ms
    server = ServeServer(service, port=0).start()
    try:
        client = ServeClient(server.url)
        half = propagator_lines()[:6]
        client.solve_many(half)  # builds the gauge and the operator
        docs = client.solve_many(half)
    finally:
        server.stop()
    assert [d["batch"]["occupancy"] for d in docs] == [6] * 6
    max_wait = service.coalescer.max_wait
    for doc in docs:
        timing = doc["timing"]
        assert timing["coalesce_wait_seconds"] <= max_wait + 0.05
        assert timing["latency_seconds"] <= (
            max_wait + timing["solve_seconds"] + 0.1)
