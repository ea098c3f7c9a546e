#!/usr/bin/env python3
"""End-to-end smoke test for the ``python -m repro serve`` daemon.

Boots the real daemon as a subprocess, drives it from two concurrent
clients with compatible requests, and asserts the serving contract the
CI job cares about:

1. the daemon comes up and reports healthy;
2. both clients' solves converge;
3. at least one batch coalesced (coalesce ratio > 1, occupancy > 1);
4. the Prometheus endpoint exports the ``serve_*`` series;
5. the Python client is answered packed arrays, a header-less client
   nested lists, and both decode to the same bits; a nested inline
   right-hand side sent through the Python client (which sends it
   packed) is answered the bits of the same line sent raw;
6. the banner names the default group size (``max_batch=12``: one
   propagator), and a request whose residual is not a number — a
   finite right-hand side whose norm overflows — is answered
   ``"status": "diverged"`` in JSON a strict parser reads;
7. SIGINT produces a graceful drain and a zero exit code.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py

Exits 0 on success, 1 on any violated assertion (with the daemon's
output echoed for diagnosis).
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
N_CLIENTS = 2
SOLVES_PER_CLIENT = 2


def free_port() -> int:
    """Grab a free TCP port from the OS."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_healthy(client, deadline: float) -> None:
    """Poll ``/healthz`` until the daemon answers or the deadline passes."""
    last = None
    while time.monotonic() < deadline:
        try:
            if client.health().get("status") == "ok":
                return
        except Exception as exc:  # noqa: BLE001 - daemon still booting
            last = exc
        time.sleep(0.1)
    raise RuntimeError(f"daemon never became healthy: {last!r}")


def main() -> int:
    """Run the smoke sequence; return the process exit code."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.serve import ServeClient, decode_array, encode_array

    port = free_port()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    # A generous window so the two clients' requests coalesce even on a
    # slow CI runner; asqtad on a unit 4^4 gauge solves in milliseconds.
    # The group size is left at its default.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--max-wait", "0.5"],
        cwd=REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert " max_batch=12 " in banner, f"banner: {banner!r}"
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=120)
        wait_healthy(client, time.monotonic() + 60)

        payloads = [
            {
                "operator": "asqtad",
                "mass": 0.05,
                "gauge": {"kind": "unit", "dims": [4, 4, 4, 4]},
                "rhs": {"kind": "random", "seed": seed},
                "tol": 1e-8,
            }
            for seed in range(1, N_CLIENTS * SOLVES_PER_CLIENT + 1)
        ]
        docs: list[dict | None] = [None] * len(payloads)
        errors: list[Exception] = []

        def run_client(idx: int) -> None:
            mine = range(idx, len(payloads), N_CLIENTS)
            for i in mine:
                try:
                    docs[i] = client.solve(payloads[i])
                except Exception as exc:  # noqa: BLE001 - recorded + asserted
                    errors.append(exc)

        threads = [
            threading.Thread(target=run_client, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, f"client errors: {errors}"
        assert all(d and d["status"] == "ok" for d in docs), docs
        assert all(d["converged"] for d in docs), "a served solve diverged"

        stats = client.stats()
        ratio = stats["coalesce_ratio"]
        occupancies = [d["batch"]["occupancy"] for d in docs]
        assert ratio > 1, f"no coalescing: ratio={ratio}, stats={stats}"
        assert max(occupancies) > 1, f"no batch had >1 lane: {occupancies}"

        metrics = client.metrics_text()
        for series in ("serve_requests_total", "serve_batch_occupancy",
                       "serve_request_latency_seconds"):
            assert series in metrics, f"missing {series} in /metrics"

        asked = dict(payloads[0], return_solution=True)
        packed = client.solve(asked)["solution"]
        bare = urllib.request.Request(  # no Accept header: what curl sends
            client.base_url + "/v1/solve", data=json.dumps(asked).encode())
        with urllib.request.urlopen(bare, timeout=120) as resp:
            nested = json.load(resp)["solution"]
        assert "b64" in packed and "real" in nested and (
            decode_array(packed).tobytes() == decode_array(nested).tobytes()
        ), f"array forms disagree: {sorted(packed)} vs {sorted(nested)}"

        inline = dict(payloads[0], return_solution=True, rhs={
            "kind": "data", **encode_array(decode_array(packed))})
        via_client = client.solve(inline)["solution"]
        raw = urllib.request.Request(
            client.base_url + "/v1/solve", data=json.dumps(inline).encode())
        with urllib.request.urlopen(raw, timeout=120) as resp:
            via_raw = json.load(resp)["solution"]
        assert "real" in inline["rhs"] and (
            decode_array(via_client).tobytes()
            == decode_array(via_raw).tobytes()
        ), "a nested inline rhs answers differently through the client"

        def not_json(name):
            raise AssertionError(f"response holds the constant {name}")

        huge = {"kind": "data", "real": [[[[[1e200] * 3] * 4] * 4] * 4] * 4,
                "imag": [[[[[0.0] * 3] * 4] * 4] * 4] * 4}
        overflow = urllib.request.Request(
            client.base_url + "/v1/solve",
            data=json.dumps(dict(payloads[0], rhs=huge,
                                 return_solution=True)).encode())
        with urllib.request.urlopen(overflow, timeout=120) as resp:
            doc = json.loads(resp.read(), parse_constant=not_json)
        assert (doc["status"], doc["converged"], doc["residual"],
                doc["breakdown"]) == ("diverged", False, None,
                                      "non-finite"), doc
        assert "solution" not in doc
        assert client.stats()["requests"]["diverged"] == 1

        print(f"serve smoke: {len(docs)} solves from {N_CLIENTS} clients, "
              f"coalesce ratio {ratio:.2f}, occupancies {occupancies}")

        proc.send_signal(signal.SIGINT)
        code = proc.wait(timeout=60)
        assert code == 0, f"daemon exited {code} on SIGINT"
        print("serve smoke: clean shutdown (exit 0)")
        return 0
    except BaseException:
        proc.kill()
        out, _ = proc.communicate(timeout=10)
        print("--- daemon output ---")
        print(out)
        raise
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
