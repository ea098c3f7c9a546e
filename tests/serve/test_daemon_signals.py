"""``python -m repro serve`` under a supervisor that misbehaves: the
process that read its stdout goes away, then it is told to stop.  The
daemon must still drain what it has accepted and exit cleanly."""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import threading
import time

from repro.serve import ServeClient


def test_sigterm_after_stdout_closed_drains_and_exits_zero(child_env):
    # A coalescing window much longer than the steps below: the one
    # request is still waiting for batch-mates when the signal lands, so
    # only the drain can answer it.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--max-batch", "4", "--max-wait", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(child_env, PYTHONUNBUFFERED="1"),
    )
    try:
        banner = proc.stdout.readline()
        url = re.search(r"http://\S+", banner).group(0)
        client = ServeClient(url, timeout=60)
        answers = []
        post = threading.Thread(
            target=lambda: answers.append(client.solve({
                "operator": "asqtad", "mass": 0.05, "tol": 1e-8,
                "gauge": {"kind": "unit", "dims": [4, 4, 4, 4]},
                "rhs": {"kind": "random", "seed": 1},
            }))
        )
        post.start()
        deadline = time.monotonic() + 30
        while not client.stats()["requests"].get("accepted"):
            assert time.monotonic() < deadline, "request never admitted"
            time.sleep(0.01)
        assert not answers
        proc.stdout.close()
        proc.send_signal(signal.SIGTERM)
        post.join(timeout=60)
        assert not post.is_alive()
        code = proc.wait(timeout=60)
        stderr = proc.stderr.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert answers and answers[0]["status"] == "ok" and answers[0]["converged"]
    assert stderr == ""
    assert code == 0
