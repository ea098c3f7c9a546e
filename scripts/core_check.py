"""Two-process core check: do two CPU-bound processes get a CPU each?

Per round, one CPU-bound worker process alone, then two side by side left
to the scheduler ("unbound"), then two each bound to its own allowed CPU
("bound").  For each mode it prints the CPUs each worker ran on
(``sched_getcpu``, sampled through its burn) and the slower worker's time
over the lone worker's: ~1.0 is a CPU each, ~2.0 two workers on one CPU.
Thread-parallel and two-rank timings mean little where the unbound ratio
reads ~2.  The script reads and sets the affinity of its own worker
processes only.

    python scripts/core_check.py [--rounds 8] [--burn 1.0]
"""

from __future__ import annotations

import argparse
import ctypes
import multiprocessing
import os
import statistics
import time

_CHUNK = 20_000
_libc = ctypes.CDLL(None)


def _spin(chunks: int) -> set[int]:
    """``chunks`` chunks of pure-Python arithmetic; the CPUs they ran on."""
    seen = set()
    for _ in range(chunks):
        seen.add(_libc.sched_getcpu())
        x = 0
        for i in range(_CHUNK):
            x += i * i
    return seen


def _worker(chunks: int, cpu: int | None, conn) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    seen = _spin(chunks)
    conn.send((time.perf_counter() - start, sorted(seen)))
    conn.close()


def run(chunks: int, cpus: list[int | None]) -> list[tuple[float, list[int]]]:
    """One worker per entry of ``cpus`` (``None``: unbound), side by side:
    each one's (seconds, CPUs seen)."""
    ctx = multiprocessing.get_context("fork")
    pipes, procs = [], []
    for cpu in cpus:
        receive, send = ctx.Pipe(duplex=False)
        procs.append(ctx.Process(target=_worker, args=(chunks, cpu, send)))
        pipes.append(receive)
    for p in procs:
        p.start()
    out = [receive.recv() for receive in pipes]
    for p in procs:
        p.join()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--burn", type=float, default=1.0,
                        help="seconds one worker burns alone (calibrated)")
    args = parser.parse_args(argv)

    allowed = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    _spin(20)
    chunks = max(1, round(20 * args.burn / (time.perf_counter() - start)))
    print(f"allowed CPUs {allowed}; {chunks} chunks a worker, "
          f"{args.rounds} rounds")
    modes = {"unbound": [None, None]}
    if len(allowed) >= 2:
        modes["bound"] = allowed[:2]
    else:
        print("one CPU allowed: the bound mode is skipped")
    ratios = {mode: [] for mode in modes}
    for k in range(args.rounds):
        (alone, _), = run(chunks, [None])
        line = [f"round {k}: alone {alone:.3f} s"]
        for mode, cpus in modes.items():
            results = run(chunks, cpus)
            ratio = max(seconds for seconds, _ in results) / alone
            ratios[mode].append(ratio)
            seen = " ".join(
                "{" + ",".join(map(str, cpu_set)) + "}" for _, cpu_set in results
            )
            line.append(f"{mode} {ratio:.2f}x on {seen}")
        print("; ".join(line), flush=True)
    for mode, values in ratios.items():
        print(f"{mode}: two workers / one, median {statistics.median(values):.2f}x"
              f" (range {min(values):.2f}-{max(values):.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
