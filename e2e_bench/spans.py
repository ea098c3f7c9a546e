"""Benchmark-owned spans, self time, and the Chrome/Perfetto export.

Spans recorded here wrap the benchmark's *calls into* each layer; the
program's own spans come from its public tracer (``repro.trace``) and
are only read.  Everything stays in memory until the round ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

#: pid of the benchmark's own track in the exported trace.
BENCH_PID = 9000


class Recorder:
    """In-memory span list for one round: name, start, end, parent, round."""

    def __init__(self, round_id: str):
        self.round_id = round_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> int:
        """Register a pre-measured interval (client threads time their
        own operations; the main thread registers them afterwards)."""
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": parent,
            "round": self.round_id, "start": start, "end": end,
        })
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        """Time a block on the main thread, nested under the open span."""
        sid = self.add(name, time.perf_counter(), None,
                       self._stack[-1] if self._stack else None)
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    @property
    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def seconds(self, name: str) -> float:
        """Duration of the first span called ``name``."""
        for s in self.spans:
            if s["name"] == name:
                return s["end"] - s["start"]
        raise KeyError(name)

    def intervals(self, prefix: str) -> list[tuple[float, float]]:
        return [(s["start"], s["end"]) for s in self.spans
                if s["name"].startswith(prefix)]


def self_seconds_by_kind(events, windows) -> dict[str, float]:
    """Self time per span kind of the program's trace events.

    A span's self time is its duration minus the part its child spans
    cover.  Children are found by containment within one *lane* (the
    event's rank; rank-less host events share one lane), which is how the
    tracer nests them: strictly LIFO per thread.  Only events inside one
    of ``windows`` (absolute ``(start, end)`` pairs, the timed operations)
    count.  The result is the mean over lanes, so two ranks working side
    by side report wall-comparable seconds, not their sum.
    """
    lanes: dict[object, list] = {}
    for ev in events:
        if any(lo <= ev["start"] and ev["end"] <= hi for lo, hi in windows):
            lanes.setdefault(ev["lane"], []).append(ev)
    totals: dict[str, float] = {}
    for lane_events in lanes.values():
        lane_events.sort(key=lambda e: (e["start"], -e["end"]))
        stack: list[dict] = []
        for ev in lane_events:
            # 1 ns slack: a child's rebased end may round past its parent's.
            while stack and stack[-1]["end"] < ev["end"] - 1e-9:
                stack.pop()
            ev["self"] = ev["end"] - ev["start"]
            if stack:
                stack[-1]["self"] -= ev["end"] - ev["start"]
            stack.append(ev)
        for ev in lane_events:
            totals[ev["kind"]] = totals.get(ev["kind"], 0.0) + ev["self"]
    n = max(1, len(lanes))
    return {kind: total / n for kind, total in totals.items()}


def write_chrome_trace(path: Path, program_doc: dict, recorder: Recorder,
                       epoch: float) -> None:
    """One ``trace_event`` file: the program's exported events plus the
    benchmark's spans on their own track, all relative to ``epoch``."""
    events = list(program_doc.get("traceEvents", []))
    events.append({"name": "process_name", "ph": "M", "pid": BENCH_PID,
                   "args": {"name": "e2e_bench"}})
    for s in recorder.spans:
        events.append({
            "name": s["name"], "cat": "bench", "ph": "X",
            "ts": (s["start"] - epoch) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": BENCH_PID, "tid": 1,
            "args": {"id": s["id"], "parent": s["parent"],
                     "round": s["round"]},
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}
    ))
