"""Structured trace/metrics subsystem: spans, Perfetto export, summaries.

The repo's counters (:mod:`repro.util.counters`) answer *how much* — flops,
bytes, reductions, kernel seconds.  This package answers *when*: it records
spans (rank/stream/kind-tagged intervals) from the instrumented hot paths —

* halo gather/pack, per-dimension send/recv, scatter
  (:class:`repro.multigpu.rank_halo.RankHaloEngine`, Secs. 6.1/6.3),
* interior and exterior dslash kernels
  (:func:`repro.multigpu.rank_op.split_apply`, Sec. 6.2),
* the GCR-DD outer/inner solver phases (:mod:`repro.solvers.gcr`,
  :mod:`repro.core.spmd`, :func:`repro.precond.schwarz_block_solve`,
  Sec. 8.1 / Algorithm 1),
* BLAS global reductions (:mod:`repro.linalg.blas`, Sec. 3.2),

— and exports them as Chrome/Perfetto ``trace_event`` JSON together with
the *modeled* Fig. 4 schedule (:mod:`repro.trace.model`), so the measured
virtual-cluster overlap structure can be compared against the paper's
prediction in a real timeline viewer.  ``python -m repro trace`` drives
the whole pipeline; see ``docs/observability.md``.

Tracing is off by default and :func:`span` costs one thread-local check
when disabled.  Enable it with::

    from repro import trace
    with trace.tracing() as tr:
        ...   # any solve / operator application
    trace.write_chrome_trace("trace.json", tr.events)
    print(trace.format_table(tr.events))
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "MODEL_RANK", "TraceEvent", "Tracer", "active_tracer",
        "emit_complete", "instant", "span", "tracing",
    ),
    ".perfetto": (
        "TraceFormatError", "events_to_chrome", "load_chrome_trace",
        "validate_chrome_trace", "write_chrome_trace",
    ),
    ".summary": (
        "SpanStat", "ascii_tracks", "format_table", "kind_totals",
        "summarize", "timed_kernel_totals",
    ),
    ".model": ("timeline_events",),
})
