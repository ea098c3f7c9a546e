"""Plain-text reporting: ASCII log-log charts and trace timelines."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".ascii_plot": ("AsciiPlot", "loglog_chart", "timeline_chart"),
})
