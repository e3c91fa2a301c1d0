"""Tracing: nvprof-style event records, profiler, and timeline rendering."""

from .._lazy import lazy_exports

__all__ = ["chrome_trace_json", "to_chrome_trace", "EventKind", "TraceEvent", "Profiler", "render_timeline", "summary_table"]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".chrome": ("chrome_trace_json", "to_chrome_trace"),
    ".events": ("EventKind", "TraceEvent"),
    ".profiler": ("Profiler",),
    ".timeline": ("render_timeline", "summary_table"),
})
