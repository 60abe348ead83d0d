"""End-to-end observability: tracing, metrics, exporters, run comparison.

The execution stack is five layers deep (engine façade → planner/compiler →
region run loop → retry funnel → backend); this package makes a run
inspectable without changing what it does.  Pass ``trace=True`` (or a
:class:`Tracer`) to :meth:`repro.engine.ResolutionEngine.materialize` /
``apply`` and the resulting report carries the recorded trace::

    tracer = Tracer()
    report = engine.materialize(compiled=True, tracer=tracer)
    export_chrome_trace(report.trace, "run.json")   # open in Perfetto

The default tracer everywhere is :data:`NULL_TRACER` (``enabled=False``),
so untraced runs pay only an attribute check per instrumented site.
"""

from __future__ import annotations

from repro.obs.compare import compare_runs, format_comparison
from repro.obs.export import (
    chrome_trace,
    export_chrome_trace,
    export_jsonl,
    format_span_tree,
    load_spans,
)
from repro.obs.logs import install_cli_handler
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, interval_union

__all__ = [
    "NULL_TRACER",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "chrome_trace",
    "compare_runs",
    "export_chrome_trace",
    "export_jsonl",
    "format_comparison",
    "format_span_tree",
    "install_cli_handler",
    "interval_union",
    "load_spans",
]
