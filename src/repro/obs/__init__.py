"""Observability layer: span tracing, run manifests, profiling.

``repro.obs`` makes the experiment pipeline's cost structure visible
without changing its results:

* :mod:`repro.obs.spans` - hierarchical span tracing (context-manager
  / decorator API, monotonic clocks, process-safe ids, JSONL journal,
  near-zero overhead when disabled);
* :mod:`repro.obs.manifest` - the run manifest written next to each
  journal (command, config, git SHA, environment, clock anchors);
* :mod:`repro.obs.profile` - journal aggregation: wall-clock trees,
  Chrome trace-event / Perfetto export (the ``repro profile``
  subcommand), and the ``--verbose`` stage report.

Tracing is opt-in via the CLI's ``--trace-spans DIR`` flag, the
``REPRO_TRACE_SPANS`` environment variable, or ``--verbose``;
observability is strictly additive - rendered tables and metric
exports stay byte-identical whether or not a run is traced.
"""

from repro.obs import manifest, spans
from repro.obs.spans import NULL_SPAN, Span, SpanTracer, span, traced


def __getattr__(name: str):
    # ``profile`` renders via repro.eval.reporting, and repro.eval in
    # turn imports the (span-instrumented) predictor/timing layers -
    # importing it eagerly here would make ``repro.predictor`` ->
    # ``repro.obs`` circular. Load it on first use instead.
    if name == "profile":
        import repro.obs.profile as profile
        return profile
    raise AttributeError(f"module {__name__!r} has no attribute "
                         f"{name!r}")

__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanTracer",
    "manifest",
    "profile",
    "span",
    "spans",
    "traced",
]
