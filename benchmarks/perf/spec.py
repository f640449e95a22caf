"""Metric names and units (``BENCHMARK.json`` lists the same ones).

End-to-end metrics are reported by every untraced run; per-layer
metrics by every traced run, with 0 where a workload does not touch
the layer (the "should not move" rows of the README).
"""

from __future__ import annotations

WORKLOADS = ("timing-sweep", "replay-warm", "stream-cold", "serve-mix")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "p50_ms": "ms",
    "p99_ms": "ms",
}

_LAYER_TIMES = (
    "timing.simulate_s", "timing.simulate_s.decoupled",
    "timing.simulate_s.conventional", "trace.materialize_s",
    "trace.load_s", "trace.store_s", "trace.regions_s", "trace.windows_s",
    "trace.fetch_s", "trace.shard_write_s", "predictor.replay_s",
    "predictor.sized_replay_s", "predictor.hints_s",
    "predictor.occupancy_s", "cpu.run_s", "compiler.compile_s",
    "eval.self_s",
)

_SERVE_PER_RATE = {
    "serve.p50_ms": "ms", "serve.p99_ms": "ms",
    "serve.hit_p50_ms": "ms", "serve.hit_p99_ms": "ms",
    "serve.fresh_p50_ms": "ms", "serve.fresh_p99_ms": "ms",
    "serve.gen_late_p99_ms": "ms", "serve.cpu_ms_per_req": "ms",
    "api.memo_hit_ratio": "ratio",
}

#: Serve-mix arrival rates, named as the per-rate metric suffixes.
RATES = ("low", "high")

PER_LAYER = {
    "bench.wall_s": "s",
    "bench.coverage": "ratio",
    **{name: "s" for name in _LAYER_TIMES},
    "timing.insn_per_s": "1/s",
    "timing.ns_per_cycle": "ns",
    "timing.cycles": "count",
    "trace.bytes_read": "bytes",
    "trace.shards_written": "count",
    "trace.bytes_written": "bytes",
    "trace.shard_loads": "ratio",
    "predictor.rows_per_s": "1/s",
    "cpu.insn_per_s": "1/s",
    "cpu.instructions": "count",
    **{f"{name}.{rate}": unit for name, unit in _SERVE_PER_RATE.items()
       for rate in RATES},
    "api.trace_misses": "count",
    "serve.shed": "count",
    "serve.warm_s": "s",
    "serve.settle_s": "s",
}
