"""Metric names, units and the per-layer -> end-to-end predictions.

Three tables:

* :data:`GATED` — the end-to-end metrics every workload reports, gated
  by ``BENCHMARK.json`` (``ops_per_s`` is pairs/s on the campaign
  workloads and the 2-worker batch query rate on ``serve``).
* :data:`END_TO_END` — the full set of user-visible metrics by their own
  names. Each workload reports the ones that apply and prints them with
  every result; only :data:`GATED` is gated.
* :data:`PER_LAYER` — the traced run's metrics, each with the end-to-end
  metric and workload it is predicted to move. A later change that claims
  a gain cites these predictions.
"""

from __future__ import annotations

#: BENCHMARK.json ``end_to_end``: name -> (unit, better, bound).
GATED = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: name -> (unit, workloads that report it).
END_TO_END = {
    "setup_s": ("s", ("sweep", "refresh", "serve")),
    "pairs_per_s": ("1/s", ("sweep", "refresh")),
    "events_per_s": ("1/s", ("sweep", "refresh")),
    "oracle_err_p50_ms": ("ms", ("sweep", "refresh")),
    "failed_frac": ("frac", ("sweep", "refresh", "serve")),
    "peak_rss_mb": ("MB", ("sweep", "refresh", "serve")),
    "qps": ("1/s", ("serve",)),
    "point_p50_us": ("us", ("serve",)),
    "point_p99_us": ("us", ("serve",)),
    "knn_p50_us": ("us", ("serve",)),
    "knn_p99_us": ("us", ("serve",)),
    "via_p50_us": ("us", ("serve",)),
    "via_p99_us": ("us", ("serve",)),
    "batch_qps": ("1/s", ("serve",)),
}

#: Per-layer metrics: (name, unit, predicted effect).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("netsim.engine.self_s", "s", "events_per_s on sweep; less on refresh"),
    ("netsim.engine.events", "count", "exact; a change means the model changed"),
    ("netsim.engine.cancelled_frac", "frac", "events_per_s on sweep"),
    ("netsim.engine.heap_peak", "count", "events_per_s on sweep"),
    ("netsim.transport.packets", "count", "events_per_s on sweep"),
    ("netsim.transport.self_s", "s", "events_per_s on sweep"),
    ("netsim.latency.samples", "count", "per-packet cost on sweep"),
    ("netsim.latency.self_s", "s", "per-packet cost on sweep; cold cache on refresh"),
    ("netsim.latency.base_miss_frac", "frac", "cold-cache cost on refresh"),
    ("netsim.addresses.calls", "count", "pairs_per_s and events_per_s on sweep"),
    ("netsim.addresses.self_s", "s", "pairs_per_s and events_per_s on sweep"),
    ("netsim.routing.self_s", "s", "pairs_per_s on refresh (first-seen host pairs)"),
    ("tor.crypto.cells", "count", "pairs_per_s on sweep"),
    ("tor.crypto.bytes", "bytes", "pairs_per_s on sweep"),
    ("tor.crypto.self_s", "s", "pairs_per_s on sweep"),
    ("tor.crypto.handshakes", "count", "pairs_per_s on refresh"),
    ("tor.cells.packs", "count", "pairs_per_s on sweep"),
    ("tor.cells.self_s", "s", "pairs_per_s on sweep"),
    ("tor.relay.cells", "count", "pairs_per_s on both campaigns"),
    ("tor.relay.self_s", "s", "pairs_per_s on both campaigns; larger share on refresh"),
    ("tor.client.circuits", "count", "pairs_per_s on refresh"),
    ("tor.client.circuit_fail_frac", "frac", "failed_frac on refresh"),
    ("tor.client.self_s", "s", "pairs_per_s on refresh"),
    ("tor.client.circuits_leaked", "count", "must stay 0 (checked)"),
    ("echo.probes", "count", "pairs_per_s (not events_per_s); oracle_err_p50_ms guards it"),
    ("echo.probes_per_pair", "count", "pairs_per_s; oracle_err_p50_ms guards it"),
    ("echo.early_stops", "count", "pairs_per_s on refresh"),
    ("echo.self_s", "s", "pairs_per_s on both campaigns"),
    ("core.pairs_attempted", "count", "pairs_per_s on both campaigns"),
    ("core.pairs_failed", "count", "failed_frac on both campaigns"),
    ("core.legs_measured", "count", "pairs_per_s on both campaigns"),
    ("core.self_s", "s", "pairs_per_s on both campaigns"),
    ("core.shard.self_s", "s", "pairs_per_s on refresh"),
    ("core.shard.leg_phase_s", "s", "pairs_per_s on refresh"),
    ("core.shard.worker_busy_s", "s", "pairs_per_s on refresh"),
    ("core.shard.imbalance", "ratio", "pairs_per_s on refresh"),
    ("core.shard.chunks", "count", "pairs_per_s and peak_rss_mb on refresh"),
    ("core.shard.merge_s", "s", "pairs_per_s and peak_rss_mb on refresh"),
    ("core.planner.self_s", "s", "setup_s on refresh"),
    ("core.planner.plan_s", "s", "setup_s on refresh"),
    ("core.dataset.self_s", "s", "pairs_per_s on refresh; setup_s on serve"),
    ("core.dataset.absorb_s", "s", "pairs_per_s on refresh"),
    ("core.dataset.save_s", "s", "pairs_per_s on refresh"),
    ("core.dataset.npz_bytes", "bytes", "pairs_per_s on refresh"),
    ("core.dataset.load_s", "s", "setup_s on serve"),
    ("obs.self_s", "s", "pairs_per_s on refresh; no change on sweep (obs is null)"),
    ("obs.spans", "count", "pairs_per_s on refresh"),
    ("obs.provenance_rows", "count", "pairs_per_s on refresh"),
    ("obs.health.self_s", "s", "pairs_per_s on refresh"),
    ("obs.health.report_s", "s", "pairs_per_s on refresh"),
    ("serve.index.self_s", "s", "qps and every *_us on serve"),
    ("serve.index.build_s", "s", "setup_s on serve"),
    ("serve.index.point_us", "us", "point_p50_us, point_p99_us and qps on serve"),
    ("serve.index.knn_us", "us", "knn_p50_us, knn_p99_us and qps on serve"),
    ("serve.index.percentile_us", "us", "qps on serve"),
    ("serve.index.path_us", "us", "qps on serve"),
    ("serve.index.via_us", "us", "via_p50_us, via_p99_us and qps on serve"),
    ("serve.server.self_s", "s", "qps on serve"),
    ("serve.server.dispatch_us", "us", "qps and every *_us on serve"),
    ("serve.server.errors", "count", "failed_frac on serve (expected unknown_node only)"),
    ("serve.server.batch_overhead_s", "s", "batch_qps on serve"),
    ("serve.telemetry.self_s", "s", "every *_us on serve"),
    ("serve.telemetry.record_us", "us", "every *_us on serve"),
    ("trace.wall_s", "s", "traced wall the self times account for"),
    ("trace.unattributed_s", "s", "wall outside every wrapped entry point"),
    ("trace.overhead_frac", "frac", "traced wall / untraced wall - 1"),
)

#: Per-layer metrics where more is better; for the rest (work done, time
#: spent, waste) less is better.
HIGHER_IS_BETTER = frozenset({"echo.early_stops"})
