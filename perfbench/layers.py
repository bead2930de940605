"""Per-layer metrics of a traced run, from spans and counter deltas.

Times are per client call (``discover``, ``browse``) or per served request
(``churn``) unless the name says otherwise.  A layer the workload does not
reach reports 0.  Every hit ratio is paired with its base (lookups), so an
idle cache reads "0 hits of 0 lookups", not a division error.
"""

from __future__ import annotations

from counters import ratio
from tracing import CALL_LAYERS

#: (name, unit) in reporting order — the ``per_layer`` list of BENCHMARK.json
PER_LAYER = (
    ("codec.client_encode_us", "us"),
    ("codec.server_decode_us", "us"),
    ("codec.server_encode_us", "us"),
    ("codec.client_decode_us", "us"),
    ("codec.response_bytes", "bytes"),
    ("transport.self_us", "us"),
    ("transport.attempts", "count"),
    ("transport.failures", "count"),
    ("binding.self_us", "us"),
    ("kernel.self_us", "us"),
    ("kernel.stage.resolve_us", "us"),
    ("kernel.stage.authenticate_us", "us"),
    ("kernel.stage.authorize_us", "us"),
    ("kernel.stage.validate_us", "us"),
    ("kernel.stage.dispatch_us", "us"),
    ("kernel.overhead_us", "us"),
    ("kernel.faults", "count"),
    ("security.check_read_us", "us"),
    ("resolver.self_us", "us"),
    ("resolver.get_service_bindings_us", "us"),
    ("resolver.uri_cache_hit_ratio", "ratio"),
    ("resolver.uri_cache_lookups", "count"),
    ("resolver.constraint_cache_hit_ratio", "ratio"),
    ("resolver.constraint_cache_lookups", "count"),
    ("resolver.rankings_per_read", "count"),
    ("resolver.stale_samples", "count"),
    ("monitor.sweep_us", "us"),
    ("monitor.sweeps", "count"),
    ("query.self_us", "us"),
    ("query.execute_us", "us"),
    ("query.plan_hit_ratio", "ratio"),
    ("query.plan_lookups", "count"),
    ("query.result_view_hit_ratio", "ratio"),
    ("query.result_view_lookups", "count"),
    ("query.rows_materialized_per_query", "count"),
    ("client.self_us", "us"),
    ("client.requests_per_call", "count"),
    ("lifecycle.self_us", "us"),
    ("lifecycle.submit_us", "us"),
    ("lifecycle.update_us", "us"),
    ("lifecycle.remove_us", "us"),
    ("lifecycle.idempotent_replays", "count"),
    ("store.changelog_records", "count"),
    ("store.records_per_write", "count"),
    ("store.coalesce_ratio", "ratio"),
    ("store.batched_writes", "count"),
    ("store.write_lock_contended", "count"),
    ("store.preimages_preserved", "count"),
    ("views.invalidations_per_write", "count"),
    ("serving.queue_wait_p50_us", "us"),
    ("serving.queue_wait_p99_us", "us"),
    ("serving.queue_depth_high_water", "count"),
    ("serving.rejected", "count"),
    ("runtime.gc_gen2_pauses", "count"),
    ("runtime.gc_pause_max_ms", "ms"),
    ("runtime.gc_pause_total_ms", "ms"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("max_rate_rps", "1/s"),
    ("failed_ratio", "ratio"),
)

#: kernel stages whose exclusive time is pipeline plumbing, not work
OVERHEAD_STAGES = ("account", "fault-map", "admit")


def layer_metrics(context: dict, percentile) -> dict[str, tuple[float, str]]:
    summary = context["summary"]
    counters = context["counters"]
    traced = context["traced"]
    untraced = context["untraced"]
    calls = summary.roots
    reads = len(traced.read_latencies)
    us = 1e6

    def per_call_us(seconds: float) -> float:
        return ratio(seconds, calls) * us

    def self_us(layer: str) -> float:
        return per_call_us(summary.layer_self_s.get(layer, 0.0))

    def inclusive_us(name: str) -> float:
        return summary.mean_inclusive_s(name) * us

    attribution = counters["attribution"]
    attributed = attribution.get("requests", 0)

    def stage_us(*stages: str) -> float:
        seconds = sum(attribution.get(f"stage.{stage}", 0.0) for stage in stages)
        return ratio(seconds, attributed) * us

    uri = counters["uri_cache"]
    constraint = counters["constraint_cache"]
    plan = counters["query_plan"]
    writes_store = counters["writes"]
    lifecycle_calls = sum(
        summary.tree_counts.get(name, 0)
        for name in ("lifecycle.submit", "lifecycle.update", "lifecycle.remove")
    )
    uri_lookups = uri.get("hits", 0) + uri.get("misses", 0)
    constraint_lookups = constraint.get("hits", 0) + constraint.get("misses", 0)
    plan_lookups = plan.get("plan_hits", 0) + plan.get("plans_built", 0)
    view_lookups = plan.get("result_hits", 0) + plan.get("result_misses", 0)
    queries = summary.inclusive.get("query.execute_adhoc_query", (0, 0.0))[0]
    invalidations = uri.get("invalidations", 0) + counters["result_view"].get("invalidations", 0)
    serving = counters.get("serving", {})
    waits = summary.queue_waits
    layer_sum = sum(summary.layer_self_s.get(layer, 0.0) for layer in CALL_LAYERS)
    measured = sum(traced.latencies)
    untraced_p50 = percentile(untraced.read_latencies, 0.5)
    codec = summary.codec_s

    values = {
        "codec.client_encode_us": per_call_us(codec.get("client_encode", 0.0)),
        "codec.server_decode_us": per_call_us(codec.get("server_decode", 0.0)),
        "codec.server_encode_us": per_call_us(codec.get("server_encode", 0.0)),
        "codec.client_decode_us": per_call_us(codec.get("client_decode", 0.0)),
        "codec.response_bytes": ratio(summary.response_chars, summary.wire_responses),
        "transport.self_us": self_us("transport"),
        "transport.attempts": ratio(summary.tree_counts.get("transport", 0), calls),
        "transport.failures": counters["transport"].get("failures", 0),
        "binding.self_us": self_us("binding"),
        "kernel.self_us": self_us("kernel"),
        "kernel.stage.resolve_us": stage_us("resolve"),
        "kernel.stage.authenticate_us": stage_us("authenticate"),
        "kernel.stage.authorize_us": stage_us("authorize"),
        "kernel.stage.validate_us": stage_us("validate"),
        "kernel.stage.dispatch_us": stage_us("dispatch"),
        "kernel.overhead_us": stage_us(*OVERHEAD_STAGES),
        "kernel.faults": counters["pipeline"].get("faults", 0),
        "security.check_read_us": self_us("security"),
        "resolver.self_us": self_us("resolver"),
        "resolver.get_service_bindings_us": inclusive_us("resolver.get_service_bindings"),
        "resolver.uri_cache_hit_ratio": ratio(uri.get("hits", 0), uri_lookups),
        "resolver.uri_cache_lookups": uri_lookups,
        "resolver.constraint_cache_hit_ratio": ratio(constraint.get("hits", 0), constraint_lookups),
        "resolver.constraint_cache_lookups": constraint_lookups,
        "resolver.rankings_per_read": ratio(counters["load_status"].get("rankings", 0), reads),
        "resolver.stale_samples": counters["load_status"].get("stale_samples", 0),
        "monitor.sweep_us": inclusive_us("monitor.sweep"),
        "monitor.sweeps": summary.inclusive.get("monitor.sweep", (0, 0.0))[0],
        "query.self_us": self_us("query"),
        "query.execute_us": inclusive_us("query.execute_adhoc_query"),
        "query.plan_hit_ratio": ratio(plan.get("plan_hits", 0), plan_lookups),
        "query.plan_lookups": plan_lookups,
        "query.result_view_hit_ratio": ratio(plan.get("result_hits", 0), view_lookups),
        "query.result_view_lookups": view_lookups,
        "query.rows_materialized_per_query": ratio(plan.get("rows_materialized", 0), queries),
        "client.self_us": self_us("client"),
        "client.requests_per_call": ratio(summary.tree_counts.get("kernel", 0), calls),
        "lifecycle.self_us": self_us("lifecycle"),
        "lifecycle.submit_us": inclusive_us("lifecycle.submit"),
        "lifecycle.update_us": inclusive_us("lifecycle.update"),
        "lifecycle.remove_us": inclusive_us("lifecycle.remove"),
        "lifecycle.idempotent_replays": counters["idempotency"].get("idempotent_duplicates", 0),
        "store.changelog_records": writes_store.get("last_seq", 0),
        "store.records_per_write": ratio(writes_store.get("last_seq", 0), lifecycle_calls),
        "store.coalesce_ratio": ratio(
            writes_store.get("coalesced_writes", 0), writes_store.get("batched_writes", 0)
        ),
        "store.batched_writes": writes_store.get("batched_writes", 0),
        "store.write_lock_contended": counters["concurrency"].get("write_lock_contended", 0),
        "store.preimages_preserved": counters["concurrency"].get("preimages_preserved", 0),
        "views.invalidations_per_write": ratio(invalidations, lifecycle_calls),
        "serving.queue_wait_p50_us": percentile(waits, 0.50) * us,
        "serving.queue_wait_p99_us": percentile(waits, 0.99) * us,
        "serving.queue_depth_high_water": context.get("queue_depth_high_water", 0),
        "serving.rejected": serving.get("rejected", 0),
        **context["gc"],
        "loadgen.lag_p99_us": percentile(untraced.lags, 0.99) * us,
        "trace.coverage": ratio(layer_sum, measured),
        "trace.overhead_ratio": ratio(percentile(traced.read_latencies, 0.5), untraced_p50),
        "read_p99_us": percentile(untraced.read_latencies, 0.99) * us,
        "write_p50_us": percentile(untraced.write_latencies, 0.50) * us,
        "write_p99_us": percentile(untraced.write_latencies, 0.99) * us,
        "max_rate_rps": context.get("max_rate_rps", 0.0),
        "failed_ratio": context["failed_ratio"],
    }
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}
