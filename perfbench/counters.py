"""Counter deltas from the registry's stats surfaces, GC pauses, percentiles."""

from __future__ import annotations

import gc
import math
import statistics
import time

#: equal consecutive windows a measured phase is split into
WINDOWS = 10


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def windowed(values: list[float], statistic, windows: int = WINDOWS) -> float:
    """Median over *windows* equal consecutive slices of ``statistic(slice)``.

    The machine's speed changes for seconds at a time (other tenants); a
    phase that is fast or slow for a minority of the run moves a few
    windows, not the median of all of them.
    """
    size = len(values) // windows
    if size == 0:
        return statistic(values)
    return statistics.median(
        statistic(values[i * size : (i + 1) * size]) for i in range(windows)
    )


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 for an empty base (reported with the base)."""
    return numerator / base if base else 0.0


class GcPauses:
    """Collector pauses seen through ``gc.callbacks`` while installed."""

    def __init__(self) -> None:
        self.pauses: list[tuple[int, float]] = []
        self._started: float | None = None

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.pauses.append((info.get("generation", 0), time.perf_counter() - self._started))
            self._started = None

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self) -> dict[str, float]:
        durations = [seconds for _, seconds in self.pauses]
        return {
            "runtime.gc_gen2_pauses": sum(1 for generation, _ in self.pauses if generation == 2),
            "runtime.gc_pause_max_ms": max(durations, default=0.0) * 1e3,
            "runtime.gc_pause_total_ms": sum(durations) * 1e3,
        }


def stats_snapshot(fixture, supervisor=None) -> dict[str, dict]:
    """Every stats surface the per-layer counters are derived from."""
    registry = fixture.registry
    balancer = fixture.balancer
    result_view = getattr(registry.engine, "_results", None)
    snapshot = {
        "uri_cache": registry.daos.services.uri_cache_stats(),
        "constraint_cache": balancer.service_constraint.cache_stats(),
        "load_status": balancer.load_status.load_status_stats(),
        "query_plan": registry.qm.query_plan_stats(),
        "result_view": result_view.view_stats() if result_view is not None else {},
        "writes": registry.store.write_stats(),
        "concurrency": registry.store.concurrency_stats(),
        "idempotency": registry.lcm.idempotency_stats(),
        "transport": {"failures": fixture.transport.stats.failures},
        "pipeline": {"faults": _pipeline_faults(registry.pipeline_stats())},
        "attribution": _attribution(registry),
    }
    if supervisor is not None:
        snapshot["serving"] = {"rejected": supervisor.serving_stats()["rejected"]}
    return snapshot


def _pipeline_faults(pipeline: dict) -> int:
    return sum(op["faults"] for edge in pipeline.values() for op in edge.values())


def _attribution(registry) -> dict:
    stats = registry.telemetry.attribution_stats()
    flat = {"requests": stats["requests"]}
    for stage, seconds in stats["stages"].items():
        flat[f"stage.{stage}"] = seconds
    return flat


def delta(before: dict[str, dict], after: dict[str, dict]) -> dict[str, dict]:
    """Per-surface ``after - before`` for every numeric counter."""
    out: dict[str, dict] = {}
    for surface, values in after.items():
        base = before.get(surface, {})
        out[surface] = {
            key: value - base.get(key, 0)
            for key, value in values.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    return out
