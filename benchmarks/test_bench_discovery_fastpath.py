"""DISC-1 — discovery fast-path microbenchmark (indexed heap + caches).

The thesis' scheme lives on one hot path: every client query resolves a
service's bindings through ServiceConstraint + LoadStatus.  This bench
publishes ~1k constrained services across a 64-host cluster and measures
per-query discovery latency (p50/p95) and throughput for:

* **old path** — a faithful in-bench reimplementation of the seed code:
  per-query deep copies of the service and every binding, a fresh XML
  constraint parse per query, and the O(n²) ``hosts.index`` ranking;
* **new path** — the shipped fast path: read-only heap views, the
  content-keyed constraint cache, and single-snapshot O(n log n) ranking;

each with the constraint resolver on and off.  Both paths must return
identical URI lists (order and membership) for every service; the headline
numbers land in ``BENCH_discovery.json`` at the repo root so future PRs can
track the trajectory.

Scale knobs (for the CI smoke job): ``BENCH_DISCOVERY_SERVICES``,
``BENCH_DISCOVERY_HOSTS``, ``BENCH_DISCOVERY_QUERIES``.  The ≥5× speedup
assertion only applies at full scale.

Regression gate: set ``BENCH_DISCOVERY_MAX_REGRESSION`` (a fraction, e.g.
``0.10``) and the bench fails if the resolver-on new-path p50 regresses
more than that against the most recent same-scale run recorded in
``BENCH_discovery.json`` — the CI kernel-overhead smoke uses this to catch
pipeline stages leaking onto the discovery hot path.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import time

import pytest

from repro.core import ConstraintBindingResolver, LoadStatus, ServiceConstraint
from repro.core.constraints import parse_constraints
from repro.persistence.dao import DefaultBindingResolver
from repro.persistence.nodestate import NodeSample
from repro.registry import RegistryConfig, RegistryServer
from repro.rim import Service, ServiceBinding
from repro.rim.service import host_of_uri
from repro.util.clock import ManualClock

SERVICES = int(os.environ.get("BENCH_DISCOVERY_SERVICES", "1000"))
HOSTS = int(os.environ.get("BENCH_DISCOVERY_HOSTS", "64"))
QUERIES = int(os.environ.get("BENCH_DISCOVERY_QUERIES", "1500"))
FULL_SCALE = SERVICES >= 1000 and HOSTS >= 64

#: about half the cluster satisfies this at any time (loads span 0.0–3.9)
CONSTRAINT = "<constraint><cpuLoad>load ls 2.0</cpuLoad></constraint>"

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_discovery.json"

MAX_REGRESSION = os.environ.get("BENCH_DISCOVERY_MAX_REGRESSION")


def same_scale_baseline(merged: dict) -> dict | None:
    """Most recent history entry measured at this run's scale, if any."""
    for entry in reversed(merged.get("history", ())):
        if entry.get("scale") == merged.get("scale"):
            return entry
    return None


# -- fixture registry ---------------------------------------------------------


def build_registry() -> tuple[RegistryServer, list[str], list[str]]:
    """A registry with SERVICES constrained services bound on HOSTS hosts."""
    clock = ManualClock(start=11 * 3600.0)  # 11:00, inside any business window
    registry = RegistryServer(RegistryConfig(seed=7), clock=clock)
    hosts = [f"host{i:03d}.bench" for i in range(HOSTS)]
    for i, host in enumerate(hosts):
        registry.node_state.record_sample(
            NodeSample(
                host=host,
                load=(i % 40) / 10.0,
                memory=4 << 30,
                swap_memory=1 << 30,
                updated=clock.now(),
            )
        )
    ids = registry.ids
    service_ids: list[str] = []
    for i in range(SERVICES):
        service = Service(ids.new_id(), name=f"Svc{i:04d}", description=CONSTRAINT)
        bindings = [
            ServiceBinding(
                ids.new_id(),
                service=service.id,
                access_uri=f"http://{host}:8080/svc{i}/endpoint",
            )
            for host in hosts
        ]
        for binding in bindings:
            service.binding_ids.append(binding.id)
        registry.store.insert_object(service)
        for binding in bindings:
            registry.store.insert_object(binding)
        service_ids.append(service.id)
    return registry, service_ids, hosts


# -- the seed's discovery path, reimplemented faithfully ----------------------


class LegacyDiscovery:
    """Pre-fast-path discovery: per-query copies, parses, and O(n²) rank."""

    def __init__(self, registry: RegistryServer, *, balanced: bool) -> None:
        self.registry = registry
        self.balanced = balanced
        self.clock = registry.clock
        self.node_state_table = registry.store.table("NodeState")

    def _current_sample(self, host: str) -> NodeSample | None:
        row = self.node_state_table.get(host)  # copying get, as the seed did
        return NodeSample.from_row(row) if row is not None else None

    def _rank(self, hosts: list[str], constraints) -> list[str]:
        satisfying = []
        for h in hosts:  # seed: one sample fetch for the filter…
            sample = self._current_sample(h)
            if sample is not None and constraints.satisfied_by(sample):
                satisfying.append(h)

        def load_of(host: str) -> float:  # …and another per sort key
            sample = self._current_sample(host)
            return sample.load if sample is not None else float("inf")

        return sorted(satisfying, key=lambda h: (load_of(h), hosts.index(h)))

    def get_access_uris(self, service_id: str) -> list[str]:
        daos = self.registry.daos
        service = daos.services.get(service_id)  # deep copy (seed get_object)
        bindings = []
        for binding_id in service.binding_ids:
            binding = daos.service_bindings.get(binding_id)  # copy per binding
            if binding is not None:
                bindings.append(binding)
        if self.balanced:
            constraints = parse_constraints(service.description.value)  # per query
            active = (
                constraints is not None
                and constraints.has_performance_constraints()
                and constraints.time_satisfied(self.clock.minutes_of_day())
            )
            if active:
                # the seed's host property re-parsed the URI on every access
                # (filter, hosts list, grouping) — charge each parse here
                with_host = [
                    b
                    for b in bindings
                    if b.access_uri and host_of_uri(b.access_uri) is not None
                ]
                hosts = [host_of_uri(b.access_uri) for b in with_host]
                ranked_hosts = self._rank(hosts, constraints)
                by_host: dict[str, list[ServiceBinding]] = {}
                for binding in with_host:
                    by_host.setdefault(host_of_uri(binding.access_uri), []).append(
                        binding
                    )
                satisfying: list[ServiceBinding] = []
                for host in ranked_hosts:
                    satisfying.extend(by_host.pop(host, ()))
                rest = [b for b in bindings if b not in satisfying]  # O(n·m)
                bindings = satisfying + rest
        return [b.access_uri for b in bindings if b.access_uri]


# -- measurement --------------------------------------------------------------


def install_resolver(registry: RegistryServer, *, balanced: bool) -> None:
    if balanced:
        service_constraint = ServiceConstraint(registry.clock)
        load_status = LoadStatus(registry.node_state, clock=registry.clock)
        registry.daos.services.set_resolver(
            ConstraintBindingResolver(service_constraint, load_status)
        )
    else:
        registry.daos.services.set_resolver(DefaultBindingResolver())


def measure(run_query, service_ids: list[str], *, history=None, series=None) -> dict:
    """Latency percentiles (µs) and throughput over QUERIES random lookups.

    With a ``history`` store given, the per-query latencies are recorded
    into the named time series *after* the timed loop (indexed by query
    number), so the bounded ring gets real bench data at zero measurement
    overhead.
    """
    rng = random.Random(42)
    order = [rng.choice(service_ids) for _ in range(QUERIES)]
    for service_id in service_ids:  # steady state: touch every service once
        run_query(service_id)
    latencies = []
    started = time.perf_counter()
    for service_id in order:
        t0 = time.perf_counter_ns()
        run_query(service_id)
        latencies.append(time.perf_counter_ns() - t0)
    elapsed = time.perf_counter() - started
    if history is not None and series is not None:
        for index, nanos in enumerate(latencies):
            history.record(series, nanos / 1000.0, t=float(index))
    latencies.sort()
    return {
        "queries": QUERIES,
        "p50_us": latencies[len(latencies) // 2] / 1000.0,
        "p95_us": latencies[int(len(latencies) * 0.95)] / 1000.0,
        "qps": QUERIES / elapsed,
    }


def run_bench() -> dict:
    registry, service_ids, _hosts = build_registry()
    history = registry.telemetry.history
    history.enabled = True
    report: dict = {
        "bench": "discovery_fastpath",
        "scale": {"services": SERVICES, "hosts": HOSTS, "queries": QUERIES},
    }
    mismatches = 0
    for balanced, key in ((True, "resolver_on"), (False, "resolver_off")):
        legacy = LegacyDiscovery(registry, balanced=balanced)
        install_resolver(registry, balanced=balanced)
        # identical answers, order and membership, for every service
        for service_id in service_ids:
            if legacy.get_access_uris(service_id) != registry.qm.get_access_uris(
                service_id
            ):
                mismatches += 1
        old = measure(
            legacy.get_access_uris,
            service_ids,
            history=history,
            series=f"bench.{key}.old_latency_us",
        )
        new = measure(
            registry.qm.get_access_uris,
            service_ids,
            history=history,
            series=f"bench.{key}.new_latency_us",
        )
        report[key] = {
            "old": old,
            "new": new,
            "speedup_p50": old["p50_us"] / new["p50_us"],
            "speedup_p95": old["p95_us"] / new["p95_us"],
            "speedup_qps": new["qps"] / old["qps"],
        }
    report["mismatched_services"] = mismatches
    report["results_identical"] = mismatches == 0
    # SLO summary: judge the fast path's measured latencies against the old
    # path's p50 — a 95 % objective, evaluated by the same burn-rate engine
    # the registry runs, so the artifact records an alert state per run
    from repro.obs.slo import SLO, SloEngine

    slo_engine = SloEngine(registry.clock)
    threshold_us = report["resolver_on"]["old"]["p50_us"]
    slo_engine.add(
        SLO(
            name="discovery-latency",
            kind="latency",
            source="discovery",
            objective=0.95,
            threshold=threshold_us,
            windows=(3600.0,),
        )
    )
    for latency_us in history.series("bench.resolver_on.new_latency_us").values(0.0):
        slo_engine.record_event("discovery", ok=True, latency=latency_us)
    slo_states = slo_engine.evaluate()
    # telemetry summary: the counters behind the measured path, so a future
    # regression can be triaged from the artifact alone (cache gone cold?)
    uri_cache = registry.daos.services.uri_cache_stats()
    report["telemetry"] = {
        "uri_cache": uri_cache,
        "uri_cache_hit_rate": round(
            uri_cache["hits"] / max(1, uri_cache["hits"] + uri_cache["misses"]), 4
        ),
        "tracer": registry.telemetry.tracer.stats(),
        "history": history.high_water_marks(),
        "slo": {
            "threshold_us": round(threshold_us, 1),
            "states": slo_states,
            "burn": {
                window: round(rate, 4)
                for window, rate in slo_engine.snapshot()["slos"][
                    "discovery-latency"
                ]["burn"].items()
            },
        },
    }
    return report


def test_discovery_fastpath(save_artifact, bench_history_writer, benchmark):
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    merged = bench_history_writer(JSON_PATH, report)

    lines = [
        f"DISC-1 — discovery fast path, {SERVICES} services × {HOSTS} hosts, "
        f"{QUERIES} queries/config",
        "",
        f"{'config':14s} {'path':6s} {'p50 µs':>10s} {'p95 µs':>10s} {'qps':>12s}",
    ]
    for key in ("resolver_on", "resolver_off"):
        for path in ("old", "new"):
            row = report[key][path]
            lines.append(
                f"{key:14s} {path:6s} {row['p50_us']:10.1f} {row['p95_us']:10.1f} "
                f"{row['qps']:12.0f}"
            )
        lines.append(
            f"{'':14s} {'→':6s} speedup p50 ×{report[key]['speedup_p50']:.1f}, "
            f"qps ×{report[key]['speedup_qps']:.1f}"
        )
    slo = report["telemetry"]["slo"]
    lines.append(
        f"\ndiscovery-latency SLO (95% under old p50 {slo['threshold_us']}µs): "
        f"{slo['states']['discovery-latency']}"
    )
    save_artifact("DISC1_discovery_fastpath", "\n".join(lines))

    assert report["results_identical"], (
        f"{report['mismatched_services']} services returned different URIs "
        "under old vs new discovery"
    )
    # the longitudinal record must stay bounded: the per-run ring buffers …
    marks = report["telemetry"]["history"]
    assert marks["max_points"] <= marks["capacity"], marks
    assert marks["points_recorded"] == 4 * QUERIES
    # … and the merged BENCH_discovery.json history list alike
    from conftest import HISTORY_KEEP

    assert len(merged["history"]) <= HISTORY_KEEP
    benchmark.extra_info["speedup_on_p50"] = report["resolver_on"]["speedup_p50"]
    benchmark.extra_info["speedup_off_p50"] = report["resolver_off"]["speedup_p50"]
    if MAX_REGRESSION is not None:
        baseline = same_scale_baseline(merged)
        if baseline is None:
            pytest.skip("no same-scale baseline in BENCH_discovery.json history")
        allowed = float(MAX_REGRESSION)
        base_p50 = baseline["resolver_on"]["new"]["p50_us"]
        this_p50 = report["resolver_on"]["new"]["p50_us"]
        assert this_p50 <= base_p50 * (1.0 + allowed), (
            f"resolver-on new-path p50 regressed {this_p50 / base_p50 - 1.0:+.1%} "
            f"({base_p50:.1f}µs → {this_p50:.1f}µs), gate is +{allowed:.0%}"
        )
    if FULL_SCALE:
        # the acceptance bar: steady-state constraint-filtered discovery ≥5×
        assert report["resolver_on"]["speedup_p50"] >= 5.0, report["resolver_on"]
        assert report["resolver_on"]["speedup_qps"] >= 5.0, report["resolver_on"]


def test_bench_json_valid():
    """The smoke check CI runs at reduced scale: the artifact must be valid."""
    assert JSON_PATH.exists(), "run test_discovery_fastpath first"
    data = json.loads(JSON_PATH.read_text(encoding="utf-8"))
    assert data["bench"] == "discovery_fastpath"
    assert data["results_identical"] is True
    for key in ("resolver_on", "resolver_off"):
        for path in ("old", "new"):
            for metric in ("p50_us", "p95_us", "qps"):
                assert data[key][path][metric] > 0
    # the PR-5 longitudinal summary rides along, bounded
    marks = data["telemetry"]["history"]
    assert marks["max_points"] <= marks["capacity"]
    assert data["telemetry"]["slo"]["states"]["discovery-latency"] in (
        "ok", "warning", "page",
    )
