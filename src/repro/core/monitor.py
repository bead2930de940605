"""TimeHits — the registry's periodic monitoring collector (thesis §3.2).

Figure 3.1's TimeHits class "is responsible for two things: to invoke the
NodeStatus Web Service periodically and to collect and store current host
performance data into the database."  The data is collected every **25
seconds** by default, "however this period can be reconfigured by the
freebXML administrator."

This implementation discovers its targets the way the thesis deploys them:
the administrator publishes the **NodeStatus** service to the registry with
one access URI per monitored host (Figure 3.7), and TimeHits invokes each
URI through the transport.  Unreachable hosts are skipped (and their stale
NodeState rows age out via LoadStatus's ``max_age``); one dead host must not
stall monitoring of the rest.

TimeHits is also the longitudinal observability feed: with the telemetry
history store enabled, every sweep records per-host time series
(``node.<host>.load``/``memory``/``swap``/``age``/``probe_latency``/
``failure``); with SLOs defined, every probe lands as a ``probe``
availability event; and the registry's ``node_staleness`` health check —
degraded when any host's newest sample is older than 2× the period,
unhealthy when all are — is registered here, where the period is known.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.persistence.nodestate import NodeSample, NodeStateStore
from repro.rim.service import host_of_uri
from repro.sim.engine import PeriodicTask, SimEngine
from repro.sim.nodestatus import NODESTATUS_SERVICE_NAME, NodeStatusReading
from repro.soap.transport import SimTransport
from repro.util.errors import TransportError

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer

#: the thesis' default collection period, seconds
DEFAULT_PERIOD = 25.0


class TimeHits:
    """Periodic NodeStatus collection into the NodeState table."""

    def __init__(
        self,
        registry: "RegistryServer",
        transport: SimTransport,
        engine: SimEngine,
        *,
        period: float = DEFAULT_PERIOD,
        monitor_service_name: str = NODESTATUS_SERVICE_NAME,
    ) -> None:
        self.registry = registry
        self.transport = transport
        self.engine = engine
        self.period = period
        self.monitor_service_name = monitor_service_name
        self.node_state: NodeStateStore = registry.node_state
        self._task: PeriodicTask | None = None
        self.telemetry = getattr(registry, "telemetry", None)
        #: telemetry tracer (one span per collect cycle when tracing is on)
        self.tracer = self.telemetry and self.telemetry.tracer
        self.collections = 0
        self.samples_stored = 0
        self.failures = 0
        #: callables invoked after every sweep (e.g. the AutoScaler)
        self.post_sweep_hooks: list = []
        #: (heap version, target list) — stamped with the version captured
        #: *before* the scan, so a topology write landing mid-scan leaves a
        #: tuple that fails validation (recompute) instead of a stale cache;
        #: safe to race with request dispatch (None = not yet computed)
        self._target_cache: tuple[int, list[str]] | None = None
        if self.telemetry is not None:
            self.telemetry.register_health_check("node_staleness", self.staleness_check)
            self.telemetry.slos.register_gauge("node_staleness", self.max_sample_age)

    # -- target discovery ----------------------------------------------------

    def target_uris(self) -> list[str]:
        """Access URIs of every published NodeStatus deployment.

        Reads the *raw* binding list (publisher order, no resolver) — the
        monitor must see every host, including overloaded ones.  The list is
        cached between sweeps against the store's ``version``, which bumps on
        every heap write and every rollback, so a NodeStatus publish/retire
        is seen on the next sweep and a sweep with no writes since the last
        one does no registry scan.
        """
        cached = self._target_cache
        version = self.registry.store.version
        if cached is not None and cached[0] == version:
            return list(cached[1])
        daos = self.registry.daos
        services = daos.services.find_views_by_name(self.monitor_service_name)
        uris: list[str] = []
        for service in services:
            for binding in daos.service_bindings.for_service(service, copy=False):
                if binding.access_uri and binding.access_uri not in uris:
                    uris.append(binding.access_uri)
        self._target_cache = (version, uris)
        return list(uris)

    # -- collection ---------------------------------------------------------------

    def collect_once(self) -> int:
        """One monitoring sweep; returns the number of samples stored.

        With tracing enabled the sweep runs inside a ``timehits.collect``
        span (per-target transport attempts nest under it when the transport
        is traced too).
        """
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span("timehits.collect", cycle=self.collections + 1) as span:
                stored = self._collect()
                span.tags["stored"] = stored
            return stored
        return self._collect()

    def _collect(self) -> int:
        self.collections += 1
        telemetry = self.telemetry
        history = telemetry.history if telemetry is not None else None
        if history is not None and not history.enabled:
            history = None
        slos = telemetry.slos if telemetry is not None else None
        if slos is not None and not slos.active:
            slos = None
        now = self.engine.now
        stored = 0
        failed = 0
        for uri in self.target_uris():
            host = host_of_uri(uri)
            latency_before = self.transport.stats.total_latency
            try:
                reading = self.transport.request(uri, "getNodeStatus")
            except TransportError:
                reading = None
            probe_latency = self.transport.stats.total_latency - latency_before
            if not isinstance(reading, NodeStatusReading):
                self.failures += 1
                failed += 1
                if history is not None:
                    history.record(f"node.{host}.failure", 1.0, t=now)
                    history.record(f"node.{host}.probe_latency", probe_latency, t=now)
                if slos is not None:
                    slos.record_event("probe", ok=False, latency=probe_latency)
                continue
            self.node_state.record_sample(
                NodeSample(
                    host=host,
                    load=reading.cpu_load,
                    memory=reading.memory_available,
                    swap_memory=reading.swap_available,
                    updated=now,
                )
            )
            stored += 1
            if history is not None:
                history.record(f"node.{host}.load", reading.cpu_load, t=now)
                history.record(f"node.{host}.memory", reading.memory_available, t=now)
                history.record(f"node.{host}.swap", reading.swap_available, t=now)
                history.record(f"node.{host}.failure", 0.0, t=now)
                history.record(f"node.{host}.probe_latency", probe_latency, t=now)
            if slos is not None:
                slos.record_event("probe", ok=True, latency=probe_latency)
        if history is not None:
            # sample *age* per monitored host — grows between sweeps for any
            # host whose probe keeps failing (the staleness signal over time)
            for sample in self.node_state.all_samples():
                history.record(f"node.{sample.host}.age", now - sample.updated, t=now)
        self.samples_stored += stored
        if telemetry is not None and telemetry.log.enabled:
            telemetry.log.emit(
                "timehits.sweep",
                cycle=self.collections,
                stored=stored,
                failed=failed,
                targets=len(self.target_uris()),
            )
        for hook in self.post_sweep_hooks:
            hook()
        return stored

    # -- failure attribution --------------------------------------------------------

    def endpoint_failures(self) -> dict[str, int]:
        """Per-target failure attribution from the transport stats.

        Maps each currently-published NodeStatus URI to the number of failed
        invocation attempts the transport recorded against it (including
        attempts consumed by the transport's retry stage), so one flaky host
        is distinguishable from a generally lossy network.
        """
        failures = self.transport.stats.per_endpoint_failures
        return {uri: failures[uri] for uri in self.target_uris() if uri in failures}

    # -- staleness -------------------------------------------------------------

    def max_sample_age(self) -> float:
        """Age in seconds of the *stalest* host's newest sample (0 when none).

        This is the gauge the ``node-staleness`` SLO evaluates.
        """
        now = self.engine.now
        return max((now - s.updated for s in self.node_state.all_samples()), default=0.0)

    def staleness_check(self) -> dict:
        """The ``node_staleness`` health check: 2× the period is too old.

        ``degraded`` while any monitored host's newest sample exceeds the
        threshold, ``unhealthy`` when every one does (monitoring is blind).
        """
        threshold = 2.0 * self.period
        now = self.engine.now
        samples = self.node_state.all_samples()
        stale = sorted(s.host for s in samples if now - s.updated > threshold)
        if not samples or not stale:
            status = "ok"
        elif len(stale) == len(samples):
            status = "unhealthy"
        else:
            status = "degraded"
        return {"status": status, "stale_hosts": stale, "threshold_s": threshold}

    def collector_stats(self) -> dict:
        """Collection-cycle tallies (the telemetry surface)."""
        return {
            "collections": self.collections,
            "samples_stored": self.samples_stored,
            "failures": self.failures,
            "targets": len(self.target_uris()),
            "period_s": self.period,
            "running": self.running,
            "endpoint_failures": self.endpoint_failures(),
        }

    # -- scheduling -------------------------------------------------------------------

    def start(self, *, immediate: bool = True) -> None:
        """Begin periodic collection on the simulation engine."""
        if self._task is not None:
            return
        if immediate:
            self.collect_once()
        self._task = self.engine.schedule_periodic(self.period, self.collect_once)

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def set_period(self, period: float) -> None:
        """Reconfigure the collection period (the administrator's knob)."""
        self.period = period
        if self._task is not None:
            self._task.set_period(period)

    @property
    def running(self) -> bool:
        return self._task is not None
