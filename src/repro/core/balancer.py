"""ConstraintBindingResolver — the modified ServiceDAO discovery path.

This is the thesis' actual change to freebXML (Figures 3.5/3.6): when a
service is discovered, ServiceDAO populates the ServiceBindingDAO results
through this resolver instead of returning publisher order:

1. **ServiceConstraint** parses/validates constraints from the description
   and checks the time-of-day window.  No valid constraints, or the window
   not satisfied → vanilla behaviour (all bindings, publisher order) —
   keeping the scheme transparent to unconstrained services.
2. **LoadStatus** queries the NodeState table for hosts satisfying the
   performance constraints, ranked by ascending load.
3. The returned binding list puts satisfying hosts first (best host first);
   in ``filter`` mode non-satisfying hosts are dropped entirely, in the
   default ``prefer`` mode they trail the list (the thesis' "hosts that
   currently provide optimal service conditions are given preference").

``attach_load_balancer`` wires the whole scheme onto a RegistryServer: it
installs this resolver on the ServiceDAO and builds the TimeHits collector —
the one-call equivalent of deploying the thesis' modified freebXML build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.load_status import LoadStatus
from repro.core.monitor import DEFAULT_PERIOD, TimeHits
from repro.core.service_constraint import ServiceConstraint
from repro.rim import Service, ServiceBinding
from repro.sim.engine import SimEngine
from repro.soap.transport import SimTransport
from repro.util.clock import Clock

if TYPE_CHECKING:  # pragma: no cover
    from repro.registry.server import RegistryServer


class BalanceMode(enum.Enum):
    """How non-satisfying hosts are treated."""

    #: satisfying hosts first (ranked), others after in publisher order
    PREFER = "prefer"
    #: only satisfying hosts are returned; empty result falls back to all
    FILTER = "filter"


class ConstraintBindingResolver:
    """The load-balanced implementation of the ServiceDAO binding resolver."""

    def __init__(
        self,
        service_constraint: ServiceConstraint,
        load_status: LoadStatus,
        *,
        mode: BalanceMode = BalanceMode.PREFER,
    ) -> None:
        self.service_constraint = service_constraint
        self.load_status = load_status
        self.mode = mode
        self.resolutions = 0
        self.balanced_resolutions = 0

    def fingerprint(self) -> tuple:
        """Resolution-cache validity token (see ServiceDAO.resolve_access_uris).

        A balanced resolution depends, beyond the service and its bindings,
        on the NodeState samples, the minute of day (time windows), and —
        when staleness filtering is on — the clock itself (quantized to one
        second, so a host aging past ``max_age`` is dropped within 1s).
        """
        staleness = (
            0 if self.load_status.max_age is None else int(self.load_status.clock.now())
        )
        return (
            self.load_status.node_state.version,
            self.service_constraint.clock.minutes_of_day(),
            staleness,
        )

    def resolve(
        self, service: Service, bindings: Sequence[ServiceBinding]
    ) -> list[ServiceBinding]:
        self.resolutions += 1
        check = self.service_constraint.check(service)
        if not check.active:
            # no valid constraints / time window unsatisfied → vanilla order
            return list(bindings)
        assert check.constraints is not None
        self.balanced_resolutions += 1
        # one pass, one (memoized) host parse per binding
        hosts: list[str] = []
        by_host: dict[str, list[ServiceBinding]] = {}
        for binding in bindings:
            host = binding.host
            if host is not None:
                hosts.append(host)
                by_host.setdefault(host, []).append(binding)
        ranked_hosts = self.load_status.rank(hosts, check.constraints)
        satisfying: list[ServiceBinding] = []
        for host in ranked_hosts:
            satisfying.extend(by_host.pop(host, ()))
        if self.mode is BalanceMode.FILTER:
            if satisfying:
                return satisfying
            # per the thesis' "preference" language a fully-overloaded pool
            # still answers — fall back to publisher order rather than
            # rendering the service undiscoverable.
            return list(bindings)
        satisfying_ids = {b.id for b in satisfying}
        rest = [b for b in bindings if b.id not in satisfying_ids]
        return satisfying + rest


@dataclass
class LoadBalancer:
    """Handle on an attached load-balancing scheme."""

    resolver: ConstraintBindingResolver
    load_status: LoadStatus
    service_constraint: ServiceConstraint
    monitor: TimeHits

    def detach(self, registry: "RegistryServer") -> None:
        """Restore vanilla discovery, stop monitoring, unmount telemetry."""
        from repro.persistence.dao import DefaultBindingResolver

        registry.daos.services.set_resolver(DefaultBindingResolver())
        self.monitor.stop()
        telemetry = getattr(registry, "telemetry", None)
        if telemetry is not None:
            for source in ("constraint_cache", "collector", "load_status", "transport"):
                telemetry.unregister_source(source)
            telemetry.unregister_health_check("node_staleness")
            telemetry.slos.unregister_gauge("node_staleness")


def attach_load_balancer(
    registry: "RegistryServer",
    transport: SimTransport,
    engine: SimEngine,
    *,
    clock: Clock | None = None,
    period: float = DEFAULT_PERIOD,
    mode: BalanceMode = BalanceMode.PREFER,
    max_sample_age: float | None = None,
    start_monitor: bool = True,
) -> LoadBalancer:
    """Install the thesis' load-balancing scheme on a registry.

    ``max_sample_age`` defaults to 4× the monitoring period: a host missing
    four consecutive sweeps is treated as unmonitored.
    """
    clock = clock or registry.clock
    if max_sample_age is None:
        max_sample_age = registry.config.nodestate_max_age
    if max_sample_age is None:
        max_sample_age = 4.0 * period
    service_constraint = ServiceConstraint(clock)
    load_status = LoadStatus(
        registry.node_state, clock=clock, max_age=max_sample_age
    )
    resolver = ConstraintBindingResolver(service_constraint, load_status, mode=mode)
    registry.daos.services.set_resolver(resolver)
    monitor = TimeHits(registry, transport, engine, period=period)
    telemetry = getattr(registry, "telemetry", None)
    if telemetry is not None:
        # mount the scheme's stats surfaces + trace hooks on the registry's
        # telemetry facade (/metrics and telemetry_snapshot() pick them up)
        from repro.obs.adapters import (
            constraint_cache_collector,
            load_status_collector,
            monitor_collector,
            transport_collector,
        )

        load_status.tracer = telemetry.tracer
        load_status.telemetry = telemetry
        transport.tracer = telemetry.tracer
        telemetry.register_source(
            "constraint_cache",
            service_constraint.cache_stats,
            collector=constraint_cache_collector(service_constraint),
        )
        telemetry.register_source(
            "collector",
            monitor.collector_stats,
            collector=monitor_collector(monitor),
        )
        telemetry.register_source(
            "load_status",
            load_status.load_status_stats,
            collector=load_status_collector(load_status, resolver),
        )
        telemetry.register_source(
            "transport",
            transport.transport_stats,
            collector=transport_collector(transport),
        )
    if start_monitor:
        monitor.start()
    return LoadBalancer(
        resolver=resolver,
        load_status=load_status,
        service_constraint=service_constraint,
        monitor=monitor,
    )
