"""The shared registry fixture every workload runs against.

Built only through public entry points: a registry server, a simulated
64-host grid whose NodeStatus endpoints answer with seeded readings, 1000
services x 4 bindings published through the JAXR local-call client, 200
organizations offering them, and the load-balancing scheme attached in
PREFER mode.  Three quarters of the services carry a ``<constraint>``
block (``cpuLoad``, ``memory`` in KB/MB/GB, optional ``starttime``/
``endtime`` window); the rest are unconstrained.

The benchmark keeps its own record of what it published (:class:`ServiceSpec`)
and of every NodeStatus reading it handed out, so the answer checks never
read the registry's own state to decide what is correct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.client import ConnectionFactory
from repro.core import BalanceMode, attach_load_balancer
from repro.registry import RegistryConfig, RegistryServer
from repro.sim import SimEngine
from repro.sim.nodestatus import NODESTATUS_SERVICE_NAME, NodeStatusReading, nodestatus_uri
from repro.soap import SimTransport
from repro.util.clock import SimClockAdapter

SERVICES = 1000
BINDINGS_PER_SERVICE = 4
HOSTS = 64
ORGANIZATIONS = 200
#: TimeHits period, simulated seconds (the thesis' default)
SWEEP_PERIOD_S = 25.0
#: virtual clock start: 10:00, so time windows are evaluated mid-morning
START_S = 10 * 3600.0

SERVICE_WORDS = ("Adder", "Billing", "Catalog", "Dispatch", "Ledger", "Mapper", "Quote", "Router")
ORG_REGIONS = ("Alpine", "Basin", "Coast", "Delta", "Fjord", "Harbor", "Mesa", "Prairie")

GB = 1 << 30
#: (rendered clause, bytes) memory thresholds, mixing KB/MB/GB units
MEMORY_THRESHOLDS = (
    ("memory gr 1GB", GB),
    ("memory gr 1536MB", 1536 << 20),
    ("memory gr 2GB", 2 * GB),
    ("memory gr 3145728KB", 3 * GB),
    ("memory gr 4096MB", 4 * GB),
)
LOAD_THRESHOLDS = (0.5, 1.0, 1.5, 2.0, 3.0)
#: (starttime, endtime) windows: open all run, closed all run, and windows
#: whose edge the simulated clock crosses while a run is measured
WINDOWS = ((800, 2000), (1300, 1500), (1000, 1010), (1005, 1130), (2200, 600))


@dataclass(frozen=True)
class ServiceSpec:
    """What the benchmark published for one service (the checks' reference)."""

    name: str
    load_max: float | None = None
    memory_min: int | None = None
    #: (start, end) in minutes of day
    window: tuple[int, int] | None = None
    description: str = ""

    @property
    def constrained(self) -> bool:
        return bool(self.description)


@dataclass
class NodeGrid:
    """64 NodeStatus endpoints answering seeded readings.

    ``latest`` holds the reading each host last returned — the samples the
    PREFER reference ranks by.  Readings never sit on a constraint
    threshold, so the reference and the registry cannot disagree on ties.
    """

    seed: int
    hosts: list[str]
    latest: dict[str, NodeStatusReading] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._rng = random.Random(f"grid-{self.seed}")

    def reading(self, host: str) -> NodeStatusReading:
        rng = self._rng
        reading = NodeStatusReading(
            host=host,
            cpu_load=round(rng.uniform(0.0, 4.0), 3) + 0.0005,
            memory_available=int(rng.uniform(0.5, 6.0) * GB) + 4096 + 7,
            swap_available=int(rng.uniform(0.25, 2.0) * GB),
        )
        self.latest[host] = reading
        return reading


@dataclass
class Fixture:
    seed: int
    registry: RegistryServer
    engine: SimEngine
    transport: SimTransport
    balancer: object
    grid: NodeGrid
    publisher_credential: object
    specs: dict[str, ServiceSpec]
    #: service id → [(binding id, host, access uri)] in publisher order
    bindings: dict[str, list[tuple[str, str, str]]]
    #: service ids in publication order, which is also popularity order
    service_ids: list[str]
    next_sweep_at: float = START_S + SWEEP_PERIOD_S

    def advance(self, seconds: float) -> bool:
        """Move simulated time; sweep when a period boundary passes."""
        target = self.engine.now + seconds
        self.engine.run_until(target)
        if target >= self.next_sweep_at:
            self.next_sweep_at += SWEEP_PERIOD_S
            self.balancer.monitor.collect_once()
            return True
        return False

    def client(self, *, wire_xml: bool) -> ConnectionFactory:
        """A remote JAXR connection factory on the fixture's transport."""
        return ConnectionFactory(self.registry, transport=self.transport, wire_xml=wire_xml)


def constraint_xml(load_clause: str | None, memory_clause: str | None, window) -> str:
    parts = ["<constraint>"]
    if load_clause:
        parts.append(f"<cpuLoad>{load_clause}</cpuLoad>")
    if memory_clause:
        parts.append(f"<memory>{memory_clause}</memory>")
    if window:
        parts.append(f"<starttime>{window[0]:04d}</starttime><endtime>{window[1]:04d}</endtime>")
    parts.append("</constraint>")
    return "".join(parts)


def _minutes(hhmm: int) -> int:
    return (hhmm // 100) * 60 + hhmm % 100


def make_spec(rng: random.Random, name: str, index: int) -> ServiceSpec:
    """A service description: 3/4 constrained, the clause mix varied.

    Which services are constrained, and which time window they carry,
    follow the publication index, so every seed gives the popular services
    the same mix of balanced and publisher-order answers (about a quarter
    publisher-order); the seed picks the thresholds.
    """
    if index % 4 == 3:
        return ServiceSpec(name=name, description="")
    shape = index % 4  # 0: load only, 1: memory only, 2: both
    load = rng.choice(LOAD_THRESHOLDS) if shape in (0, 2) else None
    memory = rng.choice(MEMORY_THRESHOLDS) if shape in (1, 2) else None
    window = WINDOWS[(index // 8) % len(WINDOWS)] if (index // 4) % 5 < 2 else None
    xml = constraint_xml(
        f"load ls {load:g}" if load is not None else None,
        memory[0] if memory else None,
        window,
    )
    return ServiceSpec(
        name=name,
        load_max=load,
        memory_min=memory[1] if memory else None,
        window=(_minutes(window[0]), _minutes(window[1])) if window else None,
        description=f"{name} endpoint. {xml}",
    )


def build_fixture(seed: int) -> Fixture:
    """Build the whole fixture from *seed* (same seed ⇒ same registry)."""
    rng = random.Random(f"fixture-{seed}")
    engine = SimEngine(start=START_S)
    registry = RegistryServer(RegistryConfig(seed=seed), clock=SimClockAdapter(engine))
    transport = SimTransport()
    hosts = [f"node{i:02d}.grid.example" for i in range(HOSTS)]
    grid = NodeGrid(seed=seed, hosts=hosts)
    for host in hosts:
        transport.register_endpoint(
            nodestatus_uri(host), lambda _payload, h=host: grid.reading(h)
        )

    _, credential = registry.register_user("publisher")
    publisher = ConnectionFactory(registry, local_call=True).create_connection(credential)
    blcm = publisher.get_registry_service().get_business_life_cycle_manager()

    monitor_org = blcm.create_organization("GridOperations")
    node_status = blcm.create_service(NODESTATUS_SERVICE_NAME, description="host monitor")
    blcm.publish_organization_with_services(
        monitor_org,
        [(node_status, [blcm.create_service_binding(node_status, nodestatus_uri(h)) for h in hosts])],
    )

    specs: dict[str, ServiceSpec] = {}
    bindings: dict[str, list[tuple[str, str, str]]] = {}
    service_ids: list[str] = []
    per_org = SERVICES // ORGANIZATIONS
    for j in range(ORGANIZATIONS):
        org_name = f"{ORG_REGIONS[j % len(ORG_REGIONS)]}Org{j:03d}"
        org = blcm.create_organization(org_name, description=f"provider {j}")
        offered = []
        for i in range(j * per_org, (j + 1) * per_org):
            name = f"{SERVICE_WORDS[i % len(SERVICE_WORDS)]}{i:04d}"
            spec = make_spec(rng, name, i)
            service = blcm.create_service(name, description=spec.description)
            chosen = rng.sample(hosts, BINDINGS_PER_SERVICE)
            service_bindings = [
                blcm.create_service_binding(service, f"http://{h}:8080/{name}/endpoint")
                for h in chosen
            ]
            offered.append((service, service_bindings))
            specs[service.id] = spec
            bindings[service.id] = [(b.id, h, b.access_uri) for b, h in zip(service_bindings, chosen)]
            service_ids.append(service.id)
        blcm.publish_organization_with_services(org, offered)

    balancer = attach_load_balancer(
        registry, transport, engine, mode=BalanceMode.PREFER, start_monitor=False
    )
    balancer.monitor.collect_once()
    return Fixture(
        seed=seed,
        registry=registry,
        engine=engine,
        transport=transport,
        balancer=balancer,
        grid=grid,
        publisher_credential=credential,
        specs=specs,
        bindings=bindings,
        service_ids=service_ids,
    )
