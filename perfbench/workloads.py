"""The three workloads: ``discover``, ``browse`` and ``churn``.

Each workload takes a built fixture, draws its inputs from the seed, and
returns a :class:`Phase` per measured interval: client-visible latencies,
how many calls were attempted and how many failed their answer check.
Answer checks run outside the timed region of each call.
"""

from __future__ import annotations

import bisect
import itertools
import random
import threading
import time
from dataclasses import dataclass, field

from repro.soap.envelope import SoapEnvelope, SoapFault
from repro.soap.messages import (
    AdhocQueryRequest,
    GetServiceBindingsRequest,
    RemoveObjectsRequest,
    SubmitObjectsRequest,
    UpdateObjectsRequest,
)
from repro.rim import Service, ServiceBinding
from repro.serving import ServingConfig, ServingSupervisor
from repro.soap.serializer import serialize
from repro.util.ids import IdFactory

from fixture import ORG_REGIONS, SERVICE_WORDS, SERVICES, ORGANIZATIONS, make_spec
from oracle import BrowseOracle, prefer_order, store_matches_replay

#: simulated seconds per client request: a TimeHits sweep every 250 requests
SIM_SECONDS_PER_REQUEST = 0.1
#: Zipf exponent of service / query popularity
ZIPF_S = 1.0
#: requests run before timing starts (caches warm, lazy set-up done)
WARMUP_CALLS = 400

#: churn: offered rate of the fixed-rate phase, requests per second
CHURN_RATE_RPS = 200.0
#: churn: every 5th request is a write (20%), the kinds cycling through
#: WRITE_PATTERN (40% submit, 40% update, 20% remove), so every seed runs
#: the same mix in the same order; the seed picks targets and contents
WRITE_EVERY = 5
WRITE_PATTERN = ("submit", "update", "submit", "update", "remove")
#: churn: updates go to the most popular services
POPULAR_SERVICES = 50
#: churn: closed-loop requests per ``--seconds`` (about 1.3 s of work per
#: second asked at this commit), and requests run before timing starts
CHURN_REQUESTS_PER_SECOND = 600
CHURN_WARMUP_REQUESTS = 400
#: churn: every Nth write is resent under its idempotency key
RESEND_EVERY = 10
#: churn: a remove or resend is scheduled at least this many requests after
#: the write it depends on, so FIFO dispatch has finished that write
DEPENDENCY_GAP = 200
#: churn: read p99 limit for a ladder rate to count as sustained
LADDER_P99_LIMIT_S = 0.200
#: churn: ladder rates as shares of the measured saturation throughput
LADDER_SHARES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
LADDER_STEP_S = 0.6
#: churn: requests queued at once to measure saturation throughput
SATURATE_REQUESTS = 4000


@dataclass
class Phase:
    """One measured interval of one workload."""

    read_latencies: list[float] = field(default_factory=list)
    write_latencies: list[float] = field(default_factory=list)
    #: every call's latency, reads and writes, in send order
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: open loop only: how late each send left relative to its schedule
    lags: list[float] = field(default_factory=list)
    #: open loop only: dispatch queue depth when the last request was sent
    backlog: int = 0


def zipf_draws(rng: random.Random, ranked: list, s: float = ZIPF_S):
    """Endless Zipf draws over *ranked*, most popular first."""
    weights = list(itertools.accumulate(1.0 / (rank + 1) ** s for rank in range(len(ranked))))
    total = weights[-1]
    while True:
        yield ranked[bisect.bisect_left(weights, rng.random() * total)]


class ClientLoop:
    """One closed-loop client: call, time, check, advance simulated time."""

    def __init__(self, fixture, recorder=None) -> None:
        self.fixture = fixture
        self.recorder = recorder

    def draw(self):  # pragma: no cover - subclass hook
        raise NotImplementedError

    def call(self, item):  # pragma: no cover - subclass hook
        raise NotImplementedError

    def check(self, item, answer) -> bool:  # pragma: no cover - subclass hook
        raise NotImplementedError

    def swept(self) -> None:
        """Called after a monitoring sweep stored new samples."""

    def _timed(self, item):
        if self.recorder is not None:
            return self.recorder.call("client", self.call, (item,), {})
        return self.call(item)

    def run(self, seconds: float, *, warmup: int = 0) -> Phase:
        """*warmup* untimed calls, then calls for *seconds*."""
        phase = Phase()
        clock = time.perf_counter
        for call in itertools.count():
            if call == warmup:
                deadline = clock() + seconds
            elif call > warmup and clock() >= deadline:
                break
            item = self.draw()
            t0 = clock()
            try:
                answer = self._timed(item)
            except Exception:  # noqa: BLE001 - a raised call is a failed call
                answer = None
            elapsed = clock() - t0
            ok = answer is not None and self.check(item, answer)
            if self.fixture.advance(SIM_SECONDS_PER_REQUEST):
                self.swept()
            if call < warmup:
                continue
            phase.read_latencies.append(elapsed)
            phase.latencies.append(elapsed)
            phase.attempted += 1
            phase.failed += not ok
        return phase


# -- discover ----------------------------------------------------------------


class Discover(ClientLoop):
    """Closed loop, one MTC dispatcher: JAXR ``get_service_bindings`` over XML."""

    def __init__(self, fixture, seed: int, recorder=None) -> None:
        super().__init__(fixture, recorder)
        factory = fixture.client(wire_xml=True)
        self.bqm = factory.create_connection().get_registry_service().get_business_query_manager()
        self.draws = zipf_draws(random.Random(f"discover-{seed}"), fixture.service_ids)
        #: the readings the registry's latest sweep stored, per host
        self.samples = dict(fixture.grid.latest)

    def draw(self) -> str:
        return next(self.draws)

    def call(self, service_id: str):
        return self.bqm.get_service_bindings(service_id)

    def check(self, service_id: str, bindings) -> bool:
        fixture = self.fixture
        expected = prefer_order(
            fixture.specs[service_id],
            fixture.bindings[service_id],
            self.samples,
            fixture.registry.clock.minutes_of_day(),
        )
        return [b.access_uri for b in bindings] == expected

    def swept(self) -> None:
        self.samples = dict(self.fixture.grid.latest)


# -- browse ------------------------------------------------------------------


def browse_queries() -> list[tuple[str, str]]:
    """~2000 distinct query texts: (kind, pattern-or-name)."""
    queries: list[tuple[str, str]] = []
    for i in range(SERVICES):
        queries.append(("service_name", f"{SERVICE_WORDS[i % len(SERVICE_WORDS)]}{i:04d}"))
    for word in SERVICE_WORDS:
        for prefix in range(100):
            queries.append(("find_services", f"{word}{prefix:03d}%"))
    for region in ORG_REGIONS:
        for prefix in range(20):
            queries.append(("find_organizations", f"{region}Org{prefix:02d}%"))
    for j in range(ORGANIZATIONS):
        queries.append(("find_organizations", f"{ORG_REGIONS[j % len(ORG_REGIONS)]}Org{j:03d}"))
    return queries


def popularity_order(rng: random.Random, queries: list[tuple[str, str]]) -> list:
    """Queries ranked so every popularity level holds the same mix of kinds.

    Each kind's queries are shuffled by the seed, then the kinds are
    interleaved in proportion to their sizes.
    """
    by_kind: dict[str, list] = {}
    for query in queries:
        by_kind.setdefault(query[0], []).append(query)
    keyed = []
    for kind, items in sorted(by_kind.items()):
        rng.shuffle(items)
        keyed.extend(((i + 0.5) / len(items), kind, item) for i, item in enumerate(items))
    return [item for _, _, item in sorted(keyed)]


def _escape(text: str) -> str:
    return text.replace("'", "''")


def query_text(kind: str, pattern: str) -> str:
    """The SQL each browse query sends (what the scan oracle re-runs)."""
    if kind == "service_name":
        return f"SELECT id FROM Service WHERE name = '{_escape(pattern)}'"
    table = "Service" if kind == "find_services" else "Organization"
    return f"SELECT id FROM {table} WHERE name LIKE '{_escape(pattern)}' ORDER BY name"


class Browse(ClientLoop):
    """Closed loop, one Web-UI client: JAXR object-mode finds + lookups."""

    def __init__(self, fixture, seed: int, recorder=None) -> None:
        super().__init__(fixture, recorder)
        self.factory = fixture.client(wire_xml=False)
        self.bqm = (
            self.factory.create_connection().get_registry_service().get_business_query_manager()
        )
        rng = random.Random(f"browse-{seed}")
        self.draws = zipf_draws(rng, popularity_order(rng, browse_queries()))
        self.oracle = BrowseOracle(fixture.registry.store)

    def find_by_name(self, name: str) -> list:
        """A name-equality AdhocQueryRequest, then one lookup per row."""
        factory = self.factory
        response = factory.transport.request(
            factory.binding.endpoint_uri,
            SoapEnvelope(body=AdhocQueryRequest(query=query_text("service_name", name))),
        )
        if isinstance(response, SoapFault):
            response.raise_()
        return [self.bqm.get_registry_object(row["id"]) for row in response.rows]

    def draw(self) -> tuple[str, str]:
        return next(self.draws)

    def call(self, query: tuple[str, str]) -> list:
        kind, pattern = query
        if kind == "service_name":
            return self.find_by_name(pattern)
        if kind == "find_services":
            return self.bqm.find_services(pattern)
        return self.bqm.find_organizations(pattern)

    def check(self, query: tuple[str, str], objects: list) -> bool:
        return self.oracle.check(query_text(*query), objects)


# -- churn -------------------------------------------------------------------


@dataclass
class Request:
    kind: str  # "read" | "write"
    body: object
    #: True for a write resent under the key of an earlier one
    resend: bool = False


class Churn:
    """A 2-worker ServingSupervisor under 80% discovery and 20% writes.

    Writes submit a new service + binding, update the description or
    constraint of a popular service, or remove a service submitted
    earlier; every write carries an idempotency key and every 10th write
    is resent under its key.  :meth:`run_closed_loop` is one client that
    waits for each answer; :meth:`run_open_loop` sends at a fixed rate and
    times each request from its scheduled send time.  Served requests need
    no client root span: each roots at the worker's kernel span, so
    *recorder* is unused.
    """

    def __init__(self, fixture, seed: int, recorder=None) -> None:
        self.fixture = fixture
        self.seed = seed
        self.rng = random.Random(f"churn-{seed}")
        self.ids = IdFactory(seed + 7919)
        self.reads = zipf_draws(self.rng, fixture.service_ids)
        #: requests scheduled so far, across every schedule built
        self.position = 0
        self.writes = 0
        #: [position scheduled, service id] of churn-submitted services
        self.submitted: list[list] = []
        self.resends = 0
        #: (position, write) awaiting their resend
        self.pending_resends: list[tuple[int, Request]] = []
        #: idempotency key → the answer to the original write
        self.answers: dict[str, object] = {}
        registry = fixture.registry
        self.session = registry.login(fixture.publisher_credential)
        self.supervisor = ServingSupervisor(
            registry, ServingConfig(workers=2, queue_capacity=4096)
        )
        self.supervisor.register_session(self.session)
        self.expected_uris = {
            sid: sorted(uri for _, _, uri in bindings)
            for sid, bindings in fixture.bindings.items()
        }

    def __enter__(self) -> "Churn":
        self.supervisor.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.supervisor.close()

    # -- schedule -----------------------------------------------------------

    def _write(self) -> Request:
        """The next write; its kind follows :data:`WRITE_PATTERN`."""
        kind = WRITE_PATTERN[self.writes % len(WRITE_PATTERN)]
        self.writes += 1
        key = f"churn-{self.seed}-{self.writes}"
        if kind == "remove":
            for entry in self.submitted:
                if entry[1] is not None and self.position - entry[0] >= DEPENDENCY_GAP:
                    service_id, entry[1] = entry[1], None
                    return Request(
                        "write", RemoveObjectsRequest(ids=[service_id], idempotency_key=key)
                    )
            kind = "update"  # nothing old enough to remove yet
        if kind == "update":
            index = self.rng.randrange(POPULAR_SERVICES)
            service = self.fixture.registry.store.get_object(self.fixture.service_ids[index])
            if self.writes % 2:
                # a new constraint of the same shape as the published one
                description = make_spec(self.rng, service.name.value, index).description
            else:
                # new prose around the published constraint block
                published = self.fixture.specs[service.id].description
                description = published.replace(" endpoint.", f" endpoint, {key}.", 1) if published else key
            service.description.set(description)
            return Request(
                "write", UpdateObjectsRequest(objects=[serialize(service)], idempotency_key=key)
            )
        service = Service(self.ids.new_id(), name=f"Churn{self.writes:05d}", description=key)
        host = f"node{self.rng.randrange(64):02d}.grid.example"
        binding = ServiceBinding(
            self.ids.new_id(), service=service.id, access_uri=f"http://{host}:8080/{key}"
        )
        service.binding_ids.append(binding.id)
        self.submitted.append([self.position, service.id])
        return Request(
            "write",
            SubmitObjectsRequest(
                objects=[serialize(service), serialize(binding)], idempotency_key=key
            ),
        )

    def schedule(self, count: int) -> list[Request]:
        """The next *count* requests in send order."""
        schedule: list[Request] = []
        for _ in range(count):
            pending = self.pending_resends
            if pending and self.position - pending[0][0] >= DEPENDENCY_GAP:
                original = pending.pop(0)[1]
                schedule.append(Request("write", original.body, resend=True))
            elif self.position % WRITE_EVERY == WRITE_EVERY - 1:
                request = self._write()
                schedule.append(request)
                if self.writes % RESEND_EVERY == 0:
                    pending.append((self.position, request))
            else:
                schedule.append(Request("read", GetServiceBindingsRequest(next(self.reads))))
            self.position += 1
        return schedule

    # -- driving ------------------------------------------------------------

    def _submit(self, request: Request):
        token = self.session.token if request.kind == "write" else None
        return self.supervisor.submit(body=request.body, token=token)

    def check(self, request: Request, response) -> bool:
        if response is None or isinstance(response, SoapFault) or not response.is_success:
            return False
        if request.kind == "read":
            uris = sorted(obj["accessUri"] for obj in response.objects)
            return uris == self.expected_uris[request.body.service_id]
        return True

    def _collect(self, schedule: list[Request], futures: list) -> list[bool]:
        """Check every answer; a resend must replay its original's result."""
        verdicts = []
        for request, future in zip(schedule, futures):
            try:
                response = future.result(timeout=60.0)
            except Exception:  # noqa: BLE001 - a raised request is a failed request
                response = None
            ok = self.check(request, response)
            if request.kind == "write":
                key = request.body.idempotency_key
                if not request.resend:
                    self.answers[key] = response
                elif ok:
                    self.resends += 1
                    original = self.answers.get(key)
                    ok = original is not None and response.ids == original.ids
            verdicts.append(ok)
        return verdicts

    def run_open_loop(self, schedule: list[Request], rate: float) -> Phase:
        """Send *schedule* at *rate* per second; wait for every answer."""
        phase = Phase()
        fixture = self.fixture
        clock = time.perf_counter
        count = len(schedule)
        done = [0.0] * count
        due_at = [0.0] * count
        futures = []

        def finisher(index: int):
            def finished(_future) -> None:
                done[index] = clock()
            return finished

        period = 1.0 / rate
        start = clock() + 0.002
        for index, request in enumerate(schedule):
            due = start + index * period
            now = clock()
            if now < due:
                time.sleep(due - now)
            phase.lags.append(max(0.0, clock() - due))
            due_at[index] = due
            future = self._submit(request)
            future.add_done_callback(finisher(index))
            futures.append(future)
            fixture.advance(SIM_SECONDS_PER_REQUEST)
        phase.backlog = self.supervisor.serving_stats()["queue_depth"]
        self.supervisor.drain()
        for index, ok in enumerate(self._collect(schedule, futures)):
            latency = done[index] - due_at[index]
            phase.latencies.append(latency)
            if schedule[index].kind == "read":
                phase.read_latencies.append(latency)
            else:
                phase.write_latencies.append(latency)
            phase.attempted += 1
            phase.failed += not ok
        return phase

    def run_closed_loop(self, count: int) -> Phase:
        """One client sends *count* requests, each after the last answer.

        A fixed count, not a fixed time: every run, and every version of
        the program, churns the same amount of state.  Each request is
        scheduled only when it is sent, so a remove or resend never refers
        to a write that was not.
        """
        phase = Phase()
        clock = time.perf_counter
        schedule: list[Request] = []
        futures = []
        for _ in range(count):
            request = self.schedule(1)[0]
            started = clock()
            future = self._submit(request)
            try:
                future.result(timeout=60.0)
            except Exception:  # noqa: BLE001 - judged in _collect
                pass
            elapsed = clock() - started
            schedule.append(request)
            futures.append(future)
            phase.latencies.append(elapsed)
            self.fixture.advance(SIM_SECONDS_PER_REQUEST)
        for request, elapsed, ok in zip(schedule, phase.latencies, self._collect(schedule, futures)):
            if request.kind == "read":
                phase.read_latencies.append(elapsed)
            else:
                phase.write_latencies.append(elapsed)
            phase.attempted += 1
            phase.failed += not ok
        return phase

    def saturate(self, count: int = SATURATE_REQUESTS) -> tuple[float, Phase]:
        """Completed requests per second while the dispatch queue stays full.

        *count* requests are queued as fast as the generator can submit
        them; the rate is taken over the middle 80% of completions.
        """
        clock = time.perf_counter
        schedule = self.schedule(count)
        completions: list[float] = []
        lock = threading.Lock()

        def finished(_future) -> None:
            with lock:
                completions.append(clock())

        futures = []
        for request in schedule:
            future = self._submit(request)
            future.add_done_callback(finished)
            futures.append(future)
            self.fixture.advance(SIM_SECONDS_PER_REQUEST)
        self.supervisor.drain()
        phase = Phase()
        verdicts = self._collect(schedule, futures)
        phase.attempted = len(verdicts)
        phase.failed = verdicts.count(False)
        # the middle 80% of completions: the queue is backed up on both ends
        ordered = sorted(completions)
        lo, hi = len(ordered) // 10, len(ordered) * 9 // 10
        return (hi - lo) / (ordered[hi] - ordered[lo]), phase

    def final_check(self) -> bool:
        """After the drain, the store equals its changelog replayed."""
        return store_matches_replay(self.fixture.registry.store)


def ladder(churn: Churn) -> tuple[float, list[Phase]]:
    """The highest ladder rate with no growing backlog and read p99 in limit.

    Rates are shares of the saturation throughput measured first; a rung
    fails when its read p99 exceeds the limit or the dispatch queue still
    holds more than 2% of the rung's requests when the last one is sent.
    """
    from counters import percentile

    capacity, saturated = churn.saturate()
    phases = [saturated]
    sustained = 0.0
    for share in LADDER_SHARES:
        rate = share * capacity
        schedule = churn.schedule(int(rate * LADDER_STEP_S))
        phase = churn.run_open_loop(schedule, rate)
        phases.append(phase)
        if (
            percentile(phase.read_latencies, 0.99) > LADDER_P99_LIMIT_S
            or phase.backlog > max(8, 0.02 * len(schedule))
        ):
            break
        sustained = rate
    return sustained, phases
