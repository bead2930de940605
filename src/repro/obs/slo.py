"""Declarative SLOs evaluated as multi-window burn rates over time series.

An :class:`SLO` names an objective over one event **source** — the fraction
of NodeStatus probes that succeed, the fraction of requests answered under
a latency threshold, the age of the newest NodeState sample — and the
:class:`SloEngine` turns the longitudinal record of that source into a
deterministic alert state:

* every event (``record_event``) lands in bounded ring-buffer series (the
  :mod:`repro.obs.timeseries` machinery) stamped from the injectable clock;
* :meth:`SloEngine.evaluate` computes the **burn rate** — observed bad
  fraction divided by the error budget ``1 - objective`` — over each of the
  SLO's windows (the classic short+long multi-window alert: a transient
  blip trips neither, a sustained outage trips both);
* the alert state is ``page`` when *every* window burns at or above
  ``page_burn``, ``warning`` when every window reaches ``warning_burn``,
  else ``ok``; state *transitions* are appended to a bounded timeline with
  their timestamps and burn rates, so an experiment's alert history is an
  assertable artifact.

Everything is deterministic under ``ManualClock``/sim time: the same
workload produces the same timeline, which is what the ``slo-smoke`` CI job
and ``ExperimentResult.slo_timeline`` rely on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.timeseries import TimeSeriesStore
from repro.util.clock import Clock, PerfClock

#: alert states in increasing severity
STATES = ("ok", "warning", "page")

#: how many state transitions the timeline retains
TIMELINE_CAPACITY = 256

#: sources the built-in definitions evaluate
REQUEST_SOURCE = "request"
PROBE_SOURCE = "probe"
STALENESS_SOURCE = "node_staleness"
REPLICATION_LAG_SOURCE = "replication_lag"


@dataclass(frozen=True)
class SLO:
    """One service-level objective over an event source.

    ``kind`` selects how events are judged:

    * ``availability`` — bad fraction = failed events / total events;
    * ``latency`` — bad fraction = events slower than ``threshold`` seconds;
    * ``staleness`` — bad fraction is 1.0 while the registered gauge for
      ``source`` exceeds ``threshold`` (a condition, not an event stream).

    ``windows`` are the burn-rate evaluation windows in seconds (all must
    burn for an alert — keep a short and a long one); ``objective`` is the
    target good fraction, whose complement is the error budget.
    """

    name: str
    kind: str
    source: str
    objective: float = 0.99
    threshold: float | None = None
    windows: tuple[float, ...] = (120.0, 600.0)
    warning_burn: float = 2.0
    page_burn: float = 10.0

    def __post_init__(self) -> None:
        if self.kind not in ("availability", "latency", "staleness"):
            raise ValueError(f"unknown SLO kind: {self.kind!r}")
        if self.kind in ("latency", "staleness") and self.threshold is None:
            raise ValueError(f"{self.kind} SLO {self.name!r} requires a threshold")
        if not self.windows:
            raise ValueError(f"SLO {self.name!r} needs at least one window")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"SLO {self.name!r} objective must be in (0, 1)")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


def default_slos(
    *,
    latency_threshold: float = 0.5,
    staleness_threshold: float = 100.0,
    windows: tuple[float, ...] = (120.0, 600.0),
) -> tuple[SLO, ...]:
    """The standard registry SLO set (availability, latency, staleness).

    ``staleness_threshold`` defaults to 4× the thesis' 25 s TimeHits period
    — the same "missed four sweeps" bar the balancer's ``max_age`` uses.
    """
    return (
        SLO(
            name="probe-availability",
            kind="availability",
            source=PROBE_SOURCE,
            objective=0.99,
            windows=windows,
        ),
        SLO(
            name="request-latency",
            kind="latency",
            source=REQUEST_SOURCE,
            objective=0.95,
            threshold=latency_threshold,
            windows=windows,
        ),
        SLO(
            name="node-staleness",
            kind="staleness",
            source=STALENESS_SOURCE,
            objective=0.99,
            threshold=staleness_threshold,
            windows=windows,
        ),
    )


def replication_lag_slo(
    *,
    threshold: float = 64.0,
    objective: float = 0.99,
    windows: tuple[float, ...] = (120.0, 600.0),
) -> SLO:
    """The cluster's bounded-lag objective over the replication links.

    A ``staleness``-kind SLO reading the gauge registered under
    :data:`REPLICATION_LAG_SOURCE` — the worst (highest) changelog lag, in
    records, across a federation's replication links.  The condition burns
    while any follower trails its source by more than *threshold* records,
    turning the eventual-consistency promise into an alertable bound.
    """
    return SLO(
        name="replication-lag",
        kind="staleness",
        source=REPLICATION_LAG_SOURCE,
        objective=objective,
        threshold=threshold,
        windows=windows,
    )


@dataclass
class _SloState:
    slo: SLO
    state: str = "ok"
    evaluations: int = 0
    last_burn: dict[str, float] = field(default_factory=dict)


class SloEngine:
    """Burn-rate evaluation + alert state machine for one registry process.

    Event recording costs nothing while no SLO is defined (``active`` is the
    instrumentation guard); with SLOs defined, events append to bounded ring
    series and :meth:`evaluate` — called after every TimeHits sweep by the
    experiment harness, or on demand — advances the alert states.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock or PerfClock()
        #: event history (own bounded store, shares the engine clock)
        self.events = TimeSeriesStore(self.clock, enabled=True)
        self._slos: dict[str, _SloState] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self.timeline: deque[dict[str, Any]] = deque(maxlen=TIMELINE_CAPACITY)
        self.transitions = 0

    # -- definition ------------------------------------------------------------

    @property
    def active(self) -> bool:
        """The hot-path guard: False while no SLO is defined."""
        return bool(self._slos)

    def add(self, slo: SLO) -> None:
        self._slos[slo.name] = _SloState(slo)

    def remove(self, name: str) -> bool:
        return self._slos.pop(name, None) is not None

    def slos(self) -> list[SLO]:
        return [self._slos[name].slo for name in sorted(self._slos)]

    def register_gauge(self, source: str, fn: Callable[[], float]) -> None:
        """Register the condition callable a ``staleness`` SLO reads."""
        self._gauges[source] = fn

    def unregister_gauge(self, source: str) -> None:
        self._gauges.pop(source, None)

    # -- event intake ----------------------------------------------------------

    def record_event(self, source: str, *, ok: bool, latency: float | None = None) -> None:
        """Account one good/bad event (and its latency, for latency SLOs)."""
        self.events.record(f"{source}.ok" if ok else f"{source}.err", 1.0)
        if latency is not None:
            self.events.record(f"{source}.latency", latency)

    # -- evaluation ------------------------------------------------------------

    def _bad_fraction(self, slo: SLO, since: float) -> float:
        if slo.kind == "availability":
            good = len(self.events.series(f"{slo.source}.ok").window(since))
            bad = len(self.events.series(f"{slo.source}.err").window(since))
            total = good + bad
            return bad / total if total else 0.0
        if slo.kind == "latency":
            values = self.events.series(f"{slo.source}.latency").values(since)
            if not values:
                return 0.0
            assert slo.threshold is not None
            slow = sum(1 for v in values if v > slo.threshold)
            return slow / len(values)
        # staleness: a point-in-time condition, identical across windows
        gauge = self._gauges.get(slo.source)
        if gauge is None:
            return 0.0
        assert slo.threshold is not None
        return 1.0 if gauge() > slo.threshold else 0.0

    def burn_rates(self, slo: SLO, *, now: float | None = None) -> dict[str, float]:
        """Burn rate per window: bad fraction over the error budget."""
        now = self.clock.now() if now is None else now
        return {
            f"{int(window)}s": self._bad_fraction(slo, now - window) / slo.error_budget
            for window in slo.windows
        }

    @staticmethod
    def _state_for(slo: SLO, burns: dict[str, float]) -> str:
        lowest = min(burns.values())
        if lowest >= slo.page_burn:
            return "page"
        if lowest >= slo.warning_burn:
            return "warning"
        return "ok"

    def evaluate(self, now: float | None = None) -> dict[str, str]:
        """Advance every SLO's alert state; record transitions on the timeline."""
        now = self.clock.now() if now is None else now
        states: dict[str, str] = {}
        for name in sorted(self._slos):
            tracked = self._slos[name]
            burns = self.burn_rates(tracked.slo, now=now)
            state = self._state_for(tracked.slo, burns)
            tracked.evaluations += 1
            tracked.last_burn = burns
            if state != tracked.state:
                self.transitions += 1
                self.timeline.append(
                    {
                        "t": now,
                        "slo": name,
                        "from": tracked.state,
                        "to": state,
                        "burn": dict(burns),
                    }
                )
                tracked.state = state
            states[name] = state
        return states

    # -- surfaces --------------------------------------------------------------

    def states(self) -> dict[str, str]:
        return {name: self._slos[name].state for name in sorted(self._slos)}

    def worst_state(self) -> str:
        """The most severe current state across all SLOs (``ok`` when none)."""
        worst = 0
        for tracked in self._slos.values():
            worst = max(worst, STATES.index(tracked.state))
        return STATES[worst]

    def snapshot(self) -> dict[str, Any]:
        """The telemetry snapshot surface: definitions, states, timeline."""
        return {
            "active": self.active,
            "transitions": self.transitions,
            "slos": {
                name: {
                    "kind": tracked.slo.kind,
                    "source": tracked.slo.source,
                    "objective": tracked.slo.objective,
                    "threshold": tracked.slo.threshold,
                    "state": tracked.state,
                    "evaluations": tracked.evaluations,
                    "burn": dict(tracked.last_burn),
                }
                for name, tracked in sorted(self._slos.items())
            },
            "timeline": list(self.timeline),
        }
