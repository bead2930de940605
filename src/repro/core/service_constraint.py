"""ServiceConstraint — constraint validation at discovery time (thesis §3.2).

Figure 3.5's collaboration: *"A ServiceConstraint instance validates Web
Service constraints that are part of the service description field …
ServiceConstraint returns false if no valid service constraints are
specified or if the time constraint is not satisfied."*

:meth:`ServiceConstraint.check` reproduces exactly that contract: it parses
the service description leniently (malformed → treated as absent) and
returns the active :class:`ConstraintSet` only when performance constraints
exist *and* the time window (if any) contains "now"; otherwise ``None``,
which tells ServiceDAO to fall back to vanilla behaviour.

Fast path: parses are memoized in a bounded LRU keyed on the description
text, so steady-state discovery does **zero** XML parsing.  Content keys
need no invalidation — a republished description is a different key and
never serves a stale parse — and the bound caps memory however many
descriptions a long-lived instance sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.core.constraints import ConstraintSet, parse_constraints
from repro.rim import Service
from repro.util.clock import Clock

#: parse-cache bound: distinct description texts kept per instance (well
#: above the service counts the benches publish, so discovery never evicts)
PARSE_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of validating one service's constraints at query time."""

    constraints: ConstraintSet | None
    #: parsed constraints were found in the description
    present: bool
    #: the time window (if any) contains the query time
    time_satisfied: bool

    @property
    def active(self) -> bool:
        """True when performance filtering should happen (the thesis' True path)."""
        return (
            self.present
            and self.time_satisfied
            and self.constraints is not None
            and self.constraints.has_performance_constraints()
        )


class ServiceConstraint:
    """Validates a service's embedded constraints against the current time.

    Thread-safe without locks: the parse cache is a per-instance
    ``functools.lru_cache`` over :func:`parse_constraints`, and parsed
    :class:`ConstraintSet` values are frozen, so one parse is safely shared
    by every service (and thread) presenting the same description.
    """

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._parse = lru_cache(maxsize=PARSE_CACHE_SIZE)(parse_constraints)

    # -- cache ---------------------------------------------------------------

    def constraints_of(self, service: Service) -> ConstraintSet | None:
        """The service's parsed constraint block, memoized by content."""
        return self._parse(service.description.value)

    def cache_stats(self) -> dict[str, int]:
        """Parse-cache counters (the telemetry surface)."""
        info = self._parse.cache_info()
        return {"hits": info.hits, "misses": info.misses, "entries": info.currsize}

    # -- validation ----------------------------------------------------------

    def check(self, service: Service) -> ConstraintCheck:
        constraints = self.constraints_of(service)
        if constraints is None:
            return ConstraintCheck(constraints=None, present=False, time_satisfied=True)
        time_ok = constraints.time_satisfied(self.clock.minutes_of_day())
        return ConstraintCheck(
            constraints=constraints, present=True, time_satisfied=time_ok
        )

    def validate(self, service: Service) -> bool:
        """The thesis' boolean contract: constraints valid *and* time satisfied."""
        return self.check(service).active
