"""Answer checks, kept independent of the code they check.

* :func:`prefer_order` — a small reference of the thesis' PREFER rule over
  the benchmark's own published specs and the NodeStatus readings it
  recorded: hosts whose latest sample satisfies the service's constraints
  come first, by ascending load (publisher order on ties), then the rest in
  publisher order; an unconstrained service, or one outside its time
  window, keeps publisher order.
* :class:`BrowseOracle` — rows from ``QueryEngine(store, planner=False)``
  (the registry's scan path, which bypasses plan cache and result views)
  and ``serialize`` of the stored object for each follow-up lookup.
* :func:`store_matches_replay` — the live store against a fresh store
  rebuilt from the changelog.
"""

from __future__ import annotations

from repro.persistence import DataStore
from repro.query.evaluator import QueryEngine
from repro.soap.serializer import serialize


def window_open(window: tuple[int, int] | None, minute: int) -> bool:
    if window is None:
        return True
    start, end = window
    if start <= end:
        return start <= minute <= end
    return minute >= start or minute <= end


def satisfies(spec, reading) -> bool:
    if reading is None:
        return False
    if spec.load_max is not None and not reading.cpu_load < spec.load_max:
        return False
    if spec.memory_min is not None and not reading.memory_available > spec.memory_min:
        return False
    return True


def prefer_order(spec, bindings, samples: dict, minute: int) -> list[str]:
    """Expected access URIs for one discovery, per the PREFER rule.

    *bindings* is ``[(binding id, host, uri)]`` in publisher order and
    *samples* maps host → the reading its latest sweep stored.
    """
    publisher = [uri for _, _, uri in bindings]
    if not spec.constrained or not window_open(spec.window, minute):
        return publisher
    ranked = sorted(
        (samples[host].cpu_load, position, uri)
        for position, (_, host, uri) in enumerate(bindings)
        if satisfies(spec, samples.get(host))
    )
    preferred = [uri for _, _, uri in ranked]
    chosen = set(preferred)
    return preferred + [uri for uri in publisher if uri not in chosen]


class BrowseOracle:
    """Expected rows and objects for the browse workload's queries."""

    def __init__(self, store) -> None:
        self.store = store
        self.scan = QueryEngine(store, planner=False)
        self._rows: dict[str, list[str]] = {}
        self._objects: dict[str, dict] = {}

    def ids(self, query: str) -> list[str]:
        ids = self._rows.get(query)
        if ids is None:
            ids = self._rows[query] = [row["id"] for row in self.scan.execute(query)]
        return ids

    def serialized(self, object_id: str) -> dict | None:
        data = self._objects.get(object_id)
        if data is None:
            stored = self.store.get_object(object_id)
            if stored is None:
                return None
            data = self._objects[object_id] = serialize(stored)
        return data

    def check(self, query: str, objects: list) -> bool:
        """The follow-up objects of one find, in row order, equal the store's."""
        if [obj.id for obj in objects] != self.ids(query):
            return False
        return all(serialize(obj) == self.serialized(obj.id) for obj in objects)


def store_matches_replay(store) -> bool:
    """The live heap equals one rebuilt by replaying its changelog."""
    rebuilt = DataStore()
    store.changelog.replay_into(rebuilt)
    live_ids = sorted(store.all_ids())
    if live_ids != sorted(rebuilt.all_ids()):
        return False
    return all(
        serialize(rebuilt.get_object(object_id)) == serialize(store.get_object(object_id))
        for object_id in live_ids
    )
