"""The registry's persistent store: object heap + relational tables + transactions.

freebXML persists ebRIM objects through ``SQLPersistenceManagerImpl`` over
JDBC; here a :class:`DataStore` provides the same contract in memory:

* an **object heap** keyed by registry-object id, partitioned by type so the
  SQL-92 engine can treat each ebRIM class as a virtual table;
* named relational :class:`~repro.persistence.table.Table` instances for the
  genuinely tabular state (``NodeState``, repository items);
* per-request **transactions** with commit/rollback, giving the ACID-at-
  request-granularity behaviour the registry needs.

Discovery fast path: the heap keeps two incrementally-maintained secondary
indexes per type — a sorted id list (so ``objects_of_type`` never re-sorts)
and a name index with a sorted key list (so exact-name and prefix lookups
stop scanning the partition).  Read paths that can tolerate aliasing opt
into **views** (``get_view`` / ``iter_views_of_type`` / ``find_views_by_name``)
which return the stored instances without the per-object ``copy()``; views
are read-only by contract — all writes still go through
``insert_object``/``save_object``/``delete_object`` copy-on-write.

Concurrency model (the serving core's substrate):

* **single writer lock** — every mutator runs under :attr:`_lock`; writers
  never block readers and readers never take the lock;
* **atomically published index generations** — all iterable index state
  lives in one immutable :class:`HeapIndexes` value.  Writers build new
  (partition-level copy-on-write) containers and publish them with a single
  attribute store, so a reader that captured ``self._indexes`` sees one
  self-consistent generation end to end: no list resized mid-iteration, no
  "set changed size", no mixed-generation id lists;
* **stored-object immutability** — the heap never mutates a stored instance
  in place (``save_object`` stores a fresh copy), so any object a reader
  holds is internally consistent forever;
* **pinned snapshots** — :meth:`pin_snapshot` returns a
  :class:`HeapSnapshot` whose index generation is frozen and whose replaced/
  deleted objects are preserved by writers into a per-snapshot pre-image
  overlay (copy-on-write *to the past*).  Iterating a pinned snapshot is
  repeatable and torn-free while it stays pinned, at zero cost to readers
  and O(active pins) cost to the rare write.

Unpinned reads are lock-free and see the latest committed state; they are
individually consistent (each call runs over one published generation) but
two successive calls may span a write.  Multi-step read transactions pin.

The :class:`~repro.persistence.changelog.ChangeLog` is the store's only
change feed: no consumer code runs under the writer lock.  Caches layered
above the store either pull the log (the materialized views, replication
links) or validate against :attr:`DataStore.version`, which bumps on every
write and on every rollback (the monitor's target list).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.persistence.changelog import (
    OP_DELETE,
    OP_INSERT,
    OP_RESET,
    OP_SAVE,
    ChangeLog,
)
from repro.persistence.table import Row, Table
from repro.rim.base import RegistryObject
from repro.util.errors import (
    InvalidRequestError,
    ObjectExistsError,
    ObjectNotFoundError,
)

_EMPTY_IDS: frozenset[str] = frozenset()


@dataclass(frozen=True)
class HeapIndexes:
    """One atomically-published generation of the heap's index state.

    Every container reachable from an instance is immutable (or replaced,
    never mutated, by writers), so readers capture ``store._indexes`` once
    and iterate without locks or torn state.
    """

    version: int
    #: type name → ids of that type (membership probes)
    by_type: dict[str, frozenset[str]]
    #: type name → ids in sorted order (ordered partition scans)
    sorted_ids: dict[str, tuple[str, ...]]
    #: type name → name value → ids (exact-name lookups)
    by_name: dict[str, dict[str, frozenset[str]]]
    #: type name → distinct name values in sorted order (prefix range scans)
    sorted_names: dict[str, tuple[str, ...]]


def _tuple_insert(values: tuple[str, ...], value: str) -> tuple[str, ...]:
    pos = bisect_left(values, value)
    return values[:pos] + (value,) + values[pos:]


def _tuple_remove(values: tuple[str, ...], value: str) -> tuple[str, ...]:
    pos = bisect_left(values, value)
    if pos < len(values) and values[pos] == value:
        return values[:pos] + values[pos + 1 :]
    return values


class HeapSnapshot:
    """A pinned, immutable point-in-time view of the object heap.

    While pinned, writers preserve the pre-image of every object they
    replace or delete into this snapshot's overlay, so index-driven reads
    (``objects_of_type``, ``find_views_by_name``, …) always resolve exactly
    the objects of the pinned generation — repeatably, with no torn state.

    One documented relaxation: a *point* lookup (:meth:`get_view`) of an id
    that did not exist at pin time may observe an object inserted later
    (the flat heap map is shared, not copied).  Index-driven iteration never
    does — post-pin inserts are absent from the pinned index generation.

    Use as a context manager (or call :meth:`release`); reads after release
    lose the pre-image guarantee.
    """

    __slots__ = ("_store", "_indexes", "_objects", "_overlay", "released")

    def __init__(self, store: "DataStore") -> None:
        self._store = store
        self._indexes: HeapIndexes = store._indexes
        self._objects = store._objects
        #: object id → pre-image, filled by writers while this pin is live
        self._overlay: dict[str, RegistryObject] = {}
        self.released = False

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        """Unpin: writers stop preserving pre-images for this snapshot."""
        if not self.released:
            self.released = True
            self._store._unpin(self)

    def __enter__(self) -> "HeapSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    # -- reads ---------------------------------------------------------------

    @property
    def version(self) -> int:
        return self._indexes.version

    def get_view(self, object_id: str) -> RegistryObject | None:
        """The object as of the pinned generation (read-only, no copy)."""
        obj = self._overlay.get(object_id)
        if obj is None:
            obj = self._objects.get(object_id)
        return obj

    def contains(self, object_id: str) -> bool:
        """Membership *as of the pinned generation* (index-driven)."""
        obj = self.get_view(object_id)
        if obj is None:
            return False
        return object_id in self._indexes.by_type.get(obj.type_name, _EMPTY_IDS)

    def type_names(self) -> list[str]:
        return sorted(
            name for name, ids in self._indexes.by_type.items() if ids
        )

    def ids_of_type(self, type_name: str) -> tuple[str, ...]:
        return self._indexes.sorted_ids.get(type_name, ())

    def iter_views_of_type(self, type_name: str) -> Iterator[RegistryObject]:
        """Pinned-generation objects of one class in id order (no copies)."""
        for object_id in self._indexes.sorted_ids.get(type_name, ()):
            obj = self.get_view(object_id)
            if obj is not None:
                yield obj

    def objects_of_type(self, type_name: str) -> list[RegistryObject]:
        return [o.copy() for o in self.iter_views_of_type(type_name)]

    def find_ids_by_name(self, type_name: str, name: str) -> list[str]:
        bucket = self._indexes.by_name.get(type_name, {}).get(name)
        return sorted(bucket) if bucket else []

    def find_views_by_name(self, type_name: str, name: str) -> list[RegistryObject]:
        out = []
        for object_id in self.find_ids_by_name(type_name, name):
            obj = self.get_view(object_id)
            if obj is not None:
                out.append(obj)
        return out

    def count(self, type_name: str | None = None) -> int:
        if type_name is None:
            return sum(len(ids) for ids in self._indexes.by_type.values())
        return len(self._indexes.by_type.get(type_name, ()))


class _BatchState:
    """Writer-lock-private accumulator for one write-behind batch.

    Holds the batch's live index builders (ops accumulate into them; one
    publish at batch exit) and the pending change records, coalesced by
    object id so a burst that touches the same object N times flushes one
    record: the post-image of the last write, the pre-image of the first.
    """

    __slots__ = ("builders", "idempotency_key", "depth", "ops", "pending")

    def __init__(self, builders: tuple, idempotency_key: str | None) -> None:
        self.builders = builders
        self.idempotency_key = idempotency_key
        self.depth = 1
        self.ops = 0
        #: object id → (op, type_name, payload, previous), insertion-ordered
        self.pending: dict[str, tuple] = {}

    def record(self, op, type_name, object_id, payload, previous) -> None:
        self.ops += 1
        prev = self.pending.get(object_id)
        if prev is None:
            self.pending[object_id] = (op, type_name, payload, previous)
            return
        prev_op, _, _, first_previous = prev
        if prev_op == OP_INSERT:
            if op == OP_DELETE:
                # inserted and deleted in one batch: never visible outside it
                del self.pending[object_id]
            else:  # insert + save keeps insert, with the newest payload
                self.pending[object_id] = (OP_INSERT, type_name, payload, None)
        elif prev_op == OP_SAVE:
            # save+save → save; save+delete → delete (first pre-image kept)
            self.pending[object_id] = (op, type_name, payload, first_previous)
        else:  # delete then re-insert: net effect is a replace
            self.pending[object_id] = (OP_SAVE, type_name, payload, first_previous)


class DataStore:
    """In-memory persistence for one registry instance."""

    def __init__(self) -> None:
        #: id → stored object.  Mutated only by writers (single-key atomic
        #: operations); stored instances are never modified in place, and
        #: pre-images of replaced/deleted entries go to pinned snapshots.
        self._objects: dict[str, RegistryObject] = {}
        #: the atomically-published immutable index generation
        self._indexes = HeapIndexes(
            version=0, by_type={}, sorted_ids={}, by_name={}, sorted_names={}
        )
        self._tables: dict[str, Table] = {}
        #: the single writer lock (re-entrant: transactions nest mutators)
        self._lock = threading.RLock()
        self._pins: list[HeapSnapshot] = []
        self._txn_depth = 0
        self._txn_table_snapshots: dict[str, dict[Any, Row]] | None = None
        #: the write spine: every committed heap mutation appends a record
        self.changelog = ChangeLog()
        #: change records buffered by an open transaction (flushed on the
        #: outermost commit, dropped — and replaced by a barrier — on rollback)
        self._txn_changes: list[tuple] = []
        #: the active write-behind batch, if any (see :meth:`batch`)
        self._batch: _BatchState | None = None
        # concurrency counters (the serving core's telemetry surface)
        self.writes = 0
        self.batched_writes = 0
        self.coalesced_writes = 0
        self.write_lock_contended = 0
        self.snapshots_pinned = 0
        self.preimages_preserved = 0
        #: monotonic heap-write counter, a plain-attribute mirror of
        #: ``_indexes.version`` (kept in sync by ``_publish`` under the
        #: writer lock) — caches validate against it on every discovery
        #: query, so it must cost one attribute read, not a property call
        self.version = 0

    # -- relational tables ---------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: list[str],
        *,
        primary_key: str,
        indexes: list[str] | None = None,
    ) -> Table:
        with self._write():
            if name in self._tables:
                raise InvalidRequestError(f"table already exists: {name!r}")
            table = Table(name, columns, primary_key=primary_key, indexes=indexes or ())
            self._tables[name] = table
            return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise ObjectNotFoundError(name, f"no such table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    # -- write lock ------------------------------------------------------------

    @contextmanager
    def _write(self) -> Iterator[None]:
        """Acquire the writer lock, counting contended acquisitions."""
        if not self._lock.acquire(blocking=False):
            self.write_lock_contended += 1
            self._lock.acquire()
        try:
            yield
        finally:
            self._lock.release()

    # -- snapshot pinning ------------------------------------------------------

    def pin_snapshot(self) -> HeapSnapshot:
        """Pin the current generation for torn-free multi-step reads.

        Pinning takes the writer lock briefly (registration must not race a
        concurrent publication); all reads through the returned snapshot are
        then lock-free.  Release promptly — writers pay O(active pins) per
        replaced/deleted object.
        """
        with self._write():
            snapshot = HeapSnapshot(self)
            self._pins.append(snapshot)
            self.snapshots_pinned += 1
            return snapshot

    def _unpin(self, snapshot: HeapSnapshot) -> None:
        with self._write():
            if snapshot in self._pins:
                self._pins.remove(snapshot)

    def _preserve(self, object_id: str, old: RegistryObject) -> None:
        """Record a pre-image into every live pinned snapshot (writer-side)."""
        for snapshot in self._pins:
            if object_id not in snapshot._overlay:
                snapshot._overlay[object_id] = old
                self.preimages_preserved += 1

    def concurrency_stats(self) -> dict[str, int]:
        """Writer-lock / snapshot counters (the telemetry surface)."""
        return {
            "version": self.version,
            "writes": self.writes,
            "write_lock_contended": self.write_lock_contended,
            "snapshots_pinned": self.snapshots_pinned,
            "active_pins": len(self._pins),
            "preimages_preserved": self.preimages_preserved,
        }

    # -- index publication (writer-side, under the lock) -----------------------

    def _publish(
        self,
        by_type: dict[str, frozenset[str]],
        sorted_ids: dict[str, tuple[str, ...]],
        by_name: dict[str, dict[str, frozenset[str]]],
        sorted_names: dict[str, tuple[str, ...]],
    ) -> None:
        self._indexes = HeapIndexes(
            version=self._indexes.version + 1,
            by_type=by_type,
            sorted_ids=sorted_ids,
            by_name=by_name,
            sorted_names=sorted_names,
        )
        self.version = self._indexes.version

    def _builders(self):
        """Shallow outer-dict copies of the current generation's indexes."""
        idx = self._indexes
        return (
            dict(idx.by_type),
            dict(idx.sorted_ids),
            dict(idx.by_name),
            dict(idx.sorted_names),
        )

    def _active_builders(self):
        """The batch's accumulating builders, or fresh per-op copies."""
        state = self._batch
        if state is not None:
            return state.builders
        return self._builders()

    # -- write spine (changelog + write-behind batching) -----------------------

    def _commit_write(self, op, type_name, object_id, payload, previous, builders):
        """Finish one mutator: publish + log, or defer to the batch."""
        state = self._batch
        if state is not None:
            state.record(op, type_name, object_id, payload, previous)
            return
        self._publish(*builders)
        self._log_change(op, type_name, object_id, payload, previous, None)
        self.writes += 1

    def _log_change(self, op, type_name, object_id, payload, previous, key) -> None:
        """Append one record — via the transaction buffer when one is open."""
        if self._txn_depth > 0:
            self._txn_changes.append(
                (op, type_name, object_id, payload, previous, key)
            )
            return
        self.changelog.append(
            op,
            type_name=type_name,
            object_id=object_id,
            payload=payload,
            previous=previous,
            version=self.version,
            idempotency_key=key,
        )

    def _flush_txn_changes(self) -> None:
        """Outermost commit: move buffered records onto the changelog."""
        version = self.version
        for op, type_name, object_id, payload, previous, key in self._txn_changes:
            self.changelog.append(
                op,
                type_name=type_name,
                object_id=object_id,
                payload=payload,
                previous=previous,
                version=version,
                idempotency_key=key,
            )
        self._txn_changes.clear()

    @contextmanager
    def batch(self, *, idempotency_key: str | None = None) -> Iterator["DataStore"]:
        """Write-behind a burst of mutations: one publish, coalesced records.

        Inside the batch every mutator updates the heap map immediately
        (point reads stay exact) but accumulates its index changes into one
        builder set and its change record into a per-object coalescing
        buffer.  Batch exit publishes a *single* new index generation — one
        version bump for N ops, so version-keyed caches re-key once — then
        flushes the coalesced records.

        Index-driven readers during the batch see the pre-batch generation
        over the live heap: post-batch inserts are invisible to them and
        deleted ids resolve to nothing (the usual skip), exactly the
        anomaly-free subset MVCC readers already tolerate between
        generations.  The writer lock is held for the whole batch; nested
        batches join the outermost one.  ``idempotency_key`` stamps every
        record the batch flushes.
        """
        with self._write():
            state = self._batch
            if state is not None:
                state.depth += 1
                try:
                    yield self
                finally:
                    state.depth -= 1
                return
            state = _BatchState(self._builders(), idempotency_key)
            self._batch = state
            try:
                yield self
            finally:
                # flush even on error: the heap map already mutated, so the
                # indexes and records must match it.  An enclosing failed
                # transaction rolls the whole thing back afterwards.
                self._batch = None
                self._flush_batch(state)

    def _flush_batch(self, state: _BatchState) -> None:
        if state.ops == 0:
            return
        self._publish(*state.builders)
        self.batched_writes += state.ops
        self.coalesced_writes += state.ops - len(state.pending)
        key = state.idempotency_key
        for object_id, (op, type_name, payload, previous) in state.pending.items():
            self._log_change(op, type_name, object_id, payload, previous, key)
        self.writes += len(state.pending)

    def write_stats(self) -> dict[str, Any]:
        """The write-spine telemetry surface: changelog + batching counters."""
        log = self.changelog
        batched = self.batched_writes
        coalesced = self.coalesced_writes
        return {
            "changelog_records": len(log),
            "last_seq": log.last_seq,
            "resets": log.resets,
            "version": self.version,
            "writes": self.writes,
            "batched_writes": batched,
            "coalesced_writes": coalesced,
            "coalesce_ratio": (coalesced / batched) if batched else 0.0,
        }

    @staticmethod
    def _builder_add(
        by_type, sorted_ids, by_name, sorted_names, type_name: str, name: str, oid: str
    ) -> None:
        by_type[type_name] = by_type.get(type_name, _EMPTY_IDS) | {oid}
        sorted_ids[type_name] = _tuple_insert(sorted_ids.get(type_name, ()), oid)
        buckets = dict(by_name.get(type_name, {}))
        bucket = buckets.get(name)
        if bucket is None:
            buckets[name] = frozenset((oid,))
            sorted_names[type_name] = _tuple_insert(
                sorted_names.get(type_name, ()), name
            )
        else:
            buckets[name] = bucket | {oid}
        by_name[type_name] = buckets

    @staticmethod
    def _builder_remove(
        by_type, sorted_ids, by_name, sorted_names, type_name: str, name: str, oid: str
    ) -> None:
        by_type[type_name] = by_type.get(type_name, _EMPTY_IDS) - {oid}
        sorted_ids[type_name] = _tuple_remove(sorted_ids.get(type_name, ()), oid)
        buckets = dict(by_name.get(type_name, {}))
        bucket = buckets.get(name)
        if bucket is not None:
            bucket = bucket - {oid}
            if bucket:
                buckets[name] = bucket
            else:
                del buckets[name]
                sorted_names[type_name] = _tuple_remove(
                    sorted_names.get(type_name, ()), name
                )
        by_name[type_name] = buckets

    def _rebuilt_indexes(self) -> None:
        """Recompute and publish every index from the live heap (rollback)."""
        by_type: dict[str, frozenset[str]] = {}
        sorted_ids: dict[str, tuple[str, ...]] = {}
        by_name: dict[str, dict[str, frozenset[str]]] = {}
        sorted_names: dict[str, tuple[str, ...]] = {}
        grouped: dict[str, list[RegistryObject]] = {}
        for obj in self._objects.values():
            grouped.setdefault(obj.type_name, []).append(obj)
        for type_name, objs in grouped.items():
            objs.sort(key=lambda o: o.id)
            by_type[type_name] = frozenset(o.id for o in objs)
            sorted_ids[type_name] = tuple(o.id for o in objs)
            names: dict[str, set[str]] = {}
            for obj in objs:
                names.setdefault(obj.name.value, set()).add(obj.id)
            by_name[type_name] = {n: frozenset(ids) for n, ids in names.items()}
            sorted_names[type_name] = tuple(sorted(names))
        self._publish(by_type, sorted_ids, by_name, sorted_names)

    # -- object heap ---------------------------------------------------------

    def insert_object(self, obj: RegistryObject) -> None:
        with self._write():
            if obj.id in self._objects:
                raise ObjectExistsError(obj.id)
            stored = obj.copy()
            builders = self._active_builders()
            self._builder_add(
                *builders, stored.type_name, stored.name.value, stored.id
            )
            self._objects[obj.id] = stored
            self._commit_write(
                OP_INSERT, stored.type_name, stored.id, stored, None, builders
            )

    def save_object(self, obj: RegistryObject) -> None:
        """Insert-or-replace; type changes for an existing id are rejected."""
        with self._write():
            existing = self._objects.get(obj.id)
            if existing is not None and type(existing) is not type(obj):
                raise InvalidRequestError(
                    f"object {obj.id} cannot change type "
                    f"{existing.type_name} → {obj.type_name}"
                )
            stored = obj.copy()
            builders = self._active_builders()
            if existing is not None:
                # id and type are unchanged; only the name index may move.
                old_name = existing.name.value
                new_name = stored.name.value
                if old_name != new_name:
                    self._builder_remove(
                        *builders, stored.type_name, old_name, stored.id
                    )
                    self._builder_add(
                        *builders, stored.type_name, new_name, stored.id
                    )
                self._preserve(obj.id, existing)
            else:
                self._builder_add(
                    *builders, stored.type_name, stored.name.value, stored.id
                )
            self._objects[obj.id] = stored
            op = OP_SAVE if existing is not None else OP_INSERT
            self._commit_write(
                op, stored.type_name, stored.id, stored, existing, builders
            )

    def get_object(self, object_id: str) -> RegistryObject | None:
        obj = self._objects.get(object_id)
        return obj.copy() if obj is not None else None

    def get_view(self, object_id: str) -> RegistryObject | None:
        """The stored instance itself — read-only by contract, no copy.

        Callers must not mutate the returned object; writes go through
        :meth:`save_object`.  This is the discovery hot path's accessor.
        """
        return self._objects.get(object_id)

    def require_object(self, object_id: str) -> RegistryObject:
        obj = self.get_object(object_id)
        if obj is None:
            raise ObjectNotFoundError(object_id)
        return obj

    def delete_object(self, object_id: str) -> None:
        with self._write():
            obj = self._objects.get(object_id)
            if obj is None:
                raise ObjectNotFoundError(object_id)
            builders = self._active_builders()
            self._builder_remove(
                *builders, obj.type_name, obj.name.value, obj.id
            )
            self._preserve(object_id, obj)
            del self._objects[object_id]
            self._commit_write(
                OP_DELETE, obj.type_name, object_id, None, obj, builders
            )

    def contains(self, object_id: str) -> bool:
        return object_id in self._objects

    def objects_of_type(self, type_name: str) -> list[RegistryObject]:
        """All stored objects of one ebRIM class (copies), in id order."""
        objects = self._objects
        out = []
        for object_id in self._indexes.sorted_ids.get(type_name, ()):
            obj = objects.get(object_id)
            if obj is not None:
                out.append(obj.copy())
        return out

    def iter_views_of_type(self, type_name: str) -> Iterator[RegistryObject]:
        """Stored objects of one class in id order — read-only, no copies."""
        objects = self._objects
        for object_id in self._indexes.sorted_ids.get(type_name, ()):
            obj = objects.get(object_id)
            if obj is not None:
                yield obj

    def select_objects(
        self,
        type_name: str,
        predicate: Callable[[RegistryObject], bool] | None = None,
    ) -> list[RegistryObject]:
        if predicate is None:
            return self.objects_of_type(type_name)
        # evaluate the predicate on the stored instances, copy only matches
        return [o.copy() for o in self.iter_views_of_type(type_name) if predicate(o)]

    # -- name lookups (index-backed) -----------------------------------------

    def find_ids_by_name(self, type_name: str, name: str) -> list[str]:
        """Ids of objects of *type_name* whose name equals *name* (sorted)."""
        bucket = self._indexes.by_name.get(type_name, {}).get(name)
        return sorted(bucket) if bucket else []

    def find_by_name(self, type_name: str, name: str) -> list[RegistryObject]:
        return [
            obj.copy()
            for i in self.find_ids_by_name(type_name, name)
            if (obj := self._objects.get(i)) is not None
        ]

    def find_views_by_name(self, type_name: str, name: str) -> list[RegistryObject]:
        """Read-only variant of :meth:`find_by_name` (no copies)."""
        return [
            obj
            for i in self.find_ids_by_name(type_name, name)
            if (obj := self._objects.get(i)) is not None
        ]

    def find_ids_by_names(self, type_name: str, names: Iterable[str]) -> list[str]:
        """Ids of objects of *type_name* whose name is any of *names* (sorted).

        The query planner's ``name IN (...)`` probe: one bucket lookup per
        name instead of a partition scan.
        """
        buckets = self._indexes.by_name.get(type_name)
        if not buckets:
            return []
        out: set[str] = set()
        for name in names:
            bucket = buckets.get(name)
            if bucket:
                out |= bucket
        return sorted(out)

    def filter_ids_of_type(
        self, type_name: str, candidate_ids: Iterable[str]
    ) -> list[str]:
        """The subset of *candidate_ids* stored under *type_name* (sorted).

        The query planner's id-equality / ``id IN (...)`` probe: set
        intersection against the type partition, never a scan.
        """
        bucket = self._indexes.by_type.get(type_name)
        if not bucket:
            return []
        return sorted(bucket.intersection(candidate_ids))

    def find_ids_by_name_prefix(self, type_name: str, prefix: str) -> list[str]:
        """Ids of objects whose name starts with *prefix*, via a range scan."""
        idx = self._indexes
        keys = idx.sorted_names.get(type_name, ())
        names = idx.by_name.get(type_name, {})
        out: list[str] = []
        for pos in range(bisect_left(keys, prefix), len(keys)):
            key = keys[pos]
            if not key.startswith(prefix):
                break
            out.extend(names.get(key, ()))
        return sorted(out)

    def find_by_name_prefix(self, type_name: str, prefix: str) -> list[RegistryObject]:
        return [
            obj.copy()
            for i in self.find_ids_by_name_prefix(type_name, prefix)
            if (obj := self._objects.get(i)) is not None
        ]

    def all_ids(self) -> list[str]:
        # derived from the published generation, not the mutable heap map,
        # so the result is one consistent membership list
        out: list[str] = []
        for ids in self._indexes.sorted_ids.values():
            out.extend(ids)
        out.sort()
        return out

    def count(self, type_name: str | None = None) -> int:
        if type_name is None:
            return len(self._objects)
        return len(self._indexes.by_type.get(type_name, ()))

    def type_names(self) -> list[str]:
        return sorted(
            name for name, ids in self._indexes.by_type.items() if ids
        )

    # -- transactions ----------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator["DataStore"]:
        """Commit on success, roll back object heap *and* tables on error.

        Nested transactions join the outermost one (savepoints are not
        needed by the registry's request granularity).  The writer lock is
        held for the whole transaction — writers serialize, readers keep
        reading published generations (including the transaction's own
        intermediate publications, exactly as before).

        Rollback is record-driven: the buffered change records carry the
        pre-image of every heap object the transaction touched, so undo
        replays them in reverse instead of snapshotting the whole heap up
        front — entering a transaction costs O(tables), not O(heap).

        Nesting discipline: a transaction may contain a batch (the write
        scope's ``transaction() → batch()`` ordering — batch exit routes its
        coalesced records into the transaction buffer), but opening a
        transaction *inside* a batch that no transaction encloses is
        rejected: the batch would swallow the change records into its
        pending buffer, leaving rollback with no pre-images to replay.
        """
        with self._write():
            if self._batch is not None and self._txn_depth == 0:
                raise InvalidRequestError(
                    "cannot open a transaction inside an active batch: "
                    "batched change records bypass the transaction buffer, "
                    "so rollback could not undo them — open the transaction "
                    "first (transaction() then batch())"
                )
            if self._txn_depth == 0:
                self._txn_table_snapshots = {
                    name: table.snapshot() for name, table in self._tables.items()
                }
            self._txn_depth += 1
            try:
                yield self
            except BaseException:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._rollback()
                raise
            else:
                self._txn_depth -= 1
                if self._txn_depth == 0:
                    self._txn_table_snapshots = None
                    self._flush_txn_changes()

    def _rollback(self) -> None:
        assert self._txn_table_snapshots is not None
        # undo from the buffered records' pre-images, newest first: the
        # earliest pre-image of a multiply-touched object lands last.  The
        # restored map replaces the heap wholesale, abandoning the
        # transaction's map to any snapshot pinned before/within it — their
        # reads keep resolving against it (plus overlays), untouched.
        # Stored instances are immutable by contract, so restoring the
        # pre-image references (no copies) is safe.
        restored = dict(self._objects)
        for _op, _type_name, object_id, _payload, previous, _key in reversed(
            self._txn_changes
        ):
            if previous is not None:  # a save or delete: put the old one back
                restored[object_id] = previous
            else:  # an insert: the object did not exist before
                restored.pop(object_id, None)
        self._objects = restored
        self._rebuilt_indexes()
        for name, snapshot in self._txn_table_snapshots.items():
            if name in self._tables:
                self._tables[name].restore(snapshot)
        self._txn_table_snapshots = None
        # buffered records die with the transaction; the barrier tells views
        # that entries filled from its intermediate generations are invalid
        self._txn_changes.clear()
        self.changelog.append(OP_RESET, version=self.version)
        self.writes += 1
