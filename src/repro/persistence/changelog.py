"""Append-only changelog — the registry's single write spine.

Every committed heap mutation (insert/save/delete) appends one typed
:class:`ChangeRecord` carrying a monotonic sequence number, the affected
object id and type, the post-image (and pre-image, when one exists), the
published index generation, and the idempotency key of the lifecycle
request that produced it.  The log is the source of truth that the
materialized discovery views (:mod:`repro.persistence.views`) key their
incremental invalidation on, and the replication spine a federated
registry would ship to peers.

Ordering contract (enforced by :class:`~repro.persistence.datastore.DataStore`
under its writer lock): the heap mutation happens first, then the index
generation is published, then the record is appended.  A reader that
observes record *N* therefore always sees a heap at least as new as *N* —
views can catch up to a sequence number and fill from the live heap
without ever caching data older than their applied watermark.

Transactions buffer their records and flush on the outermost commit; a
rollback drops the buffer and appends a ``"reset"`` barrier instead, so
views know that entries filled from the transaction's intermediate
(published, then rolled back) generations must be discarded wholesale.
Replay skips barriers: every record that precedes one was itself
committed, so the log replays to exactly the committed state.

Appends happen only under the store's writer lock and run no foreign
code; readers slice the backing list without locking (list append is
atomic under CPython, and records are immutable once appended).  The log
is pull-only — consumers (views, replication links) compare their own
watermark against :attr:`ChangeLog.last_seq` and read
:meth:`ChangeLog.records_since` — so it is the store's single change feed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.persistence.datastore import DataStore
    from repro.rim.base import RegistryObject

#: record operations: three heap mutations plus the rollback barrier
OP_INSERT = "insert"
OP_SAVE = "save"
OP_DELETE = "delete"
OP_RESET = "reset"


@dataclass(frozen=True)
class ChangeRecord:
    """One committed heap mutation (or a rollback barrier).

    ``payload`` is the stored post-image — safe to hold by reference, the
    heap never mutates a stored instance in place — and is ``None`` for
    deletes and barriers.  ``previous`` is the pre-image a save replaced
    or a delete removed (``None`` for inserts and barriers); views use it
    to invalidate entries keyed off the *old* object state (e.g. a
    binding re-pointed to a different service).
    """

    seq: int
    op: str
    type_name: str | None
    object_id: str | None
    payload: "RegistryObject | None"
    previous: "RegistryObject | None"
    version: int
    idempotency_key: str | None = None


class ChangeLog:
    """The append-only record list behind one :class:`DataStore`."""

    def __init__(self) -> None:
        self._records: list[ChangeRecord] = []
        self.resets = 0

    # -- append (writer-side, under the store's writer lock) -------------------

    def append(
        self,
        op: str,
        *,
        type_name: str | None = None,
        object_id: str | None = None,
        payload: "RegistryObject | None" = None,
        previous: "RegistryObject | None" = None,
        version: int = 0,
        idempotency_key: str | None = None,
    ) -> ChangeRecord:
        record = ChangeRecord(
            seq=len(self._records) + 1,
            op=op,
            type_name=type_name,
            object_id=object_id,
            payload=payload,
            previous=previous,
            version=version,
            idempotency_key=idempotency_key,
        )
        self._records.append(record)
        if op == OP_RESET:
            self.resets += 1
        return record

    # -- reads (lock-free) -----------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 when empty)."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def records_since(self, seq: int) -> Sequence[ChangeRecord]:
        """Every record with a sequence number greater than *seq*, in order."""
        return self._records[seq:]

    def tail(self, count: int) -> Sequence[ChangeRecord]:
        return self._records[-count:] if count > 0 else []

    def iter_batches(
        self, since: int = 0, *, batch_size: int = 100
    ) -> Iterator[Sequence[ChangeRecord]]:
        """Yield the records after *since* in contiguous batches.

        Replication consumers pull the tail in bounded chunks; any batch
        size partitions the same record sequence, so replaying the batches
        in order is equivalent to one bulk :meth:`records_since` replay.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        position = since
        while position < len(self._records):
            batch = self._records[position : position + batch_size]
            position += len(batch)
            yield batch

    def stats(self) -> dict[str, int]:
        return {
            "records": len(self._records),
            "resets": self.resets,
        }

    # -- replay ----------------------------------------------------------------

    def replay_into(self, store: "DataStore") -> int:
        """Rebuild *store* by replaying every committed record, in order.

        Barriers are skipped — records surrounding one were all committed,
        so the replayed heap lands on exactly the state the source store
        holds.  Returns the number of records applied.  The target must be
        empty of conflicting ids (a fresh store, typically).
        """
        applied = 0
        for record in list(self._records):
            if record.op == OP_RESET:
                continue
            if record.op == OP_INSERT:
                store.insert_object(record.payload)
            elif record.op == OP_SAVE:
                store.save_object(record.payload)
            elif record.op == OP_DELETE:
                store.delete_object(record.object_id)
            else:  # pragma: no cover - appends validate ops
                raise ValueError(f"unknown changelog op: {record.op!r}")
            applied += 1
        return applied
