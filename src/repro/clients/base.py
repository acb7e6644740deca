"""DB interface layer: the abstract GDPR client every engine stub implements.

GDPRbench's architecture (Figure 2b) puts a storage-interface layer between
the workload executor and the database: one client stub per system that
translates generic operations into engine APIs.  This module defines that
generic operation surface:

* the 21 GDPR queries of Section 3.3 (each takes the issuing
  :class:`~repro.gdpr.acl.Principal`, because the paper enforces
  metadata-based access control in the client);
* the 5 YCSB primitives (read/update/insert/scan/read-modify-write) used
  for the traditional-workload baselines;
* the space-accounting hooks behind the Table 3 metric.

Feature switches are uniform across engines via :class:`FeatureSet`, so a
benchmark can say "encryption + logging" without knowing which engine it
drives.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import GDPRError
from repro.gdpr.acl import AccessController, Principal
from repro.gdpr.compliance import ComplianceReport, evaluate_features
from repro.gdpr.record import PersonalRecord, parse_ttl

from .futures import AutoPipe, ResultFuture, passthrough

#: Scalar vs list-valued metadata attributes (wire names).
LIST_ATTRIBUTES = ("PUR", "OBJ", "DEC", "SHR")
SCALAR_ATTRIBUTES = ("TTL", "USR", "SRC")


@dataclass
class FeatureSet:
    """Which GDPR retrofits are active on a deployment (Section 5)."""

    encryption: bool = False        # LUKS at rest + TLS in transit
    timely_deletion: bool = False   # strict TTL (minikv) / sweeper (minisql)
    monitoring: bool = False        # audit logging incl. reads
    access_control: bool = True     # client-side metadata ACL
    metadata_indexing: bool = False # secondary indices (minisql only)

    @classmethod
    def none(cls) -> "FeatureSet":
        """Baseline: no GDPR features (the paper's stock configurations)."""
        return cls(access_control=False)

    @classmethod
    def full(cls, metadata_indexing: bool = False) -> "FeatureSet":
        """All features on — the 'Combined' bars of Figure 4."""
        return cls(
            encryption=True,
            timely_deletion=True,
            monitoring=True,
            access_control=True,
            metadata_indexing=metadata_indexing,
        )

    def as_dict(self) -> dict:
        return {
            "encryption": self.encryption,
            "timely_deletion": self.timely_deletion,
            "monitoring": self.monitoring,
            "access_control": self.access_control,
            "metadata_indexing": self.metadata_indexing,
        }


def normalise_attribute(attribute: str, value):
    """Canonicalise an UPDATE-METADATA value for its attribute.

    List attributes take a tuple of strings (a single string becomes a
    one-element tuple); TTL takes seconds (or a ``365days`` string);
    USR/SRC take a plain string.
    """
    attribute = attribute.upper()
    if attribute in LIST_ATTRIBUTES:
        if isinstance(value, str):
            value = (value,) if value else ()
        return tuple(value)
    if attribute == "TTL":
        if isinstance(value, str):
            return parse_ttl(value)
        return float(value)
    if attribute in SCALAR_ATTRIBUTES:
        if not isinstance(value, str):
            raise GDPRError(f"{attribute} expects a string, got {value!r}")
        return value
    raise GDPRError(f"unknown metadata attribute {attribute!r}")


#: pipeline op kinds that only read (batch lock planning / snapshot reads)
PIPELINE_READ_KINDS = frozenset({
    "read",
    "read-data-by-key", "read-data-by-pur", "read-data-by-usr",
    "read-data-by-obj", "read-data-by-dec",
    "read-metadata-by-key", "read-metadata-by-usr",
})

#: pipeline op kinds that mutate state
PIPELINE_WRITE_KINDS = frozenset({
    "update", "insert",
    "delete-record-by-ttl",
    "update-metadata-by-key", "update-metadata-by-pur",
    "update-metadata-by-usr", "update-metadata-by-shr",
})


class GDPRPipeline(ABC):
    """Engine-agnostic client command batch (the pipeline contract).

    GDPRbench's storage-interface layer gains one batching abstraction
    shared by every engine stub: queueing methods mirror the client
    primitives but only enqueue, each returning a
    :class:`~repro.clients.futures.ResultFuture` that resolves when the
    batch executes, and :meth:`execute` runs the whole batch as **one
    engine round-trip** — one serialised request and one serialised
    response crossing the (possibly TLS) wire, one engine-side lock
    scope, and one persistence group commit.  Responses come back in
    queue order, shaped exactly as the unbatched primitive would have
    returned them; each queued operation's future resolves to its own
    slot (or carries its slot's captured error), and ``.then()``
    callbacks fire in slot order after the batch completes.

    :meth:`pipeline` opens a **nested pipeline** that auto-merges into
    this one: code handed a nested view queues onto the shared root
    queue, its ``execute()`` costs nothing, and the single root
    ``execute()`` is the one wire round-trip that resolves every
    future — composable batching without composing round-trips.

    The batchable surface covers the YCSB primitives *and* the hot GDPR
    queries: the ``read-data-by-*`` family, ``read-metadata-by-key/usr``,
    ``delete-record-by-ttl``, and the ``update-metadata-by-*`` group —
    the operations the four GDPRbench workloads issue in bulk.  GDPR
    queueing methods carry the issuing principal, exactly like their
    single-shot counterparts, and access control is still checked per
    operation at execute time.

    Error semantics follow Redis pipelining: a failing command does not
    stop the batch — every queued command executes, failures are captured
    per slot (on the slot's future), and ``execute()`` raises the first
    captured error after the batch completes.  The queue is always
    drained by ``execute()``, even on failure, so a pipeline object is
    reusable.

    The queueing half is concrete — every engine batches the same
    ``(kind, key, payload)`` triples — so a stub only implements
    :meth:`_run_ops`; draining, future resolution, and the
    first-error-raise live here in the template :meth:`execute`.

    **Implementor contract.**  Every ``_run_ops()`` implementation
    receives the already-drained batch and must uphold, in order:

    1. *One round-trip.*  The whole batch crosses the client<->engine
       boundary as one serialised request and one serialised response
       (per shard, for sharded engines) — never one exchange per
       operation.  Point operations should additionally coalesce into
       the engine's native batching (engine pipelines / one
       transaction), amortising lock scopes and persistence flushes.
    2. *Flush points around multi-record ops.*  An operation that
       cannot join the engine-native batch (a SCAN-shaped query, a
       purge) must first flush the pending point-op run so that
       operations observe each other in queue order.
    3. *Slot-shaped responses.*  Return ``(responses, errors)``:
       one response per queued operation, in queue order, shaped
       exactly as the unbatched client primitive would have returned
       it.
    4. *Per-slot error capture.*  A failing operation — including an
       access-control denial — fills its own slot with the exception
       instance (and appends it to ``errors``) and never stops the
       rest of the batch; ``_run_ops`` itself raises only on
       batch-level failure (transport loss), never for one bad slot.
       Access control is checked per operation at execute time with
       the principal queued alongside the operation.
    5. *Isolation is engine-scoped, and documented.*  Whatever
       atomicity the engine batch provides (all involved stripes locked;
       one transaction; per-shard only) is the batch's isolation — the
       contract does not add cross-batch or cross-shard guarantees, so
       each implementation documents what its engine gives.
    """

    def __init__(self, parent: "GDPRPipeline | None" = None) -> None:
        self._parent = parent
        self._root: GDPRPipeline = parent._root if parent is not None else self
        #: queued (kind, key, payload) triples — root pipeline only
        self._ops: list[tuple[str, str, object]] = []
        #: the pending future for each queued triple — root only, in step
        self._futures: list[ResultFuture] = []
        #: futures queued through THIS view (what a nested execute returns)
        self._issued: list[ResultFuture] = []

    def __len__(self) -> int:
        """Commands currently queued (through this view, when nested)."""
        if self._root is self:
            return len(self._ops)
        return sum(1 for future in self._issued if future.pending)

    def pipeline(self) -> "GDPRPipeline":
        """A nested pipeline that auto-merges into this one.

        The nested view queues onto the shared root queue; its
        ``execute()`` performs **no** round-trip (it just hands back the
        futures issued through the view) — the root's ``execute()`` is
        the single wire exchange that resolves everything queued through
        any view of the batch.
        """
        return type(self)(self._client, parent=self)

    def _append(self, kind: str, key: str, payload) -> ResultFuture:
        """Queue one triple on the root; returns its pending future."""
        root = self._root
        future = ResultFuture(pipeline=root, flush_hook=root._resolve)
        root._ops.append((kind, key, payload))
        root._futures.append(future)
        if root is not self:
            self._issued.append(future)
        return future

    # -- YCSB primitives ----------------------------------------------------

    def ycsb_read(self, key: str, fields: Sequence[str] | None = None) -> ResultFuture:
        """Queue a point read; its slot resolves to a dict or None."""
        return self._append("read", key, fields)

    def ycsb_update(self, key: str, fields: dict) -> ResultFuture:
        """Queue an update; its slot resolves to the changed-row count."""
        return self._append("update", key, fields)

    def ycsb_insert(self, key: str, fields: dict) -> ResultFuture:
        """Queue an insert; its slot resolves to None."""
        return self._append("insert", key, fields)

    # -- GDPR reads ---------------------------------------------------------

    def read_data_by_key(self, principal, key: str) -> ResultFuture:
        """Queue READ-DATA-BY-KEY; its slot is the datum string or None."""
        return self._append("read-data-by-key", key, principal)

    def read_data_by_pur(self, principal, purpose: str) -> ResultFuture:
        """Queue READ-DATA-BY-PUR; its slot is a [(key, data)] list."""
        return self._append("read-data-by-pur", purpose, principal)

    def read_data_by_usr(self, principal, user: str) -> ResultFuture:
        """Queue READ-DATA-BY-USR; its slot is a [(key, data)] list."""
        return self._append("read-data-by-usr", user, principal)

    def read_data_by_obj(self, principal, purpose: str) -> ResultFuture:
        """Queue READ-DATA-BY-OBJ; its slot is a [(key, data)] list."""
        return self._append("read-data-by-obj", purpose, principal)

    def read_data_by_dec(self, principal, decision: str) -> ResultFuture:
        """Queue READ-DATA-BY-DEC; its slot is a [(key, data)] list."""
        return self._append("read-data-by-dec", decision, principal)

    def read_metadata_by_key(self, principal, key: str) -> ResultFuture:
        """Queue READ-METADATA-BY-KEY; its slot is a metadata dict or None."""
        return self._append("read-metadata-by-key", key, principal)

    def read_metadata_by_usr(self, principal, user: str) -> ResultFuture:
        """Queue READ-METADATA-BY-USR; its slot is a [(key, metadata)] list."""
        return self._append("read-metadata-by-usr", user, principal)

    # -- GDPR writes --------------------------------------------------------

    def delete_record_by_ttl(self, principal) -> ResultFuture:
        """Queue DELETE-RECORD-BY-TTL; its slot is the erased-record count."""
        return self._append("delete-record-by-ttl", "", principal)

    def update_metadata_by_key(self, principal, key: str, attribute: str, value) -> ResultFuture:
        """Queue UPDATE-METADATA-BY-KEY; its slot is the changed-row count."""
        return self._append("update-metadata-by-key", key, (principal, attribute, value))

    def update_metadata_by_pur(self, principal, purpose: str, attribute: str, value) -> ResultFuture:
        """Queue UPDATE-METADATA-BY-PUR; its slot is the changed-row count."""
        return self._append("update-metadata-by-pur", purpose, (principal, attribute, value))

    def update_metadata_by_usr(self, principal, user: str, attribute: str, value) -> ResultFuture:
        """Queue UPDATE-METADATA-BY-USR; its slot is the changed-row count."""
        return self._append("update-metadata-by-usr", user, (principal, attribute, value))

    def update_metadata_by_shr(self, principal, third_party: str, attribute: str, value) -> ResultFuture:
        """Queue UPDATE-METADATA-BY-SHR; its slot is the changed-row count."""
        return self._append("update-metadata-by-shr", third_party, (principal, attribute, value))

    def _withdraw(self, future: ResultFuture) -> bool:
        """Remove a still-pending future's slot from the queue (root only);
        the cancellation hook behind :meth:`ResultFuture.cancel`."""
        try:
            index = self._futures.index(future)
        except ValueError:
            return False
        del self._futures[index]
        del self._ops[index]
        return True

    def _resolve(self) -> None:
        """Flush hook handed to every future: run the batch, leaving
        failures per-slot (reading a future raises only its own error)."""
        self._flush(raise_errors=False)

    def execute(self) -> list:
        """Run the batch in one round-trip; responses in queue order.

        On a nested view this performs no round-trip: it returns the
        futures issued through the view, which resolve when the root
        executes.  On the root it returns the raw responses (and raises
        the first per-slot error after the batch completes), exactly as
        the explicit-batch contract always has.
        """
        if self._root is not self:
            issued, self._issued = self._issued, []
            return issued
        return self._flush(raise_errors=True)

    def _flush(self, raise_errors: bool) -> list:
        """Drain + run the batch, settle every future, fire callbacks."""
        return self._run(*self._take(), raise_errors)

    def _take(self) -> tuple[list, list[ResultFuture]]:
        """Detach everything queued (root only).  The only step of a flush
        that touches the queue: an autopipe does it under its lock."""
        ops, self._ops = self._ops, []
        futures, self._futures = self._futures, []
        return ops, futures

    def _run(self, ops: list, futures: list[ResultFuture], raise_errors: bool) -> list:
        """Run a taken batch, settle its futures, fire their callbacks.
        Touches no queue state, so issuers may keep queueing meanwhile."""
        if not ops:
            return []
        try:
            with passthrough():
                responses, errors = self._run_ops(ops)
        except BaseException as exc:
            # A batch-level failure (transport loss, engine shutdown)
            # fails every slot: futures never stay pending after a flush.
            for future in futures:
                future._settle(exc)
            for future in futures:
                future._fire_callbacks()
            raise
        for future, response in zip(futures, responses):
            future._settle(response)
        for future in futures:  # slot order, after the whole batch settled
            future._fire_callbacks()
        if raise_errors and errors:
            raise errors[0]
        return responses

    @abstractmethod
    def _run_ops(self, ops: list[tuple[str, str, object]]) -> tuple[list, list[Exception]]:
        """Run a drained batch in one round-trip (the engine half).

        Returns ``(responses, errors)``: slot-shaped responses in queue
        order — a failing slot holds its exception instance — plus the
        captured errors in occurrence order.  See the class docstring's
        implementor contract.
        """


class GDPRClient(ABC):
    """Abstract client: GDPR queries + YCSB primitives against one engine."""

    #: human-readable engine name ('redis' / 'postgres' analogues)
    engine_name = "abstract"

    #: Operation names the benchmark runtime may route through
    #: :meth:`pipeline`: the YCSB primitives plus the batchable GDPR
    #: query surface.  Subclasses that implement a pipeline leave this
    #: as is; engines without one set it empty (the runtime then runs
    #: every operation singly).
    PIPELINE_OP_NAMES: frozenset[str] = PIPELINE_READ_KINDS | PIPELINE_WRITE_KINDS

    def __init__(self, features: FeatureSet) -> None:
        self.features = features
        self.acl = AccessController(enabled=features.access_control)
        #: per-thread implicit-pipeline context (see clients/futures.py)
        self._autopipe_local = threading.local()

    def pipeline(self) -> GDPRPipeline | None:
        """A client command batch, or None when the engine has no pipeline.

        Both engine stubs override this; the benchmark runtime falls back
        to single-operation execution when it gets None.
        """
        return None

    def autopipe(self, max_batch: int = 128) -> AutoPipe:
        """An implicit pipeline context for this thread (or asyncio task).

        Inside ``with client.autopipe():``, bare calls on the batchable
        operation surface enqueue onto one shared :meth:`pipeline` and
        return :class:`~repro.clients.futures.ResultFuture` objects.  A
        background drain runs whatever is queued as one batch whenever
        the wire is idle (a lone call leaves at once; under load batches
        grow up to ``max_batch``, past which enqueueing blocks), and
        non-batchable operations and context exit first wait for
        everything queued — straight-line code rides the explicit-batch
        machinery without hand-building batches.  Results are
        byte-identical to the equivalent explicit batch.
        """
        return AutoPipe(self, max_batch=max_batch)

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------

    @abstractmethod
    def load_records(self, records: Iterable[PersonalRecord]) -> int:
        """Bulk-load the personal-data table (benchmark load phase)."""

    # ------------------------------------------------------------------
    # CREATE / DELETE
    # ------------------------------------------------------------------

    @abstractmethod
    def create_record(self, principal: Principal, record: PersonalRecord) -> bool:
        """CREATE-RECORD (G 24)."""

    @abstractmethod
    def delete_record_by_key(self, principal: Principal, key: str) -> int:
        """DELETE-RECORD-BY-KEY (G 17); returns records erased."""

    @abstractmethod
    def delete_record_by_pur(self, principal: Principal, purpose: str) -> int:
        """DELETE-RECORD-BY-PUR (G 5(1b))."""

    @abstractmethod
    def delete_record_by_ttl(self, principal: Principal) -> int:
        """DELETE-RECORD-BY-TTL (G 5(1e)): purge everything expired."""

    @abstractmethod
    def delete_record_by_usr(self, principal: Principal, user: str) -> int:
        """DELETE-RECORD-BY-USR (G 17)."""

    # ------------------------------------------------------------------
    # READ-DATA
    # ------------------------------------------------------------------

    @abstractmethod
    def read_data_by_key(self, principal: Principal, key: str) -> str | None:
        """READ-DATA-BY-KEY (G 28)."""

    @abstractmethod
    def read_data_by_pur(self, principal: Principal, purpose: str) -> list:
        """READ-DATA-BY-PUR (G 28): [(key, data)] with the purpose."""

    @abstractmethod
    def read_data_by_usr(self, principal: Principal, user: str) -> list:
        """READ-DATA-BY-USR (G 20): a customer's full data export."""

    @abstractmethod
    def read_data_by_obj(self, principal: Principal, purpose: str) -> list:
        """READ-DATA-BY-OBJ (G 21(3)): records NOT objecting to a usage."""

    @abstractmethod
    def read_data_by_dec(self, principal: Principal, decision: str) -> list:
        """READ-DATA-BY-DEC (G 22): records enrolled in a decision use."""

    # ------------------------------------------------------------------
    # READ-METADATA
    # ------------------------------------------------------------------

    @abstractmethod
    def read_metadata_by_key(self, principal: Principal, key: str) -> dict | None:
        """READ-METADATA-BY-KEY (G 15)."""

    @abstractmethod
    def read_metadata_by_usr(self, principal: Principal, user: str) -> list:
        """READ-METADATA-BY-USR (G 15): [(key, metadata dict)]."""

    @abstractmethod
    def read_metadata_by_shr(self, principal: Principal, third_party: str) -> list:
        """READ-METADATA-BY-SHR (G 13(1))."""

    # ------------------------------------------------------------------
    # UPDATE
    # ------------------------------------------------------------------

    @abstractmethod
    def update_data_by_key(self, principal: Principal, key: str, data: str) -> int:
        """UPDATE-DATA-BY-KEY (G 16): rectification."""

    @abstractmethod
    def update_metadata_by_key(self, principal: Principal, key: str, attribute: str, value) -> int:
        """UPDATE-METADATA-BY-KEY (G 18(1), 7(3), 22(3))."""

    @abstractmethod
    def update_metadata_by_pur(self, principal: Principal, purpose: str, attribute: str, value) -> int:
        """UPDATE-METADATA-BY-PUR (G 13(3))."""

    @abstractmethod
    def update_metadata_by_usr(self, principal: Principal, user: str, attribute: str, value) -> int:
        """UPDATE-METADATA-BY-USR (G 13(3))."""

    @abstractmethod
    def update_metadata_by_shr(self, principal: Principal, third_party: str, attribute: str, value) -> int:
        """UPDATE-METADATA-BY-SHR (G 13(3))."""

    # ------------------------------------------------------------------
    # GET-SYSTEM
    # ------------------------------------------------------------------

    @abstractmethod
    def get_system_logs(self, principal: Principal, start: float | None = None,
                        end: float | None = None, limit: int = 100) -> list:
        """GET-SYSTEM-LOGS (G 33, 34)."""

    def get_system_features(self, principal: Principal) -> ComplianceReport:
        """GET-SYSTEM-FEATURES (G 24, 25)."""
        self.acl.check_operation(principal, "get-system-features")
        return evaluate_features(self.features.as_dict())

    def verify_deletion(self, principal: Principal, key: str) -> bool:
        """VERIFY-DELETION: True when no trace of ``key`` remains."""
        self.acl.check_operation(principal, "verify-deletion")
        return self._record_exists(key) is False

    @abstractmethod
    def _record_exists(self, key: str) -> bool:
        """Engine-side existence probe used by verify_deletion."""

    # ------------------------------------------------------------------
    # YCSB primitives (traditional workloads; no GDPR semantics)
    # ------------------------------------------------------------------

    @abstractmethod
    def ycsb_insert(self, key: str, fields: dict) -> None: ...

    @abstractmethod
    def ycsb_read(self, key: str, fields: Sequence[str] | None = None) -> dict | None: ...

    @abstractmethod
    def ycsb_update(self, key: str, fields: dict) -> int: ...

    @abstractmethod
    def ycsb_scan(self, start_key: str, count: int) -> list: ...

    def ycsb_read_modify_write(self, key: str, fields: dict) -> int:
        existing = self.ycsb_read(key)
        if existing is None:
            return 0
        return self.ycsb_update(key, fields)

    # ------------------------------------------------------------------
    # Space accounting (Table 3)
    # ------------------------------------------------------------------

    @abstractmethod
    def personal_data_bytes(self) -> int:
        """Total bytes of personal data proper (Table 3 denominator)."""

    @abstractmethod
    def total_db_bytes(self) -> int:
        """Total database footprint (Table 3 numerator)."""

    @abstractmethod
    def record_count(self) -> int: ...

    def space_overhead(self) -> float:
        """Table 3's space factor: total DB size / personal data size."""
        personal = self.personal_data_bytes()
        if personal == 0:
            return 0.0
        return self.total_db_bytes() / personal

    # ------------------------------------------------------------------

    @abstractmethod
    def close(self) -> None: ...

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
