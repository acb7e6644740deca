"""Futures + implicit pipelining for the DB interface layer (redpipe-style).

The explicit :class:`~repro.clients.base.GDPRPipeline` contract batches
whole round-trips, but callers must hand-build the batches.  This module
adds the coalescing layer on top of that contract:

* :class:`ResultFuture` — the value every pipeline queueing method now
  returns.  A future resolves when its batch executes, carries its own
  slot's error (per-slot isolation) and runs ``.then()`` callbacks in
  slot order after the batch completes.
* :class:`AutoPipe` — the *implicit* pipeline: a per-thread context in
  which **bare client calls** on the batchable surface enqueue onto one
  shared pipeline and return futures, so straight-line code coalesces
  into the existing group-commit / scatter-gather machinery without
  hand-built batches.  A background drain runs whatever has queued up
  as one batch whenever the wire is idle, so the batch size follows the
  arrival rate: one operation per round-trip at low load, up to
  ``max_batch`` at saturation.
* :func:`autopipelined` — the class decorator both engine stubs apply so
  their public operation methods consult the active autopipe.

Nothing here changes what crosses the wire: an autopipe flush calls the
same ``GDPRPipeline`` execute path an explicit batch uses, so results
are byte-identical to the equivalent hand-built batch, and with no
autopipe active every wrapped method is a single ``if`` away from the
paper's one-call-one-round-trip semantics.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import threading
from typing import Callable

from repro.common.errors import GDPRError

__all__ = [
    "AutoPipe",
    "BATCHABLE_METHODS",
    "CancelledFutureError",
    "ORDERED_METHODS",
    "ResultFuture",
    "autopipelined",
]


log = logging.getLogger(__name__)


class CancelledFutureError(GDPRError):
    """Reading a future whose queued operation was cancelled before flush."""


#: client/pipeline method names that enqueue under an active autopipe —
#: exactly the batchable surface, and the queueing methods share the
#: client methods' names and signatures, so interception is a getattr.
BATCHABLE_METHODS = (
    "ycsb_read", "ycsb_update", "ycsb_insert",
    "read_data_by_key", "read_data_by_pur", "read_data_by_usr",
    "read_data_by_obj", "read_data_by_dec",
    "read_metadata_by_key", "read_metadata_by_usr",
    "delete_record_by_ttl",
    "update_metadata_by_key", "update_metadata_by_pur",
    "update_metadata_by_usr", "update_metadata_by_shr",
)

#: client methods that cannot join a batch but must observe queue order:
#: they flush the pending implicit pipeline, then run directly (inside
#: the passthrough guard, so their internal client calls never re-enter
#: the autopipe — ``ycsb_read_modify_write`` calls ``ycsb_read``).
ORDERED_METHODS = (
    "create_record", "delete_record_by_key", "delete_record_by_pur",
    "delete_record_by_usr", "update_data_by_key", "read_metadata_by_shr",
    "ycsb_scan", "ycsb_read_modify_write", "verify_deletion",
    "get_system_logs", "load_records",
    "personal_data_bytes", "total_db_bytes", "record_count",
    "close",
)


_guard = threading.local()


class passthrough:
    """Thread-local re-entrancy guard: while a pipeline batch executes
    (or an ordered method runs), client calls made *by* that execution
    must hit the engine directly, never re-enqueue onto the autopipe."""

    def __enter__(self):
        _guard.depth = getattr(_guard, "depth", 0) + 1
        return self

    def __exit__(self, *exc) -> None:
        _guard.depth -= 1


def in_passthrough() -> bool:
    return getattr(_guard, "depth", 0) > 0


_PENDING = "pending"
_RESOLVED = "resolved"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: guards the two lazily created members of a pending future, its wait
#: event and its callback list.  An explicit pipeline settles its futures
#: on the thread that queued them and most are never waited on or given
#: a callback, so allocating an ``Event`` (a Lock plus a Condition) or
#: taking a lock per future would tax every pipelined operation to serve
#: the cross-thread case.  Instead the slow paths (``result`` blocking,
#: ``then`` registering) take this lock, and the settling thread
#: publishes the state *before* it reads ``_event`` / ``_callbacks``: a
#: waiter or registrant that got in before that read is seen by it, and
#: one that lost the race re-checks the already-published state.
_lazy_lock = threading.Lock()


class ResultFuture:
    """One queued operation's eventual response slot.

    Lifecycle: *pending* from queueing until its pipeline flushes, then
    *resolved* (value available) or *failed* (that slot's captured
    error); *cancelled* if the caller withdrew the operation before the
    flush.  Resolution happens for every slot of a batch before any
    ``.then`` callback runs, and callbacks fire in slot order — exactly
    the order ``execute()`` returns responses in.

    ``result()`` on a pending future runs its flush hook when one is
    attached (explicit pipelines attach their own
    ``execute``-without-raise).  With no hook — a future of an
    :class:`AutoPipe` whose background drain is already on its way — it
    waits up to ``timeout`` seconds to be settled, then raises
    :class:`TimeoutError`.

    Awaiting a future (``await fut``) first yields one event-loop tick,
    so sibling coroutines get to enqueue *their* calls before the first
    reader triggers the flush — that tick is what coalesces concurrent
    straight-line tasks into one wire round-trip.

    Futures may be settled by another thread than the one that reads,
    chains or cancels them (an autopipe's flusher): ``then`` never
    loses a callback to a concurrent settle, and ``cancel`` either
    withdraws the slot or returns False, never both.
    """

    __slots__ = ("_state", "_value", "_error", "_event", "_callbacks",
                 "_flush_hook", "_pipeline")

    def __init__(self, pipeline=None, flush_hook: Callable | None = None) -> None:
        self._state = _PENDING
        self._value = None
        self._error: BaseException | None = None
        self._event: threading.Event | None = None   # lazy; see _lazy_lock
        self._callbacks: list[tuple[Callable, Callable | None]] | None = None  # lazy
        self._flush_hook = flush_hook
        self._pipeline = pipeline  # whoever holds our slot (``_withdraw``)

    # -- state ---------------------------------------------------------

    @property
    def pending(self) -> bool:
        return self._state == _PENDING

    @property
    def resolved(self) -> bool:
        return self._state == _RESOLVED

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def error(self) -> BaseException | None:
        """The captured per-slot failure, or ``None`` unless :attr:`failed`."""
        return self._error if self._state == _FAILED else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultFuture {self._state}>"

    # -- settling (called by the owning pipeline) ----------------------

    def _settle(self, response) -> None:
        """Fill this slot from the executed batch (no callbacks yet)."""
        if isinstance(response, BaseException):
            self._error = response
            state = _FAILED
        else:
            self._value = response
            state = _RESOLVED
        self._pipeline = None  # the slot left the queue; cancel is over
        self._state = state    # publish before the event read below
        event = self._event
        if event is not None:
            event.set()

    def _fire_callbacks(self) -> None:
        """Run queued callbacks, after every slot of the batch settled."""
        callbacks = self._callbacks
        if callbacks is None:
            return
        with _lazy_lock:
            taken = callbacks[:]
            del callbacks[:]
        for on_value, on_error in taken:
            self._dispatch(on_value, on_error)

    def _dispatch(self, on_value: Callable, on_error: Callable | None) -> None:
        if self._state == _RESOLVED:
            on_value(self._value)
        elif self._state == _FAILED and on_error is not None:
            on_error(self._error)

    # -- caller surface ------------------------------------------------

    def result(self, timeout: float | None = None):
        """The slot's response; flushes the pipeline if still pending."""
        if self._state == _PENDING and self._flush_hook is not None:
            self._flush_hook()
        if self._state == _PENDING:
            with _lazy_lock:
                if self._event is None:
                    self._event = threading.Event()
                event = self._event
            if self._state == _PENDING and not event.wait(timeout):
                raise TimeoutError(
                    "unflushed ResultFuture: no flush hook and nothing "
                    f"resolved it within {timeout}s"
                )
        if self._state == _CANCELLED:
            raise CancelledFutureError("operation was cancelled before flush")
        if self._state == _FAILED:
            raise self._error
        return self._value

    def then(self, on_value: Callable, on_error: Callable | None = None) -> "ResultFuture":
        """Run ``on_value(value)`` when this slot resolves (``on_error``
        on its captured exception).  Fires immediately if already
        settled; otherwise fires after the whole batch resolves, in
        slot order."""
        if self._state == _PENDING:
            entry = (on_value, on_error)
            with _lazy_lock:
                if self._callbacks is None:
                    self._callbacks = []
                self._callbacks.append(entry)
            if self._state == _PENDING:
                return self  # registered before the settle published
            # Settled while registering: the settling thread may or may
            # not have seen the entry — whoever removes it fires it.
            with _lazy_lock:
                try:
                    self._callbacks.remove(entry)
                except ValueError:
                    return self
        self._dispatch(on_value, on_error)
        return self

    def cancel(self) -> bool:
        """Withdraw the queued operation before its batch flushes.

        Returns True when the slot was removed from the pending queue
        (``result()`` then raises :class:`CancelledFutureError`); False
        once the batch has started executing or already settled."""
        pipeline = self._pipeline  # read once: a settle clears it
        if self._state != _PENDING or pipeline is None:
            return False
        if not pipeline._withdraw(self):
            return False
        self._pipeline = None
        self._state = _CANCELLED
        event = self._event
        if event is not None:
            event.set()
        return True

    def __await__(self):
        if self._state == _PENDING and self._flush_hook is not None:
            # one tick of grace: let sibling coroutines enqueue first
            yield from asyncio.sleep(0).__await__()
        return self.result()


# ---------------------------------------------------------------------------
# The implicit pipeline
# ---------------------------------------------------------------------------


class AutoPipe:
    """A per-thread implicit pipeline over one client.

    Entered as a context manager (``with client.autopipe() as ap:``);
    inside, bare calls on the batchable surface enqueue and return
    :class:`ResultFuture` objects.  Two things make queued operations run:

    * **drain when idle** — the context's flusher thread, whenever no
      batch is on the wire and the queue is non-empty, takes *everything
      queued so far* and runs it as one batch.  A batch is whatever
      arrived while the previous one was out: a lone operation leaves at
      once, and under load batches grow towards ``max_batch`` unaided.
      Entered on a running ``asyncio`` loop's thread there is no
      flusher: a ``call_soon`` tick after a batch's first enqueue drives
      the same drain, so concurrent tasks' calls share one round-trip.
    * **the barrier** — :meth:`flush` returns once everything enqueued
      before it has settled.  Ordered (non-batchable) client methods run
      it first, to observe queue order, and so does context exit.

    ``max_batch`` bounds the pending queue: ``enqueue`` blocks while that
    many operations wait (``blocked_enqueues`` counts it), slowing the
    issuer to what the engine absorbs instead of queueing without limit.

    Futures settle, and ``.then()`` callbacks run, on the flusher thread
    (the loop thread under asyncio); a callback must not wait on this
    autopipe.  Only the entering thread may enqueue or run the barrier.
    A nested ``autopipe()`` context *is* the outer one (nested explicit
    pipelines merge into their root the same way); its exit is a barrier.
    """

    def __init__(self, client, max_batch: int = 128) -> None:
        if max_batch < 1:
            raise GDPRError("autopipe max_batch must be >= 1")
        self._client = client
        self.max_batch = max_batch
        self._pipe = None
        self._outer: AutoPipe | None = None
        #: guards the queue and every field below; a batch's wire
        #: exchange runs outside it (see :meth:`_drain`)
        self._lock = threading.Condition(threading.Lock())
        self._flusher: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tick_scheduled = False
        self._busy = False    # the flusher has a batch on the wire
        self._closing = False
        self._failure: Exception | None = None  # for the next barrier
        #: telemetry: wire round-trips, the operations they carried, the
        #: deepest the queue got, enqueues that found it full, and
        #: batches by size (keyed by the power of two at or below it)
        self.flushes = self.ops = self.max_pending = self.blocked_enqueues = 0
        self.batch_sizes: dict[int, int] = {}

    def __enter__(self) -> "AutoPipe":
        local = self._client._autopipe_local
        self._outer = getattr(local, "current", None)
        if self._outer is not None:
            return self._outer
        self._pipe = self._client.pipeline()
        if self._pipe is None:
            raise GDPRError(
                f"engine {self._client.engine_name!r} has no pipeline; "
                "autopipe needs one to coalesce into"
            )
        self._closing = False
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            self._loop = None
            self._flusher = threading.Thread(
                target=self._drain_until_closed, name="autopipe-flusher", daemon=True)
            self._flusher.start()
        local.current = self
        return self

    def __exit__(self, *exc) -> None:
        if self._outer is not None:
            self._outer.flush()
            return
        try:
            self.flush()
        finally:
            with self._lock:
                self._closing = True
                flusher = self._flusher
                self._lock.notify_all()
            if flusher is not None:
                flusher.join()
            self._client._autopipe_local.current = None

    def enqueue(self, name: str, args: tuple, kwargs: dict) -> ResultFuture:
        """Queue one batchable client call; called by the method wrappers.
        Blocks while ``max_batch`` operations are already pending."""
        pipe = self._pipe
        with self._lock:
            if len(pipe) >= self.max_batch:
                self.blocked_enqueues += 1
                while len(pipe) >= self.max_batch:
                    self._advance()
            fut = getattr(pipe, name)(*args, **kwargs)
            fut._pipeline = self  # cancel() withdraws under our lock
            # a read waits for the drain already on its way; only with
            # no flusher (a loop-driven pipe) must the reader run it
            fut._flush_hook = self.flush if self._flusher is None else None
            self.max_pending = max(self.max_pending, len(pipe))
            if self._flusher is not None:
                self._lock.notify()
            elif self._loop is not None and not self._tick_scheduled:
                self._tick_scheduled = True
                self._loop.call_soon(self._tick)
        return fut

    def _withdraw(self, future: ResultFuture) -> bool:
        """:meth:`ResultFuture.cancel`'s hook: atomic against the drain's take."""
        with self._lock:
            self._lock.notify_all()  # a blocked enqueue may have room again
            return self._pipe._withdraw(future)

    def flush(self) -> None:
        """The barrier: return once everything enqueued so far has settled.

        Errors stay per slot on the futures, so one poisoned slot cannot
        break a caller's read of a healthy one; only a batch-level failure
        (transport loss) since the last barrier is raised here.
        """
        with self._lock:
            while self._busy or len(self._pipe):
                self._advance()
            failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def _advance(self) -> None:
        """Lock held, the drain must move: wait for the flusher, or be
        the driver where there is none."""
        if self._flusher is not None:
            self._lock.wait()
        else:
            self._drain()

    def _tick(self) -> None:
        with self._lock:
            self._tick_scheduled = False
            self._drain()

    def _drain(self) -> None:
        """Run everything queued so far as one batch (one wire round-trip).

        Called with the lock held; like ``Condition.wait`` it drops the
        lock for the exchange, so the issuer queues the next batch while
        this one is out.  A batch-level failure is not raised: ``_run``
        failed every slot with it, and the next barrier reports it.
        """
        ops, futures = self._pipe._take()
        if not ops:
            return
        self._busy = self._flusher is not None  # else the caller is the driver
        self._lock.notify_all()  # a blocked enqueue has room again
        self._lock.release()
        failure = None
        try:
            self._pipe._run(ops, futures, raise_errors=False)
        except Exception as exc:
            log.warning("autopipe batch of %d operations failed", len(ops),
                        exc_info=True)
            failure = exc
        finally:
            self._lock.acquire()
            self._busy = False
            self._failure = self._failure or failure
            self.flushes += 1
            self.ops += len(ops)
            bucket = 1 << (len(ops).bit_length() - 1)
            self.batch_sizes[bucket] = self.batch_sizes.get(bucket, 0) + 1
            self._lock.notify_all()  # the barrier may be waiting

    def _drain_until_closed(self) -> None:
        """The flusher thread: drain whenever idle and non-empty."""
        log.debug("autopipe flusher started (max_batch=%d)", self.max_batch)
        with self._lock:
            try:
                while len(self._pipe) or not self._closing:
                    if len(self._pipe):
                        self._drain()
                    else:
                        self._lock.wait()
            finally:  # should the thread die, waiters drive the drain
                self._flusher = None
                self._lock.notify_all()
        log.debug("autopipe flusher stopped after %d batches", self.flushes)


def _active_autopipe(client) -> AutoPipe | None:
    if in_passthrough():
        return None
    return getattr(client._autopipe_local, "current", None)


def _wrap_batchable(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        auto = _active_autopipe(self)
        if auto is None:
            return method(self, *args, **kwargs)
        return auto.enqueue(method.__name__, args, kwargs)
    return wrapper


def _wrap_ordered(method):
    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        auto = _active_autopipe(self)
        if auto is None:
            return method(self, *args, **kwargs)
        auto.flush()
        with passthrough():
            return method(self, *args, **kwargs)
    return wrapper


def autopipelined(cls):
    """Class decorator arming a client stub's methods for autopipe mode.

    Batchable methods enqueue-and-return-futures when an autopipe is
    active on the calling thread; ordered methods flush the pending
    batch first and then run directly.  With no autopipe active every
    wrapper is a single thread-local check — the paper's per-call
    semantics are untouched.
    """
    for name in BATCHABLE_METHODS:
        setattr(cls, name, _wrap_batchable(getattr(cls, name)))
    for name in ORDERED_METHODS:
        setattr(cls, name, _wrap_ordered(getattr(cls, name)))
    return cls
