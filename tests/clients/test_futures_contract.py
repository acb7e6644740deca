"""The futures contract: resolve-on-execute, callbacks, autopipe.

PR 8's front end changes what queueing methods *return* — a pending
:class:`~repro.clients.futures.ResultFuture` per slot — without changing
what executing a batch *does*.  This suite pins the new surface on every
deployment shape the pipeline contract covers (both engines ×
in-process/sharded/tcp):

* futures resolve on ``execute()`` to exactly the values the unbatched
  single-op methods return;
* per-slot error isolation — a poisoned slot fails its own future and
  nobody else's;
* ``then()`` callbacks fire after the batch settles, in slot order, and
  immediately when attached late;
* nested pipelines auto-merge into their root: one ``execute()`` = one
  wire round-trip for the whole tree;
* ``cancel()`` withdraws an unflushed slot; ``result(timeout)`` on a
  future whose batch is stuck on the wire times out rather than
  deadlocking;
* ``client.autopipe()`` coalesces bare client calls under one policy —
  a background drain runs whatever is queued whenever the wire is
  idle, ``max_batch`` bounds the pending queue, ordered operations and
  context exit are barriers — checked as behaviour (latency, order,
  batch growth, backpressure, no lost callback, no stray thread), not
  as flush counts at particular enqueues.
"""

import asyncio
import contextlib
import logging
import sys
import threading
import time

import pytest

from repro.clients import (
    CancelledFutureError,
    FeatureSet,
    ResultFuture,
    make_client,
)

pytestmark = pytest.mark.deadline(120)

#: (id, engine, client kwargs) — mirrors the pipeline-contract matrix so
#: the futures surface cannot drift between deployment shapes.
CONFIGS = (
    ("redis", "redis", {}),
    ("postgres", "postgres", {}),
    ("redis-sharded", "redis", {"shards": 3}),
    ("postgres-sharded", "postgres", {"shards": 3}),
    ("redis-sharded-tcp", "redis", {"shards": 3, "transport": "tcp"}),
    ("postgres-sharded-tcp", "postgres", {"shards": 3, "transport": "tcp"}),
)
N_ROWS = 20


def _load(client) -> None:
    for i in range(N_ROWS):
        client.ycsb_insert(f"user{i:04d}", {"field0": f"v{i}", "field1": "x"})


@pytest.fixture(params=CONFIGS, ids=[config[0] for config in CONFIGS])
def client(request):
    _, engine, kwargs = request.param
    c = make_client(engine, FeatureSet.none(), **kwargs)
    _load(c)
    yield c
    c.close()


def _poison(client, pipe) -> ResultFuture:
    """Queue an op guaranteed to fail on this engine; return its future."""
    if client.engine_name == "redis":
        # a non-hash value at the YCSB key makes HGETALL blow up
        client.engine.set("user:poison", b"not-a-hash")
        return pipe.ycsb_read("poison")
    # duplicate primary key makes the INSERT blow up
    return pipe.ycsb_insert("user0000", {"field0": "dup", "field1": "dup"})


#: generous bound for "the background drain got to it" waits: the policy
#: promises milliseconds, a loaded CI runner gets seconds before we fail
WAIT_S = 10.0


def _before_run_ops(client, monkeypatch, hook) -> None:
    """Call ``hook(ops)`` on the flushing thread before every batch of
    ``client`` reaches the engine (the wire half of a flush)."""
    pipeline_type = type(client.pipeline())
    original = pipeline_type._run_ops

    def intercepted(self, ops):
        hook(ops)
        return original(self, ops)

    monkeypatch.setattr(pipeline_type, "_run_ops", intercepted)


def _stall_run_ops(client, monkeypatch) -> threading.Event:
    """Hold every batch on the wire until the returned event is set."""
    release = threading.Event()

    def stall(_ops):
        assert release.wait(WAIT_S), "test never released the stalled batch"

    _before_run_ops(client, monkeypatch, stall)
    return release


def _record_batches(client, monkeypatch, delay_s: float = 0.0) -> list:
    """Log the op keys of every batch ``client`` runs, in wire order;
    ``delay_s`` models a slow wire."""
    batches = []

    def record(ops):
        batches.append([key for _kind, key, _payload in ops])
        time.sleep(delay_s)

    _before_run_ops(client, monkeypatch, record)
    return batches


class TestResultFutures:
    def test_resolve_on_execute_matches_unbatched(self, client):
        twin = make_client(client.engine_name, FeatureSet.none())
        try:
            _load(twin)
            expected = [
                twin.ycsb_read("user0003"),
                twin.ycsb_update("user0004", {"field0": "patched"}),
                twin.ycsb_read("user0004"),
            ]
            pipe = client.pipeline()
            futures = [
                pipe.ycsb_read("user0003"),
                pipe.ycsb_update("user0004", {"field0": "patched"}),
                pipe.ycsb_read("user0004"),
            ]
            assert all(f.pending for f in futures)
            responses = pipe.execute()
        finally:
            twin.close()
        assert all(f.resolved for f in futures)
        # the futures and the execute() return are the same slot values
        assert [f.result() for f in futures] == responses
        for got, want in zip(responses, expected):
            if isinstance(want, dict):
                assert {k: got[k] for k in ("field0", "field1")} == \
                       {k: want[k] for k in ("field0", "field1")}
            else:
                assert got == want

    def test_per_slot_error_isolation(self, client):
        pipe = client.pipeline()
        before = pipe.ycsb_update("user0001", {"field0": "pre"})
        bad = _poison(client, pipe)
        after = pipe.ycsb_read("user0002")
        with pytest.raises(Exception):
            pipe.execute()  # first error raised after the batch completes
        # the failure stayed on its own slot; neighbours resolved
        assert before.resolved and after.resolved
        assert after.result()["field0"] == "v2"
        assert bad.failed and isinstance(bad.error, Exception)
        with pytest.raises(type(bad.error)):
            bad.result()

    def test_callbacks_fire_in_slot_order(self, client):
        order = []
        pipe = client.pipeline()
        f1 = pipe.ycsb_read("user0001")
        f2 = pipe.ycsb_read("user0002")
        f2.then(lambda value: order.append(("second", value["field0"])))
        f1.then(lambda value: order.append(("first", value["field0"])))
        assert order == []  # nothing fires before the batch settles
        pipe.execute()
        assert order == [("first", "v1"), ("second", "v2")]
        # a late then() on a settled future fires immediately
        f2.then(lambda value: order.append(("late", value["field0"])))
        assert order[-1] == ("late", "v2")

    def test_error_callback_routes_to_on_error(self, client):
        seen = []
        pipe = client.pipeline()
        bad = _poison(client, pipe)
        bad.then(lambda value: seen.append(("value", value)),
                 lambda error: seen.append(("error", type(error).__name__)))
        with pytest.raises(Exception):
            pipe.execute()
        assert len(seen) == 1 and seen[0][0] == "error"

    def test_nested_pipelines_merge_into_one_round_trip(self, client, monkeypatch):
        twin = make_client(client.engine_name, FeatureSet.none())
        try:
            _load(twin)
            root = client.pipeline()
            batches = []
            original = type(root)._run_ops

            def counting_run_ops(self, ops):
                batches.append(len(ops))
                return original(self, ops)

            monkeypatch.setattr(type(root), "_run_ops", counting_run_ops)
            nested = root.pipeline()
            outer_fut = root.ycsb_read("user0005")
            inner_futs = [
                nested.ycsb_read("user0006"),
                nested.ycsb_update("user0007", {"field0": "inner"}),
            ]
            # a nested execute() drains its own view without a round-trip
            assert nested.execute() == inner_futs
            assert batches == []
            assert all(f.pending for f in inner_futs)
            root.execute()
            # one wire round-trip carried the whole tree, in issue order
            assert batches == [3]
            assert outer_fut.result()["field0"] == twin.ycsb_read("user0005")["field0"]
            assert inner_futs[0].result()["field0"] == "v6"
            assert inner_futs[1].result() == twin.ycsb_update(
                "user0007", {"field0": "inner"}
            )
        finally:
            twin.close()

    def test_cancel_withdraws_an_unflushed_slot(self, client):
        pipe = client.pipeline()
        doomed = pipe.ycsb_update("user0008", {"field0": "never"})
        kept = pipe.ycsb_read("user0009")
        assert doomed.cancel()
        assert len(pipe) == 1
        responses = pipe.execute()
        assert len(responses) == 1
        assert kept.result()["field0"] == "v9"
        assert doomed.cancelled
        with pytest.raises(CancelledFutureError):
            doomed.result()
        # the cancelled write never reached the engine
        assert client.ycsb_read("user0008")["field0"] == "v8"
        # cancelling a settled future is a no-op refusal
        assert not kept.cancel()

    def test_result_timeout_while_the_batch_is_on_the_wire(self, client, monkeypatch):
        release = _stall_run_ops(client, monkeypatch)
        try:
            with client.autopipe():
                fut = client.ycsb_read("user0001")
                # reading does not flush: it waits for the drain under way
                with pytest.raises(TimeoutError):
                    fut.result(timeout=0.05)
                assert fut.pending
                release.set()
                assert fut.result(timeout=WAIT_S)["field0"] == "v1"
        finally:
            release.set()


class TestSettleFromAnotherThread:
    """``then`` against a settle on another thread, at every interleaving
    a line boundary allows — the stress test in :class:`TestAutoPipe`
    only gets lucky, this one steps through them all."""

    @staticmethod
    def _register_with_settle_at(step: int):
        """Call ``then`` while another thread settles + fires the future
        right before ``then``'s ``step``-th line; returns the firings,
        or None once ``then`` has fewer lines than ``step``."""
        future = ResultFuture()
        fired = []
        settler = threading.Thread(
            target=lambda: (future._settle("value"), future._fire_callbacks()))
        lines = [0]

        def tracer(frame, event, _arg):
            if frame.f_code is not ResultFuture.then.__code__:
                return None
            if event == "line":
                lines[0] += 1
                if lines[0] == step:
                    settler.start()
                    # it may block on a lock ``then`` holds right now:
                    # then it finishes after we let ``then`` move on
                    settler.join(timeout=0.05)
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            future.then(fired.append)
        finally:
            sys.settrace(previous)
        if not settler.ident:
            return None
        settler.join(timeout=WAIT_S)
        assert not settler.is_alive()
        return fired

    def test_no_interleaving_loses_or_doubles_a_callback(self):
        step = 1
        while (fired := self._register_with_settle_at(step)) is not None:
            assert fired == ["value"], f"settle before line {step} of then()"
            step += 1
        assert step > 5  # the trace really stepped through then()


class TestAutoPipe:
    def test_a_lone_call_resolves_without_a_read_or_exit(self, client):
        settled = threading.Event()
        with client.autopipe() as auto:
            fut = client.ycsb_read("user0003")
            assert isinstance(fut, ResultFuture)
            fut.then(lambda _value: settled.set(), lambda _exc: settled.set())
            # nobody reads the future and the context stays open: the
            # drain alone must get the operation onto the wire
            assert settled.wait(WAIT_S)
            assert fut.resolved and fut.result()["field0"] == "v3"
            assert (auto.flushes, auto.ops) == (1, 1)

    def test_responses_match_unbatched_in_enqueue_order(self, client, monkeypatch):
        # every read must observe exactly the updates enqueued before it,
        # although the stream is cut into many batches (max_batch=4)
        steps = []
        for i in range(40):
            key = f"user{i % 3:04d}"
            steps.append(("ycsb_update", key, {"field0": f"step{i}"}))
            steps.append(("ycsb_read", key))
        twin = make_client(client.engine_name, FeatureSet.none())
        try:
            _load(twin)
            expected = [getattr(twin, name)(*args) for name, *args in steps]
        finally:
            twin.close()
        batches = _record_batches(client, monkeypatch)
        with client.autopipe(max_batch=4) as auto:
            futures = [getattr(client, name)(*args) for name, *args in steps]
        assert len(batches) == auto.flushes > len(steps) // 4 - 1
        assert max(map(len, batches)) <= 4
        # the wire saw the operations in enqueue order across batches
        assert [key for batch in batches for key in batch] == \
               [args[0] for _name, *args in steps]
        for fut, want in zip(futures, expected):
            got = fut.result()
            if isinstance(want, dict):
                got, want = got["field0"], want["field0"]
            assert got == want

    def test_ordered_operation_is_a_barrier(self, client):
        with client.autopipe():
            fut = client.ycsb_insert("zzz0900", {"field0": "s", "field1": "t"})
            # scan is order-sensitive: it must observe the queued insert
            rows = client.ycsb_scan("zzz0900", 1)
            assert fut.resolved
            assert len(rows) == 1

    def test_exit_is_a_barrier_and_keeps_errors_per_slot(self, client, monkeypatch):
        release = _stall_run_ops(client, monkeypatch)
        threading.Timer(0.05, release.set).start()
        with client.autopipe() as auto:
            ok = client.ycsb_read("user0001")
            if client.engine_name == "redis":
                client.engine.set("user:poison", b"not-a-hash")
                bad = client.ycsb_read("poison")
            else:
                bad = client.ycsb_insert("user0000", {"field0": "dup", "field1": "dup"})
            after = client.ycsb_read("user0002")
            assert ok.pending  # the wire is stalled; exit must wait it out
        # exit settled everything without raising the slot's error
        assert ok.result()["field0"] == "v1" and after.result()["field0"] == "v2"
        assert bad.failed and isinstance(bad.error, Exception)
        assert auto.ops == 3

    def test_batches_grow_under_load_and_enqueue_blocks_when_full(self, client, monkeypatch):
        batches = _record_batches(client, monkeypatch, delay_s=0.002)
        with client.autopipe(max_batch=32) as auto:
            futures = [client.ycsb_read(f"user{i % N_ROWS:04d}") for i in range(600)]
        assert all(f.resolved for f in futures)
        # an unthrottled producer against a slow wire: batches fill up by
        # themselves, and the queue is bounded by blocking the producer
        assert auto.ops == 600 and auto.ops / auto.flushes >= 8
        assert auto.max_pending <= 32 and max(map(len, batches)) <= 32
        assert auto.blocked_enqueues > 0
        assert sum(auto.batch_sizes.values()) == auto.flushes == len(batches)
        assert all(size & (size - 1) == 0 and size <= 32 for size in auto.batch_sizes)

    def test_then_racing_the_flusher_loses_no_callback(self, client):
        fired = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # provoke settle-during-registration
        try:
            with client.autopipe(max_batch=8):
                for i in range(10_000):
                    client.ycsb_read(f"user{i % N_ROWS:04d}").then(
                        fired.append, fired.append)
        finally:
            sys.setswitchinterval(interval)
        assert len(fired) == 10_000
        assert all(isinstance(value, dict) for value in fired)

    def test_cancel_racing_the_drain_withdraws_or_refuses(self, client):
        outcomes = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with client.autopipe(max_batch=8):
                for i in range(400):
                    key = f"user{i % N_ROWS:04d}"
                    fut = client.ycsb_update(key, {"field1": f"w{i}"})
                    if i % 2:
                        time.sleep(0)  # let the flusher at it: both outcomes occur
                    outcomes.append((key, f"w{i}", fut, fut.cancel()))
        finally:
            sys.setswitchinterval(interval)
        last_write = {}
        for key, value, fut, cancelled in outcomes:
            if cancelled:   # withdrawn: never executed, never settled
                assert fut.cancelled
            else:           # refused: the drain had it, so it ran
                assert fut.resolved and fut.result() == 1
                last_write[key] = value
        assert any(c for *_, c in outcomes) and any(not c for *_, c in outcomes)
        for key, value in last_write.items():
            assert client.ycsb_read(key)["field1"] == value

    def test_a_failed_batch_fails_its_slots_and_the_flusher_survives(
            self, client, monkeypatch, caplog):
        wire_down = [True]

        def flaky(_ops):
            if wire_down[0]:
                raise ConnectionError("wire down")

        _before_run_ops(client, monkeypatch, flaky)
        with caplog.at_level(logging.WARNING, logger="repro.clients.futures"):
            with client.autopipe() as auto:
                lost = [client.ycsb_read("user0001"), client.ycsb_read("user0002")]
                for fut in lost:
                    with pytest.raises(ConnectionError):
                        fut.result(timeout=WAIT_S)
                wire_down[0] = False
                # the same flusher runs the next batch
                assert client.ycsb_read("user0003").result(timeout=WAIT_S)["field0"] == "v3"
                # the batch-level failure surfaces at the next barrier, once
                with pytest.raises(ConnectionError):
                    auto.flush()
                auto.flush()
        assert all(f.failed and isinstance(f.error, ConnectionError) for f in lost)
        assert any("failed" in record.getMessage() for record in caplog.records)

    @pytest.mark.parametrize("fail", (False, True), ids=("clean-exit", "exception-exit"))
    def test_no_thread_outlives_the_context(self, client, fail):
        before = threading.active_count()
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            with client.autopipe():
                fut = client.ycsb_read("user0001")
                assert threading.active_count() == before + 1
                if fail:
                    raise RuntimeError("issuer blew up")
        assert fut.result()["field0"] == "v1"  # exit drained the queue anyway
        assert threading.active_count() == before

    def test_nested_context_is_the_outer_one(self, client):
        with client.autopipe(max_batch=4) as outer:
            with client.autopipe(max_batch=64) as inner:
                assert inner is outer
                fut = client.ycsb_read("user0001")
            assert fut.resolved  # inner exit is a barrier on the shared pipe
            assert isinstance(client.ycsb_read("user0002"), ResultFuture)
        assert not isinstance(client.ycsb_read("user0002"), ResultFuture)

    def test_outside_the_context_calls_run_per_call(self, client):
        response = client.ycsb_read("user0001")
        assert not isinstance(response, ResultFuture)
        assert response["field0"] == "v1"

    def test_asyncio_tick_coalesces_concurrent_tasks(self, client):
        async def scenario():
            with client.autopipe() as auto:
                async def one_read(i):
                    return await client.ycsb_read(f"user{i:04d}")

                values = await asyncio.gather(one_read(1), one_read(2))
                # both tasks' calls coalesced into one round-trip, flushed
                # by the scheduled event-loop tick (not by flush-on-read)
                return auto.flushes, values

        flushes, values = asyncio.run(scenario())
        assert flushes == 1
        assert [v["field0"] for v in values] == ["v1", "v2"]

