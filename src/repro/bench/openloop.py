"""Open-loop workload runner: Poisson arrivals, sojourn-time tails.

The closed-loop runner (:mod:`repro.bench.runtime`) measures *service*
latency: each worker thread issues its next operation only after the
previous one finished, so the system is never offered more load than it
can absorb and queueing delay is invisible by construction.  Real front
ends are **open loop** — requests arrive on their own schedule whether
or not earlier ones completed (the paper's "heavy traffic from millions
of users" shape), and what a user feels is the *sojourn* time: queueing
delay plus service time, measured from the request's scheduled arrival,
not from when the client got around to issuing it.

This runner models that front end:

* ``issuers`` concurrent threads each replay their share of the
  operation list with exponentially-distributed inter-arrival gaps
  (a Poisson process at ``offered_load_ops_s`` overall, seeded and
  deterministic per issuer);
* an issuer that falls behind schedule does **not** slow the arrival
  clock — subsequent operations are already late the moment they
  issue, and that lateness is counted in their sojourn times.  This is
  exactly the backlog behaviour a closed loop cannot exhibit;
* ``offered_load_ops_s=inf`` degenerates to saturation mode (no gaps):
  every issuer fires as fast as its operations complete — the
  throughput-capacity probe the autopipe floor asserts on;
* with ``autopipe_batch > 0`` each issuer runs inside
  ``client.autopipe(max_batch=autopipe_batch)``: batchable operations
  return :class:`~repro.clients.futures.ResultFuture` slots whose
  completions are stamped by ``.then()`` callbacks at flush time, so
  latency accounting covers the queue-in-pipeline wait too.  With
  ``autopipe_batch=0`` every call is a bare per-call round-trip — the
  unbatched baseline of the ≥ 2x assertion.

Every sojourn time is kept; the report carries offered vs achieved load
and the exact (nearest-rank) p50/p99 sojourn tails that go to
``BENCH_throughput.json``'s open-loop columns — a √2-bucket histogram
cannot resolve the latency ratio asserted on them.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass

from repro.clients.futures import ResultFuture


@dataclass
class OpenLoopConfig:
    """One open-loop run's knobs."""

    #: total offered load across all issuers; ``inf`` = saturation mode
    offered_load_ops_s: float
    #: concurrent issuer threads (the paper-facing floor uses 8)
    issuers: int = 8
    #: >0 arms ``client.autopipe(max_batch=...)`` per issuer; 0 = per-call
    autopipe_batch: int = 0
    #: arrival-schedule RNG seed (per-issuer streams derive from it)
    seed: int = 11
    #: unmeasured per-issuer operations replayed before the start barrier.
    #: Issuer threads pay one-time setup on their first request (the
    #: per-thread TLS channel pair, first use of each shard socket),
    #: which is connection establishment, not workload service time.
    #: YCSB excludes connection setup from its measured window; so does
    #: this.
    warmup_ops: int = 32


@dataclass
class OpenLoopReport:
    """What one open-loop run measured."""

    offered_ops_s: float
    achieved_ops_s: float
    completed: int
    failed: int
    p50_us: float
    p99_us: float
    elapsed_s: float
    #: wire round-trips the issuers' autopipes performed (0 per-call)
    flushes: int
    #: operations per autopipe round-trip (0 per-call)
    batch_mean: float
    #: enqueues that found ``autopipe_batch`` operations already pending
    blocked: int

    def as_row(self) -> dict:
        return {
            "offered_ops_s": (
                None if math.isinf(self.offered_ops_s)
                else round(self.offered_ops_s, 1)
            ),
            "ops_s": round(self.achieved_ops_s, 1),
            "completed": self.completed,
            "failed": self.failed,
            "p50_us": round(self.p50_us, 1),
            "p99_us": round(self.p99_us, 1),
            "batch_mean": round(self.batch_mean, 2),
            "blocked": self.blocked,
        }


def nearest_rank(ordered: list, pct: float) -> float:
    """Exact percentile of an ascending sample (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(pct / 100.0 * len(ordered)), 1) - 1]


class _IssuerTally:
    """One issuer thread's private accounting (merged after the join)."""

    __slots__ = ("sojourns_us", "completed", "failed", "autopipe", "last_done")

    def __init__(self) -> None:
        self.sojourns_us: list[float] = []
        self.completed = 0
        self.failed = 0
        self.autopipe = None  # the issuer's exited AutoPipe (its counters)
        self.last_done = 0.0

    def record(self, sojourn_s: float, ok: bool) -> None:
        self.sojourns_us.append(max(sojourn_s, 0.0) * 1e6)
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        self.last_done = time.perf_counter()


def _issue(client, op, scheduled: float, tally: _IssuerTally) -> None:
    """Issue one operation; stamp its completion when it resolves.

    Under an active autopipe a batchable operation returns a pending
    future — its ``.then()`` callback fires (on the autopipe's flusher
    thread) when its batch settles, which is when the response actually
    exists; everything else completes inline.
    """
    try:
        response = op.execute(client)
    except Exception:
        tally.record(time.perf_counter() - scheduled, False)
        return
    if isinstance(response, ResultFuture):
        def on_value(value, op=op, scheduled=scheduled):
            try:
                ok = op.validate(value)
            except Exception:
                ok = False
            tally.record(time.perf_counter() - scheduled, ok)

        def on_error(_exc, scheduled=scheduled):
            tally.record(time.perf_counter() - scheduled, False)

        response.then(on_value, on_error)
        return
    try:
        ok = op.validate(response)
    except Exception:
        ok = False
    tally.record(time.perf_counter() - scheduled, ok)


def _issuer_loop(client, operations, config: OpenLoopConfig, index: int,
                 barrier: threading.Barrier, start_box: list,
                 tally: _IssuerTally) -> None:
    rate = (
        config.offered_load_ops_s / config.issuers
        if not math.isinf(config.offered_load_ops_s) else math.inf
    )
    rng = random.Random(config.seed * 1009 + index)
    if operations:
        # Warm this thread's connection state (TLS channels, shard
        # sockets) with discarded per-call requests before the barrier,
        # so the measured window starts at steady state in every mode.
        for position in range(min(config.warmup_ops, len(operations))):
            try:
                operations[position].execute(client)
            except Exception:
                pass
    barrier.wait()
    start = start_box[0]

    def drive() -> None:
        arrival = 0.0  # scheduled offset from the shared start instant
        for op in operations:
            if math.isinf(rate):
                scheduled = time.perf_counter()  # saturation: no schedule
            else:
                arrival += rng.expovariate(rate)
                scheduled = start + arrival
                delay = scheduled - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                # behind schedule: issue immediately; the lateness is
                # queueing delay and lands in this op's sojourn time
            _issue(client, op, scheduled, tally)

    if config.autopipe_batch > 0:
        with client.autopipe(max_batch=config.autopipe_batch) as auto:
            drive()
            # context exit waits out the tail batch; callbacks have fired
        tally.autopipe = auto
    else:
        drive()


def run_open_loop(client, operations, config: OpenLoopConfig) -> OpenLoopReport:
    """Replay ``operations`` through ``client`` on an open-loop schedule.

    Operations are dealt round-robin across ``config.issuers`` threads;
    each issuer follows its own Poisson arrival schedule (or saturates,
    at infinite offered load).  Returns the merged report; per-issuer
    tallies are private until the join, so no measurement lock sits on
    the hot path.
    """
    lanes = [operations[i::config.issuers] for i in range(config.issuers)]
    tallies = [_IssuerTally() for _ in range(config.issuers)]
    start_box = [0.0]

    def stamp_start() -> None:
        # Runs in exactly one thread once every party (all issuers, past
        # their warmup, plus the coordinator) has arrived — so t=0 lands
        # after the slowest issuer's connection setup, not before it.
        start_box[0] = time.perf_counter() + 0.005

    barrier = threading.Barrier(config.issuers + 1, action=stamp_start)
    threads = [
        threading.Thread(
            target=_issuer_loop,
            args=(client, lane, config, index, barrier, start_box, tally),
            name=f"openloop-{index}",
            daemon=True,
        )
        for index, (lane, tally) in enumerate(zip(lanes, tallies))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    for thread in threads:
        thread.join()

    sojourns_us = sorted(us for tally in tallies for us in tally.sojourns_us)
    completed = sum(tally.completed for tally in tallies)
    autopipes = [tally.autopipe for tally in tallies if tally.autopipe is not None]
    flushes = sum(auto.flushes for auto in autopipes)
    last_done = max([start_box[0]] + [tally.last_done for tally in tallies])
    elapsed = max(last_done - start_box[0], 1e-9)
    return OpenLoopReport(
        offered_ops_s=config.offered_load_ops_s,
        achieved_ops_s=completed / elapsed,
        completed=completed,
        failed=sum(tally.failed for tally in tallies),
        p50_us=nearest_rank(sojourns_us, 50.0),
        p99_us=nearest_rank(sojourns_us, 99.0),
        elapsed_s=elapsed,
        flushes=flushes,
        batch_mean=sum(auto.ops for auto in autopipes) / flushes if flushes else 0.0,
        blocked=sum(auto.blocked_enqueues for auto in autopipes),
    )
