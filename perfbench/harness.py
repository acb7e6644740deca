"""perfbench workloads, driver loops and end-to-end metrics.

One *round* is the unit of work: build the deployment in a private
``data_dir``, load a seeded corpus, warm every driver thread up, then
run a **fixed number of operations** (the GDPRbench role streams mutate
the store, so equal work on two commits needs equal operations, not
equal time).  A run repeats rounds — round ``r`` of seed ``s`` always
has the same inputs — until the timed windows add up to ``--seconds``,
pools the per-operation latency samples of all rounds and reports the
set-up time as the median over the rounds.

How a metric is measured is frozen here on purpose: the loops do not use
``repro.bench.runtime`` / ``repro.bench.openloop`` (no warm-up / a
coarse histogram, and later PRs will edit them).  Operation streams
still come from the program's public generators, with the seed passed
in.  Run under ``PYTHONHASHSEED=0`` (``run.py`` does): the generator
seeds from ``hash(spec.name)``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench.gdpr_workloads import (  # noqa: E402
    CONTROLLER, CUSTOMER, PROCESSOR, REGULATOR, make_operations,
)
from repro.bench.oracle import ShadowStore  # noqa: E402
from repro.bench.records import RecordCorpusConfig, generate_corpus, key_for  # noqa: E402
from repro.clients import FeatureSet, ResultFuture, make_client  # noqa: E402
from repro.gdpr.acl import Principal  # noqa: E402

from .hostspeed import PROCESS_NAME as HOSTSPEED_PROCESS  # noqa: E402

#: segment order: the controller stream's delete-record-by-pur/usr empty
#: the store within a few hundred operations, so it must come last
ROLE_SPECS = (PROCESSOR, CUSTOMER, REGULATOR, CONTROLLER)
ROLES = tuple(spec.name for spec in ROLE_SPECS)

#: operations addressed by primary key (``key_*`` metrics); every other
#: operation is metadata-conditioned (``meta_*`` metrics)
KEY_OPS = frozenset({
    "create-record", "read-data-by-key", "read-metadata-by-key",
    "update-data-by-key", "update-metadata-by-key", "delete-record-by-key",
    "verify-deletion",
})

#: the 19 operation names the four role streams issue
STREAM_OPS = tuple(name for spec in ROLE_SPECS for name, _ in spec.mix)

RECORD_COUNT = 2000
USER_COUNT = 200
WARMUP_CALLS = 64
PIPELINE_BATCH = 64
AUTOPIPE_BATCH = 128
OPEN_RATE_OPS_S = 1000.0
BARRIER_TIMEOUT_S = 150.0
#: open loop: first arrival is scheduled this long after the start barrier
OPEN_START_DELAY_NS = 5_000_000
#: every SPAN_SAMPLE-th operation of a traced round keeps its raw spans
SPAN_SAMPLE = 50

#: the portal read mix of the open-loop workload: all batchable, reads only
PORTAL = dataclasses.replace(CUSTOMER, mix=(
    ("read-data-by-key", 60.0),
    ("read-metadata-by-key", 20.0),
    ("read-data-by-usr", 10.0),
    ("read-metadata-by-usr", 10.0),
))


@dataclasses.dataclass(frozen=True)
class Workload:
    """One deployment + load shape; ``round_ops`` are the frozen counts."""

    name: str
    engine: str            # make_client engine name
    indexing: bool         # FeatureSet.full(metadata_indexing=...)
    client_kwargs: tuple   # ((name, value), ...) for make_client
    clients: int           # driver threads (<= nproc, checked by run.py)
    mode: str              # 'per-call' | 'pipeline' | 'open'
    round_ops: tuple       # per-call/pipeline: ops per role, ROLES order;
                           # open: (ops,)


_SHARDED = (("shards", 2), ("transport", "tcp"))

#: Frozen operation counts, calibrated on the seed commit (2 cores) so
#: one round's timed window is ~4 s (~2 s for sql-shard-roles, which
#: needs more rounds to repeat); see README.md "Calibration".
WORKLOADS = {w.name: w for w in (
    Workload("kv-roles", "redis", False, (), 1, "per-call", (128, 128, 46, 26)),
    Workload("sql-roles", "postgres", True,
             (("locking", "table-rw"), ("durable", True)),
             1, "per-call", (1280, 4280, 510, 86)),
    Workload("kv-shard-roles", "redis", False,
             _SHARDED + (("client_indices", True),),
             2, "per-call", (360, 1500, 360, 100)),
    Workload("sql-shard-roles", "postgres", True,
             _SHARDED + (("durable", True),),
             2, "pipeline", (380, 760, 256, 52)),
    Workload("kv-shard-open", "redis", False,
             _SHARDED + (("client_indices", True),),
             2, "open", (4200,)),
)}


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def percentile(sorted_samples, pct: float) -> float:
    """Exact nearest-rank percentile of an ascending sample list."""
    if not sorted_samples:
        return 0.0
    # the epsilon keeps 99/100*1000 = 990.0000000000001 at rank 990
    rank = max(1, math.ceil(pct * len(sorted_samples) / 100.0 - 1e-9))
    return sorted_samples[rank - 1]


def highest_supported_percentile(count: int, beyond: int = 10) -> float:
    """The highest of 50/90/95/99/99.9 with >= ``beyond`` samples beyond it."""
    supported = 50.0
    for pct in (90.0, 95.0, 99.0, 99.9):
        if count - math.ceil(pct * count / 100.0 - 1e-9) >= beyond:
            supported = pct
    return supported


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RoundResult:
    """One round's measurements.  Times are at nominal host speed (see
    hostspeed.py) except ``raw_*`` and, in the open loop, the sojourn
    times and the window, which the arrival clock sets, not the CPU."""

    setup_s: float
    window_s: float
    raw_setup_s: float
    raw_window_s: float
    segments_s: dict            # role (or 'portal') -> seconds
    samples: list               # (op name, latency or sojourn ns, ok)
    attempted: int
    failed: int
    space_factor: float
    rss_mb: float               # peak resident set of this round (see _peak_rss_mb)
    connect_ms: list            # per driver thread: first-call extra cost
    lateness_ns: list           # open loop: issue time - scheduled arrival
    batches: list               # ops per explicit client pipeline
    flushes: int                # autopipe flushes (open loop)
    log_bytes: dict             # 'aof' | 'wal' | 'csvlog' -> bytes in window
    returned: int               # records returned/affected by all responses
    layer_totals: dict | None   # tracer name -> [calls, total, self, weight]
    mismatches: list            # oracle divergences (traced 1-client rounds)


class BenchmarkViolation(RuntimeError):
    """A correctness/cleanliness rule of the benchmark was broken."""


class _ShadowClient:
    """Runs an :class:`Operation` against :class:`ShadowStore` by exposing
    the client method signatures (which carry the principal first)."""

    def __init__(self, shadow: ShadowStore) -> None:
        self._shadow = shadow

    def create_record(self, _principal, record):
        return self._shadow.create(record)

    def delete_record_by_ttl(self, _principal):
        return self._shadow.delete_record_by_ttl()

    def verify_deletion(self, _principal, key):
        return not self._shadow.record_exists(key)

    def __getattr__(self, name):
        method = getattr(self._shadow, name)
        return lambda _principal, *args: method(*args)


def _canonical(value):
    return sorted(value, key=repr) if isinstance(value, list) else value


def _returned(response) -> int:
    if isinstance(response, list):
        return len(response)
    if isinstance(response, bool) or response is None:
        return 0
    if isinstance(response, int):
        return response
    return 1


class _Round:
    """Shared state of one round's coordinator and driver threads."""

    def __init__(self, workload: Workload, client, lanes, rate_seed: int,
                 open_rate: float, tracer, shadow) -> None:
        self.workload = workload
        self.client = client
        self.lanes = lanes              # per thread: list of per-segment op lists
        self.rate_seed = rate_seed
        self.open_rate = open_rate      # total arrivals/s; inf = saturation
        self.tracer = tracer
        self.shadow = _ShadowClient(shadow) if shadow is not None else None
        self.stamps: list[int] = []
        self.barrier = threading.Barrier(
            workload.clients + 1,
            action=lambda: self.stamps.append(time.perf_counter_ns()),
            timeout=BARRIER_TIMEOUT_S,
        )
        self.samples = [[] for _ in lanes]
        self.batches = [[] for _ in lanes]
        self.lateness = [[] for _ in lanes]
        self.connect_ms = [0.0] * len(lanes)
        self.flushes = [0] * len(lanes)
        self.last_done = [0] * len(lanes)       # open loop: last completion
        #: oracle time spent inside each segment (1-client rounds only)
        self.excluded_ns = [0] * len(lanes[0])
        self.segment = 0
        self.returned = [0] * len(lanes)
        self.mismatches: list = []
        self.errors: list[BaseException] = []

    # -- driver thread -------------------------------------------------

    def drive(self, index: int) -> None:
        try:
            self._warm_up(index)
            self.barrier.wait()         # set-up complete
            if self.workload.mode == "open":
                self.barrier.wait()     # window start
                self._open_lane(index, self.lanes[index][0])
                self.barrier.wait()     # window end
                return
            for number, segment in enumerate(self.lanes[index]):
                self.barrier.wait()     # segment boundary
                self.segment = number
                if self.workload.mode == "pipeline":
                    self._pipelined_lane(index, segment)
                else:
                    self._per_call_lane(index, segment)
            self.barrier.wait()         # window end
        except BaseException as exc:    # noqa: BLE001 - re-raised by coordinator
            self.errors.append(exc)
            self.barrier.abort()

    def _warm_up(self, index: int) -> None:
        """Connection / TLS-channel warm-up: uncounted point reads."""
        client, principal = self.client, Principal.processor()
        clock = time.perf_counter_ns
        costs = []
        for call in range(WARMUP_CALLS):
            start = clock()
            client.read_data_by_key(principal, key_for(call % RECORD_COUNT))
            costs.append(clock() - start)
        self.connect_ms[index] = (costs[0] - statistics.median(costs[1:])) / 1e6

    def _finish(self, index: int, op, response, error, start: int, end: int) -> None:
        ok = error is None
        if ok:
            try:
                ok = bool(op.validate(response))
            except Exception:
                ok = False
        if ok:
            self.returned[index] += _returned(response)
            if self.shadow is not None and op.name != "get-system-logs":
                began = time.perf_counter_ns()
                expected = op.execute(self.shadow)
                if _canonical(expected) != _canonical(response):
                    ok = False
                    self.mismatches.append((op.name, repr(expected)[:200],
                                            repr(response)[:200]))
                self.excluded_ns[self.segment] += time.perf_counter_ns() - began
        self.samples[index].append((op.name, start, end, ok))

    def _per_call_lane(self, index: int, ops) -> None:
        client, tracer, clock = self.client, self.tracer, time.perf_counter_ns
        base = len(self.samples[index])
        for number, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(base + number, (base + number) % SPAN_SAMPLE == 0)
            error = response = None
            start = clock()
            try:
                response = op.execute(client)
            except Exception as exc:
                error = exc
            end = clock()
            if tracer is not None:
                tracer.end_op(op.name, start, end)
            self._finish(index, op, response, error, start, end)

    def _pipelined_lane(self, index: int, ops) -> None:
        """Consecutive batchable ops ride ``client.pipeline()`` in chunks of
        PIPELINE_BATCH; an op's latency is its batch's.  Others run singly."""
        client, tracer, clock = self.client, self.tracer, time.perf_counter_ns
        batchable = client.PIPELINE_OP_NAMES
        position = 0
        while position < len(ops):
            if ops[position].name not in batchable:
                self._per_call_lane(index, ops[position:position + 1])
                position += 1
                continue
            chunk = []
            while (position < len(ops) and len(chunk) < PIPELINE_BATCH
                   and ops[position].name in batchable):
                chunk.append(ops[position])
                position += 1
            op_id = len(self.samples[index])
            if tracer is not None:
                tracer.begin_op(op_id, -op_id % SPAN_SAMPLE < len(chunk))
            start = clock()
            pipe = client.pipeline()
            futures = []
            batch_error = None
            try:
                for op in chunk:
                    futures.append(op.execute(pipe))
                pipe.execute()
            except Exception as exc:   # per-slot errors live on the futures
                batch_error = exc
            end = clock()
            if tracer is not None:
                tracer.end_op("pipeline-batch", start, end)
            self.batches[index].append(len(chunk))
            for slot, op in enumerate(chunk):
                future = futures[slot] if slot < len(futures) else None
                if future is None or future.pending:
                    self._finish(index, op, None,
                                 batch_error or RuntimeError("unsettled"), start, end)
                elif future.failed:
                    self._finish(index, op, None, future.error, start, end)
                else:
                    self._finish(index, op, future.result(), None, start, end)

    def _open_lane(self, index: int, ops) -> None:
        """Poisson arrivals inside ``client.autopipe``; sojourn is timed from
        the *scheduled* arrival, so a stalled issuer's backlog counts."""
        client, tracer, clock = self.client, self.tracer, time.perf_counter_ns
        rate = self.open_rate / self.workload.clients
        rng = random.Random(self.rate_seed * 1009 + index)
        start = self.stamps[-1] + OPEN_START_DELAY_NS
        slots: list = [None] * len(ops)
        lateness = self.lateness[index]

        def settle(slot, op, scheduled, response, error):
            done = self.last_done[index] = clock()
            slots[slot] = (response, error, scheduled, done)

        arrival = 0.0
        with client.autopipe(max_batch=AUTOPIPE_BATCH) as auto:
            for slot, op in enumerate(ops):
                if math.isinf(rate):
                    scheduled = clock()     # saturation: no schedule
                else:
                    arrival += rng.expovariate(rate)
                    scheduled = start + int(arrival * 1e9)
                    delay = scheduled - clock()
                    if delay > 0:
                        time.sleep(delay / 1e9)
                issued = clock()
                lateness.append(max(issued - scheduled, 0))
                if tracer is not None:
                    tracer.begin_op(slot, slot % SPAN_SAMPLE == 0)
                try:
                    response = op.execute(client)
                except Exception as exc:
                    settle(slot, op, scheduled, None, exc)
                else:
                    if isinstance(response, ResultFuture):
                        response.then(
                            lambda value, s=slot, o=op, t=scheduled: settle(s, o, t, value, None),
                            lambda exc, s=slot, o=op, t=scheduled: settle(s, o, t, None, exc),
                        )
                    else:
                        settle(slot, op, scheduled, response, None)
                if tracer is not None:
                    tracer.end_op(op.name, issued, clock())
        self.flushes[index] = auto.flushes
        for slot, op in enumerate(ops):
            if slots[slot] is None:   # never completed: a failure
                self.samples[index].append((op.name, 0, 10_000_000_000, False))
                continue
            response, error, scheduled, done = slots[slot]
            self._finish(index, op, response, error, scheduled, done)


def _reset_peak_rss() -> bool:
    """Restart the kernel's peak-RSS watermark so each round reports its
    own peak (the median over rounds repeats far better than one
    process-lifetime maximum).  False where /proc does not allow it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log_bytes(client) -> dict:
    """Bytes each persistence log holds (buffered included), by public API."""
    if hasattr(client, "engine"):
        return {"aof": client.engine.aof_size(), "wal": 0, "csvlog": 0}
    usage = client.db.disk_usage()
    return {"aof": 0, "wal": usage["wal_bytes"], "csvlog": usage["csvlog_bytes"]}


def build_client(workload: Workload, data_dir: str):
    features = FeatureSet.full(metadata_indexing=workload.indexing)
    return make_client(workload.engine, features, data_dir=data_dir,
                       **dict(workload.client_kwargs))


def stratified_stream(spec, corpus, count: int, seed: int) -> list:
    """``count`` operations of ``spec`` with **exact** per-operation shares.

    The program's generator draws each operation's type at random, so two
    seeds give different numbers of the expensive operations and the
    time for "the same" stream differs by several percent for no reason
    a user would see.  Taking, in the generator's order, the first
    operations of each type up to that type's share of ``count`` keeps
    the generator's inputs and order but fixes the mix.
    """
    total = sum(weight for _, weight in spec.mix)
    quota = {name: int(count * weight / total) for name, weight in spec.mix}
    for name, _ in sorted(spec.mix, key=lambda item: -item[1]):
        if sum(quota.values()) == count:
            break
        quota[name] += 1            # hand the rounding remainder to the largest shares
    chosen: list = []
    draw = 2 * count
    while len(chosen) < count:
        chosen, left = [], dict(quota)
        for op in make_operations(spec, corpus, draw, seed=seed):
            if left[op.name]:
                left[op.name] -= 1
                chosen.append(op)
        draw *= 2                   # a rare type ran short: draw a longer stream
    return chosen


def make_round_inputs(workload: Workload, seed: int, round_index: int,
                      scale: float = 1.0, roles: tuple | None = None):
    """Corpus + ``(segment name, operations)`` list of round ``round_index``;
    ``roles`` restricts a role workload to some of its streams (probes)."""
    sub_seed = seed * 64 + round_index
    corpus = RecordCorpusConfig(record_count=RECORD_COUNT, user_count=USER_COUNT,
                                seed=sub_seed)
    records = generate_corpus(corpus)
    counts = [max(8, int(count * scale)) for count in workload.round_ops]
    if workload.mode == "open":
        streams = [(PORTAL, "portal", counts[0])]
    else:
        streams = [(spec, spec.name, count) for spec, count in zip(ROLE_SPECS, counts)
                   if roles is None or spec.name in roles]
    segments = [(name, stratified_stream(spec, corpus, count, sub_seed))
                for spec, name, count in streams]
    return sub_seed, records, segments


def stream_fingerprint(workload: Workload, seed: int, round_index: int) -> str:
    """A digest of a round's inputs (determinism check across processes)."""
    _, records, segments = make_round_inputs(workload, seed, round_index, scale=0.1)
    digest = hashlib.sha256(repr(records).encode())
    for _, ops in segments:
        for op in ops:
            digest.update(repr((op.name, op.execute.__defaults__)).encode())
    return digest.hexdigest()


def run_round(workload: Workload, seed: int, round_index: int, work_dir: str, *,
              tracer=None, oracle: bool = False, scale: float = 1.0,
              clients: int | None = None, roles: tuple | None = None,
              open_rate: float = OPEN_RATE_OPS_S, speed=None) -> RoundResult:
    """Set up, run and tear down one round; raises on a cleanliness breach.
    ``speed`` (a started :class:`~perfbench.hostspeed.HostSpeed`) converts
    CPU-bound intervals to nominal host speed; without it times are raw."""
    if clients is not None:
        workload = dataclasses.replace(workload, clients=clients)
    sub_seed, records, segments = make_round_inputs(
        workload, seed, round_index, scale, roles)
    lanes = [
        [ops[index::workload.clients] for _, ops in segments]
        for index in range(workload.clients)
    ]
    shadow = None
    if oracle and workload.clients == 1 and workload.mode == "per-call":
        shadow = ShadowStore()
        shadow.load(records)
    data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_dir)
    client = None
    gc.collect()
    _reset_peak_rss()
    try:
        setup_start = time.perf_counter_ns()
        client = build_client(workload, data_dir)
        client.load_records(records)
        state = _Round(workload, client, lanes, sub_seed, open_rate, tracer, shadow)
        threads = [
            threading.Thread(target=state.drive, args=(index,),
                             name=f"perfbench-driver-{index}", daemon=True)
            for index in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            state.barrier.wait()            # every thread warmed up
            space_factor = client.space_overhead()
            logs_before = _log_bytes(client)
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.reset()
            for _ in range(len(segments) + 1):
                state.barrier.wait()        # segment boundaries + window end
        except threading.BrokenBarrierError:
            pass                            # reported through state.errors below
        finally:
            gc.unfreeze()
        for thread in threads:
            thread.join(timeout=BARRIER_TIMEOUT_S)
        if state.errors or any(thread.is_alive() for thread in threads):
            raise BenchmarkViolation(
                f"driver thread failed in {workload.name}: {state.errors[:1]}")
        layer_totals = tracer.totals() if tracer is not None else None
        logs_after = _log_bytes(client)
        rss_mb = _peak_rss_mb()
    finally:
        if client is not None:
            client.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    check_clean(workload, data_dir)

    def nominal(start: int, end: int) -> float:
        return speed.normalise(start, end) if speed is not None else end - start

    boundaries = state.stamps[1:]
    # Under a finite arrival rate the arrival clock, not the CPU, sets the
    # sojourn times and the window: those stay as measured.
    clocked = workload.mode == "open" and math.isfinite(open_rate)
    timed = (lambda start, end: end - start) if clocked else nominal
    if workload.mode == "open":
        # completed / (last completion - first scheduled instant)
        start, end = boundaries[0] + OPEN_START_DELAY_NS, max(state.last_done)
        raw_window_s = (end - start) / 1e9
        segments_s = {"portal": timed(start, end) / 1e9}
    else:
        segments_s = {}
        for number, (name, _ops) in enumerate(segments):
            begin, end = boundaries[number], boundaries[number + 1]
            busy = 1.0 - state.excluded_ns[number] / (end - begin)
            segments_s[name] = nominal(begin, end) * busy / 1e9
        raw_window_s = (boundaries[-1] - boundaries[0] - sum(state.excluded_ns)) / 1e9
    samples = [(name, timed(begin, end), ok)
               for lane in state.samples for name, begin, end, ok in lane]
    return RoundResult(
        setup_s=nominal(setup_start, state.stamps[0]) / 1e9,
        window_s=sum(segments_s.values()),
        raw_setup_s=(state.stamps[0] - setup_start) / 1e9,
        raw_window_s=raw_window_s,
        segments_s=segments_s,
        samples=samples,
        attempted=len(samples),
        failed=sum(1 for _, _, ok in samples if not ok),
        space_factor=space_factor,
        rss_mb=rss_mb,
        connect_ms=list(state.connect_ms),
        lateness_ns=[late for lane in state.lateness for late in lane],
        batches=[size for lane in state.batches for size in lane],
        flushes=sum(state.flushes),
        log_bytes={kind: logs_after[kind] - logs_before[kind] for kind in logs_after},
        returned=sum(state.returned),
        layer_totals=layer_totals,
        mismatches=state.mismatches,
    )


def check_clean(workload: Workload, data_dir: str) -> None:
    """No stray ``*-shard-*`` worker, no leftover data_dir."""
    def workers():
        return [process for process in multiprocessing.active_children()
                if process.name != HOSTSPEED_PROCESS]

    deadline = time.monotonic() + 10.0
    strays = workers()
    while strays and time.monotonic() < deadline:
        time.sleep(0.05)
        strays = workers()
    if strays:
        for process in strays:
            process.terminate()
            process.join(timeout=5)
        raise BenchmarkViolation(
            f"{workload.name}: stray worker processes after close: "
            f"{[p.name for p in strays]}")
    if os.path.exists(data_dir):
        raise BenchmarkViolation(f"{workload.name}: data_dir {data_dir} not removed")


# ---------------------------------------------------------------------------
# A run: rounds until --seconds of timed window, then the metrics
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class RunResult:
    rounds: list

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    @property
    def window_s(self) -> float:
        return sum(r.window_s for r in self.rounds)

    def latencies_us(self, keyed: bool) -> list:
        return sorted(
            spent / 1e3 for r in self.rounds for name, spent, _ in r.samples
            if (name in KEY_OPS) == keyed
        )


def run_rounds(workload: Workload, seed: int, seconds: float, work_dir: str,
               tracer=None, oracle: bool = False, scale: float = 1.0,
               speed=None, max_rounds: int = 64) -> RunResult:
    """Rounds 0, 1, 2, ... until the timed windows add up to ``seconds``."""
    rounds = []
    measured = 0.0
    while measured < seconds and len(rounds) < max_rounds:
        result = run_round(workload, seed, len(rounds), work_dir, tracer=tracer,
                           oracle=oracle, scale=scale, speed=speed)
        rounds.append(result)
        measured += result.raw_window_s
    return RunResult(rounds)


END_TO_END_UNITS = {
    "ops_s": "ops/s", "key_p50_us": "us", "key_p95_us": "us",
    "meta_p50_us": "us", "meta_p95_us": "us", "setup_s": "s",
    "space_factor": "ratio", "rss_mb": "MiB",
}


def round_metrics(result: RoundResult) -> dict:
    """One round's value of every end-to-end metric."""
    key_us = sorted(spent / 1e3 for name, spent, _ in result.samples if name in KEY_OPS)
    meta_us = sorted(spent / 1e3 for name, spent, _ in result.samples
                     if name not in KEY_OPS)
    return {
        "ops_s": result.attempted / result.window_s,
        "key_p50_us": percentile(key_us, 50.0),
        "key_p95_us": percentile(key_us, 95.0),
        "meta_p50_us": percentile(meta_us, 50.0),
        "meta_p95_us": percentile(meta_us, 95.0),
        "setup_s": result.setup_s,
        "space_factor": result.space_factor,
        "rss_mb": result.rss_mb,
    }


def end_to_end_metrics(run: RunResult) -> dict:
    """The end-to-end metrics of BENCHMARK.json, ``name -> (value, unit)``:
    each is the **median over the run's rounds** of the round's value, so
    one round caught in a noisy phase of the host does not move it."""
    per_round = [round_metrics(result) for result in run.rounds]
    return {
        name: (statistics.median(values[name] for values in per_round), unit)
        for name, unit in END_TO_END_UNITS.items()
    }


def sample_counts(run: RunResult) -> dict:
    return {
        "rounds": len(run.rounds),
        "key_samples": len(run.latencies_us(keyed=True)),
        "meta_samples": len(run.latencies_us(keyed=False)),
        # per round, the highest percentile with >= 10 samples beyond it
        "key_supported_pct": highest_supported_percentile(
            min(sum(1 for name, _, _ in r.samples if name in KEY_OPS) for r in run.rounds)),
        "meta_supported_pct": highest_supported_percentile(
            min(sum(1 for name, _, _ in r.samples if name not in KEY_OPS) for r in run.rounds)),
        "window_s": run.window_s,
        "raw_window_s": sum(r.raw_window_s for r in run.rounds),
        "raw_setup_s": [r.raw_setup_s for r in run.rounds],
        "per_round": [round_metrics(r) for r in run.rounds],
    }
