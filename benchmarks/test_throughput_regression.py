"""Throughput regression harness — the repo's perf trajectory anchor.

Writes ``BENCH_throughput.json`` at the repo root: YCSB ops/s for every
engine configuration x thread count x feature set, so future PRs can
compare their numbers against the trajectory instead of guessing.

Records are redis-benchmark-sized (1 field x 16 bytes): the harness
measures engine + protocol overhead, not payload serialisation.

Asserted floors:

* **minikv** (PR 1 tentpole): at 8 benchmark threads the striped +
  pipelined configuration sustains >= 2x the YCSB-C throughput of the
  seed single-lock configuration, and an AOF written under group commit
  replays into an identical keyspace.
* **minisql** (PR 2 tentpole): at 8 benchmark threads the per-table
  reader-writer + transaction-batched configuration sustains >= 2x the
  seed global-lock configuration on the same read-heavy YCSB-C stream.
* **minisql MVCC** (PR 3 tentpole): at 8 benchmark threads the
  snapshot-read configuration (``locking="mvcc"``) matches or beats the
  rw+batched configuration on read-heavy YCSB-C (measured as the median
  of interleaved paired runs, so machine drift cancels), and sustains
  >= 2x the rw+batched configuration on the **mixed readers-vs-purge**
  scenario — a continuous TTL purge cycle against the same table, the
  paper's central contention case.
* **minikv sharding** (PR 4 tentpole): 4 shard worker processes vs 1
  shard (the paper's in-process engine) on the **full-GDPR** feature
  set — the deployment sharding targets, where strict TTL scans, read
  audit logging, and at-rest encryption make every operation
  engine-dominated.  The floor is CPU-tiered because process sharding
  buys *parallelism*: >= 2x with 4+ usable cores (every CI runner), a
  weaker scaling bound with 2-3, and on a single core — where no
  parallelism exists to win — the assertion degrades to a router-tax
  bound (sharded throughput stays within a small constant of the
  in-process engine).  The measured ratio and the tier that was
  asserted are both recorded in the JSON.
* **minisql sharding** (PR 5 tentpole): the SQL twin of the minikv
  floor — 4 minisql shard worker processes vs the in-process
  ``Database`` facade on the same full-GDPR YCSB-C stream at 8 threads,
  same batch size on both sides, same CPU tiers.  Under the full
  feature set every statement pays index maintenance, audit logging
  with response payloads, and at-rest cipher work inside the engine,
  which is exactly the work primary-key sharding spreads across worker
  processes.
* **tcp transport router tax** (PR 7 tentpole): the sharded fronts on
  the TCP socket transport vs the same 4-shard deployment on the
  default pipe transport, full-GDPR YCSB-C at 8 threads.  TCP pays a
  real tax (length-prefixed frames, kernel socket buffers) but with
  ``TCP_NODELAY`` and per-batch round-trips it must stay within 2x of
  pipes: the asserted floor is **tcp >= 0.5x pipe** for both engines.
* **autopipe** (PR 8 tentpole): 8 open-loop issuer threads at
  saturation against the 4-shard TCP deployment on the full-GDPR
  YCSB-C mix, each issuer coalescing bare client calls through
  ``client.autopipe(...)`` vs the same issuers making unbatched
  per-call round-trips.  Implicit pipelining must buy >= 2x the
  per-call throughput — the futures front end has to deliver the
  explicit-batching win without the call sites opting in.  Measured
  where round-trips are real (frames over kernel sockets to worker
  processes); connection warmup is excluded from the timed window.
* **autopipe at low load** (PR 13 tentpole): the same issuers under
  Poisson arrivals at 0.5x the measured per-call capacity.  Batching
  must not be bought with waiting: the autopipe's sojourn p99 stays
  within **8x** the per-call p99 (interleaved pairs, median of each
  side, exact nearest-rank percentiles).  The bound is a tripwire for
  "a batch waits to fill" — the size-triggered flush this replaced
  measured 64x here — not a latency target: the design target is 2x,
  which the drain meets with 2 issuers, but with 8 issuers + 8 flusher
  threads under one GIL the extra thread hop costs ~50 us of client
  CPU per operation at batch size ~1.3 and p99 is hand-off starvation,
  so this configuration measures 2-6x on a 2-core host.

Besides the closed-loop grid, the JSON carries **open-loop** rows
(``workload: "openloop-ycsb-C"``): Poisson-arrival runs at offered
loads swept around the measured per-call capacity, reporting achieved
ops/s and p50/p99 *sojourn* time (queueing + service, measured from
each request's scheduled arrival — see :mod:`repro.bench.openloop`).
Sweep rows are report-only; the saturation pair and the 0.5x p99
ratio are asserted, each on its own median-of-N measurement.

Every grid row also records the merged per-operation ``p50_us`` /
``p99_us`` latency (report-only — no floor asserts on percentiles), so
the trajectory file tracks tail latency alongside throughput.

Profiles: ``REPRO_BENCH_PROFILE=smoke`` shrinks the grid for the CI
pull-request gate (the floors are still asserted); the default ``full``
profile regenerates the canonical ``BENCH_throughput.json``.
"""

from __future__ import annotations

import json
import math
import os
import statistics

from repro.bench import ycsb as ycsb_mod
from repro.bench.openloop import OpenLoopConfig, OpenLoopReport, run_open_loop
from repro.bench.session import YCSBSession, YCSBSessionConfig
from repro.bench.ycsb import YCSBConfig
from repro.clients import make_client
from repro.clients.base import FeatureSet
from repro.experiments.scale import (
    readers_vs_purge_throughput,
    shard_floor_min,
    usable_cores,
)
from repro.minikv import MiniKV, MiniKVConfig

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_throughput.json")

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "full")

#: (engine label, make_client engine name, client kwargs, batch_size)
ENGINE_CONFIGS = (
    ("redis-single-lock", "redis", {"stripes": 1}, 1),
    ("redis-striped-pipelined", "redis", {"stripes": 16}, 128),
    ("redis-sharded-4", "redis", {"shards": 4}, 128),
    ("redis-sharded-4-tcp", "redis", {"shards": 4, "transport": "tcp"}, 128),
    ("postgres-global-lock", "postgres", {"locking": "global"}, 1),
    ("postgres-rw-batched", "postgres", {"locking": "table-rw"}, 128),
    ("postgres-mvcc", "postgres", {"locking": "mvcc"}, 128),
    ("postgres-sharded-4", "postgres", {"shards": 4}, 128),
    ("postgres-sharded-4-tcp", "postgres",
     {"shards": 4, "transport": "tcp"}, 128),
)

FEATURE_SETS = (
    ("baseline", FeatureSet.none),
    ("full-gdpr", FeatureSet.full),
)

THREAD_COUNTS = (1, 2, 4, 8)
WORKLOAD = "C"
if PROFILE == "smoke":
    RECORDS = 500
    OPERATIONS = 2000
    SQL_OPERATIONS = 1000
    ASSERT_SAMPLES = 1
else:
    RECORDS = 2000
    OPERATIONS = 6000
    SQL_OPERATIONS = 2000
    #: median-of-N for the asserted 8-thread pairs (thread scheduling jitter)
    ASSERT_SAMPLES = 3

#: the asserted pairs — (baseline config, scaled config, op count) — derived
#: from the grid's own ENGINE_CONFIGS rows so the floor always measures
#: exactly the configurations the JSON records
_CONFIG_BY_LABEL = {
    label: (engine, client_kwargs, batch_size)
    for label, engine, client_kwargs, batch_size in ENGINE_CONFIGS
}
FLOOR_PAIRS = {
    "redis": (
        _CONFIG_BY_LABEL["redis-single-lock"],
        _CONFIG_BY_LABEL["redis-striped-pipelined"],
        OPERATIONS,
    ),
    "sql": (
        _CONFIG_BY_LABEL["postgres-global-lock"],
        _CONFIG_BY_LABEL["postgres-rw-batched"],
        SQL_OPERATIONS,
    ),
}

#: the MVCC read-parity pair: rw+batched is the baseline, mvcc must match
MVCC_PAIR = (
    _CONFIG_BY_LABEL["postgres-rw-batched"],
    _CONFIG_BY_LABEL["postgres-mvcc"],
    SQL_OPERATIONS,
)

#: the sharding pair: 4 worker processes vs 1 shard (the in-process
#: engine) at the *same* batch size, so the floor isolates process
#: parallelism rather than re-banking PR 1's pipelining win.  Measured
#: on the full-GDPR feature set, where per-op engine work dominates —
#: the deployment process sharding targets.  (The baseline is not a
#: grid row: it is the single-lock engine plus the sharded config's
#: pipelining, the fairest 1-shard twin of ``redis-sharded-4``.)
SHARD_PAIR = (
    ("redis", {"stripes": 1, "shards": 1},
     _CONFIG_BY_LABEL["redis-sharded-4"][2]),
    _CONFIG_BY_LABEL["redis-sharded-4"],
    OPERATIONS,
)

#: the SQL sharding pair (PR 5 tentpole): 4 minisql worker processes vs
#: the in-process Database facade at the same batch size, measured on
#: the full-GDPR feature set — the direct twin of SHARD_PAIR.
SQL_SHARD_PAIR = (
    ("postgres", {"shards": 1}, _CONFIG_BY_LABEL["postgres-sharded-4"][2]),
    _CONFIG_BY_LABEL["postgres-sharded-4"],
    SQL_OPERATIONS,
)

#: the transport pairs (PR 7 tentpole): the same 4-shard deployment on
#: TCP sockets vs multiprocessing pipes, full-GDPR YCSB-C.  The "slow"
#: slot holds the pipe baseline and the "fast" slot holds TCP, so the
#: reported ratio is tcp/pipe and the floor reads "tcp keeps at least
#: half the pipe throughput" — a router-tax bound, not a speedup claim.
TCP_SHARD_PAIR = (
    _CONFIG_BY_LABEL["redis-sharded-4"],
    _CONFIG_BY_LABEL["redis-sharded-4-tcp"],
    OPERATIONS,
)
SQL_TCP_SHARD_PAIR = (
    _CONFIG_BY_LABEL["postgres-sharded-4"],
    _CONFIG_BY_LABEL["postgres-sharded-4-tcp"],
    SQL_OPERATIONS,
)

#: the autopipe open-loop setup (PR 8 tentpole): 8 issuer threads against
#: the 4-shard TCP deployment with full-GDPR features — the config where
#: every per-call request pays a real wire round-trip (frame, kernel
#: socket, worker wakeup), which is exactly the overhead implicit
#: coalescing removes.  On the in-process engine a "round-trip" is a
#: function call and batching buys little; asserting there would measure
#: future-object overhead, not the pipelining win.
OPENLOOP_ISSUERS = 8
AUTOPIPE_BATCH = 128
OPENLOOP_CLIENT = ("redis", {"shards": 4, "transport": "tcp"})
#: offered loads for the report-only sweep, as fractions of the measured
#: per-call saturation capacity: under, at, and past the knee
OPENLOOP_LOAD_MULTIPLIERS = (0.5, 1.0, 2.0)
#: the low-load floor: at this fraction of per-call capacity the
#: autopipe's sojourn p99 may be at most this multiple of per-call's
#: (measured 2-6x at 8 issuers; see the module docstring for why not 2x)
AUTOPIPE_LATENCY_LOAD = 0.5
AUTOPIPE_LATENCY_BOUND = 8.0

#: CPU-tiered shard floor, shared with fig10s (repro.experiments.scale
#: owns the tier table): 2x with 4+ usable cores (every CI runner),
#: a weaker scaling bound at 2-3, and on one core only the router-tax
#: bound — there is no second core for the workers to win.
SHARD_FLOOR_CORES = usable_cores()
SHARD_FLOOR_MIN = shard_floor_min(SHARD_FLOOR_CORES)


def _run_ycsb(engine: str, client_kwargs: dict, batch_size: int,
              features: FeatureSet, threads: int, operations: int = OPERATIONS):
    config = YCSBSessionConfig(
        engine=engine,
        features=features,
        ycsb=YCSBConfig(
            record_count=RECORDS, operation_count=operations,
            field_count=1, field_length=16, seed=42,
        ),
        threads=threads,
        batch_size=batch_size,
        client_kwargs=dict(client_kwargs),
    )
    with YCSBSession(config) as session:
        session.load()
        run = session.run(WORKLOAD)
        assert run.correctness_pct == 100.0
        return run


def _throughput(engine: str, client_kwargs: dict, batch_size: int,
                features: FeatureSet, threads: int, operations: int = OPERATIONS) -> float:
    return _run_ycsb(engine, client_kwargs, batch_size, features, threads,
                     operations).throughput_ops_s


def _measure_floor(pair, samples: int, features_factory=FeatureSet.none) -> tuple[float, float]:
    slow_config, fast_config, operations = pair
    slow_engine, slow_kwargs, slow_batch = slow_config
    fast_engine, fast_kwargs, fast_batch = fast_config
    slow = statistics.median(
        _throughput(slow_engine, slow_kwargs, slow_batch, features_factory(), 8,
                    operations)
        for _ in range(samples)
    )
    fast = statistics.median(
        _throughput(fast_engine, fast_kwargs, fast_batch, features_factory(), 8,
                    operations)
        for _ in range(samples)
    )
    return slow, fast


def _floor_speedup(pair, floor: float = 2.0,
                   features_factory=FeatureSet.none) -> tuple[float, float, float]:
    # Thread scheduling on small shared CI runners is noisy: if the first
    # median misses the floor, re-measure once with more samples before
    # declaring a regression.
    slow, fast = _measure_floor(pair, ASSERT_SAMPLES, features_factory)
    if fast / slow < floor:
        slow, fast = _measure_floor(pair, ASSERT_SAMPLES + 2, features_factory)
    return fast / slow, slow, fast


def _paired_ratio(pair, samples: int) -> float:
    """Median of interleaved paired run ratios (fast/slow).

    Pairing each fast run with an adjacent slow run cancels slow drift of
    the host (thermal throttling, noisy CI neighbours), which matters for
    a parity floor (>= 1.0x) far more than for the coarse >= 2x floors.
    """
    slow_config, fast_config, operations = pair
    slow_engine, slow_kwargs, slow_batch = slow_config
    fast_engine, fast_kwargs, fast_batch = fast_config
    ratios = []
    for _ in range(samples):
        slow = _throughput(slow_engine, slow_kwargs, slow_batch,
                           FeatureSet.none(), 8, operations)
        fast = _throughput(fast_engine, fast_kwargs, fast_batch,
                           FeatureSet.none(), 8, operations)
        ratios.append(fast / slow)
    return statistics.median(ratios)


def _mvcc_read_parity() -> float:
    """mvcc / rw+batched YCSB-C ratio at 8 threads, escalating on a miss."""
    ratio = _paired_ratio(MVCC_PAIR, max(ASSERT_SAMPLES, 3))
    if ratio < 1.0:
        ratio = _paired_ratio(MVCC_PAIR, ASSERT_SAMPLES + 4)
    return ratio


def _mixed_purge_throughputs(samples: int) -> tuple[float, float]:
    """(rw, mvcc) reader ops/s under the concurrent TTL purge cycle."""
    operations = SQL_OPERATIONS
    rw = statistics.median(
        readers_vs_purge_throughput("table-rw", record_count=RECORDS,
                                    operations=operations)
        for _ in range(samples)
    )
    mvcc = statistics.median(
        readers_vs_purge_throughput("mvcc", record_count=RECORDS,
                                    operations=operations)
        for _ in range(samples)
    )
    return rw, mvcc


def _openloop_report(autopipe_batch: int, offered_ops_s: float) -> OpenLoopReport:
    """One open-loop run: load the YCSB table, replay workload C."""
    engine, client_kwargs = OPENLOOP_CLIENT
    config = ycsb_mod.YCSBConfig(
        record_count=RECORDS, operation_count=OPERATIONS,
        field_count=1, field_length=16, seed=42,
    )
    client = make_client(engine, FeatureSet.full(), **client_kwargs)
    try:
        ycsb_mod.run_load(client, config)
        operations = ycsb_mod.transaction_operations(
            ycsb_mod.WORKLOADS[WORKLOAD], config,
            insert_start=config.record_count,
        )
        report = run_open_loop(client, operations, OpenLoopConfig(
            offered_load_ops_s=offered_ops_s,
            issuers=OPENLOOP_ISSUERS,
            autopipe_batch=autopipe_batch,
        ))
    finally:
        client.close()
    assert report.failed == 0, (
        f"open-loop run dropped {report.failed} operations "
        f"(mode batch={autopipe_batch}, offered={offered_ops_s})"
    )
    return report


def _openloop_row(mode: str, batch: int, report: OpenLoopReport) -> dict:
    engine, client_kwargs = OPENLOOP_CLIENT
    row = {
        "engine": f"{engine}-sharded-{client_kwargs.get('shards', 1)}-tcp",
        "features": "full-gdpr",
        "threads": OPENLOOP_ISSUERS,
        "batch_size": batch if batch else 1,
        "shards": client_kwargs.get("shards", 1),
        "transport": client_kwargs.get("transport", "pipe"),
        "workload": f"openloop-ycsb-{WORKLOAD}",
        "mode": mode,
    }
    row.update(report.as_row())
    return row


def _autopipe_floor() -> tuple[float, float, float]:
    """(ratio, per-call ops/s, autopipe ops/s) at open-loop saturation."""
    def measure(samples: int) -> tuple[float, float]:
        percall = statistics.median(
            _openloop_report(0, math.inf).achieved_ops_s
            for _ in range(samples)
        )
        auto = statistics.median(
            _openloop_report(AUTOPIPE_BATCH, math.inf).achieved_ops_s
            for _ in range(samples)
        )
        return percall, auto

    percall, auto = measure(ASSERT_SAMPLES)
    if auto / percall < 2.0:  # same noise escalation as the other floors
        percall, auto = measure(ASSERT_SAMPLES + 2)
    return auto / percall, percall, auto


def _autopipe_latency_ratio(percall_capacity: float) -> tuple[float, float, float]:
    """(ratio, per-call p99 us, autopipe p99 us) of sojourn p99 at
    ``AUTOPIPE_LATENCY_LOAD`` x the per-call capacity."""
    offered = percall_capacity * AUTOPIPE_LATENCY_LOAD

    def measure(samples: int) -> tuple[float, float]:
        # interleaved, so a slow phase of the host lands on both sides
        pairs = [
            (_openloop_report(0, offered).p99_us,
             _openloop_report(AUTOPIPE_BATCH, offered).p99_us)
            for _ in range(samples)
        ]
        return (statistics.median(percall for percall, _ in pairs),
                statistics.median(auto for _, auto in pairs))

    percall, auto = measure(ASSERT_SAMPLES)
    if auto / percall > AUTOPIPE_LATENCY_BOUND:  # noise escalation, as above
        percall, auto = measure(ASSERT_SAMPLES + 2)
    return auto / percall, percall, auto


def test_throughput_regression_grid(benchmark):
    def run_grid():
        results = []
        for label, engine, client_kwargs, batch_size in ENGINE_CONFIGS:
            for feature_label, feature_factory in FEATURE_SETS:
                for threads in THREAD_COUNTS:
                    # minisql statements cost more than minikv commands;
                    # a smaller op count keeps its half of the grid from
                    # dominating the harness runtime.
                    operations = OPERATIONS if engine == "redis" else SQL_OPERATIONS
                    run = _run_ycsb(
                        engine, client_kwargs, batch_size,
                        feature_factory(), threads, operations,
                    )
                    results.append({
                        "engine": label,
                        "features": feature_label,
                        "threads": threads,
                        "batch_size": batch_size,
                        "shards": client_kwargs.get("shards", 1),
                        "transport": client_kwargs.get("transport", "pipe"),
                        "workload": f"ycsb-{WORKLOAD}",
                        "ops_s": round(run.throughput_ops_s),
                        # report-only tail latency (merged across op types)
                        "p50_us": round(run.stats.overall_percentile_us(50), 1),
                        "p99_us": round(run.stats.overall_percentile_us(99), 1),
                    })
        # the mixed readers-vs-purge scenario rides in the same grid file
        for locking, label in (("table-rw", "postgres-rw-batched"),
                               ("mvcc", "postgres-mvcc")):
            ops_s = readers_vs_purge_throughput(
                locking, record_count=RECORDS, operations=SQL_OPERATIONS
            )
            results.append({
                "engine": label,
                "features": "baseline",
                "threads": 8,
                "batch_size": 128,
                "shards": 1,
                "workload": "mixed-readers-vs-purge",
                "ops_s": round(ops_s),
            })
        # Open-loop columns: saturation capacity in both modes, then a
        # Poisson offered-load sweep around the per-call knee.  The
        # sweep's sojourn p50/p99 rows are the "latency under load"
        # picture a closed loop cannot produce; none are asserted here
        # (the saturation floor is asserted below, median-of-N).
        modes = (("per-call", 0), (f"autopipe-{AUTOPIPE_BATCH}", AUTOPIPE_BATCH))
        saturation = {}
        for mode, batch in modes:
            report = _openloop_report(batch, math.inf)
            saturation[mode] = report
            results.append(_openloop_row(mode, batch, report))
        percall_capacity = saturation["per-call"].achieved_ops_s
        for multiplier in OPENLOOP_LOAD_MULTIPLIERS:
            for mode, batch in modes:
                report = _openloop_report(batch, percall_capacity * multiplier)
                results.append(_openloop_row(mode, batch, report))
        return results

    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    # The asserted pairs get median-of-N on top of the recorded grid.
    redis_speedup, redis_single, redis_striped = _floor_speedup(FLOOR_PAIRS["redis"])
    sql_speedup, sql_global, sql_batched = _floor_speedup(FLOOR_PAIRS["sql"])
    shard_speedup, shard_single, shard_four = _floor_speedup(
        SHARD_PAIR, floor=SHARD_FLOOR_MIN, features_factory=FeatureSet.full
    )
    sql_shard_speedup, sql_shard_single, sql_shard_four = _floor_speedup(
        SQL_SHARD_PAIR, floor=SHARD_FLOOR_MIN, features_factory=FeatureSet.full
    )
    tcp_ratio, tcp_pipe, tcp_sock = _floor_speedup(
        TCP_SHARD_PAIR, floor=0.5, features_factory=FeatureSet.full
    )
    sql_tcp_ratio, sql_tcp_pipe, sql_tcp_sock = _floor_speedup(
        SQL_TCP_SHARD_PAIR, floor=0.5, features_factory=FeatureSet.full
    )
    autopipe_speedup, autopipe_percall, autopipe_fast = _autopipe_floor()
    latency_ratio, latency_percall, latency_auto = _autopipe_latency_ratio(
        autopipe_percall)
    mvcc_parity = _mvcc_read_parity()
    mixed_rw, mixed_mvcc = _mixed_purge_throughputs(ASSERT_SAMPLES)
    if mixed_mvcc / mixed_rw < 2.0:  # same noise escalation as the floors
        mixed_rw, mixed_mvcc = _mixed_purge_throughputs(ASSERT_SAMPLES + 2)
    mixed_speedup = mixed_mvcc / mixed_rw

    payload = {
        "workload": f"ycsb-{WORKLOAD}",
        "profile": PROFILE,
        "record_count": RECORDS,
        "operation_count": OPERATIONS,
        "sql_operation_count": SQL_OPERATIONS,  # the postgres-* rows' size
        "field_count": 1,
        "field_length": 16,
        "thread_counts": list(THREAD_COUNTS),
        "asserted_speedup_at_8_threads": round(redis_speedup, 2),
        "asserted_sql_speedup_at_8_threads": round(sql_speedup, 2),
        "asserted_mvcc_read_parity_at_8_threads": round(mvcc_parity, 2),
        "asserted_mvcc_purge_speedup_at_8_threads": round(mixed_speedup, 2),
        "asserted_shard_speedup_at_8_threads": round(shard_speedup, 2),
        "asserted_sql_shard_speedup_at_8_threads": round(sql_shard_speedup, 2),
        "asserted_tcp_vs_pipe_ratio_at_8_threads": round(tcp_ratio, 2),
        "asserted_sql_tcp_vs_pipe_ratio_at_8_threads": round(sql_tcp_ratio, 2),
        "asserted_autopipe_speedup_at_8_issuers": round(autopipe_speedup, 2),
        "autopipe_floor": 2.0,
        "asserted_autopipe_p99_ratio_at_half_load": round(latency_ratio, 2),
        "autopipe_latency_bound": AUTOPIPE_LATENCY_BOUND,
        "openloop_issuers": OPENLOOP_ISSUERS,
        "tcp_router_tax_floor": 0.5,
        "shard_floor_asserted_min": SHARD_FLOOR_MIN,
        "shard_floor_usable_cores": SHARD_FLOOR_CORES,
        "results": results,
    }
    if PROFILE == "full":
        # Only the canonical profile rewrites the tracked trajectory file.
        with open(BENCH_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    assert redis_speedup >= 2.0, (
        f"striped+pipelined at 8 threads is only {redis_speedup:.2f}x the seed "
        f"single-lock engine ({redis_striped:.0f} vs {redis_single:.0f} ops/s); "
        "the PR 1 tentpole requires >= 2x"
    )
    assert sql_speedup >= 2.0, (
        f"rw+batched minisql at 8 threads is only {sql_speedup:.2f}x the seed "
        f"global-lock engine ({sql_batched:.0f} vs {sql_global:.0f} ops/s); "
        "the PR 2 tentpole requires >= 2x"
    )
    assert mvcc_parity >= 1.0, (
        f"mvcc minisql at 8 threads reads at only {mvcc_parity:.2f}x the "
        "rw+batched configuration on YCSB-C; the PR 3 tentpole requires "
        "snapshot reads to match or beat shared read locks"
    )
    assert mixed_speedup >= 2.0, (
        f"mvcc under a concurrent TTL purge is only {mixed_speedup:.2f}x "
        f"rw+batched ({mixed_mvcc:.0f} vs {mixed_rw:.0f} ops/s); lock-free "
        "snapshot reads must at least double read throughput under purge "
        "contention"
    )
    assert shard_speedup >= SHARD_FLOOR_MIN, (
        f"4-shard minikv at 8 threads (full-GDPR features) is only "
        f"{shard_speedup:.2f}x the 1-shard in-process engine "
        f"({shard_four:.0f} vs {shard_single:.0f} ops/s); with "
        f"{SHARD_FLOOR_CORES} usable core(s) the PR 4 tentpole requires "
        f">= {SHARD_FLOOR_MIN}x (2x on the 4-core CI runners)"
    )
    assert sql_shard_speedup >= SHARD_FLOOR_MIN, (
        f"4-shard minisql at 8 threads (full-GDPR features) is only "
        f"{sql_shard_speedup:.2f}x the in-process Database facade "
        f"({sql_shard_four:.0f} vs {sql_shard_single:.0f} ops/s); with "
        f"{SHARD_FLOOR_CORES} usable core(s) the PR 5 tentpole requires "
        f">= {SHARD_FLOOR_MIN}x (2x on the 4-core CI runners)"
    )
    assert autopipe_speedup >= 2.0, (
        f"autopipe at {OPENLOOP_ISSUERS} open-loop issuers (full-GDPR "
        f"YCSB-{WORKLOAD}) is only {autopipe_speedup:.2f}x the unbatched "
        f"per-call front end ({autopipe_fast:.0f} vs {autopipe_percall:.0f} "
        "ops/s); the PR 8 tentpole requires implicit coalescing to buy "
        ">= 2x without the call sites opting in"
    )
    assert latency_ratio <= AUTOPIPE_LATENCY_BOUND, (
        f"autopipe sojourn p99 at {AUTOPIPE_LATENCY_LOAD}x the per-call "
        f"capacity is {latency_ratio:.2f}x the per-call p99 "
        f"({latency_auto:.0f} vs {latency_percall:.0f} us); the PR 13 "
        f"tentpole bounds it at {AUTOPIPE_LATENCY_BOUND}x — batches must "
        "follow the arrival rate, not wait to fill"
    )
    assert tcp_ratio >= 0.5, (
        f"tcp-transport 4-shard minikv at 8 threads (full-GDPR features) "
        f"sustains only {tcp_ratio:.2f}x the pipe transport "
        f"({tcp_sock:.0f} vs {tcp_pipe:.0f} ops/s); the PR 7 tentpole "
        "bounds the socket router tax at 0.5x pipe throughput"
    )
    assert sql_tcp_ratio >= 0.5, (
        f"tcp-transport 4-shard minisql at 8 threads (full-GDPR features) "
        f"sustains only {sql_tcp_ratio:.2f}x the pipe transport "
        f"({sql_tcp_sock:.0f} vs {sql_tcp_pipe:.0f} ops/s); the PR 7 "
        "tentpole bounds the socket router tax at 0.5x pipe throughput"
    )


def test_sharded_aof_replay_identity(tmp_path):
    """Per-shard AOFs must replay independently into the same union keyspace."""
    from repro.minikv import ShardedMiniKV

    config = MiniKVConfig(
        shards=4, aof_path=str(tmp_path / "sharded.aof"),
        fsync="always", aof_batch_size=32,
    )
    with ShardedMiniKV(config) as kv:
        pipe = kv.pipeline()
        for i in range(400):
            pipe.set(f"k{i}", b"v%d" % i)
        pipe.delete("k0", "k1", "k2")
        pipe.execute()
        kv.hmset("h", {"a": b"1"})
        expected = {
            key: kv.hgetall(key) if key == "h" else kv.get(key)
            for key in kv.keys()
        }
    with ShardedMiniKV(config) as replayed:
        rebuilt = {
            key: replayed.hgetall(key) if key == "h" else replayed.get(key)
            for key in replayed.keys()
        }
    assert rebuilt == expected
    assert len(rebuilt) == 398


def test_sharded_wal_replay_identity(tmp_path):
    """Per-shard WALs must replay independently into the same union store."""
    from repro.minisql import MiniSQLConfig, ShardedDatabase
    from repro.minisql.expr import Cmp
    from repro.minisql.schema import Column
    from repro.minisql.types import TEXT

    config = MiniSQLConfig(
        shards=4, wal_path=str(tmp_path / "sharded_wal.bin"),
        fsync="always", wal_batch_size=32,
    )
    columns = [Column("key", TEXT, nullable=False), Column("val", TEXT)]
    with ShardedDatabase(config) as db:
        db.create_table("t", columns, primary_key="key")
        pipe = db.pipeline()
        for i in range(400):
            pipe.insert("t", {"key": f"k{i}", "val": f"v{i}"})
        pipe.execute()
        db.delete("t", Cmp("key", "=", "k0"))
        db.update("t", {"val": "patched"}, Cmp("key", "=", "k1"))
        expected = sorted(
            (row["key"], row["val"]) for row in db.select("t")
        )
    with ShardedDatabase(config) as replayed:
        rebuilt = sorted(
            (row["key"], row["val"]) for row in replayed.select("t")
        )
    assert rebuilt == expected
    assert len(rebuilt) == 399


def test_group_commit_aof_replay_identity(tmp_path):
    """AOF written under group commit must replay to an identical keyspace."""
    path = str(tmp_path / "grouped.aof")
    with MiniKV(MiniKVConfig(aof_path=path, fsync="always", aof_batch_size=64)) as kv:
        pipe = kv.pipeline()
        for i in range(500):
            pipe.set(f"k{i}", b"v%d" % i)
            if i % 3 == 0:
                pipe.expire(f"k{i}", 3600.0)
        pipe.execute()
        kv.hmset("h", {"a": b"1", "b": b"2"})
        kv.sadd("s", b"x", b"y")
        kv.delete("k0", "k1")
        expected = {
            key: kv.hgetall(key) if key == "h"
            else (kv.smembers(key) if key == "s" else kv.get(key))
            for key in kv.keys()
        }
    with MiniKV(MiniKVConfig(aof_path=path, fsync="always")) as replayed:
        rebuilt = {
            key: replayed.hgetall(key) if key == "h"
            else (replayed.smembers(key) if key == "s" else replayed.get(key))
            for key in replayed.keys()
        }
    assert rebuilt == expected
    assert len(rebuilt) == 500  # 502 written, 2 deleted
