"""Per-layer metrics of the traced pass, and the probes behind some of them.

Every name in ``BENCHMARK.json``'s ``per_layer`` list is produced here,
for every workload: a layer that does not run on a workload (the minikv
engine on ``sql-*``, the shard transport on in-process deployments, the
engines themselves on sharded deployments, whose workers are untraced
forked processes) reports 0 — absent by design.  ``per_op`` divides by
the benchmark operations of the traced windows.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import tempfile
import time

from . import harness
from .harness import (
    CUSTOMER, RECORD_COUNT, ROLES, STREAM_OPS, USER_COUNT, BenchmarkViolation,
    Principal, RecordCorpusConfig, build_client, generate_corpus, key_for,
    make_operations, percentile, run_round,
)

#: customer-stream operations the durability probe runs before the restart
DURABILITY_OPS = 300
#: keys re-read after the restart
DURABILITY_SAMPLE = 64
#: unthrottled open-loop operations of the saturation probe (~5 s here)
SATURATION_SCALE = 5.0

LAYER_METRIC_UNITS = {
    "clients.self_us_per_op": "us",
    "clients.pipeline.batch_mean": "count",
    "clients.key_p99_us": "us",
    **{f"clients.role.{role}.ops_s": "ops/s" for role in ROLES},
    **{f"clients.op.{op}.p50_us": "us" for op in STREAM_OPS},
    "gdpr.acl.calls_per_op": "count",
    "gdpr.acl.self_us_per_op": "us",
    "crypto.tls.calls_per_op": "count",
    "crypto.tls.self_us_per_op": "us",
    "crypto.tls.bytes_per_op": "bytes",
    "crypto.tls.connect_ms": "ms",
    "crypto.luks.calls_per_op": "count",
    "crypto.luks.self_us_per_op": "us",
    "crypto.luks.bytes_per_op": "bytes",
    "minikv.engine.calls_per_op": "count",
    "minikv.engine.scan_calls_per_op": "count",
    "minikv.engine.self_us_per_op": "us",
    "minikv.engine.fetched_per_returned": "ratio",
    "minikv.engine.two_thread_ratio": "ratio",
    "minikv.expiry.runs_per_op": "count",
    "minikv.expiry.self_us_per_op": "us",
    "minikv.aof.appends_per_op": "count",
    "minikv.aof.bytes_per_op": "bytes",
    "minikv.aof.self_us_per_op": "us",
    "minikv.aof.flushes": "count",
    "minikv.aof.replay_us_per_entry": "us",
    "minisql.database.calls_per_op": "count",
    "minisql.database.self_us_per_op": "us",
    "minisql.database.two_thread_ratio": "ratio",
    "minisql.executor.calls_per_op": "count",
    "minisql.executor.self_us_per_op": "us",
    "minisql.wal.appends_per_op": "count",
    "minisql.wal.bytes_per_op": "bytes",
    "minisql.wal.self_us_per_op": "us",
    "minisql.wal.flushes": "count",
    "minisql.wal.replay_us_per_record": "us",
    "minisql.csvlog.lines_per_op": "count",
    "minisql.csvlog.bytes_per_op": "bytes",
    "minisql.csvlog.self_us_per_op": "us",
    "minisql.ttl_daemon.runs": "count",
    "minisql.ttl_daemon.busy_ms": "ms",
    "gdpr.audit.calls": "count",
    "gdpr.audit.self_ms_per_call": "ms",
    "common.sharding.exchanges_per_op": "count",
    "common.sharding.fanout_mean": "count",
    "common.sharding.wait_us_per_op": "us",
    "common.sharding.self_us_per_op": "us",
    "common.netshard.frames_per_op": "count",
    "common.netshard.bytes_per_frame": "bytes",
    "common.netshard.encode_us_per_frame": "us",
    "common.netshard.decode_us_per_frame": "us",
    "common.hashring.lookups_per_op": "count",
    "common.hashring.self_us_per_op": "us",
    "clients.futures.flushes": "count",
    "clients.futures.batch_mean": "count",
    "clients.futures.saturation_ops_s": "ops/s",
    "loadgen.lateness_p99_us": "us",
    "loadgen.host_spin_p50_us": "us",
    "trace.overhead_pct": "%",
}

_CALLS, _TOTAL, _SELF, _WEIGHT = range(4)

_ROLE_OPS = {spec.name: frozenset(name for name, _ in spec.mix)
             for spec in harness.ROLE_SPECS}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(run, tracer, reference_ops_s: float, probes: dict,
                  host_spin_p50_us: float) -> dict:
    """``name -> (value, unit)`` for every per-layer metric."""
    rounds = run.rounds
    ops = run.attempted
    by_name: dict[str, list[int]] = {name: [0, 0, 0, 0] for name in tracer.names}
    for result in rounds:
        for name, row in result.layer_totals.items():
            for column in range(4):
                by_name[name][column] += row[column]
    by_layer: dict[str, list[int]] = {}
    for name, layer in zip(tracer.names, tracer.layers):
        total = by_layer.setdefault(layer, [0, 0, 0, 0])
        for column in range(4):
            total[column] += by_name[name][column]

    def point(name: str, column: int) -> int:
        return by_name.get(name, (0, 0, 0, 0))[column]

    def layer(name: str, column: int) -> int:
        return by_layer.get(name, (0, 0, 0, 0))[column]

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def self_us_per_op(name: str) -> float:
        return per_op(layer(name, _SELF) / 1e3)

    values: dict[str, float] = {}
    values["clients.self_us_per_op"] = self_us_per_op("clients")
    batches = [size for r in rounds for size in r.batches]
    values["clients.pipeline.batch_mean"] = _ratio(sum(batches), len(batches))
    for role in ROLES:
        role_ops = sum(
            1 for r in rounds for name, _, _ in r.samples
            if role in r.segments_s and name in _ROLE_OPS[role]
        )
        values[f"clients.role.{role}.ops_s"] = _ratio(
            role_ops, sum(r.segments_s.get(role, 0.0) for r in rounds))
    latencies: dict[str, list[int]] = {}
    for r in rounds:
        for name, spent, _ in r.samples:
            latencies.setdefault(name, []).append(spent)
    for op in STREAM_OPS:
        values[f"clients.op.{op}.p50_us"] = percentile(
            sorted(latencies.get(op, ())), 50.0) / 1e3
    values["clients.key_p99_us"] = percentile(run.latencies_us(keyed=True), 99.0)

    for name in ("gdpr.acl", "crypto.tls", "crypto.luks"):
        values[f"{name}.calls_per_op"] = per_op(layer(name, _CALLS))
        values[f"{name}.self_us_per_op"] = self_us_per_op(name)
    values["crypto.tls.bytes_per_op"] = per_op(layer("crypto.tls", _WEIGHT))
    values["crypto.luks.bytes_per_op"] = per_op(layer("crypto.luks", _WEIGHT))
    values["crypto.tls.connect_ms"] = statistics.median(
        cost for r in rounds for cost in r.connect_ms)

    values["minikv.engine.calls_per_op"] = per_op(layer("minikv.engine", _CALLS))
    values["minikv.engine.scan_calls_per_op"] = per_op(point("MiniKV.scan", _CALLS))
    values["minikv.engine.self_us_per_op"] = self_us_per_op("minikv.engine")
    fetched = (point("MiniKV.hgetall", _CALLS) + point("Pipeline.execute", _WEIGHT)
               + point("ShardedMiniKV.hgetall", _CALLS)
               + point("ShardedPipeline.execute", _WEIGHT))
    values["minikv.engine.fetched_per_returned"] = _ratio(
        fetched, sum(r.returned for r in rounds))
    values["minikv.engine.two_thread_ratio"] = probes.get("minikv.two_thread_ratio", 0.0)
    values["minikv.expiry.runs_per_op"] = per_op(layer("minikv.expiry", _CALLS))
    values["minikv.expiry.self_us_per_op"] = self_us_per_op("minikv.expiry")
    values["minikv.aof.appends_per_op"] = per_op(
        point("AOFWriter.append", _CALLS) + point("AOFWriter.append_many", _CALLS))
    values["minikv.aof.bytes_per_op"] = per_op(sum(r.log_bytes["aof"] for r in rounds))
    values["minikv.aof.self_us_per_op"] = self_us_per_op("minikv.aof")
    values["minikv.aof.flushes"] = point("AOFWriter.flush", _CALLS)
    values["minikv.aof.replay_us_per_entry"] = probes.get("aof.replay_us", 0.0)

    values["minisql.database.calls_per_op"] = per_op(layer("minisql.database", _CALLS))
    values["minisql.database.self_us_per_op"] = self_us_per_op("minisql.database")
    values["minisql.database.two_thread_ratio"] = probes.get("minisql.two_thread_ratio", 0.0)
    values["minisql.executor.calls_per_op"] = per_op(layer("minisql.executor", _CALLS))
    values["minisql.executor.self_us_per_op"] = self_us_per_op("minisql.executor")
    values["minisql.wal.appends_per_op"] = per_op(point("WALWriter.append", _CALLS))
    values["minisql.wal.bytes_per_op"] = per_op(sum(r.log_bytes["wal"] for r in rounds))
    values["minisql.wal.self_us_per_op"] = self_us_per_op("minisql.wal")
    values["minisql.wal.flushes"] = point("WALWriter.flush", _CALLS)
    values["minisql.wal.replay_us_per_record"] = probes.get("wal.replay_us", 0.0)
    values["minisql.csvlog.lines_per_op"] = per_op(point("CSVLogger.log", _CALLS))
    values["minisql.csvlog.bytes_per_op"] = per_op(
        sum(r.log_bytes["csvlog"] for r in rounds))
    values["minisql.csvlog.self_us_per_op"] = self_us_per_op("minisql.csvlog")
    values["minisql.ttl_daemon.runs"] = layer("minisql.ttl_daemon", _CALLS)
    values["minisql.ttl_daemon.busy_ms"] = layer("minisql.ttl_daemon", _TOTAL) / 1e6
    values["gdpr.audit.calls"] = layer("gdpr.audit", _CALLS)
    values["gdpr.audit.self_ms_per_call"] = _ratio(
        layer("gdpr.audit", _SELF) / 1e6, layer("gdpr.audit", _CALLS))

    sends = point("SocketConnection.send", _CALLS)
    receives = point("SocketConnection.recv", _CALLS)
    values["common.sharding.exchanges_per_op"] = per_op(receives)
    values["common.sharding.fanout_mean"] = _ratio(sends, layer("common.sharding", _CALLS))
    values["common.sharding.wait_us_per_op"] = per_op(
        point("SocketConnection.recv", _SELF) / 1e3)
    values["common.sharding.self_us_per_op"] = self_us_per_op("common.sharding")
    values["common.netshard.frames_per_op"] = per_op(sends + receives)
    values["common.netshard.bytes_per_frame"] = _ratio(
        point("netshard.encode", _WEIGHT) + point("netshard.decode", _WEIGHT),
        sends + receives)
    values["common.netshard.encode_us_per_frame"] = _ratio(
        point("netshard.encode", _TOTAL) / 1e3, sends)
    values["common.netshard.decode_us_per_frame"] = _ratio(
        point("netshard.decode", _TOTAL) / 1e3, receives)
    values["common.hashring.lookups_per_op"] = per_op(point("HashRing.owner", _CALLS))
    values["common.hashring.self_us_per_op"] = self_us_per_op("common.hashring")

    flushes = sum(r.flushes for r in rounds)
    values["clients.futures.flushes"] = flushes
    values["clients.futures.batch_mean"] = _ratio(ops, flushes) if flushes else 0.0
    values["clients.futures.saturation_ops_s"] = probes.get("saturation_ops_s", 0.0)
    values["loadgen.lateness_p99_us"] = percentile(
        sorted(late for r in rounds for late in r.lateness_ns), 99.0) / 1e3
    values["loadgen.host_spin_p50_us"] = host_spin_p50_us
    traced_ops_s = _ratio(ops, run.window_s)
    values["trace.overhead_pct"] = 100.0 * _ratio(
        reference_ops_s - traced_ops_s, reference_ops_s)

    if set(values) != set(LAYER_METRIC_UNITS):
        raise AssertionError("layer metric names drifted from LAYER_METRIC_UNITS")
    for name, value in values.items():
        if not math.isfinite(value):
            raise BenchmarkViolation(f"layer metric {name} is not finite: {value}")
    return {name: (float(values[name]), unit)
            for name, unit in LAYER_METRIC_UNITS.items()}


def total_self_ns(run) -> int:
    """Sum of every wrapped call's self time over the traced windows."""
    return sum(row[_SELF] for r in run.rounds for row in r.layer_totals.values())


# ---------------------------------------------------------------------------
# Probes (traced pass only; they run untraced)
# ---------------------------------------------------------------------------

def durability_probe(workload, seed: int, work_dir: str, scale: float = 1.0,
                     speed=None) -> dict:
    """Load, run the first customer operations, close, reopen on the same
    ``data_dir``; the reopened store must hold the same records and no
    acknowledged delete may come back.  Returns the replay cost per log
    entry; raises :class:`BenchmarkViolation` on any mismatch."""
    from repro.crypto.luks import FileCipher
    from repro.minikv.aof import load_aof
    from repro.minisql.wal import load_wal

    sub_seed = seed * 64 + 63
    corpus = RecordCorpusConfig(record_count=RECORD_COUNT, user_count=USER_COUNT,
                                seed=sub_seed)
    records = generate_corpus(corpus)
    operations = make_operations(
        CUSTOMER, corpus, max(20, int(DURABILITY_OPS * scale)), seed=sub_seed)
    sample_keys = [key_for(i * (RECORD_COUNT // DURABILITY_SAMPLE))
                   for i in range(DURABILITY_SAMPLE)]
    regulator, processor = Principal.regulator(), Principal.processor()

    def observe(client):
        return (client.record_count(),
                [client.read_data_by_key(processor, key) for key in sample_keys])

    data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-durability-", dir=work_dir)
    try:
        client = build_client(workload, data_dir)
        try:
            client.load_records(records)
            deleted = []
            for op in operations:
                response = op.execute(client)
                if op.name == "delete-record-by-key" and response == 1:
                    deleted.append(op.execute.__defaults__[1])
            before = observe(client)
        finally:
            client.close()
        began = time.perf_counter_ns()
        client = build_client(workload, data_dir)
        ended = time.perf_counter_ns()
        reopen_s = (speed.normalise(began, ended) if speed else ended - began) / 1e9
        try:
            after = observe(client)
            resurrected = [key for key in deleted
                           if not client.verify_deletion(regulator, key)]
        finally:
            client.close()
        if before != after:
            raise BenchmarkViolation(
                f"{workload.name}: state after restart differs: "
                f"{before[0]} records before, {after[0]} after")
        if resurrected:
            raise BenchmarkViolation(
                f"{workload.name}: acknowledged deletes came back after "
                f"restart: {resurrected[:5]}")
        cipher = FileCipher()
        entries = 0
        for name in os.listdir(data_dir):
            path = os.path.join(data_dir, name)
            if name.endswith(".topology"):
                continue
            if "aof" in name:
                entries += len(load_aof(path, cipher=cipher))
            elif "wal" in name:
                entries += len(load_wal(path, cipher=cipher))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    harness.check_clean(workload, data_dir)
    key = "aof.replay_us" if workload.engine == "redis" else "wal.replay_us"
    return {key: reopen_s * 1e6 / max(entries, 1), "replay_entries": entries,
            "reopen_s": reopen_s, "deletes_checked": len(deleted)}


def two_thread_probe(workload, seed: int, work_dir: str, scale: float = 1.0,
                     speed=None) -> dict:
    """2-client / 1-client ops/s on the round's processor stream (in-process
    deployments only): < 1 means a lock/GIL convoy.  Report-only."""
    rates = []
    for clients in (1, 2):
        result = run_round(workload, seed, 62, work_dir, scale=scale, speed=speed,
                           clients=clients, roles=("processor",))
        if result.failed:
            raise BenchmarkViolation(f"{workload.name}: two-thread probe op failed")
        rates.append(result.attempted / result.window_s)
    engine = "minikv" if workload.engine == "redis" else "minisql"
    return {f"{engine}.two_thread_ratio": rates[1] / rates[0]}


def saturation_probe(workload, seed: int, work_dir: str, scale: float = 1.0,
                     speed=None) -> dict:
    """Unthrottled arrivals through the same autopipe issuers: the
    throughput side of a flush-policy change.  Report-only."""
    result = run_round(workload, seed, 61, work_dir, speed=speed,
                       scale=SATURATION_SCALE * scale, open_rate=math.inf)
    if result.failed:
        raise BenchmarkViolation(f"{workload.name}: saturation probe op failed")
    return {"saturation_ops_s": result.attempted / result.window_s}


def run_probes(workload, seed: int, work_dir: str, scale: float = 1.0,
               speed=None) -> dict:
    probes = durability_probe(workload, seed, work_dir, scale, speed)
    if workload.mode == "open":
        probes.update(saturation_probe(workload, seed, work_dir, scale, speed))
    elif not any(name == "shards" for name, _ in workload.client_kwargs):
        probes.update(two_thread_probe(workload, seed, work_dir, scale, speed))
    return probes
