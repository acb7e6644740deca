#!/usr/bin/env python3
"""Standalone shard worker server: one shard of a sharded deployment, on TCP.

The multi-process sharded engines normally spawn their own workers; this
entrypoint runs one worker as an *external* process instead, so shards
can live on other hosts (or be supervised independently).  A front
configured with ``transport="tcp"`` and ``shard_addresses=[...]``
connects here.

Each accepted connection gets a freshly constructed engine that replays
this shard's persistence file first, exactly the respawn-replay recovery
semantics of the in-router workers (see docs/sharding.md).  Connections
are served one at a time.

SIGTERM/SIGINT shut the server down gracefully: the listener closes, the
in-flight request gets its reply, and the engine closes so its AOF/WAL
flushes — a supervisor's ``terminate()`` never drops acknowledged
writes.

Usage::

    tools/shard_server.py --engine minikv  --port 7101 --config-json '{"aof_path": "/data/kv.aof.shard0", "fsync": "always"}'
    tools/shard_server.py --engine minisql --port 7201 --config-json '{"wal_path": "/data/sql.wal.shard1"}'

The config JSON holds ``MiniKVConfig`` / ``MiniSQLConfig`` fields for
**this one shard** (so persistence paths should already carry their
``.shard<i>`` suffix; ``shards`` must stay 1; an unknown field is a
usage error naming the valid ones).  The server prints
``listening on <host>:<port>`` once bound — with ``--port 0`` the kernel
picks the port and the line is how a supervisor learns it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.common.errors import KVError, SQLError  # noqa: E402
from repro.common.netshard import ShardServer  # noqa: E402


def _config_class(engine: str):
    if engine == "minikv":
        from repro.minikv.engine import MiniKVConfig

        return MiniKVConfig
    from repro.minisql.database import MiniSQLConfig

    return MiniSQLConfig


def _build(engine: str, config):
    """(engine factory, run_batch, error factory) for one engine family."""
    if engine == "minikv":
        from repro.minikv.sharded import _ShardBackend, _run_engine_batch

        return (lambda: _ShardBackend(config)), _run_engine_batch, KVError
    from repro.minisql.sharded import _ShardBackend, _run_statement_batch

    return (lambda: _ShardBackend(config)), _run_statement_batch, SQLError


def _serve(args, engine_factory, run_batch, error_factory) -> int:
    server = ShardServer(args.host, args.port, engine_factory, run_batch,
                         error_factory)
    stop = threading.Event()

    def on_signal(_signum, _frame) -> None:
        stop.set()
        server.close()  # wakes a blocked accept()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    print(f"listening on {server.host}:{server.port}", flush=True)
    try:
        if args.once:
            server.serve_one(should_stop=stop.is_set)
        else:
            server.serve_forever(should_stop=stop.is_set)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=("minikv", "minisql"),
                        required=True, help="which engine family this shard runs")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default loopback)")
    parser.add_argument("--port", type=int, default=0,
                        help="bind port (0 = kernel-assigned, printed on stdout)")
    parser.add_argument("--config-json", default="{}",
                        help="engine config fields for this shard, as JSON")
    parser.add_argument("--once", action="store_true",
                        help="serve a single connection then exit (tests)")
    args = parser.parse_args(argv)

    try:
        config_fields = json.loads(args.config_json)
    except json.JSONDecodeError as exc:
        parser.error(f"--config-json is not valid JSON: {exc}")
    if not isinstance(config_fields, dict):
        parser.error("--config-json must be a JSON object of config fields")
    config_class = _config_class(args.engine)
    valid = sorted(f.name for f in dataclasses.fields(config_class))
    unknown = sorted(set(config_fields) - set(valid))
    if unknown:
        parser.error(f"unknown {config_class.__name__} field(s) "
                     f"{', '.join(unknown)}; valid fields: {', '.join(valid)}")
    if config_fields.get("shards", 1) != 1:
        parser.error("a shard server runs exactly one shard (shards must be 1)")
    engine_factory, run_batch, error_factory = _build(
        args.engine, config_class(**config_fields)
    )
    return _serve(args, engine_factory, run_batch, error_factory)


if __name__ == "__main__":
    raise SystemExit(main())
