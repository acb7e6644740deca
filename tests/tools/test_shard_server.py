"""The standalone shard server CLI and the addressed-TCP deployment mode.

``tools/shard_server.py`` runs one shard worker as an external process:
a front configured with ``transport="tcp"`` and ``shard_addresses``
connects instead of spawning.  The CLI prints ``listening on
<host>:<port>`` once bound (how a supervisor learns a ``--port 0``
binding), builds a fresh engine per accepted connection (replaying the
shard's persistence file — the respawn-replay recovery contract), and
refuses configs with ``shards != 1``.
"""

import os
import re
import subprocess
import sys

import json

import pytest

from repro.minikv import MiniKVConfig, ShardedMiniKV, shard_aof_path

REPO = os.path.join(os.path.dirname(__file__), "..", "..")
SCRIPT = os.path.abspath(os.path.join(REPO, "tools", "shard_server.py"))


def start_server(*args):
    proc = subprocess.Popen(
        [sys.executable, SCRIPT, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    match = re.fullmatch(r"listening on (\S+):(\d+)", line)
    assert match, f"unexpected banner: {line!r} (stderr: {proc.stderr.read()})"
    return proc, match.group(1), int(match.group(2))


@pytest.fixture
def servers(tmp_path):
    """Two external minikv shard servers plus their front's config."""
    base = str(tmp_path / "kv.aof")
    procs, addresses = [], []
    for i in range(2):
        config = {"aof_path": shard_aof_path(base, i), "fsync": "always"}
        proc, host, port = start_server(
            "--engine", "minikv", "--config-json", json.dumps(config),
        )
        procs.append(proc)
        addresses.append(f"{host}:{port}")
    yield base, tuple(addresses), procs
    for proc in procs:
        proc.terminate()
        proc.wait(timeout=10)


def make_front(base, addresses):
    return ShardedMiniKV(MiniKVConfig(
        shards=len(addresses), transport="tcp", shard_addresses=addresses,
        aof_path=base, fsync="always",
    ))


class TestCLI:
    def test_rejects_multi_shard_config(self):
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--engine", "minikv",
             "--config-json", '{"shards": 2}'],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "shards must be 1" in proc.stderr

    @pytest.mark.parametrize("engine, config_class", [
        ("minikv", "MiniKVConfig"), ("minisql", "MiniSQLConfig"),
    ])
    def test_rejects_unknown_config_field(self, engine, config_class):
        # e.g. a knob an older release accepted, left in an operator's config
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--engine", engine,
             "--config-json", '{"strict_ttl": true}'],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"unknown {config_class} field(s) strict_ttl" in proc.stderr
        assert "valid fields:" in proc.stderr and "shards" in proc.stderr

    def test_once_serves_one_connection_then_exits(self, tmp_path):
        proc, host, port = start_server("--engine", "minikv", "--once")
        from repro.common.netshard import connect_shard

        conn = connect_shard(host, port)
        conn.send(("call", "set", ("k", b"v"), {}))
        assert conn.recv() == ("ok", None)
        conn.send(("call", "get", ("k",), {}))
        assert conn.recv() == ("ok", b"v")
        conn.send(("stop",))
        assert conn.recv() == ("ok", None)
        conn.close()
        assert proc.wait(timeout=10) == 0

    def test_minisql_engine_serves(self, tmp_path):
        proc, host, port = start_server(
            "--engine", "minisql", "--once",
            "--config-json", json.dumps(
                {"wal_path": str(tmp_path / "db.wal.shard0")}),
        )
        from repro.common.netshard import connect_shard

        conn = connect_shard(host, port)
        conn.send(("call", "dump_catalog", (), {}))
        status, catalog = conn.recv()
        assert status == "ok"
        assert catalog["tables"] == []
        conn.send(("stop",))
        conn.recv()
        conn.close()
        proc.wait(timeout=10)


class TestGracefulShutdown:
    """SIGTERM: the server exits 0 with acknowledged writes on disk."""

    def test_sigterm_exits_zero_and_preserves_writes(self, tmp_path):
        import signal

        base = str(tmp_path / "kv.aof")
        config = {"aof_path": shard_aof_path(base, 0), "fsync": "always"}
        argv = ("--engine", "minikv", "--config-json", json.dumps(config))
        proc, host, port = start_server(*argv)
        with make_front(base, (f"{host}:{port}",)) as kv:
            kv.set("k", b"durable")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        # a replacement server replays the same AOF: the write survived
        proc, host, port = start_server(*argv)
        try:
            with make_front(base, (f"{host}:{port}",)) as kv:
                assert kv.get("k") == b"durable"
        finally:
            proc.terminate()
            proc.wait(timeout=10)


class TestAddressedFront:
    def test_front_serves_through_external_shards(self, servers):
        base, addresses, _procs = servers
        with make_front(base, addresses) as kv:
            for i in range(30):
                kv.set(f"k{i}", b"v%d" % i)
            assert kv.dbsize() == 30
            assert kv.get("k11") == b"v11"
            info = kv.info()
            assert info["shards"] == 2
            assert sum(info["keys_per_shard"]) == 30

    def test_reconnect_replays_persistence(self, servers):
        base, addresses, _procs = servers
        with make_front(base, addresses) as kv:
            for i in range(20):
                kv.set(f"k{i}", b"v%d" % i)
        # a brand-new front connects to the same servers: each accepted
        # connection gets a fresh engine replayed from this shard's AOF
        with make_front(base, addresses) as kv:
            assert kv.dbsize() == 20
            assert kv.get("k3") == b"v3"

    def test_servers_outlive_the_front(self, servers):
        base, addresses, procs = servers
        with make_front(base, addresses) as kv:
            kv.set("k", b"v")
        assert all(proc.poll() is None for proc in procs)
