"""Repo hygiene: tracked-file rules the CI guard also enforces.

PR 4 accidentally committed 61 ``__pycache__/*.pyc`` files; PR 5 removed
them, added the root ``.gitignore``, and wired a CI guard into the docs
job.  This tier-1 twin keeps the rule enforced for anyone running the
suite locally without the workflow.  It also pins deletions: run
artefacts stay untracked, and removed knobs and modules stay removed.
"""

import dataclasses
import importlib
import inspect
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _tracked_files() -> list[str]:
    try:
        out = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git unavailable")
    if out.returncode != 0:
        pytest.skip("not a git checkout")
    return out.stdout.splitlines()


def test_no_tracked_bytecode():
    offenders = [
        path for path in _tracked_files()
        if path.endswith(".pyc") or "__pycache__" in path.split("/")
    ]
    assert offenders == [], (
        "Python bytecode is tracked; git rm -r --cached these and rely on "
        f".gitignore: {offenders[:10]}"
    )


def test_gitignore_covers_bytecode():
    with open(os.path.join(REPO_ROOT, ".gitignore"), encoding="utf-8") as handle:
        lines = {line.strip() for line in handle}
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
        assert pattern in lines, f".gitignore lost the {pattern} rule"


def test_benchmark_figures_untracked():
    # every benchmark run rewrites it; CI uploads it as an artifact
    assert "benchmark_figures.txt" not in _tracked_files()
    with open(os.path.join(REPO_ROOT, ".gitignore"), encoding="utf-8") as handle:
        lines = {line.strip() for line in handle}
    assert {"benchmark_figures.txt", ".hypothesis/"} <= lines


#: knobs deleted because nothing set them to anything but their default
#: (``ttl_algorithm`` is the one TTL switch; the ring's vnode count and
#: the worker start method are fixed)
REMOVED_KNOBS = {"strict_ttl", "ring_vnodes", "start_method"}


def test_removed_knobs_stay_removed():
    from repro.clients.redis_client import RedisGDPRClient
    from repro.clients.sql_client import SQLGDPRClient
    from repro.common.sharding import ShardRouter
    from repro.minikv.engine import MiniKV, MiniKVConfig
    from repro.minikv.sharded import ShardedMiniKV
    from repro.minisql.database import Database, MiniSQLConfig
    from repro.minisql.sharded import ShardedDatabase

    for config in (MiniKVConfig, MiniSQLConfig):
        fields = {f.name for f in dataclasses.fields(config)}
        assert not fields & REMOVED_KNOBS, config
    for cls in (RedisGDPRClient, SQLGDPRClient, ShardRouter, ShardedMiniKV,
                ShardedDatabase, MiniKV, Database):
        params = set(inspect.signature(cls.__init__).parameters)
        assert not params & REMOVED_KNOBS, cls


def test_shard_server_cli_has_no_loop_flag():
    script = os.path.join(REPO_ROOT, "tools", "shard_server.py")
    proc = subprocess.run([sys.executable, script, "--help"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "--engine" in proc.stdout
    assert "--loop" not in proc.stdout


def test_asyncio_shard_server_is_gone():
    # netshard.ShardServer is the only shard server
    with pytest.raises(ImportError):
        importlib.import_module("repro.common.asyncserve")
