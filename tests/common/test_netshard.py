"""Frame-level tests for the TCP shard transport.

The wire format is a 4-byte big-endian length prefix plus pickle; the
contract the router relies on is the *error taxonomy*: a clean peer
close on a frame boundary is ``EOFError`` (same as a closed pipe), and
every flavour of stream rot — truncation mid-frame, a garbage length
prefix, an unpicklable payload — is :class:`FrameError`, which subclasses
``ConnectionError`` so the router's ``except (EOFError, OSError)``
respawn path covers it without a special case.
"""

import pickle
import socket
import struct
import threading

import pytest

from repro.common.errors import KVError, WrongTypeError
from repro.common.netshard import (
    MAX_FRAME_BYTES,
    FrameError,
    ShardServer,
    SocketConnection,
    connect_shard,
    recv_frame,
    send_frame,
)
from repro.minikv.engine import MiniKV
from repro.minikv.sharded import _run_engine_batch


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


class TestFrames:
    def test_round_trip(self, pair):
        a, b = pair
        message = ("call", "get", ("user1",), {})
        send_frame(a, message)
        assert recv_frame(b) == message

    def test_round_trip_large_payload(self, pair):
        a, b = pair
        blob = b"x" * (2 << 20)  # spans many recv() chunks
        sender = threading.Thread(target=send_frame, args=(a, blob))
        sender.start()
        assert recv_frame(b) == blob
        sender.join()

    def test_clean_close_is_eof(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(EOFError):
            recv_frame(b)

    def test_truncated_header_is_frame_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a length prefix, then gone
        a.close()
        with pytest.raises(FrameError):
            recv_frame(b)

    def test_truncated_payload_is_frame_error(self, pair):
        a, b = pair
        payload = pickle.dumps("hello")
        a.sendall(struct.pack("!I", len(payload)) + payload[:3])
        a.close()
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(b)

    def test_garbage_length_prefix_is_frame_error(self, pair):
        a, b = pair
        a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"junk")
        with pytest.raises(FrameError, match="implausible"):
            recv_frame(b)

    def test_garbage_payload_is_frame_error(self, pair):
        a, b = pair
        junk = b"\x93NOT-A-PICKLE"
        a.sendall(struct.pack("!I", len(junk)) + junk)
        with pytest.raises(FrameError, match="garbage"):
            recv_frame(b)

    def test_frame_error_is_a_connection_error(self):
        # the property the router's recovery path relies on
        assert issubclass(FrameError, ConnectionError)
        assert issubclass(FrameError, OSError)


class _PingEngine:
    """Minimal engine for exercising the server's serve loop."""

    instances = 0

    def __init__(self):
        type(self).instances += 1
        self.serial = type(self).instances
        self.closed = False

    def ping(self):
        return ("pong", self.serial)

    def boom(self):
        raise ValueError("kaboom")

    def gift(self):
        return lambda: None  # unpicklable on purpose

    def close(self):
        self.closed = True


def _run_batch(engine, calls):
    return [getattr(engine, method)(*args, **kwargs)
            for method, args, kwargs in calls]


def _serve(engine_factory, run_batch):
    srv = ShardServer("127.0.0.1", 0, engine_factory, run_batch, KVError)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


@pytest.fixture
def server():
    _PingEngine.instances = 0
    srv, thread = _serve(_PingEngine, _run_batch)
    yield srv
    srv.close()
    thread.join(timeout=5)


@pytest.fixture
def kv_server():
    """A real minikv engine behind the server, batches via the engine hook."""
    srv, thread = _serve(MiniKV, _run_engine_batch)
    yield srv
    srv.close()
    thread.join(timeout=5)


class TestShardServer:
    def test_call_and_stop(self, server):
        conn = connect_shard(server.host, server.port)
        conn.send(("call", "ping", (), {}))
        assert conn.recv() == ("ok", ("pong", 1))
        conn.send(("batch", [("ping", (), {}), ("ping", (), {})]))
        status, payload = conn.recv()
        assert status == "ok" and len(payload) == 2
        conn.send(("stop",))
        assert conn.recv() == ("ok", None)
        conn.close()

    def test_engine_exception_is_an_err_reply(self, server):
        conn = connect_shard(server.host, server.port)
        conn.send(("call", "boom", (), {}))
        status, exc = conn.recv()
        assert status == "err"
        assert isinstance(exc, ValueError)
        # the connection survives an engine error: strictly one reply
        # per message, stream still in sync
        conn.send(("call", "ping", (), {}))
        assert conn.recv()[0] == "ok"
        conn.close()

    def test_unpicklable_reply_degrades_instead_of_desyncing(self, server):
        conn = connect_shard(server.host, server.port)
        conn.send(("call", "gift", (), {}))
        status, exc = conn.recv()
        # the reply could not cross the wire: it degrades through the
        # engine family's error, and the stream stays in sync
        assert status == "err"
        assert isinstance(exc, KVError) and "unserialisable" in str(exc)
        conn.send(("call", "ping", (), {}))
        assert conn.recv() == ("ok", ("pong", 1))
        conn.close()

    def test_batch_runs_through_engine_hook_per_slot_errors(self, kv_server):
        conn = connect_shard(kv_server.host, kv_server.port)
        conn.send(("batch", [
            ("set", ("a", b"1"), {}),
            ("hgetall", ("a",), {}),   # poisoned: WRONGTYPE at execution
            ("set", (), {}),           # poisoned: arity error at queue time
            ("get", ("a",), {}),
        ]))
        status, results = conn.recv()
        # one message, one reply; each poisoned slot fails alone
        assert status == "ok" and len(results) == 4
        assert results[0] is None
        assert isinstance(results[1], WrongTypeError)
        assert isinstance(results[2], TypeError)
        assert results[3] == b"1"
        conn.send(("stop",))
        assert conn.recv() == ("ok", None)
        conn.close()

    def test_connect_retries_then_raises(self):
        # nothing listens here: bind-and-close to claim a dead port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()
        with pytest.raises(ConnectionError, match=f"{host}:{port}"):
            connect_shard(host, port, retries=3, delay=0.01)

    def test_fresh_engine_per_connection(self, server):
        first = connect_shard(server.host, server.port)
        first.send(("call", "ping", (), {}))
        assert first.recv() == ("ok", ("pong", 1))
        first.close()  # abrupt: no stop message
        second = connect_shard(server.host, server.port)
        second.send(("call", "ping", (), {}))
        # a new connection gets a newly-constructed engine — the
        # respawn-replay semantics external shards promise the router
        assert second.recv() == ("ok", ("pong", 2))
        second.send(("stop",))
        second.recv()
        second.close()

    def test_mid_frame_disconnect_does_not_kill_server(self, server):
        raw = socket.create_connection((server.host, server.port))
        raw.sendall(struct.pack("!I", 1024) + b"partial")
        raw.close()  # server sees a truncated frame mid-read
        conn = connect_shard(server.host, server.port)
        conn.send(("call", "ping", (), {}))
        assert conn.recv()[0] == "ok"
        conn.send(("stop",))
        conn.recv()
        conn.close()

    def test_socket_connection_adapts_pipe_surface(self):
        # a real TCP pair: SocketConnection sets TCP_NODELAY, which
        # AF_UNIX socketpairs reject
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        a = socket.create_connection(listener.getsockname()[:2])
        b, _ = listener.accept()
        listener.close()
        left, right = SocketConnection(a), SocketConnection(b)
        left.send({"k": b"v"})
        assert right.recv() == {"k": b"v"}
        assert isinstance(right.fileno(), int)
        left.close()
        with pytest.raises(EOFError):
            right.recv()
        right.close()
