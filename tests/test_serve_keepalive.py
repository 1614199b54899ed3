"""Persistent HTTP/1.1 connections between the server and AsyncServeClient.

The server keeps a connection open across requests until the client
asks to close it, it idles out, a read is malformed or the server
drains; the async client pools idle connections per event loop.  These
tests pin both halves, against the real server and against scripted
socket stubs for the races a real server cannot be made to lose on
demand.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.serve import server as server_mod
from repro.serve.client import (AsyncServeClient, ServeClient,
                                ServeDeadlineError)
from repro.serve.server import ExperimentServer, serve_in_thread


@pytest.fixture
def server():
    with serve_in_thread(workers=1) as srv:
        yield srv


def _connections(port: int) -> int:
    """Accepted connections, not counting this query's own."""
    return ServeClient(port=port).metricz().json["counters"][
        "connections"] - 1


async def _raw_exchange(reader, writer, head: str) -> tuple:
    """Send a bodiless request; ``(status line, headers, body)``."""
    writer.write(head.encode("latin-1"))
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    lines = raw.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if value:
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return lines[0], headers, body


# --------------------------------------------------------------------------
# server side
# --------------------------------------------------------------------------

def test_sequential_async_requests_share_one_connection(server):
    async def run() -> dict:
        async with AsyncServeClient(port=server.port) as client:
            for _ in range(20):
                assert (await client.healthz()).ok
            return (await client.metricz()).json

    counters = asyncio.run(run())["counters"]
    assert counters["connections"] == 1
    assert counters["requests_total"] == 21


def test_request_latency_excludes_idle_time_between_requests(server):
    async def run() -> dict:
        async with AsyncServeClient(port=server.port) as client:
            assert (await client.healthz()).ok
            await asyncio.sleep(0.5)     # idle on the open connection
            assert (await client.healthz()).ok
            return (await client.metricz()).json

    snapshot = asyncio.run(run())
    assert snapshot["counters"]["connections"] == 1
    assert snapshot["latency"]["request"]["max_ms"] < 250


def test_connection_close_request_gets_its_connection_closed(server):
    async def run() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        # HTTP/1.1 without a Connection header: the server keeps it open
        status, headers, _ = await _raw_exchange(
            reader, writer, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status.startswith("HTTP/1.1 200")
        assert headers["connection"] == "keep-alive"
        status, headers, _ = await _raw_exchange(
            reader, writer,
            "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        assert status.startswith("HTTP/1.1 200")
        assert headers["connection"] == "close"
        assert await asyncio.wait_for(reader.read(), 5) == b""
        writer.close()

    asyncio.run(run())
    assert _connections(server.port) == 1


def test_http10_request_closes_unless_keep_alive(server):
    async def exchange(head: str) -> tuple:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        _, headers, _ = await _raw_exchange(reader, writer, head)
        writer.close()
        return headers["connection"]

    assert asyncio.run(exchange("GET /healthz HTTP/1.0\r\n\r\n")) == "close"
    assert asyncio.run(exchange(
        "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")) \
        == "keep-alive"


def test_malformed_request_closes_the_connection(server):
    async def run() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        status, headers, _ = await _raw_exchange(
            reader, writer,
            "GET /healthz HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert status.startswith("HTTP/1.1 400")
        assert headers["connection"] == "close"
        assert await asyncio.wait_for(reader.read(), 5) == b""
        writer.close()

    asyncio.run(run())


def test_stop_closes_idle_persistent_connections_at_once():
    async def run() -> tuple:
        srv = ExperimentServer(workers=1)
        await srv.start()
        try:
            client = AsyncServeClient(port=srv.port)
            assert (await client.healthz()).ok
            (reader, _writer), = client._idle
        finally:
            started = time.monotonic()
            await srv.stop()
            took = time.monotonic() - started
        # the server closed its end: the pooled connection reads EOF
        tail = await asyncio.wait_for(reader.read(), 1)
        await client.aclose()
        return took, tail

    took, tail = asyncio.run(run())
    assert took < 1.0
    assert tail == b""


def test_cancelled_serve_forever_drains_with_an_idle_connection_open():
    """The CLI's shutdown: SIGTERM cancels ``serve_forever``, then
    ``stop()`` runs.  Cancelling must not wait for open connections
    (asyncio's own ``Server.serve_forever`` does on Python >= 3.12), or
    an idle keep-alive connection holds the exit for the idle timeout."""
    async def run() -> tuple:
        srv = ExperimentServer(workers=1)
        await srv.start()
        serving = asyncio.ensure_future(srv.serve_forever())
        client = AsyncServeClient(port=srv.port)
        assert (await client.healthz()).ok
        (reader, _writer), = client._idle
        started = time.monotonic()
        serving.cancel()
        try:
            await asyncio.wait_for(serving, 1)
        except asyncio.CancelledError:
            pass
        await asyncio.wait_for(srv.stop(), 1)
        took = time.monotonic() - started
        tail = await asyncio.wait_for(reader.read(), 1)
        await client.aclose()
        return took, tail

    took, tail = asyncio.run(run())
    assert took < 1.0
    assert tail == b""


def test_stop_ends_serve_forever():
    async def run() -> None:
        srv = ExperimentServer(workers=1)
        await srv.start()
        serving = asyncio.ensure_future(srv.serve_forever())
        await srv.stop()
        await asyncio.wait_for(serving, 1)

    asyncio.run(run())


def test_oversized_request_head_is_400_and_closes(server):
    async def run() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1",
                                                       server.port)
        status, headers, _ = await _raw_exchange(
            reader, writer,
            "GET /healthz HTTP/1.1\r\nX-Pad: " + "a" * 70000 + "\r\n\r\n")
        assert status.startswith("HTTP/1.1 400")
        assert headers["connection"] == "close"
        writer.close()

    asyncio.run(run())


def test_idle_timeout_closes_connection_and_client_reconnects(
        server, monkeypatch):
    monkeypatch.setattr(server_mod, "_REQUEST_TIMEOUT_S", 0.2)

    async def run() -> None:
        async with AsyncServeClient(port=server.port) as client:
            assert (await client.healthz()).ok
            await asyncio.sleep(0.6)     # the server idles it out
            assert (await client.healthz()).ok

    asyncio.run(run())
    assert _connections(server.port) == 2


# --------------------------------------------------------------------------
# client side
# --------------------------------------------------------------------------

def test_one_client_under_two_event_loops(server):
    client = AsyncServeClient(port=server.port)
    for _ in range(2):
        assert asyncio.run(client.healthz()).ok
    # the first loop's pooled connection was not carried into the second
    assert _connections(server.port) == 2
    assert len(client._idle) == 1


class _ScriptedServer:
    """Threaded HTTP stub that answers ``Connection: keep-alive``.

    ``actions[i]`` says what the i-th request overall gets: ``"ok"`` an
    immediate 200, ``"drop"`` a close without any response byte, or a
    float: that many seconds of delay before the 200.
    """

    def __init__(self, actions):
        self.actions = list(actions)
        self.connections = 0
        self.requests = 0
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._threads = [threading.Thread(target=self._accept, daemon=True)]
        self._threads[0].start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                self.connections += 1
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn) -> None:
        with conn:
            buffered = b""
            while True:
                while b"\r\n\r\n" not in buffered:
                    chunk = conn.recv(65536)
                    if not chunk:
                        return
                    buffered += chunk
                _, _, buffered = buffered.partition(b"\r\n\r\n")
                with self._lock:
                    action = self.actions[self.requests]
                    self.requests += 1
                if action == "drop":
                    return
                if action != "ok":
                    time.sleep(action)
                body = b'{"value":42}'
                try:
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: "
                        + str(len(body)).encode()
                        + b"\r\nConnection: keep-alive\r\n\r\n" + body)
                except OSError:
                    return

    def close(self) -> None:
        try:
            self._listener.shutdown(socket.SHUT_RDWR)   # wakes accept()
        except OSError:
            pass
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=5)


@pytest.fixture
def scripted():
    stubs = []

    def make(actions):
        stubs.append(_ScriptedServer(actions))
        return stubs[-1]

    yield make
    for stub in stubs:
        stub.close()


def test_pooled_connection_closed_by_server_is_retried(scripted):
    stub = scripted(["ok", "drop", "ok"])

    async def run() -> list:
        async with AsyncServeClient(port=stub.port) as client:
            return [await client.healthz() for _ in range(2)]

    replies = asyncio.run(run())
    assert [r.json for r in replies] == [{"value": 42}] * 2
    # the dropped request went out on the pooled connection, its retry
    # on a fresh one
    assert stub.requests == 3 and stub.connections == 2


def test_failure_on_fresh_connection_is_not_retried(scripted):
    from repro.serve.client import ServeClientError
    stub = scripted(["drop", "ok"])

    async def run() -> None:
        async with AsyncServeClient(port=stub.port) as client:
            with pytest.raises(ServeClientError):
                await client.healthz()

    asyncio.run(run())
    assert stub.requests == 1 and stub.connections == 1


def test_deadline_cancelled_connection_is_not_reused(scripted):
    stub = scripted(["ok", 0.5, "ok"])

    async def run() -> None:
        async with AsyncServeClient(port=stub.port) as client:
            assert (await client.healthz()).ok
            with pytest.raises(ServeDeadlineError):
                await client.request("GET", "/healthz", deadline_s=0.1)
            assert client._idle == []
            assert (await client.healthz()).ok

    asyncio.run(run())
    # the late answer to the cancelled request cannot be read as the
    # third request's reply: that one went out on a new connection
    assert stub.connections == 2


def test_aclose_closes_idle_connections(server):
    async def run() -> tuple:
        client = AsyncServeClient(port=server.port)
        await asyncio.gather(*(client.healthz() for _ in range(3)))
        pooled = list(client._idle)
        await client.aclose()
        return pooled, client._idle

    pooled, idle = asyncio.run(run())
    assert len(pooled) == 3 and idle == []
    assert all(writer.is_closing() for _reader, writer in pooled)
