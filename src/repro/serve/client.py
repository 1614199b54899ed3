"""Clients for a running ``repro.serve`` server (blocking and async).

:class:`ServeClient` is built on :mod:`http.client` so tests,
benchmarks, and scripts need no third-party HTTP stack.  It opens one
connection per call and closes it after the response; a
:class:`ServeClient` is therefore cheap, stateless, and safe to share
across threads (each call opens its own socket).

:class:`AsyncServeClient` speaks HTTP/1.1 over raw
:func:`asyncio.open_connection` streams and keeps the server's
persistent connections: an idle connection goes back to a per-event-
loop pool and carries the next request, so a hot request pays no TCP
handshake.  An open-loop load generator (:mod:`repro.traffic`) can keep
hundreds of requests in flight from one event loop instead of
serializing on a blocking socket — with a **per-request deadline**: a
request that has not completed within ``deadline_s`` raises
:class:`ServeDeadlineError` instead of occupying the generator forever
(the coordinated-omission trap open-loop measurement exists to avoid).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import random
import time
from dataclasses import dataclass
from typing import AsyncIterator, Iterator

from repro.errors import ReproError


class ServeClientError(ReproError):
    """The server could not be reached or violated the protocol."""


class ServeDeadlineError(ServeClientError):
    """A request missed its per-request deadline."""


class _StaleConnection(Exception):
    """A connection failed before any byte of the response arrived."""


@dataclass(frozen=True)
class Backoff:
    """Jittered exponential backoff for the *blocking* client's retries.

    The schedule starts at ``initial_s``, multiplies by ``multiplier``
    each attempt, clips at ``max_s``, and spreads each delay uniformly
    over ``[base * (1 - jitter), base * (1 + jitter)]`` so a fleet of
    clients polling one server does not thundering-herd in lockstep.
    ``seed`` pins the jitter stream for reproducible tests; the default
    ``None`` draws fresh jitter per :class:`Backoff` use.
    """

    initial_s: float = 0.02
    max_s: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int | None = None

    def __post_init__(self):
        if self.initial_s <= 0 or self.max_s < self.initial_s:
            raise ValueError("need 0 < initial_s <= max_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delays(self) -> Iterator[float]:
        """Infinite stream of sleep durations (seconds)."""
        rng = random.Random(self.seed)
        base = self.initial_s
        while True:
            yield base * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))
            base = min(base * self.multiplier, self.max_s)


@dataclass(frozen=True)
class ServeReply:
    """One HTTP exchange: status code plus the raw response bytes."""
    status: int
    body: bytes

    @property
    def json(self):
        return json.loads(self.body)

    @property
    def ok(self) -> bool:
        return self.status == 200

    def value(self):
        """The experiment result inside a successful envelope."""
        if not self.ok:
            raise ServeClientError(
                f"HTTP {self.status}: {self.body[:200]!r}")
        return self.json["value"]


class ServeClient:
    """Issue requests against one server address.

    Every endpoint the server exposes is idempotent (experiments are
    pure functions of their normalized params), so :meth:`request`
    transparently retries ``503 Service Unavailable`` answers — the
    status a draining worker shard returns during a rolling restart —
    up to ``retry_attempts`` tries, sleeping per ``retry`` between
    them.  Connection-level failures are *not* retried here: callers
    that want to wait for a server to exist use :meth:`wait_healthy`,
    which owns its own deadline.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8737,
                 timeout: float = 120.0, retry: Backoff | None = None,
                 retry_attempts: int = 5):
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry or Backoff()
        self.retry_attempts = retry_attempts

    def request(self, method: str, path: str, payload=None,
                deadline_s: float | None = None) -> ServeReply:
        """One exchange; ``deadline_s`` overrides the client timeout.

        The blocking client's deadline is a per-socket-operation bound
        (connect/send/receive each get it), the closest the stdlib
        HTTP stack offers; the async client enforces a true end-to-end
        deadline.
        """
        delays = self.retry.delays()
        for attempt in range(self.retry_attempts):
            reply = self._request_once(method, path, payload, deadline_s)
            if reply.status != 503 or attempt == self.retry_attempts - 1:
                return reply
            # blocking client by design; never runs on the event loop
            time.sleep(next(delays))  # repro: noqa[REP002]
        return reply

    def _request_once(self, method: str, path: str, payload=None,
                      deadline_s: float | None = None) -> ServeReply:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if deadline_s is None else deadline_s)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return ServeReply(response.status, response.read())
        except (OSError, http.client.HTTPException) as exc:
            raise ServeClientError(
                f"{method} {path} against "
                f"{self.host}:{self.port} failed: {exc}") from exc
        finally:
            connection.close()

    # ------------------------------------------------------------ endpoints

    def healthz(self) -> ServeReply:
        return self.request("GET", "/healthz")

    def metricz(self) -> ServeReply:
        return self.request("GET", "/metricz")

    def experiments(self) -> ServeReply:
        return self.request("GET", "/v1/experiments")

    def experiment(self, name: str, **params) -> ServeReply:
        return self.request("POST", f"/v1/experiments/{name}",
                            payload=params)

    def receipts(self) -> ServeReply:
        return self.request("GET", "/v1/receipts")

    def replay(self, *, request_sha: str | None = None,
               seq: int | None = None) -> ServeReply:
        payload = ({"request_sha": request_sha}
                   if request_sha is not None else {"seq": seq})
        return self.request("POST", "/v1/replay", payload=payload)

    def restart_workers(self) -> ServeReply:
        return self.request("POST", "/v1/workers/restart")

    # ------------------------------------------------------- trace streams

    def streams(self) -> ServeReply:
        return self.request("GET", "/v1/streams")

    def stream_summary(self, name: str) -> ServeReply:
        return self.request("GET", f"/v1/streams/{name}")

    def stream_observe(self, name: str, window: int, *,
                       window_s: float = 1.0, digest=None, values_s=None,
                       counters=None) -> ServeReply:
        payload = {"window": window, "window_s": window_s}
        if digest is not None:
            payload["digest"] = digest
        if values_s is not None:
            payload["values_s"] = values_s
        if counters is not None:
            payload["counters"] = counters
        return self.request("POST", f"/v1/streams/{name}/observe",
                            payload=payload)

    def stream_delete(self, name: str) -> ServeReply:
        return self.request("DELETE", f"/v1/streams/{name}")

    def wait_healthy(self, deadline_s: float = 10.0,
                     backoff: Backoff | None = None) -> dict:
        """Poll ``/healthz`` until it answers; the health dict, or raise.

        Retries follow ``backoff`` (default :class:`Backoff`), each sleep
        additionally capped by the remaining ``deadline_s`` budget so the
        total wait never overshoots the deadline by more than one poll.
        This helper is *intentionally* blocking — it is the sync client's
        startup handshake, never run on the server's event loop — hence
        the explicit lint allowance on its sleep.
        """
        deadline = time.monotonic() + deadline_s
        last: Exception | None = None
        for delay in (backoff or Backoff()).delays():
            try:
                reply = self.healthz()
                if reply.ok:
                    return reply.json
            except ServeClientError as exc:
                last = exc
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            time.sleep(min(delay, remaining))  # repro: noqa[REP002]
        raise ServeClientError(
            f"server at {self.host}:{self.port} not healthy "
            f"within {deadline_s}s: {last}")


class AsyncServeClient:
    """Non-blocking client: many concurrent requests from one event loop.

    Speaks the server's minimal HTTP/1.1 dialect over asyncio streams,
    one request at a time per connection.  Idle connections are pooled
    for the running event loop, at most as many as requests were ever
    in flight at once: a connection returns to the pool only after its
    whole response was read and the server answered
    ``Connection: keep-alive``, and a connection whose request was
    cancelled or missed its deadline is closed, never reused.  A
    request that fails on a *reused* connection before any response
    byte arrived (the server closed it while idle) retries once on a
    fresh connection.  A client used under a new event loop drops the
    previous loop's pool and starts a new one, so a connection is never
    reused outside its own loop.  :meth:`aclose` (or ``async with``)
    closes the idle connections.

    Every request carries a hard end-to-end deadline — connect, send,
    and the full response all inside ``deadline_s`` — because an
    open-loop generator must never let a stuck request silently absorb
    the scheduled sends behind it.  ``503`` answers (a draining worker
    shard) retry on the same jittered :class:`Backoff` schedule as the
    blocking client, with ``asyncio.sleep`` and the remaining deadline
    budget capping each pause.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8737,
                 deadline_s: float = 30.0, retry: Backoff | None = None,
                 retry_attempts: int = 5):
        if retry_attempts < 1:
            raise ValueError("retry_attempts must be >= 1")
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.host = host
        self.port = port
        self.deadline_s = deadline_s
        self.retry = retry or Backoff()
        self.retry_attempts = retry_attempts
        # idle (reader, writer) pairs of the loop ``_loop``, most recent last
        self._loop = None
        self._idle: list = []

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close the idle connections of the running loop."""
        pool = self._pool()
        idle = list(pool)
        pool.clear()
        for _reader, writer in idle:
            writer.close()
        for _reader, writer in idle:
            with contextlib.suppress(OSError, ConnectionError):
                await writer.wait_closed()

    def _pool(self) -> list:
        """The running loop's idle connections.

        Under a new loop the previous loop's pool is dropped, not closed:
        its transports cannot be closed from here (that loop is closed,
        or runs in another thread), so their sockets close when
        collected.
        """
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            self._loop, self._idle = loop, []
        return self._idle

    async def request(self, method: str, path: str, payload=None,
                      deadline_s: float | None = None) -> ServeReply:
        budget = self.deadline_s if deadline_s is None else deadline_s
        deadline = asyncio.get_running_loop().time() + budget
        delays: Iterator[float] = self.retry.delays()
        for attempt in range(self.retry_attempts):
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                raise ServeDeadlineError(
                    f"{method} {path}: deadline {budget}s exhausted "
                    f"after {attempt} attempt(s)")
            try:
                reply = await asyncio.wait_for(
                    self._request_once(method, path, payload), remaining)
            except asyncio.TimeoutError:
                raise ServeDeadlineError(
                    f"{method} {path} against {self.host}:{self.port} "
                    f"missed its {budget}s deadline") from None
            if reply.status != 503 or attempt == self.retry_attempts - 1:
                return reply
            pause = min(next(delays),
                        max(0.0,
                            deadline - asyncio.get_running_loop().time()))
            await asyncio.sleep(pause)
        return reply

    async def _request_once(self, method: str, path: str,
                            payload=None) -> ServeReply:
        body = b""
        extra = ""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode()
            extra = "Content-Type: application/json\r\n"
        message = (f"{method} {path} HTTP/1.1\r\n"
                   f"Host: {self.host}:{self.port}\r\n"
                   f"Content-Length: {len(body)}\r\n"
                   f"{extra}\r\n").encode("latin-1") + body
        pool = self._pool()
        while pool:
            reader, writer = pool.pop()
            if reader.at_eof() or writer.is_closing():
                writer.close()      # the server closed it while idle
                continue
            try:
                return await self._exchange(reader, writer, message, pool,
                                            method, path)
            except _StaleConnection:
                break               # retry once, on a fresh connection
        try:
            reader, writer = await asyncio.open_connection(self.host,
                                                           self.port)
        except OSError as exc:
            raise ServeClientError(
                f"{method} {path} against "
                f"{self.host}:{self.port} failed: {exc}") from exc
        try:
            return await self._exchange(reader, writer, message, pool,
                                        method, path)
        except _StaleConnection as exc:
            raise ServeClientError(
                f"{method} {path} against {self.host}:{self.port} "
                f"failed: {exc.__cause__}") from exc.__cause__

    async def _exchange(self, reader, writer, message: bytes, pool: list,
                        method: str, path: str) -> ServeReply:
        """One request/response on an open connection.

        The connection goes back to ``pool`` only when the response was
        read whole and the server keeps it alive; on any other outcome,
        cancellation included, it is closed.  Raises
        :class:`_StaleConnection` when the connection failed before any
        response byte arrived.
        """
        keep = False
        try:
            try:
                writer.write(message)
                await writer.drain()
                raw_head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError as exc:
                if exc.partial:
                    raise ServeClientError(
                        f"{method} {path} against {self.host}:{self.port} "
                        f"failed: {exc}") from exc
                raise _StaleConnection() from exc
            except ConnectionError as exc:
                raise _StaleConnection() from exc
            reply, keep = await self._read_response(reader, raw_head,
                                                    method, path)
            return reply
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError) as exc:
            raise ServeClientError(
                f"{method} {path} against "
                f"{self.host}:{self.port} failed: {exc}") from exc
        finally:
            if keep:
                pool.append((reader, writer))
            else:
                writer.close()

    @staticmethod
    async def _read_response(reader, raw_head: bytes, method: str,
                             path: str) -> tuple:
        """``(reply, keep_alive)`` for a response whose head was read."""
        lines = raw_head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServeClientError(
                f"{method} {path}: malformed status line {lines[0]!r}")
        status = int(parts[1])
        length = None
        connection = ""
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection":
                connection = value.strip().lower()
        if length is None:          # Connection: close delimits the body
            return ServeReply(status, await reader.read()), False
        body = await reader.readexactly(length)
        return ServeReply(status, body), connection == "keep-alive"

    # ------------------------------------------------------------ endpoints

    async def healthz(self) -> ServeReply:
        return await self.request("GET", "/healthz")

    async def metricz(self) -> ServeReply:
        return await self.request("GET", "/metricz")

    async def experiment(self, name: str, *, deadline_s: float | None = None,
                         **params) -> ServeReply:
        return await self.request("POST", f"/v1/experiments/{name}",
                                  payload=params, deadline_s=deadline_s)

    async def stream_observe(self, name: str, window: int, *,
                             window_s: float = 1.0, digest=None,
                             values_s=None, counters=None) -> ServeReply:
        payload = {"window": window, "window_s": window_s}
        if digest is not None:
            payload["digest"] = digest
        if values_s is not None:
            payload["values_s"] = values_s
        if counters is not None:
            payload["counters"] = counters
        return await self.request("POST", f"/v1/streams/{name}/observe",
                                  payload=payload)

    async def stream_summary(self, name: str) -> ServeReply:
        return await self.request("GET", f"/v1/streams/{name}")

    async def replies(self, requests) -> AsyncIterator[ServeReply]:
        """Fire ``(method, path, payload)`` tuples concurrently; yield
        replies in completion order (a convenience for scripts — the
        open-loop driver schedules its own sends)."""
        tasks = [asyncio.ensure_future(self.request(m, p, payload))
                 for m, p, payload in requests]
        for task in asyncio.as_completed(tasks):
            yield await task
