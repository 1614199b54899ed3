"""The measurement-as-a-service HTTP server (stdlib asyncio only).

``ExperimentServer`` turns the repository's headline experiments into a
long-lived JSON-over-HTTP service.  A request's life:

1. **Parse + validate** (event loop, microseconds).  Unknown routes,
   experiments, or parameters are rejected before touching any budget.
2. **Coalesce** — if an identical computation (same content key) is
   already in flight, the request joins it (:class:`Singleflight`) and
   costs nothing.
3. **Hot path** — a :class:`~repro.exec.cache.ResultCache` lookup in a
   helper thread; a hit is served without queueing.
4. **Admission** — the cold path must win a bounded in-flight slot
   (:class:`AdmissionController`); when the budget is exhausted the
   request gets an immediate ``429`` with ``Retry-After`` instead of an
   unbounded queue.
5. **Compute** — on the sharded :class:`~repro.serve.workers.WorkerPool`
   (``workers=N``, default 1: consistent-hash routing by cache key,
   shared on-disk cache, shm result transport).  Every computation
   leaves a :mod:`~repro.serve.registry` receipt that
   ``POST /v1/replay`` can recompute and digest-check.

Responses for an experiment are canonical JSON (sorted keys, fixed
separators) of ``{experiment, params, value}``.  A worker ships the
*value*'s canonical bytes (often via shared memory) and the server
splices them into the envelope, so the bytes are identical whether a
given response was computed by any worker, coalesced, or a cache hit,
and equal to ``canonical_json`` of the whole envelope — a property the
end-to-end tests assert.  A cache hit is the stored value bytes
themselves
(:meth:`~repro.exec.cache.ResultCache.get_bytes`, digest-checked), so
the hot path neither parses nor re-encodes the value.

``stop()`` drains gracefully: the listener closes first, idle
connections close at once, in-flight requests (and their computations)
finish and answer with ``Connection: close``, then the compute tier
shuts down.  ``POST /v1/workers/restart`` rolls the worker pool one
process at a time *without* stopping the server.

HTTP handling is deliberately minimal because the server's clients are
programmatic (:mod:`repro.serve.client`, curl, load generators), not
browsers: HTTP/1.1 with persistent connections, no pipelining and no
chunked bodies.  A connection serves requests one after another until
the client sends ``Connection: close`` or closes it, it idles past
``_REQUEST_TIMEOUT_S``, a read is malformed, or the server drains.
Every response names the outcome in its ``Connection`` header
(``keep-alive`` or ``close``).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
import time
from pathlib import Path

from repro.exec import ResultCache, cache_key
from repro.exec.cache import _jsonify
from repro.serve.coalesce import AdmissionController, Singleflight
from repro.serve.experiments import (EXPERIMENTS, ExperimentRequestError,
                                     cache_payload, describe_experiments,
                                     engine_param, normalize)
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import RunRegistry
from repro.serve.streams import StreamBook, StreamError
from repro.serve.workers import (SHM_MIN_BYTES, NoLiveWorkersError,
                                 WorkerPool, WorkerRequestError,
                                 WorkerResult)
from repro.units import MIB

#: Default bound on concurrently admitted (cold) computations.
DEFAULT_MAX_INFLIGHT = 8

#: Reject request bodies larger than this (bytes).
MAX_BODY_BYTES = MIB

_REQUEST_TIMEOUT_S = 30.0

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


def canonical_json(value) -> bytes:
    """Deterministic JSON bytes (sorted keys, tight separators)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_jsonify).encode()


def splice_envelope(name: str, params: dict, value_bytes: bytes) -> bytes:
    """The response envelope with pre-serialized value bytes spliced in.

    Byte-identical to ``canonical_json({"experiment": name, "params":
    params, "value": value})`` when ``value_bytes == canonical_json(
    value)`` — the keys are already in sorted order — so responses
    never re-serialize the payload a worker computed.
    """
    return (b'{"experiment":' + canonical_json(name)
            + b',"params":' + canonical_json(params)
            + b',"value":' + value_bytes + b"}")


class _HttpError(Exception):
    """Internal: carries an HTTP status + JSON error payload."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class ExperimentServer:
    """Serve the registry's experiments over HTTP on one event loop.

    Computations run on a :class:`WorkerPool` of ``workers`` (>= 1)
    sharded processes.  With a ``cache_dir``, receipts default to
    ``<cache_dir>/receipts.jsonl`` (durable); otherwise they live in
    memory.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache_dir=None, max_inflight: int = DEFAULT_MAX_INFLIGHT,
                 workers: int = 1, registry_path=None,
                 shm_min_bytes: int = SHM_MIN_BYTES):
        self.host = host
        self.port = port                      # 0 = ephemeral; set on start
        # ConfigurationError for workers < 1, before any directory exists
        self.pool = WorkerPool(workers, cache_dir=cache_dir,
                               shm_min_bytes=shm_min_bytes)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        if registry_path is None and cache_dir is not None:
            registry_path = Path(cache_dir) / "receipts.jsonl"
        self.registry = RunRegistry(registry_path)
        self.metrics = ServeMetrics()
        self.streams = StreamBook()
        self.flights = Singleflight()
        self.admission = AdmissionController(max_inflight)
        self._server: asyncio.AbstractServer | None = None
        self._stopped: asyncio.Event | None = None
        self._idle: set = set()           # writers awaiting a next request
        self._draining = False
        self._open_handlers = 0
        self._handlers_idle: asyncio.Event | None = None
        self._restart_task: asyncio.Task | None = None

    # ---------------------------------------------------------------- setup

    async def start(self) -> None:
        """Bind and start accepting (resolves ``self.port`` if it was 0)."""
        self._handlers_idle = asyncio.Event()
        self._handlers_idle.set()
        self._stopped = asyncio.Event()
        await asyncio.to_thread(self.pool.start)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` is called or this task is cancelled.

        ``start()`` already accepts, so this only waits.  It does not
        await the listener's own ``serve_forever``: cancelling that
        closes the listener and, on Python >= 3.12, waits for every
        open connection, so idle persistent connections would hold the
        shutdown until they time out, before :meth:`stop` could close
        them.
        """
        await self._stopped.wait()

    async def stop(self, drain_timeout: float = 30.0) -> None:
        """Graceful drain: stop accepting, finish in-flight work, close."""
        self._draining = True
        if self._stopped is not None:
            self._stopped.set()
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle):
            writer.close()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._handlers_idle.wait(),
                                   drain_timeout)
        if self._server is not None:
            # after the handlers: wait_closed also waits for connections
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(),
                                       drain_timeout)
        if self._restart_task is not None:
            with contextlib.suppress(Exception):
                await self._restart_task
        await asyncio.to_thread(self.pool.close)

    # ------------------------------------------------------------- protocol

    async def _serve_connection(self, reader, writer) -> None:
        """Accept callback: requests one after another on one connection.

        Between requests the connection is idle until a whole request
        head has arrived: ``stop()`` closes it at once, and it closes
        itself after ``_REQUEST_TIMEOUT_S``.  The idle wait stays outside
        :meth:`_handle_connection`, so request latency never includes
        the client's think time.
        """
        self.metrics.connections += 1
        try:
            while not self._draining:
                self._idle.add(writer)
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), _REQUEST_TIMEOUT_S)
                except asyncio.LimitOverrunError:
                    head = b""          # oversized head: answered as malformed
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        ConnectionError):
                    break
                finally:
                    self._idle.discard(writer)
                if writer.is_closing():
                    break
                if not await self._handle_connection(reader, writer, head):
                    break
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_connection(self, reader, writer, head: bytes) -> bool:
        """Route and answer the request whose ``head`` was just read.

        Returns whether the connection stays open for another request.
        """
        self._open_handlers += 1
        self._handlers_idle.clear()
        started = time.monotonic()
        self.metrics.inflight_requests += 1
        status, body = 500, b"{}"
        keep_alive = False          # only once the whole request is read
        try:
            try:
                method, target, headers, persist = self._parse_head(head)
                payload = await asyncio.wait_for(
                    self._read_body(reader, headers), _REQUEST_TIMEOUT_S)
                keep_alive = persist
                status, body = await self._route(method, target, payload)
            except _HttpError as exc:
                status, body = exc.status, canonical_json(exc.payload)
            except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                    UnicodeDecodeError):
                status, body = 400, canonical_json(
                    {"error": "malformed HTTP request"})
            except (ConnectionResetError, BrokenPipeError):
                status = 499            # client went away; nothing to write
                return False
            except Exception as exc:        # unexpected: 500, count it
                self.metrics.errors += 1
                status, body = 500, canonical_json(
                    {"error": f"internal error: {exc}"})
            return await self._write_response(
                writer, status, body, keep_alive and not self._draining)
        finally:
            self.metrics.inflight_requests -= 1
            self.metrics.note_response(status, time.monotonic() - started)
            self._open_handlers -= 1
            if self._open_handlers == 0:
                self._handlers_idle.set()

    @staticmethod
    def _parse_head(head: bytes) -> tuple:
        """``(method, target, headers, keep_alive)`` of a request head."""
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        # HTTP/1.1 connections persist unless closed; HTTP/1.0 ones close
        # unless the client asks for keep-alive
        connection = headers.get("connection", "").lower()
        keep_alive = connection == "keep-alive" or (
            version == "HTTP/1.1" and connection != "close")
        return method.upper(), target, headers, keep_alive

    async def _read_body(self, reader, headers: dict) -> bytes:
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        return await reader.readexactly(length) if length > 0 else b""

    async def _write_response(self, writer, status: int, body: bytes,
                              keep_alive: bool) -> bool:
        """Send one response; whether the connection can take another."""
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                "\r\n")
        if status in (429, 503):
            head += "Retry-After: 1\r\n"
        try:
            writer.write(head.encode("latin-1") + b"\r\n" + body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return False
        return keep_alive

    # -------------------------------------------------------------- routing

    async def _route(self, method: str, target: str,
                     payload: bytes) -> tuple:
        path = target.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self.metrics.note_request("healthz")
            self._require(method, "GET")
            return 200, canonical_json(self._health())
        if path == "/metricz":
            self.metrics.note_request("metricz")
            self._require(method, "GET")
            return 200, canonical_json(self._metricz())
        if path == "/v1/experiments":
            self.metrics.note_request("experiments")
            self._require(method, "GET")
            return 200, canonical_json(describe_experiments())
        if path == "/v1/receipts":
            self.metrics.note_request("receipts")
            self._require(method, "GET")
            return 200, canonical_json(
                {"recorded": self.registry.count,
                 "receipts": self.registry.recent()})
        if path == "/v1/replay":
            self.metrics.note_request("replay")
            self._require(method, "POST")
            return 200, await self._replay_response(payload)
        if path == "/v1/streams":
            self.metrics.note_request("streams")
            self._require(method, "GET")
            return 200, canonical_json(self.streams.listing())
        if path.startswith("/v1/streams/"):
            return await self._stream_route(method, path, payload)
        if path == "/v1/workers/restart":
            self.metrics.note_request("workers-restart")
            self._require(method, "POST")
            return 200, canonical_json(self._start_rolling_restart())
        if path.startswith("/v1/experiments/"):
            name = path[len("/v1/experiments/"):]
            self.metrics.note_request(name)
            self._require(method, "POST")
            if name not in EXPERIMENTS:
                raise _HttpError(
                    404, f"unknown experiment {name!r}",
                    known=sorted(EXPERIMENTS))
            return 200, await self._experiment_response(name, payload)
        raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    def _health(self) -> dict:
        return {"status": "draining" if self._draining else "ok",
                "inflight_requests": self.metrics.inflight_requests,
                "inflight_computations": self.admission.active,
                "experiments": len(EXPERIMENTS),
                "workers": self.pool.live_workers}

    def _metricz(self) -> dict:
        snapshot = self.metrics.snapshot()
        snapshot["registry"] = {"receipts": self.registry.count,
                                "durable": self.registry.path is not None}
        snapshot["streams"] = self.streams.listing()
        snapshot["workers"] = self.pool.stats()
        return snapshot

    def _start_rolling_restart(self) -> dict:
        if self._restart_task is not None and not self._restart_task.done():
            raise _HttpError(409, "a rolling restart is already running")
        self._restart_task = asyncio.get_running_loop().create_task(
            asyncio.to_thread(self.pool.rolling_restart))
        return {"status": "restarting", "workers": self.pool.size}

    # ------------------------------------------------------- trace streams

    async def _stream_route(self, method: str, path: str,
                            payload: bytes) -> tuple:
        """``/v1/streams/{name}`` and ``/v1/streams/{name}/observe``.

        Stream mutations run inline on the event loop: an observe is a
        handful of dict merges over at most a few hundred log buckets,
        orders of magnitude cheaper than the JSON parse that precedes
        it, so no thread hop is warranted.
        """
        tail = path[len("/v1/streams/"):]
        name, _, action = tail.partition("/")
        if not name or "/" in action:
            raise _HttpError(404, f"no route for {path!r}")
        self.metrics.note_request("streams")
        try:
            if action == "observe":
                self._require(method, "POST")
                return 200, canonical_json(self._stream_observe(name,
                                                                payload))
            if action:
                raise _HttpError(
                    404, f"unknown stream action {action!r}; use observe")
            if method == "DELETE":
                return 200, canonical_json(self.streams.delete(name))
            self._require(method, "GET")
            return 200, canonical_json(self.streams.summary(name))
        except StreamError as exc:
            raise _HttpError(exc.status, str(exc)) from None

    def _stream_observe(self, name: str, payload: bytes) -> dict:
        try:
            raw = json.loads(payload.decode()) if payload else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise _HttpError(400, "request body must be JSON") from None
        if not isinstance(raw, dict):
            raise _HttpError(400, "observation must be a JSON object")
        unknown = sorted(set(raw) - {"window", "window_s", "digest",
                                     "values_s", "counters"})
        if unknown:
            raise _HttpError(
                400, f"unknown observation field(s) {', '.join(unknown)}")
        if "window" not in raw:
            raise _HttpError(400, "observation wants a window index")
        window_s = raw.get("window_s", 1.0)
        if isinstance(window_s, bool) or \
                not isinstance(window_s, (int, float)):
            raise _HttpError(400, "window_s must be a number")
        return self.streams.observe(
            name, raw["window"], window_s=float(window_s),
            digest_state=raw.get("digest"), values_s=raw.get("values_s"),
            counters=raw.get("counters"))

    # ----------------------------------------------------- experiment paths

    async def _experiment_response(self, name: str,
                                   payload: bytes) -> bytes:
        try:
            raw = json.loads(payload.decode()) if payload else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise _HttpError(400, "request body must be JSON") from None
        try:
            params = normalize(name, raw)
        except ExperimentRequestError as exc:
            raise _HttpError(400, str(exc)) from None
        # mesh experiments key on the mesh kernel's fingerprint (so a
        # FASTMESH_VERSION bump invalidates exactly the batched entries);
        # device experiments key on the measurement engine's
        key = cache_key(f"serve:{name}", cache_payload(name, params),
                        engine=engine_param(name, params))
        return splice_envelope(name, params,
                               await self._resolve(name, params, key))

    async def _resolve(self, name: str, params: dict, key: str) -> bytes:
        """Coalesce -> cache -> admission -> compute, in that order.

        Every path yields the value's canonical JSON bytes: a cache hit
        is the stored bytes after their digest check, never re-encoded.
        """
        flight = self.flights.leader_for(key)
        if flight is not None:
            result = await asyncio.shield(flight)
            self.metrics.coalesced += 1
            return result.value_bytes
        if self.cache is not None:
            value_bytes = await asyncio.to_thread(self.cache.get_bytes, key)
            if value_bytes is not None:
                self.metrics.cache_hits += 1
                return value_bytes
            self.metrics.cache_misses += 1
            # the cache lookup awaited: an identical request may have
            # started a flight meanwhile — join it rather than race it
            flight = self.flights.leader_for(key)
            if flight is not None:
                result = await asyncio.shield(flight)
                self.metrics.coalesced += 1
                return result.value_bytes
        if self._draining:
            raise _HttpError(503, "server is draining")
        if not self.admission.try_acquire():
            self.metrics.rejected += 1
            raise _HttpError(
                429, "server at capacity",
                inflight=self.admission.active,
                limit=self.admission.limit)
        result, led = await self.flights.run(
            key, lambda: self._compute(name, params, key))
        if not led:                        # lost the registration race
            self.admission.release()
            self.metrics.coalesced += 1
        return result.value_bytes

    async def _compute(self, name: str, params: dict,
                       key: str) -> WorkerResult:
        started = time.monotonic()
        self.metrics.inflight_computations += 1
        try:
            result = await self._dispatch(name, params, key)
            self.metrics.computations += 1
            if result.transport == "shm":
                self.metrics.shm_results += 1
            else:
                self.metrics.inline_results += 1
            await asyncio.to_thread(self._record_receipt, name, params,
                                    key, result)
            return result
        finally:
            self.metrics.inflight_computations -= 1
            self.metrics.compute_latency.add(time.monotonic() - started)
            self.admission.release()

    async def _dispatch(self, name: str, params: dict,
                        key: str) -> WorkerResult:
        """Run the computation on ``key``'s worker shard.

        Bad model parameters, which the worker forwards as
        :class:`WorkerRequestError`, are the request's fault: a 400,
        not an internal error.
        """
        try:
            future = self.pool.submit(name, params, key)
        except NoLiveWorkersError:
            raise _HttpError(
                503, "every worker shard is draining; retry") from None
        try:
            return await asyncio.wrap_future(future)
        except WorkerRequestError as exc:
            raise _HttpError(400, str(exc)) from None

    def _record_receipt(self, name: str, params: dict, key: str,
                        result: WorkerResult) -> None:
        engine = engine_param(name, params)
        fingerprint = None
        if engine is not None:
            from repro.engines import fingerprint_for
            fingerprint = fingerprint_for(engine)
        self.registry.record(
            experiment=name, params=params, key=key, engine=fingerprint,
            worker=result.worker, wall_ms=result.wall_ms,
            digest=result.digest, transport=result.transport)

    # --------------------------------------------------------------- replay

    async def _replay_response(self, payload: bytes) -> bytes:
        """Recompute a receipt's experiment; compare result digests."""
        try:
            raw = json.loads(payload.decode()) if payload else {}
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise _HttpError(400, "request body must be JSON") from None
        if not isinstance(raw, dict) or \
                ("request_sha" in raw) == ("seq" in raw):
            raise _HttpError(
                400, "replay wants exactly one of request_sha / seq")
        receipt = self.registry.find(
            request_sha=raw.get("request_sha"), seq=raw.get("seq"))
        if receipt is None:
            raise _HttpError(404, "no receipt matches that request")
        name, params = receipt["experiment"], receipt["params"]
        if name not in EXPERIMENTS:
            raise _HttpError(
                400, f"receipt names unknown experiment {name!r}")
        if self._draining:
            raise _HttpError(503, "server is draining")
        if not self.admission.try_acquire():
            self.metrics.rejected += 1
            raise _HttpError(429, "server at capacity",
                             inflight=self.admission.active,
                             limit=self.admission.limit)
        try:
            result = await self._dispatch(name, params, receipt["key"])
        finally:
            self.admission.release()
        self.metrics.replays += 1
        return canonical_json({
            "seq": receipt["seq"],
            "request_sha": receipt["request_sha"],
            "experiment": name,
            "match": result.digest == receipt["result_sha"],
            "result_sha": receipt["result_sha"],
            "recomputed_sha": result.digest,
            "recorded_worker": receipt["worker"],
            "replayed_worker": result.worker,
        })


# --------------------------------------------------------------------------
# embedding helper: run a server on a background thread (tests, benchmarks)
# --------------------------------------------------------------------------

@contextlib.contextmanager
def serve_in_thread(**kwargs):
    """Run an :class:`ExperimentServer` on a daemon thread; yield it.

    The server is started before the body runs (``server.port`` is the
    bound ephemeral port) and gracefully drained afterwards.  This is
    how the test suite and the load benchmark embed the service without
    shelling out.
    """
    server = ExperimentServer(**kwargs)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    boot_error: list = []

    def _run():
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:       # surface bind failures
            boot_error.append(exc)
            ready.set()
            return
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    ready.wait(timeout=120)
    if boot_error:
        loop.close()
        raise boot_error[0]
    try:
        yield server
    finally:
        future = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        with contextlib.suppress(Exception):
            future.result(timeout=120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        if not loop.is_running():
            loop.close()
