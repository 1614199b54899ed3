"""Serve-side load for the suite: a spawned server and two load shapes.

* :class:`ServerProcess` runs ``python -u -m repro serve --port 0`` in
  its own session, reads the bound port from its "listening" line, and
  on close terminates the session (server and pool worker) and waits.
  ``-u`` is needed: the server does not flush that line itself, so
  through a pipe it would never arrive.  Close does not interrupt
  (SIGINT): a process started in the background by a non-interactive
  shell inherits SIGINT ignored, and the server would never see it.
* :func:`open_loop` sends on a compiled :mod:`repro.traffic` schedule,
  whatever the server does.  Latency is timed from each request's due
  time, so waiting for a connection or a slow server shows in it, and
  the generator's own lateness (how far past the due time it woke) is
  reported beside it.
* :func:`closed_loop` keeps ``connections`` requests in flight, each
  sent when the previous one on its connection returned; completions
  per second are the server's capacity for that request mix.

Both use :class:`repro.serve.client.AsyncServeClient` on one event
loop and at most ``connections`` open connections; every response body
goes to an ``on_body(index, body)`` callback, so the caller checks it.
(:class:`repro.traffic.OpenLoopDriver` discards bodies and does not
report its own lateness, hence this driver.)
"""

from __future__ import annotations

import asyncio
import os
import re
import select
import signal
import subprocess
import sys

#: A request that has not completed this long after it was sent fails.
DEADLINE_S = 10.0

#: Requests waiting for a connection beyond this many are shed (failed)
#: rather than queued without bound.
MAX_BACKLOG = 512


class ServerProcess:
    """A ``repro serve`` child process bound to an ephemeral port."""

    def __init__(self, src_dir, cache_dir, log_path, boot_timeout_s=60.0):
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._log = open(log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                 "--cache", str(cache_dir)],
                stdout=subprocess.PIPE, stderr=self._log, env=env,
                start_new_session=True)
        except BaseException:
            self._log.close()
            raise
        try:
            self.port = self._read_port(boot_timeout_s)
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout_s: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout_s)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(match.group(1))

    def close(self, timeout_s: float = 10.0) -> None:
        """Terminate the session, kill what is left, wait; idempotent.

        Every request has completed by now, so nothing needs draining.
        """
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(self.proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(timeout_s)
            except subprocess.TimeoutExpired:
                pass
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class LoadResult:
    """Outcome counts and latencies of one load phase."""

    def __init__(self):
        self.latencies_s: list = []     # open loop: from the due time
        self.service_s: list = []       # from the send
        self.done_at: list = []         # loop time of each completion
        self.lateness_s: list = []
        self.attempted = 0
        self.failures: dict = {}
        self.start = 0.0                # loop time the phase began
        self.elapsed_s = 0.0

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


async def _send(client, request, result: LoadResult, on_body,
                index: int) -> bool:
    """One request; records a failure and returns False unless HTTP 200.

    ``on_body`` may return False to mark the body itself as wrong.
    """
    from repro.serve.client import ServeClientError, ServeDeadlineError
    name, params = request
    try:
        reply = await client.request("POST", f"/v1/experiments/{name}",
                                     payload=params, deadline_s=DEADLINE_S)
    except ServeDeadlineError:
        result.fail("deadline")
        return False
    except ServeClientError:
        result.fail("transport")
        return False
    if reply.status != 200:
        result.fail("http-429" if reply.status == 429
                    else f"http-{reply.status}")
        return False
    if on_body(index, reply.body) is False:
        result.fail("wrong-bytes")
        return False
    return True


async def open_loop(port: int, times_s, requests, on_body,
                    connections: int) -> LoadResult:
    """Send ``requests[i]`` at ``times_s[i]`` seconds after the start."""
    from repro.serve.client import AsyncServeClient
    client = AsyncServeClient("127.0.0.1", port, deadline_s=DEADLINE_S)
    result = LoadResult()
    loop = asyncio.get_running_loop()
    permits = asyncio.Semaphore(connections)
    waiting = 0

    async def fire(index: int, due: float) -> None:
        nonlocal waiting
        async with permits:
            waiting -= 1
            sent = loop.time()
            ok = await _send(client, requests[index], result, on_body, index)
        if ok:
            done = loop.time()
            result.latencies_s.append(done - due)
            result.service_s.append(done - sent)
            result.done_at.append(done)

    tasks = []
    epoch = result.start = loop.time()
    for index, t_s in enumerate(times_s):
        due = epoch + t_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_s.append(max(0.0, loop.time() - due))
        result.attempted += 1
        if waiting >= MAX_BACKLOG:
            result.fail("shed")
            continue
        waiting += 1
        tasks.append(loop.create_task(fire(index, due)))
    await asyncio.gather(*tasks)
    result.elapsed_s = loop.time() - epoch
    return result


async def closed_loop(port: int, requests, on_body, connections: int,
                      duration_s: float) -> LoadResult:
    """``connections`` back-to-back senders over ``requests`` in order
    until ``duration_s`` has passed (``requests`` must not run out)."""
    from repro.serve.client import AsyncServeClient
    client = AsyncServeClient("127.0.0.1", port, deadline_s=DEADLINE_S)
    result = LoadResult()
    loop = asyncio.get_running_loop()
    cursor = iter(range(len(requests)))
    result.start = loop.time()
    stop = result.start + duration_s

    async def sender() -> None:
        while loop.time() < stop:
            index = next(cursor)
            result.attempted += 1
            sent = loop.time()
            if await _send(client, requests[index], result, on_body, index):
                done = loop.time()
                result.service_s.append(done - sent)
                result.done_at.append(done)

    await asyncio.gather(*(sender() for _ in range(connections)))
    result.elapsed_s = loop.time() - result.start
    return result


def metricz(port: int) -> dict:
    from repro.serve.client import ServeClient
    reply = ServeClient(port=port).metricz()
    if not reply.ok:
        raise RuntimeError(f"/metricz answered HTTP {reply.status}")
    return reply.json
