"""The open-loop driver: execute a compiled schedule against a server.

**Open loop** means send times come from the schedule, never from the
server: a slow response does not delay the requests behind it.  That is
the property that makes the latency numbers honest — closed-loop
generators silently stop offering load exactly when the server
struggles (coordinated omission), so their tail latencies measure the
generator's politeness, not the server.  Two rules enforce it here:

* every request is fired as its own task at its scheduled instant
  (``asyncio.sleep`` until the schedule says so, then fire-and-track);
* latency is ``completion − scheduled_send``, not ``completion −
  actual_send`` — if the driver or server ever falls behind, the
  queueing delay lands in the recorded latency instead of vanishing.

The only concession to reality is ``max_inflight``: past that many
outstanding requests, further sends are *counted as shed* (and
reported) rather than silently delayed — bounded memory without
giving up the open-loop accounting.

Wall-clock time appears exactly once, at the I/O edge (run timing);
everything schedule-shaped is deterministic and REP001-scoped.
"""

from __future__ import annotations

import asyncio
import time

from repro.serve.client import (AsyncServeClient, ServeClientError,
                                ServeDeadlineError)
from repro.traffic.report import TrafficReport, WindowSummary
from repro.traffic.schedule import Schedule


class OpenLoopDriver:
    """Replay one :class:`Schedule` through an :class:`AsyncServeClient`.

    ``stream`` (optional) names a server-side trace stream: after the
    replay, each window's latency digest state and outcome counters are
    posted to ``POST /v1/streams/<stream>/observe``, where the server
    merges them exactly — the path that lets several drivers (or
    several runs) aggregate into one server-held windowed view.
    """

    def __init__(self, schedule: Schedule, host: str = "127.0.0.1",
                 port: int = 8737, *, deadline_s: float = 10.0,
                 stream: str | None = None,
                 client: AsyncServeClient | None = None):
        self.schedule = schedule
        self.host = host
        self.port = port
        self.deadline_s = deadline_s
        self.stream = stream
        self._client = client
        self._inflight = 0
        spec = schedule.spec
        self.windows = [WindowSummary(window=w)
                        for w in range(spec.num_windows)]
        for row in schedule.window_plan():
            self.windows[row["window"]].scheduled = row["scheduled"]

    def run(self) -> TrafficReport:
        """Blocking entry point: replay and return the report."""
        start = time.monotonic()  # repro: noqa[REP001] — I/O edge timing
        report = asyncio.run(self.drive())
        report.wall_s = time.monotonic() - start  # repro: noqa[REP001]
        return report

    async def drive(self) -> TrafficReport:
        """Replay on the caller's event loop (composable form)."""
        if self._client is not None:
            return await self._drive(self._client)
        async with AsyncServeClient(self.host, self.port,
                                    deadline_s=self.deadline_s) as client:
            return await self._drive(client)

    async def _drive(self, client: AsyncServeClient) -> TrafficReport:
        spec = self.schedule.spec
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        tasks = []
        for request in self.schedule.requests:
            delay = epoch + request.t_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            window = self.windows[self.schedule.window_index(request.t_s)]
            if self._inflight >= spec.max_inflight:
                window.note("shed")
                continue
            self._inflight += 1
            tasks.append(loop.create_task(
                self._fire(client, request, window, epoch)))
        if tasks:
            await asyncio.gather(*tasks)
        if self.stream:
            await self._publish(client)
        return self._report()

    async def _fire(self, client: AsyncServeClient, request, window,
                    epoch: float) -> None:
        loop = asyncio.get_running_loop()
        window.note("sent")
        try:
            reply = await client.request(
                "POST", f"/v1/experiments/{request.experiment}",
                payload=request.params, deadline_s=self.deadline_s)
        except ServeDeadlineError:
            window.note("deadline_missed")
        except ServeClientError:
            window.note("failed")
        else:
            if reply.ok:
                window.note("ok")
                # schedule-relative: queueing delay stays visible
                window.digest.add(loop.time() - (epoch + request.t_s))
            elif reply.status == 429:
                window.note("rejected")
            else:
                window.note("failed")
        finally:
            self._inflight -= 1

    async def _publish(self, client: AsyncServeClient) -> None:
        """Post per-window digest states + counters to the trace stream."""
        for window in self.windows:
            if window.sent == 0 and window.shed == 0:
                continue
            counters = {"scheduled": window.scheduled,
                        "sent": window.sent, "ok": window.ok,
                        "rejected": window.rejected,
                        "deadline_missed": window.deadline_missed,
                        "failed": window.failed, "shed": window.shed}
            await client.stream_observe(
                self.stream, window.window,
                window_s=self.schedule.spec.window_s,
                digest=window.digest.to_state(), counters=counters)

    def _report(self) -> TrafficReport:
        spec = self.schedule.spec
        return TrafficReport(spec_name=spec.name,
                             schedule_digest=self.schedule.digest(),
                             duration_s=spec.duration_s,
                             window_s=spec.window_s,
                             offered_rps=self.schedule.offered_rps,
                             windows=self.windows)
