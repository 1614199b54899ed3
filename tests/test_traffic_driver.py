"""Open-loop driver end to end: reproducible replay through real servers.

The acceptance contract this file pins: compiling the same spec twice
yields byte-identical schedules, and replaying that schedule against a
single-process server and a 2-worker sharded server produces the *same
deterministic window report* — the run-invariant projection — while
every scheduled request is accounted for in exactly one outcome bucket.
Plus the async client's deadline semantics, which the driver's
coordinated-omission accounting depends on.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import ServeClient, serve_in_thread
from repro.serve.client import AsyncServeClient, ServeDeadlineError
from repro.traffic import (ArrivalSpec, OpenLoopDriver, TenantSpec,
                           TrafficSpec, compile_schedule,
                           deterministic_summary)

#: Cheap, cacheable request mix; generous server budget so a quiet run
#: completes every request (which makes the measured window counters
#: deterministic too, not just the plan).
def _spec(name="replay", rate=14.0):
    return TrafficSpec(
        name=name, seed=9, duration_s=1.5, window_s=0.5,
        max_inflight=64,
        arrival=ArrivalSpec(process="poisson", rate_rps=rate),
        tenants=(TenantSpec(name="bg", experiment="latency-matrix",
                            params_base={"sms": [0], "samples": 1},
                            hot_keys=4, zipf_s=1.1, key_param="seed"),))


def _accounted(report) -> int:
    totals = report.totals
    return (totals["ok"] + totals["rejected"] + totals["deadline_missed"]
            + totals["failed"] + totals["shed"])


def _replay(server, spec, stream=None):
    schedule = compile_schedule(spec)
    driver = OpenLoopDriver(schedule, port=server.port, deadline_s=30.0,
                            stream=stream)
    return schedule, driver.run()


class TestReplayDeterminism:
    def test_single_vs_two_worker_servers(self, tmp_path):
        """The tentpole acceptance: same spec, byte-identical schedule,
        identical window report whether the server runs 1 or 2 workers."""
        spec = _spec()
        outcomes = {}
        for label, kwargs in (("single", dict(workers=1)),
                              ("workers2", dict(workers=2))):
            cache_dir = tmp_path / label
            cache_dir.mkdir()
            with serve_in_thread(cache_dir=cache_dir,
                                 max_inflight=32, **kwargs) as server:
                ServeClient(port=server.port).wait_healthy(deadline_s=60)
                schedule, report = _replay(server, spec,
                                           stream="replay-stream")
                stream_doc = ServeClient(port=server.port) \
                    .stream_summary("replay-stream").json
            outcomes[label] = (schedule, report, stream_doc)

        (sched1, rep1, stream1) = outcomes["single"]
        (sched2, rep2, stream2) = outcomes["workers2"]
        assert sched1.canonical_bytes() == sched2.canonical_bytes()
        assert deterministic_summary(sched1) == deterministic_summary(sched2)
        # a quiet server completes everything: measured counters equal
        # the plan on both servers, windows included
        for report, stream_doc in ((rep1, stream1), (rep2, stream2)):
            assert report.totals["ok"] == len(sched1.requests), report.totals
            assert _accounted(report) == len(sched1.requests)
            scheduled_per_window = {
                row["window"]: row["scheduled"]
                for row in sched1.window_plan()}
            for window_doc in stream_doc["windows"]:
                counters = window_doc["counters"]
                assert counters["ok"] == \
                    scheduled_per_window[window_doc["window"]]
        assert [w["counters"] for w in stream1["windows"]] \
            == [w["counters"] for w in stream2["windows"]]

    def test_report_shape_and_latency_rollup(self, tmp_path):
        spec = _spec(name="shape")
        with serve_in_thread(cache_dir=tmp_path,
                             max_inflight=32) as server:
            ServeClient(port=server.port).wait_healthy(deadline_s=60)
            schedule, report = _replay(server, spec)
        doc = report.to_jsonable()
        assert doc["schedule_digest"] == schedule.digest()
        assert doc["achieved_rps"] > 0
        assert doc["totals"]["ok"] == sum(w["ok"] for w in doc["windows"])
        rollup = report.latency_digest()
        assert rollup.count == doc["totals"]["ok"]
        assert doc["latency"]["p50_ms"] == rollup.quantile(0.5) * 1e3
        assert report.wall_s >= spec.duration_s * 0.9

    def test_driver_sheds_above_inflight_cap(self, tmp_path):
        """A tiny client-side cap on a slow mix sheds instead of
        delaying sends — and shed requests are reported, not lost."""
        spec = TrafficSpec(
            name="shed", seed=2, duration_s=1.0, window_s=0.5,
            max_inflight=1,
            arrival=ArrivalSpec(process="poisson", rate_rps=40.0),
            tenants=(TenantSpec(name="slow", experiment="latency-matrix",
                                params_base={"sms": [0, 1, 2, 3],
                                             "samples": 2},
                                hot_keys=64, zipf_s=0.0,
                                key_param="seed"),))
        with serve_in_thread(cache_dir=tmp_path,
                             max_inflight=64) as server:
            ServeClient(port=server.port).wait_healthy(deadline_s=60)
            schedule, report = _replay(server, spec)
        assert _accounted(report) == len(schedule.requests)
        assert report.totals["shed"] > 0, report.totals


class TestAsyncClient:
    def test_deadline_is_end_to_end(self, tmp_path):
        with serve_in_thread(cache_dir=tmp_path) as server:
            ServeClient(port=server.port).wait_healthy(deadline_s=60)

            async def scenario():
                async with AsyncServeClient(port=server.port) as client:
                    # generous deadline: a cold computation completes
                    ok = await client.experiment(
                        "latency-matrix", deadline_s=60.0, gpu="V100",
                        seed=100, sms=[0], samples=1)
                    assert ok.ok, ok.body
                    # hopeless deadline on a cold heavy request (scalar
                    # engine, many SM rows: hundreds of ms of compute):
                    # the client must give up on time, not wait for the
                    # server
                    with pytest.raises(ServeDeadlineError):
                        await client.experiment(
                            "latency-matrix", deadline_s=0.05, gpu="V100",
                            seed=101, sms=list(range(40)), samples=2,
                            engine="scalar")
                    # and the server stays healthy for later requests
                    health = await client.healthz()
                    assert health.ok

            asyncio.run(scenario())

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            AsyncServeClient(deadline_s=0.0)
        with pytest.raises(ValueError):
            AsyncServeClient(retry_attempts=0)
