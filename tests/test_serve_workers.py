"""The sharded worker tier: ring, shm transport, receipts, lifecycle.

The expensive end-to-end tests share one module-scoped ``workers=2``
server (each worker imports the compute stack as it starts); tests
that mutate the pool (crash, rolling restart) run last and leave it
recovered.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.ipc import (SegmentError, SegmentRef, read_segment,
                       share_segment, sweep_orphans)
from repro.serve import (ExperimentServer, ServeClient, canonical_json,
                         run_experiment, serve_in_thread, splice_envelope)
from repro.serve.client import Backoff
from repro.serve.experiments import normalize
from repro.serve.registry import RunRegistry, request_sha, result_sha
from repro.serve.workers import (SHM_PREFIX, VNODES, HashRing,
                                 NoLiveWorkersError, WorkerPool)

#: A request cheap enough to recompute many times in lifecycle tests.
SMALL = dict(gpu="V100", seed=0, sms=[0, 1], samples=1)


def test_warm_imports_builds_the_noise_bank(monkeypatch):
    """The bank's self-checks and table probe run at worker start."""
    from repro.core.fastpath import noise
    from repro.serve.workers import warm_imports

    monkeypatch.setattr(noise, "_BANK", None)
    warm_imports()
    assert isinstance(noise._BANK, noise.NoiseBank)


# --------------------------------------------------------------------------
# consistent hashing
# --------------------------------------------------------------------------

def test_ring_assignment_is_deterministic():
    keys = [f"key-{i}" for i in range(200)]
    a = HashRing([0, 1, 2, 3])
    b = HashRing([0, 1, 2, 3])
    assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]
    assert {a.shard_for(k) for k in keys} == {0, 1, 2, 3}


def test_ring_removal_moves_only_the_lost_shard():
    """The consistent-hash property rolling restarts rely on."""
    keys = [f"cache-key-{i}" for i in range(1000)]
    full = HashRing([0, 1, 2, 3])
    before = {k: full.shard_for(k) for k in keys}
    without_2 = HashRing([0, 1, 3])
    for key in keys:
        after = without_2.shard_for(key)
        if before[key] == 2:
            assert after in (0, 1, 3)       # orphaned keys re-home
        else:
            assert after == before[key]     # everyone else stays put


def test_ring_rejects_bad_configs():
    with pytest.raises(NoLiveWorkersError):
        HashRing([]).shard_for("anything")
    with pytest.raises(ConfigurationError):
        HashRing([0], vnodes=0)


def test_ring_vnodes_spread_small_pools():
    counts = {0: 0, 1: 0}
    ring = HashRing([0, 1], vnodes=VNODES)
    for i in range(2000):
        counts[ring.shard_for(f"k{i}")] += 1
    # with 64 vnodes each shard holds 50% +- a few points
    assert 0.30 < counts[0] / 2000 < 0.70


# --------------------------------------------------------------------------
# shared-memory transport
# --------------------------------------------------------------------------

def _share(payload: bytes, worker_id: int) -> SegmentRef:
    """Park ``payload`` the way worker ``worker_id`` does."""
    return share_segment(payload, prefix=SHM_PREFIX, owner=worker_id)


def test_shm_round_trip_verifies_digest():
    payload = os.urandom(5000) + b"tail"
    ref = _share(payload, worker_id=7)
    assert ref.size == len(payload)
    assert read_segment(ref) == payload
    # the consumer unlinked: a second read must fail loudly
    with pytest.raises(SegmentError):
        read_segment(ref)


def test_shm_detects_corruption():
    ref = _share(b"payload-bytes", worker_id=7)
    lying = SegmentRef(name=ref.name, size=ref.size, sha256="0" * 64)
    with pytest.raises(SegmentError):
        read_segment(lying)


def test_shm_rejects_empty_payload():
    with pytest.raises(ValueError):
        _share(b"", worker_id=0)


def test_shm_orphan_sweep_removes_only_that_workers_segments():
    a = _share(b"worker-a-leftover", worker_id=91)
    b = _share(b"worker-b-live", worker_id=92)
    assert sweep_orphans(SHM_PREFIX, 91) >= 1
    with pytest.raises(SegmentError):
        read_segment(a)                     # swept
    assert read_segment(b) == b"worker-b-live"  # untouched


# --------------------------------------------------------------------------
# run registry
# --------------------------------------------------------------------------

def _receipt(registry, seed=0, digest="d" * 64):
    return registry.record(
        experiment="latency-matrix", params={"seed": seed}, key="k" * 64,
        engine={"name": "vectorized"}, worker="worker-0", wall_ms=12.5,
        digest=digest, transport="shm")


def test_registry_records_and_finds():
    registry = RunRegistry()
    first = _receipt(registry, seed=0)
    second = _receipt(registry, seed=1)
    assert (first["seq"], second["seq"]) == (1, 2)
    assert registry.count == 2
    assert registry.find(seq=1)["params"] == {"seed": 0}
    assert registry.find(
        request_sha=request_sha("latency-matrix", {"seed": 1}))["seq"] == 2
    assert registry.find(seq=99) is None
    with pytest.raises(ConfigurationError):
        registry.find()


def test_registry_request_sha_is_canonical():
    assert request_sha("x", {"a": 1, "b": 2}) \
        == request_sha("x", {"b": 2, "a": 1})
    assert request_sha("x", {"a": 1}) != request_sha("y", {"a": 1})
    assert result_sha(b"bytes") != result_sha(b"other")


def test_registry_durable_reload_and_torn_tail(tmp_path):
    path = tmp_path / "receipts.jsonl"
    registry = RunRegistry(path)
    for seed in range(3):
        _receipt(registry, seed=seed)
    # simulate a crash mid-append: a torn final line
    with path.open("a") as handle:
        handle.write('{"seq": 4, "experiment": "latency-mat')

    reloaded = RunRegistry(path)
    assert reloaded.find(seq=3)["params"] == {"seed": 2}
    next_receipt = _receipt(reloaded, seed=9)
    assert next_receipt["seq"] == 4            # torn line never counted
    assert reloaded.find(seq=4)["params"] == {"seed": 9}


def test_registry_find_falls_back_to_disk(tmp_path):
    path = tmp_path / "receipts.jsonl"
    registry = RunRegistry(path, keep=2)
    for seed in range(5):
        _receipt(registry, seed=seed)
    assert registry.find(seq=1)["params"] == {"seed": 0}   # aged out of RAM


# --------------------------------------------------------------------------
# envelope splicing: the byte-identity mechanism
# --------------------------------------------------------------------------

def test_splice_envelope_matches_canonical_json():
    value = {"floats": [0.1, 1e-9, 123456.789, -0.0],
             "text": "µesh / latency", "nested": {"a": [1, None, True]},
             "null": None}
    params = {"seed": 0, "rates": [0.05, 0.3], "arbiter": "rr"}
    spliced = splice_envelope("mesh-load-sweep", params,
                              canonical_json(value))
    assert spliced == canonical_json({"experiment": "mesh-load-sweep",
                                      "params": params, "value": value})


# --------------------------------------------------------------------------
# worker pool, driven directly (no HTTP)
# --------------------------------------------------------------------------

def test_server_rejects_non_positive_worker_counts(tmp_path):
    for workers in (0, -2):
        with pytest.raises(ConfigurationError):
            ExperimentServer(workers=workers, cache_dir=tmp_path / "c")
    assert not (tmp_path / "c").exists()     # rejected before any I/O


def test_pool_inline_transport_and_close(tmp_path):
    pool = WorkerPool(1, cache_dir=tmp_path / "cache")   # default threshold
    with pytest.raises(NoLiveWorkersError):
        pool.submit("latency-matrix", dict(SMALL), "k" * 64)  # not started
    with pool:
        params = normalize("latency-matrix", SMALL)
        result = pool.submit("latency-matrix", params,
                             "a" * 64).result(timeout=120)
        assert result.transport == "inline"      # small payload, big floor
        assert result.worker == "worker-0"
        assert result.digest == result_sha(result.value_bytes)
        assert json.loads(result.value_bytes)["gpu"] == "V100"
        # the worker wrote the shared cache with the spliceable bytes
        from repro.exec import ResultCache
        assert ResultCache(tmp_path / "cache").get("a" * 64) \
            == json.loads(result.value_bytes)
    from repro.serve.workers import PoolClosedError
    with pytest.raises(PoolClosedError):
        pool.submit("latency-matrix", params, "b" * 64)


# --------------------------------------------------------------------------
# end-to-end: the served worker tier
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def workers_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-workers-cache")
    with serve_in_thread(cache_dir=cache_dir, workers=2,
                         shm_min_bytes=1) as server:
        yield server


@pytest.fixture(scope="module")
def workers_client(workers_server):
    client = ServeClient(port=workers_server.port,
                         retry=Backoff(initial_s=0.01, seed=0))
    client.wait_healthy(deadline_s=30)
    return client


def test_worker_tier_matches_single_process_bytes(workers_client):
    """The headline contract: multi-worker responses are byte-identical
    to the canonical envelope of an in-process computation, cold and
    hot."""
    params = normalize("latency-matrix", SMALL)
    reference = splice_envelope(
        "latency-matrix", params,
        canonical_json(run_experiment(("latency-matrix", params))))

    cold = workers_client.experiment("latency-matrix", **SMALL)
    assert cold.ok, cold.body
    assert cold.body == reference
    hot = workers_client.experiment("latency-matrix", **SMALL)
    assert hot.body == reference                 # cache hit, same bytes


def test_worker_tier_metrics_rollup(workers_client):
    snapshot = workers_client.metricz().json
    workers = snapshot["workers"]
    assert workers["size"] == 2 and workers["live"] == 2
    assert set(workers["per_worker"]) == {"0", "1"}
    for stats in workers["per_worker"].values():
        assert stats["state"] == "ready" and stats["pid"] > 0
    # shm_min_bytes=1 forces every result through shared memory
    assert snapshot["counters"]["shm_results"] >= 1
    assert snapshot["registry"]["durable"] is True
    assert snapshot["registry"]["receipts"] >= 1


def test_worker_tier_health(workers_client):
    health = workers_client.healthz().json
    assert health["status"] == "ok"
    assert health["workers"] == 2


def test_receipts_and_replay(workers_client):
    params = dict(SMALL)
    params["seed"] = 3                           # a fresh computation
    reply = workers_client.experiment("latency-matrix", **params)
    assert reply.ok

    receipts = workers_client.receipts().json["receipts"]
    latest = receipts[-1]
    assert latest["worker"].startswith("worker-")
    assert latest["transport"] == "shm"
    assert latest["engine"] == {"name": "vectorized",
                                "fastpath_version":
                                    latest["engine"]["fastpath_version"]}
    assert latest["result_sha"] == result_sha(
        canonical_json(reply.json["value"]))

    # replay by sequence number and by request hash: both recompute to
    # the recorded digest (the whole stack is deterministic)
    by_seq = workers_client.replay(seq=latest["seq"]).json
    assert by_seq["match"] is True
    by_sha = workers_client.replay(
        request_sha=latest["request_sha"]).json
    assert by_sha["match"] is True
    assert by_sha["recomputed_sha"] == latest["result_sha"]

    missing = workers_client.replay(request_sha="f" * 64)
    assert missing.status == 404
    malformed = workers_client.request("POST", "/v1/replay", payload={})
    assert malformed.status == 400


def test_crash_recovery_requeues_to_live_shard(workers_client):
    """SIGKILL one worker: the monitor respawns it and requests keep
    succeeding (crashed jobs re-home onto the surviving shard)."""
    before = workers_client.metricz().json["workers"]
    victim_pid = before["per_worker"]["0"]["pid"]
    os.kill(victim_pid, signal.SIGKILL)

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        workers = workers_client.metricz().json["workers"]
        if workers["live"] == 2 and \
                workers["per_worker"]["0"]["pid"] != victim_pid:
            break
        time.sleep(0.2)
    else:
        pytest.fail("worker 0 was not respawned within 60s")

    assert workers["crashes"] >= 1
    reply = workers_client.experiment("latency-matrix",
                                      **{**SMALL, "seed": 11})
    assert reply.ok, reply.body


def test_rolling_restart_under_load(workers_server, workers_client):
    """Drain every worker mid-flight: zero client-visible failures."""
    stop = threading.Event()
    failures: list = []
    successes = [0]

    def hammer(thread_id):
        client = ServeClient(port=workers_server.port,
                             retry=Backoff(initial_s=0.01, seed=thread_id))
        seed = 0
        while not stop.is_set():
            seed += 1
            reply = client.experiment(
                "mesh-load-sweep", seed=1000 * thread_id + seed,
                rates=[0.05], cycles=120, warmup=20)
            if reply.ok:
                successes[0] += 1
            else:
                failures.append((reply.status, reply.body[:120]))
                return

    threads = [threading.Thread(target=hammer, args=(i,))
               for i in range(3)]
    for thread in threads:
        thread.start()
    try:
        restarts_before = workers_client.metricz().json[
            "workers"]["restarts"]
        kicked = workers_client.restart_workers().json
        assert kicked["status"] == "restarting"

        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            workers = workers_client.metricz().json["workers"]
            if workers["restarts"] >= restarts_before + 2 \
                    and workers["live"] == 2:
                break
            time.sleep(0.25)
        else:
            pytest.fail("rolling restart did not finish within 120s")
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)

    assert failures == [], failures
    assert successes[0] > 0
    for stats in workers_client.metricz().json[
            "workers"]["per_worker"].values():
        assert stats["restarts"] >= 1


def test_worker_tier_forwards_bad_model_parameters_as_400(tmp_path):
    """The worker process forwards a model-parameter error's class, so
    the front end answers 400, not an internal error."""
    with serve_in_thread(cache_dir=tmp_path, workers=1) as server:
        client = ServeClient(port=server.port)
        client.wait_healthy(deadline_s=30)
        reply = client.experiment("mesh-vc-sweep", reply_flits=0)
        assert reply.status == 400
        assert reply.json == {"error": "reply_flits must be positive"}
        snapshot = client.metricz().json
        assert snapshot["counters"]["errors"] == 0
        assert snapshot["workers"]["per_worker"]["0"]["errors"] == 0


# --------------------------------------------------------------------------
# client retry on 503 (rolling-restart seam, deterministic stub server)
# --------------------------------------------------------------------------

class _Flaky503Handler:
    """Answer 503 to the first ``fail_first`` requests, then 200."""

    def __init__(self, fail_first: int):
        self.fail_first = fail_first
        self.seen = 0

    def __call__(self, request_bytes: bytes) -> bytes:
        self.seen += 1
        if self.seen <= self.fail_first:
            body = b'{"error":"draining"}'
            return (b"HTTP/1.1 503 Service Unavailable\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\nRetry-After: 1\r\nConnection: close\r\n\r\n"
                    + body)
        body = b'{"value": 42}'
        return (b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode()
                + b"\r\nConnection: close\r\n\r\n" + body)


@pytest.fixture
def flaky_server():
    import socket

    handler = _Flaky503Handler(fail_first=2)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    port = listener.getsockname()[1]
    done = threading.Event()

    def serve():
        while not done.is_set():
            try:
                connection, _ = listener.accept()
            except OSError:
                return
            with connection:
                connection.recv(65536)
                connection.sendall(handler(b""))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield port, handler
    done.set()
    # closing alone leaves the thread blocked in accept() until the
    # join times out; shutting the socket down wakes it at once
    listener.shutdown(socket.SHUT_RDWR)
    listener.close()
    thread.join(timeout=5)


def test_client_retries_503_until_success(flaky_server):
    port, handler = flaky_server
    client = ServeClient(port=port,
                         retry=Backoff(initial_s=0.001, max_s=0.002,
                                       seed=0))
    reply = client.experiment("latency-matrix", gpu="V100")
    assert reply.ok and reply.json == {"value": 42}
    assert handler.seen == 3                 # two 503s were retried


def test_async_client_against_connection_close_server(flaky_server):
    """A server that closes every connection still works: the async
    client pools only connections the server keeps alive."""
    import asyncio

    from repro.serve.client import AsyncServeClient
    port, handler = flaky_server

    async def run():
        async with AsyncServeClient(
                port=port, retry=Backoff(initial_s=0.001, max_s=0.002,
                                         seed=0)) as client:
            first = await client.experiment("latency-matrix", gpu="V100")
            second = await client.experiment("latency-matrix", gpu="V100")
            return first, second, list(client._idle)

    first, second, pooled = asyncio.run(run())
    assert first.ok and first.json == {"value": 42}
    assert second.ok
    assert handler.seen == 4                 # two 503s, then two answers
    assert pooled == []


def test_client_retry_budget_is_bounded(flaky_server):
    port, handler = flaky_server
    handler.fail_first = 10 ** 6
    client = ServeClient(port=port,
                         retry=Backoff(initial_s=0.001, max_s=0.002,
                                       seed=0),
                         retry_attempts=3)
    reply = client.experiment("latency-matrix", gpu="V100")
    assert reply.status == 503
    assert handler.seen == 3                 # attempts, then surface it


def test_client_rejects_bad_retry_budget():
    with pytest.raises(ValueError):
        ServeClient(retry_attempts=0)
