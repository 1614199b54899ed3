"""End-to-end tests of the repro.serve measurement service.

The headline test drives a real server on an ephemeral port through
:class:`repro.serve.ServeClient`: 32 concurrent identical
latency-matrix requests must trigger exactly one underlying
computation, return byte-identical responses, leave ``/metricz``
consistent with the traffic, and a saturated admission budget must
produce fast 429 rejections.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec import ResultCache, cache_key
from repro.serve import ServeClient, serve_in_thread
from repro.serve.experiments import cache_payload, engine_param, normalize

#: Small-but-not-instant request: ~8 SM rows keep the computation long
#: enough (~150 ms) that 32 simultaneous requests overlap it.
HOT_PARAMS = {"gpu": "V100", "seed": 0, "sms": list(range(8)),
              "samples": 1}

CONCURRENCY = 32


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with serve_in_thread(workers=1, cache_dir=cache_dir,
                         max_inflight=1) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    c = ServeClient(port=server.port)
    c.wait_healthy()
    return c


def _counters(client) -> dict:
    return client.metricz().json["counters"]


def test_concurrent_identical_requests_coalesce(server, client):
    barrier = threading.Barrier(CONCURRENCY)
    replies = [None] * CONCURRENCY

    def fire(i: int) -> None:
        c = ServeClient(port=server.port)
        barrier.wait()
        replies[i] = c.experiment("latency-matrix", **HOT_PARAMS)

    threads = [threading.Thread(target=fire, args=(i,))
               for i in range(CONCURRENCY)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)

    assert all(r is not None and r.status == 200 for r in replies)
    # byte-identical responses no matter which path served them
    assert len({r.body for r in replies}) == 1

    m = _counters(client)
    # one underlying computation for all 32 requests
    assert m["computations"] == 1
    assert m["requests"]["latency-matrix"] == CONCURRENCY
    # every non-leader either joined the flight or hit the cache
    assert m["coalesced"] + m["cache_hits"] == CONCURRENCY - 1
    assert m["rejected"] == 0 and m["errors"] == 0
    assert m["responses"]["200"] >= CONCURRENCY

    # the shared value is the actual experiment result
    value = replies[0].value()
    assert value["gpu"] == "V100"
    assert len(value["matrix"]) == len(HOT_PARAMS["sms"])
    assert value["min"] > 0


def test_repeat_request_is_a_cache_hit(client):
    before = _counters(client)
    reply = client.experiment("latency-matrix", **HOT_PARAMS)
    after = _counters(client)
    assert reply.status == 200
    assert after["computations"] == before["computations"]
    assert after["cache_hits"] == before["cache_hits"] + 1


def test_corrupted_cache_entry_is_recomputed_not_served(server, client):
    """A flipped digit inside a stored value still parses as JSON; the
    digest check turns it into a miss, and the recompute heals it."""
    params = {"gpu": "V100", "seed": 11, "sms": [0, 1], "samples": 1}
    first = client.experiment("latency-matrix", **params)
    assert first.status == 200
    normalized = normalize("latency-matrix", params)
    key = cache_key("serve:latency-matrix",
                    cache_payload("latency-matrix", normalized),
                    engine=engine_param("latency-matrix", normalized))
    path = server.cache.directory / f"{key}.json"
    data = path.read_bytes()
    at = data.index(b'"matrix":[[') + len(b'"matrix":[[')
    flipped = b"1" if data[at:at + 1] != b"1" else b"2"
    path.write_bytes(data[:at] + flipped + data[at + 1:])

    before = _counters(client)
    again = client.experiment("latency-matrix", **params)
    after = _counters(client)
    assert again.status == 200
    assert again.body == first.body
    assert after["cache_misses"] == before["cache_misses"] + 1
    assert after["computations"] == before["computations"] + 1
    value = ResultCache(server.cache.directory).get_bytes(key)
    assert value is not None
    assert first.body.endswith(b',"value":' + value + b"}")


def test_backpressure_rejects_with_429(server, client):
    """With max_inflight=1, a second distinct computation gets a 429."""
    before = _counters(client)
    slow_replies = []

    def slow() -> None:
        slow_replies.append(ServeClient(port=server.port).experiment(
            "latency-matrix", gpu="V100", seed=7, samples=1))

    thread = threading.Thread(target=slow)
    thread.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.healthz().json["inflight_computations"] >= 1:
            break
        time.sleep(0.005)
    else:
        pytest.fail("slow computation never became visible in-flight")

    rejected = client.experiment("latency-matrix", gpu="V100", seed=8,
                                 samples=1)
    thread.join(timeout=120)

    assert rejected.status == 429
    assert rejected.json["limit"] == 1
    assert slow_replies[0].status == 200
    after = _counters(client)
    assert after["rejected"] == before["rejected"] + 1
    # the rejection did not consume a computation
    assert after["computations"] == before["computations"] + 1


def test_metricz_latency_digest_populated(client):
    latency = client.metricz().json["latency"]
    assert latency["request"]["count"] > 0
    assert latency["compute"]["count"] >= 1
    assert latency["request"]["p99_ms"] >= latency["request"]["p50_ms"]
    assert latency["compute"]["max_ms"] > 0


def test_identical_params_different_spelling_share_one_computation(client):
    """Omitted params and explicit defaults hash to the same key."""
    before = _counters(client)
    a = client.experiment("latency-matrix", **HOT_PARAMS)
    b = client.experiment("latency-matrix", samples=1, seed=0,
                          sms=list(range(8)), gpu="V100")
    after = _counters(client)
    assert a.body == b.body
    assert after["computations"] == before["computations"]


def test_healthz_reports_shape(client):
    health = client.healthz().json
    assert health["status"] == "ok"
    assert health["experiments"] == 9
    assert health["inflight_computations"] == 0


#: Model parameters normalize() accepts but the mesh model rejects; the
#: request is at fault, so each must be a 400, never an internal error.
BAD_MODEL_PARAMS = [
    ("mesh-load-sweep", {"rates": []}, "need at least one rate"),
    ("mesh-load-sweep", {"rates": [0.0]}, "rate must be in (0, 1]"),
    ("mesh-load-sweep", {"warmup": -1}, "warmup must be >= 0"),
    ("mesh-load-sweep", {"cycles": 100, "warmup": 500},
     "cycles must exceed warmup"),
    ("mesh-vc-sweep", {"reply_flits": 0}, "reply_flits must be positive"),
]


@pytest.mark.parametrize("name,params,message", BAD_MODEL_PARAMS,
                         ids=["no-rates", "zero-rate", "negative-warmup",
                              "warmup-past-cycles", "zero-reply-flits"])
def test_bad_model_parameters_are_400_not_500(client, name, params,
                                              message):
    reply = client.experiment(name, **params)
    assert reply.status == 400
    assert reply.json == {"error": message}
    assert _counters(client)["errors"] == 0


# ------------------------------------------------------------- Backoff

def test_backoff_schedule_grows_and_clips():
    from repro.serve.client import Backoff
    schedule = Backoff(initial_s=0.01, max_s=0.05, multiplier=2.0,
                       jitter=0.0)
    delays = schedule.delays()
    observed = [next(delays) for _ in range(5)]
    assert observed == [0.01, 0.02, 0.04, 0.05, 0.05]


def test_backoff_jitter_is_bounded_and_seeded():
    from repro.serve.client import Backoff
    schedule = Backoff(initial_s=0.1, max_s=0.1, jitter=0.5, seed=7)
    first = [next(schedule.delays()) for _ in range(3)]
    # seeded: every fresh stream starts identically
    assert first[0] == first[1] == first[2]
    stream = schedule.delays()
    for _ in range(50):
        delay = next(stream)
        assert 0.05 <= delay <= 0.15


def test_backoff_rejects_bad_config():
    import pytest as _pytest
    from repro.serve.client import Backoff
    for kwargs in ({"initial_s": 0.0}, {"multiplier": 0.5},
                   {"jitter": 1.0}, {"initial_s": 1.0, "max_s": 0.5}):
        with _pytest.raises(ValueError):
            Backoff(**kwargs)


def test_wait_healthy_respects_deadline():
    from repro.serve.client import Backoff, ServeClient, ServeClientError
    # a port with nothing listening: wait_healthy must give up on time
    unreachable = ServeClient(port=1, timeout=0.05)
    start = time.monotonic()
    with pytest.raises(ServeClientError, match="not healthy"):
        unreachable.wait_healthy(
            deadline_s=0.2,
            backoff=Backoff(initial_s=0.01, max_s=0.05, seed=1))
    assert time.monotonic() - start < 2.0
