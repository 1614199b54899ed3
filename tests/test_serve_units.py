"""Unit tests for the serve building blocks.

Covers the pieces the end-to-end test exercises only implicitly: the
singleflight registry, the admission controller, the experiment schema
normalization, the streaming latency digest, and the server's HTTP edge
cases (bad routes, bad JSON, wrong methods).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import ConfigurationError
from repro.serve import (EXPERIMENTS, AdmissionController,
                         ExperimentRequestError, ServeClient, Singleflight,
                         StreamingDigest, cache_payload, canonical_json,
                         describe_experiments, normalize, run_experiment,
                         serve_in_thread)

# ----------------------------------------------------------- singleflight


def test_singleflight_coalesces_concurrent_calls():
    calls = []

    async def scenario():
        flights = Singleflight()

        async def compute():
            calls.append(1)
            await asyncio.sleep(0.02)
            return {"answer": 42}

        results = await asyncio.gather(
            *(flights.run("key", compute) for _ in range(16)))
        return results

    results = asyncio.run(scenario())
    assert len(calls) == 1
    leaders = [led for _value, led in results]
    assert sum(leaders) == 1
    assert all(value == {"answer": 42} for value, _led in results)


def test_singleflight_distinct_keys_do_not_coalesce():
    async def scenario():
        flights = Singleflight()

        async def compute(i):
            await asyncio.sleep(0.01)
            return i

        return await asyncio.gather(
            *(flights.run(f"k{i}", lambda i=i: compute(i))
              for i in range(4)))

    results = asyncio.run(scenario())
    assert [value for value, _ in results] == [0, 1, 2, 3]
    assert all(led for _, led in results)


def test_singleflight_exception_reaches_all_waiters_and_clears():
    async def scenario():
        flights = Singleflight()

        async def boom():
            await asyncio.sleep(0.01)
            raise ValueError("no")

        outcomes = await asyncio.gather(
            *(flights.run("key", boom) for _ in range(4)),
            return_exceptions=True)
        assert flights.inflight == 0      # failed flight deregistered
        # a later call retries rather than seeing a cached failure
        value, led = await flights.run("key", lambda: _ok())
        return outcomes, value, led

    async def _ok():
        return "fine"

    outcomes, value, led = asyncio.run(scenario())
    assert all(isinstance(o, ValueError) for o in outcomes)
    assert (value, led) == ("fine", True)


# ------------------------------------------------------------- admission


def test_admission_bounds_and_drains():
    async def scenario():
        admission = AdmissionController(2)
        assert admission.try_acquire() and admission.try_acquire()
        assert not admission.try_acquire()      # at the bound: reject
        admission.release()
        assert admission.try_acquire()          # slot reusable
        admission.release()
        admission.release()
        await asyncio.wait_for(admission.drain(), 1.0)
        return admission.peak

    assert asyncio.run(scenario()) == 2


def test_admission_rejects_bad_limit_and_overrelease():
    with pytest.raises(ConfigurationError):
        AdmissionController(0)

    async def scenario():
        admission = AdmissionController(1)
        with pytest.raises(ConfigurationError):
            admission.release()

    asyncio.run(scenario())


# ------------------------------------------------------------ experiments


def test_normalize_fills_defaults_canonically():
    assert normalize("latency-matrix", {}) == {
        "gpu": "V100", "seed": 0, "sms": None, "samples": 2,
        "engine": "vectorized"}
    # lower-case gpu name is canonicalized, explicit defaults identical
    assert normalize("latency-matrix", {"gpu": "v100"}) \
        == normalize("latency-matrix", {"gpu": "V100", "seed": 0})


@pytest.mark.parametrize("name,raw", [
    ("nope", {}),
    ("latency-matrix", {"gpu": "P100"}),
    ("latency-matrix", {"bogus": 1}),
    ("latency-matrix", {"seed": "zero"}),
    ("latency-matrix", {"sms": [0, "one"]}),
    ("latency-matrix", {"samples": True}),
    ("report-section", {"section": "nonexistent"}),
    ("report", {"mesh": 1}),
])
def test_normalize_rejects_bad_requests(name, raw):
    with pytest.raises(ExperimentRequestError):
        normalize(name, raw)


def test_catalogue_describes_every_experiment():
    catalogue = describe_experiments()["experiments"]
    assert [e["name"] for e in catalogue] == sorted(EXPERIMENTS)
    by_name = {e["name"]: e for e in catalogue}
    gpu_param = next(p for p in by_name["latency-matrix"]["params"]
                     if p["name"] == "gpu")
    assert gpu_param["kind"] == "gpu" and gpu_param["default"] == "V100"


def test_cache_payload_folds_specs_in():
    params = normalize("latency-matrix", {"gpu": "A100"})
    payload = cache_payload("latency-matrix", params)
    assert payload["spec"]["name"] == "A100"
    obs = cache_payload("observations", normalize("observations", {}))
    assert set(obs["specs"]) == {"V100", "A100", "H100"}


def test_cache_keys_are_stable():
    # existing cache directories must keep hitting: these are the keys
    # of entries written before the spec payload was memoized
    from repro.exec import cache_key
    from repro.serve import engine_param
    pins = {
        ("latency-matrix", "V100", 3):
            "7174393c1a61cb11212de666809a720a00ef338158b6cb021b04d40171b31dab",
        ("latency-matrix", "V100", 0):
            "1af8a5612b017bbf7a58fec07e3aa449b4774873700a1071680005f426986b6e",
        ("observations", None, 0):
            "16711b9ccdce58a28863ea3d1555a46cb1736f66a2519cd7e9fd18285413c6c8",
    }
    for (name, gpu, seed), expected in pins.items():
        raw = {"seed": seed} if gpu is None else {"gpu": gpu, "seed": seed}
        params = normalize(name, raw)
        for _ in range(2):              # cold, then from the spec memo
            assert cache_key(f"serve:{name}", cache_payload(name, params),
                             engine=engine_param(name, params)) == expected


def test_run_experiment_is_a_plain_function_of_its_args():
    params = normalize("latency-matrix",
                       {"sms": [0, 1], "samples": 1})
    value = run_experiment(("latency-matrix", params))
    again = run_experiment(("latency-matrix", params))
    assert value == again
    assert len(value["matrix"]) == 2
    assert canonical_json(value) == canonical_json(again)


def test_run_experiment_speedup_rows_match_library():
    params = normalize("speedup-table", {"gpu": "V100"})
    value = run_experiment(("speedup-table", params))
    levels = {row["level"] for row in value["rows"]}
    assert "GPC_g" in levels
    assert all(row["speedup"] > 0 for row in value["rows"])


# ----------------------------------------------------------------- digest


def test_digest_quantiles_on_uniform_stream():
    digest = StreamingDigest()
    for i in range(1, 1001):
        digest.add(i / 1000.0)             # 1ms .. 1s uniform
    assert digest.count == 1000
    assert digest.quantile(0.5) == pytest.approx(0.5, rel=0.10)
    assert digest.quantile(0.99) == pytest.approx(0.99, rel=0.10)
    assert digest.maximum == pytest.approx(1.0)
    assert digest.quantile(1.0) <= digest.maximum


def test_digest_empty_and_tiny_values():
    digest = StreamingDigest()
    assert digest.quantile(0.5) == 0.0
    digest.add(0.0)
    digest.add(1e-9)
    assert digest.count == 2
    assert digest.quantile(0.5) <= 1e-4
    summary = digest.summary_ms()
    assert summary["count"] == 2 and summary["max_ms"] >= 0


# ------------------------------------------------------------- http edges


@pytest.fixture(scope="module")
def edge_server():
    with serve_in_thread(workers=1, max_inflight=2) as srv:
        yield srv


@pytest.fixture(scope="module")
def edge_client(edge_server):
    c = ServeClient(port=edge_server.port)
    c.wait_healthy()
    return c


def test_unknown_route_is_404(edge_client):
    assert edge_client.request("GET", "/nope").status == 404


def test_unknown_experiment_is_404_with_catalogue(edge_client):
    reply = edge_client.experiment("frobnicate")
    assert reply.status == 404
    assert "latency-matrix" in reply.json["known"]


def test_wrong_method_is_405(edge_client):
    assert edge_client.request("POST", "/healthz").status == 405
    assert edge_client.request(
        "GET", "/v1/experiments/latency-matrix").status == 405


def test_bad_json_body_is_400(edge_client):
    # hand-roll a broken body via the raw connection
    import http.client
    conn = http.client.HTTPConnection("127.0.0.1", edge_client.port,
                                      timeout=30)
    try:
        conn.request("POST", "/v1/experiments/latency-matrix",
                     body=b"{not json")
        response = conn.getresponse()
        raw_status, raw_body = response.status, response.read()
    finally:
        conn.close()
    assert raw_status == 400
    assert b"JSON" in raw_body


def test_bad_params_is_400(edge_client):
    reply = edge_client.experiment("latency-matrix", gpu="P100")
    assert reply.status == 400
    assert "V100" in reply.json["error"]


def test_responses_are_canonical_json(edge_client):
    body = edge_client.experiments().body
    assert body == canonical_json(json.loads(body))
