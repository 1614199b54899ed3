"""Closed-loop load generator for the repro.serve service (JSON out).

Embeds a real :class:`~repro.serve.server.ExperimentServer` on an
ephemeral port, then drives it with a closed loop of client threads
(each thread issues its next request only after the previous response
arrives — offered load adapts to service capacity, the standard
closed-loop model).  Two phases:

* ``hot`` — every client repeats one identical latency-matrix request.
  After the first computation the server answers from the coalescing
  layer and the result cache, so this measures the service overhead
  (HTTP parse + cache hit + canonical JSON) rather than the simulator.
  Run once per measurement engine (``--engine`` picks one when the file
  is run directly), reporting hot-path rps for scalar and vectorized
  side by side — their cache entries are engine-addressed and distinct.
* ``cold`` — every request is unique (distinct seeds), so each one
  pays an admitted pool computation; rejections under the in-flight
  bound count as backpressure, not errors.
* ``mesh`` — the mesh endpoints under both mesh kernels (``scalar`` vs
  the batched fastmesh engine, ``--mesh-engine`` picks one): cold
  ``mesh-load-sweep`` and ``report-section(mesh-bottleneck)`` requests
  pay the real simulation, so their timings compare the kernels
  end-to-end through the service; a short hot loop then measures the
  cached-path rps of the sweep endpoint.
* ``scaling`` — the worker tier's reason to exist: the same cold sweep
  against a fresh server at each worker count the machine can host
  (one-worker baseline, then 2/4/8 workers up to ``os.cpu_count()``),
  reporting throughput and the speedup over one worker.
* ``traffic`` — the *open-loop* counterpart: a compiled deterministic
  :mod:`repro.traffic` schedule replayed at several offered loads,
  reporting offered vs achieved rps, schedule-relative p50/p99 and the
  429 rate — written to ``BENCH_traffic.json`` for CI artifact upload.

Emits one JSON document (printed under ``pytest -s``, or run the file
directly: ``python benchmarks/bench_serve.py``) with client-side
throughput and latency percentiles next to the server's own
``/metricz`` view of the same traffic, alongside the engine timings of
``bench_perf_engine.py`` — and writes a machine-readable summary
(per-phase rps, p50/p99, worker count) to ``BENCH_serve.json`` for CI
artifact upload.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time

from _figutil import show

from repro import engines as engine_registry
from repro.serve import ServeClient, serve_in_thread

HOT_WORKERS = 8
HOT_SECONDS = 2.0
COLD_WORKERS = 4
COLD_REQUESTS = 12

_HOT_PARAMS = {"gpu": "V100", "seed": 0, "sms": [0, 1, 2, 3],
               "samples": 1}
ENGINES = engine_registry.names("device")

MESH_HOT_SECONDS = 1.0
MESH_HOT_WORKERS = 4
_MESH_SWEEP_PARAMS = {"rates": [0.05, 0.1, 0.2, 0.3], "arbiter": "rr",
                      "cycles": 2000, "warmup": 500}
MESH_ENGINES = engine_registry.names("mesh")


def _percentiles(samples: list) -> dict:
    samples = sorted(samples)
    if not samples:
        return {"count": 0}
    at = lambda q: samples[min(len(samples) - 1, int(q * len(samples)))]
    return {"count": len(samples),
            "p50_ms": at(0.50) * 1e3, "p90_ms": at(0.90) * 1e3,
            "p99_ms": at(0.99) * 1e3, "max_ms": samples[-1] * 1e3}


def _hot_phase(port: int, engine: str) -> dict:
    """Closed loop of identical requests for a fixed wall-clock window."""
    params = dict(_HOT_PARAMS, engine=engine)
    ServeClient(port=port).experiment("latency-matrix",
                                      **params)          # warm the cache
    latencies: list = []
    errors = [0]
    lock = threading.Lock()
    stop = time.monotonic() + HOT_SECONDS

    def worker():
        client = ServeClient(port=port)
        local: list = []
        while time.monotonic() < stop:
            begin = time.perf_counter()
            reply = client.experiment("latency-matrix", **params)
            elapsed = time.perf_counter() - begin
            if reply.status == 200:
                local.append(elapsed)
            else:
                with lock:
                    errors[0] += 1
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker)
               for _ in range(HOT_WORKERS)]
    begin = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - begin
    return {"engine": engine, "workers": HOT_WORKERS, "wall_s": wall,
            "throughput_rps": len(latencies) / wall,
            "errors": errors[0], "latency": _percentiles(latencies)}


def _cold_sweep(port: int, seed_range, drivers: int) -> dict:
    """Closed loop of unique requests: each pays a real computation
    (or a clean 429 under backpressure)."""
    statuses: list = []
    latencies: list = []
    lock = threading.Lock()
    seeds = iter(seed_range)

    def worker():
        client = ServeClient(port=port)
        while True:
            with lock:
                seed = next(seeds, None)
            if seed is None:
                return
            begin = time.perf_counter()
            reply = client.experiment("latency-matrix", gpu="V100",
                                      seed=seed, sms=[0, 1], samples=1)
            elapsed = time.perf_counter() - begin
            with lock:
                statuses.append(reply.status)
                if reply.status == 200:
                    latencies.append(elapsed)

    threads = [threading.Thread(target=worker) for _ in range(drivers)]
    begin = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - begin
    completed = statuses.count(200)
    return {"drivers": drivers, "requests": len(statuses),
            "completed": completed, "rejected_429": statuses.count(429),
            "other_statuses": sorted(set(statuses) - {200, 429}),
            "wall_s": wall, "throughput_rps": completed / wall,
            "latency": _percentiles(latencies)}


def _cold_phase(port: int) -> dict:
    cold = _cold_sweep(port, range(1000, 1000 + COLD_REQUESTS),
                       COLD_WORKERS)
    cold["workers"] = cold.pop("drivers")      # historical field name
    return cold


#: Cold requests per scaling tier; identical work at every worker count
#: so throughputs divide cleanly into a speedup.
SCALING_REQUESTS = 16


def _scaling_phase(worker_counts=None) -> dict:
    """Cold-sweep throughput vs worker count, one fresh server each.

    One worker (``workers=1``) is the baseline; each worker count
    gets its own empty cache directory so every request is a real
    computation.  ``max_inflight`` tracks the driver count so admission
    never rejects — the measured quantity is compute capacity, not
    backpressure policy.
    """
    cores = os.cpu_count() or 1
    if worker_counts is None:
        worker_counts = [n for n in (2, 4, 8) if n <= cores]
    tiers = {}
    for workers in [1] + list(worker_counts):
        drivers = max(4, 2 * workers)
        with tempfile.TemporaryDirectory() as cache_dir:
            with serve_in_thread(cache_dir=cache_dir, workers=workers,
                                 max_inflight=drivers) as server:
                ServeClient(port=server.port).wait_healthy(deadline_s=60)
                stats = _cold_sweep(server.port,
                                    range(5000, 5000 + SCALING_REQUESTS),
                                    drivers)
        tiers[str(workers)] = {"workers": workers, **stats}
    baseline = tiers["1"]["throughput_rps"]
    for tier in tiers.values():
        tier["speedup_vs_one"] = (tier["throughput_rps"] / baseline
                                  if baseline > 0 else 0.0)
    return {"cores": cores, "requests_per_tier": SCALING_REQUESTS,
            "tiers": tiers}


def _mesh_phase(port: int, mesh_engine: str) -> dict:
    """Mesh endpoints end-to-end under one mesh kernel.

    Cold requests (distinct seeds force distinct cache keys) pay the
    real simulation; the min over seeds is the kernel's honest service
    time.  The hot loop then measures cached-path rps.
    """
    client = ServeClient(port=port)
    statuses: list = []

    def timed(name, **params):
        begin = time.perf_counter()
        reply = client.experiment(name, **params)
        statuses.append(reply.status)
        return time.perf_counter() - begin

    sweep_s = min(timed("mesh-load-sweep", seed=seed,
                        mesh_engine=mesh_engine, **_MESH_SWEEP_PARAMS)
                  for seed in (0, 1))
    section_s = timed("report-section", section="mesh-bottleneck",
                      seed=1, mesh_engine=mesh_engine)

    hot_params = dict(_MESH_SWEEP_PARAMS, seed=0, mesh_engine=mesh_engine)
    latencies: list = []
    errors = [0]
    lock = threading.Lock()
    stop = time.monotonic() + MESH_HOT_SECONDS

    def worker():
        worker_client = ServeClient(port=port)
        local: list = []
        while time.monotonic() < stop:
            begin = time.perf_counter()
            reply = worker_client.experiment("mesh-load-sweep", **hot_params)
            elapsed = time.perf_counter() - begin
            if reply.status == 200:
                local.append(elapsed)
            else:
                with lock:
                    errors[0] += 1
        with lock:
            latencies.extend(local)

    threads = [threading.Thread(target=worker)
               for _ in range(MESH_HOT_WORKERS)]
    begin = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - begin
    return {"mesh_engine": mesh_engine,
            "cold_sweep_s": sweep_s,
            "cold_bottleneck_section_s": section_s,
            "cold_statuses": sorted(set(statuses)),
            "hot": {"workers": MESH_HOT_WORKERS, "wall_s": wall,
                    "throughput_rps": len(latencies) / wall,
                    "errors": errors[0],
                    "latency": _percentiles(latencies)}}


#: Offered loads (rps) for the open-loop traffic phase.
TRAFFIC_LOADS = (10.0, 60.0)
TRAFFIC_DURATION_S = 2.0


def _traffic_phase(loads=TRAFFIC_LOADS) -> dict:
    """Open-loop replay at each offered load against a fresh server.

    Each point compiles the deterministic schedule twice and asserts
    byte-identity (the reproducibility contract), then replays it with
    the coordinated-omission-safe driver: latency percentiles are
    relative to *scheduled* send times, and requests the server bounced
    with 429 are a reported rate, not an error.
    """
    from repro.traffic import OpenLoopDriver, background_spec, \
        compile_schedule

    points = []
    for load in loads:
        spec = background_spec(f"bench-{load}", load, TRAFFIC_DURATION_S,
                               window_s=0.5)
        schedule = compile_schedule(spec)
        assert schedule.canonical_bytes() == \
            compile_schedule(spec).canonical_bytes()
        with tempfile.TemporaryDirectory() as cache_dir:
            with serve_in_thread(workers=2, cache_dir=cache_dir,
                                 max_inflight=8) as server:
                ServeClient(port=server.port).wait_healthy(deadline_s=60)
                driver = OpenLoopDriver(schedule, port=server.port,
                                        deadline_s=30.0)
                report = driver.run()
        totals = report.totals
        digest = report.latency_digest()
        points.append({
            "offered_rps_target": load,
            "offered_rps": report.offered_rps,
            "achieved_rps": report.achieved_rps,
            "requests": len(schedule.requests),
            "ok": totals["ok"], "rejected_429": totals["rejected"],
            "deadline_missed": totals["deadline_missed"],
            "failed": totals["failed"], "shed": totals["shed"],
            "rate_429": (totals["rejected"] / totals["sent"]
                         if totals["sent"] else 0.0),
            "p50_ms": digest.quantile(0.5) * 1e3,
            "p99_ms": digest.quantile(0.99) * 1e3,
            "schedule_digest": schedule.digest()})
    return {"duration_s": TRAFFIC_DURATION_S, "points": points}


def collect(engines=ENGINES, mesh_engines=MESH_ENGINES,
            scaling: bool = True) -> dict:
    with tempfile.TemporaryDirectory() as cache_dir:
        with serve_in_thread(workers=2, cache_dir=cache_dir,
                             max_inflight=4) as server:
            client = ServeClient(port=server.port)
            client.wait_healthy()
            hot = {engine: _hot_phase(server.port, engine)
                   for engine in engines}
            cold = _cold_phase(server.port)
            mesh = {engine: _mesh_phase(server.port, engine)
                    for engine in mesh_engines}
            metrics = client.metricz().json
    record = {"hot": hot, "cold": cold, "mesh": mesh,
              "server_counters": metrics["counters"],
              "server_latency": metrics["latency"]}
    if set(mesh_engines) >= {"scalar", "batched"}:
        record["mesh"]["cold_sweep_speedup"] = (
            mesh["scalar"]["cold_sweep_s"] / mesh["batched"]["cold_sweep_s"])
    if scaling:
        record["scaling"] = _scaling_phase()
    record["traffic"] = _traffic_phase()
    return record


def summarize(record: dict) -> dict:
    """The machine-readable ``BENCH_serve.json`` document: one flat
    ``phases`` table of rps / p50 / p99 / worker count per phase."""
    def row(stats: dict, workers: int, **extra) -> dict:
        latency = stats.get("latency", stats)
        return {"rps": stats["throughput_rps"],
                "p50_ms": latency.get("p50_ms"),
                "p99_ms": latency.get("p99_ms"),
                "workers": workers, **extra}

    phases = {}
    for engine, hot in record["hot"].items():
        phases[f"hot-{engine}"] = row(hot, hot["workers"])
    phases["cold"] = row(record["cold"], record["cold"]["workers"])
    for engine, mesh in record["mesh"].items():
        if isinstance(mesh, dict):
            phases[f"mesh-hot-{engine}"] = row(mesh["hot"],
                                               mesh["hot"]["workers"])
    scaling = record.get("scaling", {})
    for label, tier in scaling.get("tiers", {}).items():
        phases[f"scaling-workers-{label}"] = row(
            tier, tier["workers"],
            speedup_vs_one=tier["speedup_vs_one"])
    return {"benchmark": "bench_serve", "cores": os.cpu_count(),
            "phases": phases}


def emit(record: dict, path: str = "BENCH_serve.json") -> dict:
    summary = summarize(record)
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def emit_traffic(record: dict, path: str = "BENCH_traffic.json") -> dict:
    """``BENCH_traffic.json``: offered vs achieved per open-loop point."""
    summary = {"benchmark": "bench_traffic", "cores": os.cpu_count(),
               **record["traffic"]}
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return summary


def bench_serve(benchmark):
    record = benchmark.pedantic(collect, rounds=1, iterations=1)
    show("repro.serve closed-loop load (JSON)",
         json.dumps(record, indent=2))
    for engine in ENGINES:
        hot = record["hot"][engine]
        assert hot["errors"] == 0
        # hot-path throughput must beat one request per compute-time:
        # the cache/coalescing layer, not the simulator, bounds it
        assert hot["throughput_rps"] > 20
    assert record["cold"]["other_statuses"] == []
    for engine in MESH_ENGINES:
        mesh = record["mesh"][engine]
        assert mesh["cold_statuses"] == [200]
        assert mesh["hot"]["errors"] == 0
        assert mesh["hot"]["throughput_rps"] > 20
    # one batched lockstep run beats the per-point scalar sweep even
    # through the full HTTP + cache + JSON service path
    assert record["mesh"]["cold_sweep_speedup"] > 1.0
    counters = record["server_counters"]
    assert counters["errors"] == 0
    # each hot phase computed its result exactly once
    assert counters["cache_hits"] > 0
    _check_scaling(record["scaling"])
    _check_traffic(record["traffic"])
    emit(record)
    emit_traffic(record)


def _check_traffic(traffic: dict) -> None:
    """The open-loop phase's contract: every scheduled request is
    accounted for, and the replay actually landed work."""
    for point in traffic["points"]:
        accounted = (point["ok"] + point["rejected_429"]
                     + point["deadline_missed"] + point["failed"]
                     + point["shed"])
        assert accounted == point["requests"], point
        assert point["achieved_rps"] > 0, point
        assert len(point["schedule_digest"]) == 64


def _check_scaling(scaling: dict) -> None:
    """The worker tier's throughput contract, gated on available cores
    (a 1–2 core machine cannot demonstrate scaling, only correctness)."""
    tiers = scaling["tiers"]
    for tier in tiers.values():
        assert tier["other_statuses"] == []
        assert tier["completed"] + tier["rejected_429"] == tier["requests"]
    if scaling["cores"] >= 4 and "4" in tiers:
        assert tiers["4"]["speedup_vs_one"] >= 3.0, tiers["4"]
    if scaling["cores"] >= 8 and "8" in tiers:
        assert tiers["8"]["speedup_vs_one"] >= 5.0, tiers["8"]


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=ENGINES + ("both",),
                        default="both",
                        help="measurement engine for the hot phase "
                             "(default: both, reported side by side)")
    parser.add_argument("--mesh-engine", choices=MESH_ENGINES + ("both",),
                        default="both",
                        help="mesh kernel for the mesh phase "
                             "(default: both, reported side by side)")
    parser.add_argument("--no-scaling", action="store_true",
                        help="skip the worker-count scaling sweep")
    parser.add_argument("--out", default="BENCH_serve.json",
                        metavar="FILE",
                        help="machine-readable summary path "
                             "(default: BENCH_serve.json)")
    parser.add_argument("--traffic-out", default="BENCH_traffic.json",
                        metavar="FILE",
                        help="open-loop traffic summary path "
                             "(default: BENCH_traffic.json)")
    args = parser.parse_args()
    selected = ENGINES if args.engine == "both" else (args.engine,)
    mesh_selected = (MESH_ENGINES if args.mesh_engine == "both"
                     else (args.mesh_engine,))
    full_record = collect(engines=selected, mesh_engines=mesh_selected,
                          scaling=not args.no_scaling)
    if not args.no_scaling:
        _check_scaling(full_record["scaling"])
    _check_traffic(full_record["traffic"])
    emit(full_record, args.out)
    emit_traffic(full_record, args.traffic_out)
    print(json.dumps(full_record, indent=2))
