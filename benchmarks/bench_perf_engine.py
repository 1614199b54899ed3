"""Fast-path execution layer: engine/runner/cache timings as JSON.

Times the perf-opt pieces against their baselines and emits one
machine-readable JSON document (printed under ``pytest -s``, or run the
file directly: ``python benchmarks/bench_perf_engine.py``):

* ``latency_matrix`` — the V100 SM x slice sweep, legacy serial path vs
  the sharded runner at several worker counts (parallel speedup needs
  cores: ``cpu_count`` is part of the record);
* ``report_cache`` — ``generate_report`` cold vs warm through the
  content-addressed cache;
* ``vectorized_engine`` — the batched Algorithm 1/2 fast path
  (``repro.core.fastpath``) vs the scalar golden model: the full V100
  latency matrix (floor 10x) and the Fig 13 bandwidth distribution
  (floor 5x), with bit-identity verified on the timed results;
* ``fastmesh_engine`` — the batched struct-of-arrays mesh kernel
  (``repro.noc.mesh.fastmesh``) vs per-point runs of the scalar golden
  model (a one-VC ``VCMesh``, ``repro.noc.mesh.vc.one_vc_mesh``) on the
  full Fig 23 load-curve sweep (every rate x arbiter x seed as ONE
  lockstep simulation; floor 5x), bit-identity verified on the timed
  curves;
* ``report_mesh`` — the report's three mesh sections (the Fig 21
  request/reply pair and the Fig 23 rr/age fairness lanes, seed 0), one
  run each as the report runs them, on each mesh path: the compiled run,
  the Python loop on the host's step and on the NumPy step (min of 3
  each, ``compiled_run_s`` null without a build), with µs per simulated
  cycle and ``bit_identical`` over the three paths' metrics.  No floor:
  ``cpu_count`` is part of the record;
* ``fig23_sweep`` — one ``batched_sweep_load`` at the benchmark suite's
  fig23-sweep shape (six rates 0.03-0.4, 3000 cycles, warmup 500): the
  compiled run, the Python loop on the host's step and on the NumPy
  step, min of 5 each, with ``bit_identical`` over the three curves;
* ``cold_device_request`` — the serve-cold request shape: a fresh V100
  device per seed measuring an 8-SM latency matrix on the default
  engine, per-request ms (median), with bit-identity against the scalar
  engine at one seed.  No floor: ``cpu_count`` is part of the record;
* ``noise_draw`` — ``NoiseBank.batch_normal_texts`` per-stream µs at the
  cold request's batch sizes (32, 256 and 512 streams, texts rendered
  beforehand), the bank's construction and ziggurat table-probe ms, and
  bit-identity against per-digest ``default_rng`` on 10^4 streams;
* ``flow_solver`` — the V100 Fig 9a aggregates (all SMs to all slices,
  hit and miss) per call on each engine, and the max-min fill inside
  them: the golden model's dense ``progressive_fill`` vs the vectorized
  engine's event-driven ``FillPlan.fill`` on the L2 aggregate's
  converged instance, bit-identity verified on both.  No floor:
  ``cpu_count`` is part of the record.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time

from _figutil import show

from repro.gpu.device import SimulatedGPU
from repro.units import MEGA


def latency_matrix_timings() -> dict:
    from repro.core.latency_bench import measured_latency_matrix
    gpu = SimulatedGPU("V100", seed=0)
    record = {}
    start = time.perf_counter()
    measured_latency_matrix(gpu, samples=1, engine="scalar")
    record["serial_s"] = time.perf_counter() - start
    for jobs in (1, 4):
        start = time.perf_counter()
        measured_latency_matrix(gpu, samples=1, jobs=jobs, engine="scalar")
        record[f"jobs{jobs}_s"] = time.perf_counter() - start
    record["jobs4_speedup_vs_jobs1"] = record["jobs1_s"] / record["jobs4_s"]
    return record


def report_cache_timings() -> dict:
    from repro.report import generate_report
    with tempfile.TemporaryDirectory() as directory:
        start = time.perf_counter()
        generate_report(seed=0, cache=directory)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        generate_report(seed=0, cache=directory)
        warm = time.perf_counter() - start
    return {"cold_s": cold, "warm_s": warm, "speedup": cold / warm}


def vectorized_engine_timings() -> dict:
    """Scalar golden model vs the vectorized engine, same device seeds."""
    from repro.core.bandwidth_bench import slice_bandwidth_distribution
    from repro.core.latency_bench import measured_latency_matrix

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    g_scalar = SimulatedGPU("V100", seed=0)
    g_fast = SimulatedGPU("V100", seed=0)
    lat_scalar, lat_scalar_s = timed(
        lambda: measured_latency_matrix(g_scalar, samples=2, engine="scalar"))
    lat_fast, lat_fast_s = timed(
        lambda: measured_latency_matrix(g_fast, samples=2,
                                        engine="vectorized"))
    # A100 is one of Fig 13's devices; its two partitions exercise the
    # crossing-flow lanes the V100 distribution never takes
    b_scalar = SimulatedGPU("A100", seed=0)
    b_fast = SimulatedGPU("A100", seed=0)
    bw_scalar, bw_scalar_s = timed(
        lambda: slice_bandwidth_distribution(b_scalar, 0, engine="scalar"))
    bw_fast, bw_fast_s = timed(
        lambda: slice_bandwidth_distribution(b_fast, 0,
                                             engine="vectorized"))
    return {
        "latency_matrix": {
            "scalar_s": lat_scalar_s,
            "vectorized_s": lat_fast_s,
            "speedup": lat_scalar_s / lat_fast_s,
            "bit_identical": bool((lat_scalar == lat_fast).all()),
        },
        "bandwidth_distribution": {
            "scalar_s": bw_scalar_s,
            "vectorized_s": bw_fast_s,
            "speedup": bw_scalar_s / bw_fast_s,
            "bit_identical": bool((bw_scalar == bw_fast).all()),
        },
    }


def fastmesh_engine_timings(floor: float = 5.0, attempts: int = 4) -> dict:
    """Scalar per-point load sweep vs ONE batched lockstep simulation.

    The canonical workload is the full Fig 23 sweep: 6 injection rates x
    both arbiters x 2 seeds = 24 mesh instances.  The scalar engine
    steps them one golden one-VC ``VCMesh`` at a time; the batched
    engine runs all 24 lanes in lockstep as flat NumPy arrays.

    Timing is min-of-N per side: scheduler noise only ever inflates a
    run, so the minimum is the honest cost.  Further attempts stop as
    soon as the ratio of minima clears ``floor``.  The ratio is
    memory-bandwidth-bound on the batched side, so a contended
    single-core host can measure ~10% under a quiet one — hence the
    retries.
    """
    from repro.noc.mesh.fastmesh import batched_load_curves
    from repro.noc.mesh.loadcurve import sweep_load

    rates = (0.03, 0.08, 0.13, 0.18, 0.25, 0.4)
    arbiters = ("rr", "age")
    seeds = (0, 1)
    cycles, warmup = 3000, 500

    scalar = batched = None
    scalar_s = batched_s = float("inf")
    runs = 0
    for _ in range(attempts):
        runs += 1
        start = time.perf_counter()
        batched = batched_load_curves(rates, arbiters=arbiters, seeds=seeds,
                                      cycles=cycles, warmup=warmup)
        batched_s = min(batched_s, time.perf_counter() - start)
        start = time.perf_counter()
        scalar = {(arbiter, seed): sweep_load(rates, arbiter=arbiter,
                                              seed=seed, cycles=cycles,
                                              warmup=warmup, engine="scalar")
                  for arbiter in arbiters for seed in seeds}
        scalar_s = min(scalar_s, time.perf_counter() - start)
        if scalar_s / batched_s >= floor:
            break

    return {
        "lanes": len(rates) * len(arbiters) * len(seeds),
        "cycles": cycles,
        "runs": runs,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "bit_identical": scalar == batched,
    }


def _mesh_paths():
    """Context managers forcing each mesh path on the meshes built inside.

    ``"python_feeds"`` keeps the host's step but takes the Python loop
    (no compiled run); ``"numpy"`` hides the compiled build altogether
    (the NumPy step and the Python loop).
    """
    from unittest import mock

    from repro.noc.mesh import fastmesh, onevc_step

    return {
        "python_feeds": lambda: mock.patch.object(
            fastmesh._CompiledRun, "make",
            classmethod(lambda cls, owner: None)),
        "numpy": lambda: mock.patch.object(onevc_step, "kernel",
                                           lambda: None),
    }


def report_mesh_timings(repeats: int = 3) -> dict:
    """The report's mesh tasks, one run per section, on each mesh path."""
    from repro import report
    from repro.noc.mesh import onevc_step

    tasks = report._MESH_TASKS
    cycles = (report._BOTTLENECK["cycles"]
              + report._FAIRNESS["cycles"] * (len(tasks) - 1))
    compiled = onevc_step.kernel() is not None
    record = {"run": "compiled" if compiled else "python",
              "compiled_run_s": None, "compiled_run_us_per_cycle": None}
    metrics = {}
    for name, path in {"compiled_run": contextlib.nullcontext,
                       **_mesh_paths()}.items():
        if name == "compiled_run" and not compiled:
            continue
        best = float("inf")
        with path():
            for _ in range(repeats):
                start = time.perf_counter()
                result = {task: report._TASK_FUNCS[task](0, "batched")
                          for task in tasks}
                best = min(best, time.perf_counter() - start)
        record[f"{name}_s"] = best
        record[f"{name}_us_per_cycle"] = best / cycles * MEGA
        metrics[name] = result
    record["bit_identical"] = len(set(map(repr, metrics.values()))) == 1
    record["cpu_count"] = os.cpu_count()
    return record


#: the benchmark suite's fig23-sweep call shape (one ``sweep_load``)
FIG23_RATES = (0.03, 0.08, 0.13, 0.18, 0.25, 0.4)
FIG23_RUN = {"cycles": 3000, "warmup": 500}


def fig23_sweep_timings(repeats: int = 5) -> dict:
    """One ``batched_sweep_load`` at the suite's shape on each path."""
    from repro.noc.mesh import fastmesh, onevc_step

    compiled = onevc_step.kernel() is not None
    record = {"run": "compiled" if compiled else "python"}
    curves = {}
    for name, path in {"compiled_run": contextlib.nullcontext,
                       **_mesh_paths()}.items():
        if name == "compiled_run" and not compiled:
            continue
        best = float("inf")
        with path():
            for _ in range(repeats):
                start = time.perf_counter()
                curve = fastmesh.batched_sweep_load(FIG23_RATES, "rr",
                                                    **FIG23_RUN)
                best = min(best, time.perf_counter() - start)
        record[f"{name}_s"] = best
        curves[name] = curve
    record["speedup"] = (record["python_feeds_s"] / record["compiled_run_s"]
                         if compiled else None)
    record["bit_identical"] = len(set(map(repr, curves.values()))) == 1
    record["cpu_count"] = os.cpu_count()
    return record


def cold_device_request_timings(requests: int = 200,
                                base_seed: int = 10_000_000) -> dict:
    """Per-request cost of a cold device measurement (serve-cold shape)."""
    import statistics

    from repro.core.latency_bench import measured_latency_matrix

    sms = list(range(8))

    def request(seed, engine=None):
        gpu = SimulatedGPU("V100", seed=seed)
        return measured_latency_matrix(gpu, sms=sms, samples=2,
                                       engine=engine)

    request(base_seed - 1)                      # imports, first-use state
    times = []
    for seed in range(base_seed, base_seed + requests):
        start = time.perf_counter()
        request(seed)
        times.append(time.perf_counter() - start)
    return {
        "gpu": "V100", "sms": len(sms), "samples": 2, "requests": requests,
        "per_request_ms": statistics.median(times) * 1e3,
        "bit_identical": bool((request(base_seed)
                               == request(base_seed, "scalar")).all()),
        "cpu_count": os.cpu_count(),
    }


def noise_draw_timings(sizes=(32, 256, 512), repeats: int = 200,
                       digests: int = 10_000) -> dict:
    """Batched keyed-normal draws: per-stream cost and bank set-up."""
    import statistics

    import numpy as np

    from repro import rng
    from repro.core.fastpath.noise import NoiseBank, get_bank

    def median_ms(fn, runs):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3

    bank = get_bank()
    shape = ("route-sm", rng.COLUMN, rng.COLUMN)
    per_stream = {}
    for size in sizes:
        texts = rng.render_keys(0, shape, np.arange(size) % 80,
                                np.arange(size))
        per_stream[str(size)] = median_ms(
            lambda: bank.batch_normal_texts(texts, 1.0), repeats) \
            * 1e3 / size
    texts = rng.render_keys(1, shape, np.arange(digests) % 80,
                            np.arange(digests))
    want = [np.random.default_rng(d).standard_normal() * 1.0 + 0.0
            for d in rng.text_digests(texts).tolist()]
    return {
        "mode": bank.mode,
        "us_per_stream": per_stream,
        "bank_init_ms": median_ms(NoiseBank, 5),
        "table_probe_ms": median_ms(NoiseBank()._probe_tables, 5),
        "bit_identical": bank.batch_normal_texts(texts, 1.0).tolist() == want,
        "cpu_count": os.cpu_count(),
    }


def flow_solver_timings(repeats: int = 5) -> dict:
    """Fig 9a aggregates per engine, and the fill they spend it in.

    Per-call ms is the median of ``repeats`` calls, each on a fresh V100
    (built untimed), engines interleaved.  The fill instance is the L2
    aggregate's last fixed-point iterate: caps and budget-link
    capacities at the converged inflation, 2,688 flows over 192 links,
    one SM's MSHR budget link saturating per round.  The event fill's
    index plan is built once per solve, so it is timed apart
    (``plan_ms``).
    """
    import statistics

    import numpy as np

    from repro.core.bandwidth_bench import (aggregate_l2_bandwidth,
                                            aggregate_memory_bandwidth)
    from repro.core.fastpath.bandwidth import traffic_arrays
    from repro.noc.flows import FillPlan, progressive_fill, solve_arrays

    def median_ms(fn, setup=lambda: None):
        times = []
        results = []
        for _ in range(repeats):
            arg = setup()
            start = time.perf_counter()
            results.append(fn(arg))
            times.append(time.perf_counter() - start)
        return statistics.median(times) * 1e3, results[-1]

    record = {}
    for name, aggregate in (("l2", aggregate_l2_bandwidth),
                            ("memory", aggregate_memory_bandwidth)):
        row = {}
        values = {}
        for engine in ("scalar", "vectorized"):
            row[f"{engine}_ms"], values[engine] = median_ms(
                lambda gpu: aggregate(gpu, engine=engine),
                lambda: SimulatedGPU("V100", seed=0))
        row["speedup"] = row["scalar_ms"] / row["vectorized_ms"]
        row["bit_identical"] = values["scalar"] == values["vectorized"]
        record[name] = row

    gpu = SimulatedGPU("V100", seed=0)
    arrays = traffic_arrays(
        gpu, {sm: gpu.hier.all_slices for sm in gpu.hier.all_sms})
    pair_flow, pair_link, littles, hard, capacity, _, is_littles = arrays
    _, flow_inf, _, _ = solve_arrays(*arrays, event_fill=True)
    link_inf = np.ones(capacity.shape[0])
    np.maximum.at(link_inf, pair_link, flow_inf[pair_flow])
    caps = np.minimum(littles / flow_inf, hard)
    eff_capacity = np.where(is_littles, capacity / link_inf, capacity)
    num_links = capacity.shape[0]
    plan_ms, plan = median_ms(
        lambda _: FillPlan(pair_flow, pair_link, caps.shape[0], num_links))
    dense_ms, dense = median_ms(lambda _: progressive_fill(
        caps, eff_capacity, pair_flow, pair_link, num_links))
    event_ms, event = median_ms(lambda _: plan.fill(caps, eff_capacity))
    record["fill"] = {
        "flows": int(caps.shape[0]), "pairs": int(pair_flow.shape[0]),
        "links": int(num_links),
        "freeze_levels": int(np.unique(dense).size),
        "dense_ms": dense_ms, "event_ms": event_ms, "plan_ms": plan_ms,
        "speedup": dense_ms / event_ms,
        "bit_identical": (dense.view(np.int64).tolist()
                          == event.view(np.int64).tolist()),
    }
    record["bit_identical"] = (record["l2"]["bit_identical"]
                               and record["memory"]["bit_identical"]
                               and record["fill"]["bit_identical"])
    record["cpu_count"] = os.cpu_count()
    return record


def collect() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "latency_matrix": latency_matrix_timings(),
        "report_cache": report_cache_timings(),
        "vectorized_engine": vectorized_engine_timings(),
        "fastmesh_engine": fastmesh_engine_timings(),
        "report_mesh": report_mesh_timings(),
        "fig23_sweep": fig23_sweep_timings(),
        "cold_device_request": cold_device_request_timings(),
        "noise_draw": noise_draw_timings(),
        "flow_solver": flow_solver_timings(),
    }


def bench_perf_engine(benchmark):
    record = benchmark.pedantic(collect, rounds=1, iterations=1)
    show("Fast-path engine timings (JSON)", json.dumps(record, indent=2))
    assert record["report_cache"]["warm_s"] < record["report_cache"]["cold_s"]
    fast = record["vectorized_engine"]
    assert fast["latency_matrix"]["bit_identical"]
    assert fast["bandwidth_distribution"]["bit_identical"]
    assert fast["latency_matrix"]["speedup"] >= 10.0
    assert fast["bandwidth_distribution"]["speedup"] >= 5.0
    mesh = record["fastmesh_engine"]
    assert mesh["bit_identical"]
    assert mesh["speedup"] >= 5.0
    assert record["report_mesh"]["bit_identical"]
    assert record["fig23_sweep"]["bit_identical"]
    assert record["cold_device_request"]["bit_identical"]
    assert record["noise_draw"]["bit_identical"]
    assert record["flow_solver"]["bit_identical"]


if __name__ == "__main__":
    print(json.dumps(collect(), indent=2))
