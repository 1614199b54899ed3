"""Extension: batched VC-mesh sweep vs scalar, plus the Fig 21 moral.

The paper's simulator baseline uses separate request/reply meshes.  The
alternative — one physical mesh with class-separated virtual channels —
is evaluated by ``repro.noc.mesh.vc``; this benchmark times the batched
struct-of-arrays kernel (``repro.noc.mesh.vcmesh_batched``) against the
retained scalar golden model and emits one machine-readable JSON
document (``python benchmarks/bench_ext_vc_mesh.py --out
BENCH_vcmesh.json``, or printed under ``pytest -s``):

* ``vcmesh_engine`` — the full VC sweep grid (VC counts x buffer depths
  x credit latencies, every cell a complete shared-network experiment)
  as per-cell scalar ``VCMesh`` runs vs ONE batched lockstep
  simulation.  Min-of-N timing per side (scheduler noise only inflates
  a run), early exit once the ratio of minima clears the 3x floor, and
  bit-identity — ``to_json()`` equality on every grid cell — verified
  on the *timed* results, so the speedup claim and the exactness claim
  cover the same run;
* ``grid_cache`` — the same batched sweep cold vs warm through the
  content-addressed :class:`repro.exec.cache.ResultCache`, keyed by the
  registry fingerprint of ``vcmesh:batched``;
* ``vc_benefit`` — the Fig 21 moral on the batched results: with a
  single VC, multi-flit replies head-of-line block the request class
  across the protocol cycle and memory service collapses; giving each
  class its own VC restores throughput.  The reply path needs its own
  resources;
* ``one_vc_step_us`` — microseconds per cycle (inject, step and their
  sum) of ``BatchedVCMesh`` at one VC against the mesh domain's own
  kernel, ``BatchedMesh``, on the same pre-drawn single-flit uniform
  traffic (both models are the one-VC wormhole mesh, so their
  delivered counts must agree).  This is the gap that folding the mesh
  domain onto the VC kernel has to close; no floor;
* ``grid_jobs`` — wall time of the 16-lane sweep in-process against
  ``jobs=2`` (two 8-lane blocks on a process pool), with ``to_json``
  equality asserted; no floor.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np
from _figutil import paper_vs, show

from repro.exec.cache import ResultCache, cache_key
from repro.noc.mesh.fastmesh import BatchedMesh
from repro.noc.mesh.flit import Packet
from repro.noc.mesh.vc import sweep_vc_grid
from repro.noc.mesh.vcmesh_batched import BatchedVCMesh, batched_vc_grid
from repro.units import MEGA

#: One full sweep: 2 VC counts x 2 depths x 2 credit latencies = 8 lanes,
#: each a complete 6x6 shared-network experiment (greedy injection).
GRID = dict(vc_counts=(1, 2), buffer_depths=(2, 4), credit_latencies=(1, 2),
            injection_rates=(None,), seeds=(0,), cycles=2000,
            reply_flits=5, window=100)


#: The one-VC kernel comparison: 6x6 mesh, 4 lanes, 2000 cycles per load.
STEP_MESH = dict(width=6, height=6, lanes=4, cycles=2000, loads=(0.05, 0.3))


def _lanes(grid: dict) -> int:
    return (len(grid["vc_counts"]) * len(grid["buffer_depths"])
            * len(grid["credit_latencies"]) * len(grid["injection_rates"])
            * len(grid["seeds"]))


def vcmesh_engine_timings(floor: float = 3.0, attempts: int = 4) -> dict:
    """Per-cell scalar sweep vs ONE batched lockstep simulation.

    Min-of-N per side; further attempts stop as soon as the ratio of
    minima clears ``floor``.  Bit-identity is asserted on the timed
    results themselves — the run that produced the speedup number is
    the run whose grids are compared cell by cell.
    """
    scalar = batched = None
    scalar_s = batched_s = float("inf")
    runs = 0
    for _ in range(attempts):
        runs += 1
        start = time.perf_counter()
        batched = batched_vc_grid(**GRID)
        batched_s = min(batched_s, time.perf_counter() - start)
        start = time.perf_counter()
        scalar = sweep_vc_grid(engine="scalar", **GRID)
        scalar_s = min(scalar_s, time.perf_counter() - start)
        if scalar_s / batched_s >= floor:
            break

    return {
        "lanes": _lanes(GRID),
        "cycles": GRID["cycles"],
        "runs": runs,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
        "bit_identical": ([r.to_json() for r in scalar]
                          == [r.to_json() for r in batched]),
        "grid": [r.to_json() for r in batched],
    }


def _uniform_traffic(load: float, seed: int = 0) -> list:
    """Per cycle, the (lane, src, dst) single-flit packets to inject."""
    n = STEP_MESH["width"] * STEP_MESH["height"]
    gen = np.random.default_rng(seed)
    traffic = []
    for _ in range(STEP_MESH["cycles"]):
        fire = gen.random((STEP_MESH["lanes"], n)) < load
        dst = gen.integers(n - 1, size=(STEP_MESH["lanes"], n))
        lanes, srcs = np.nonzero(fire)
        dsts = dst[lanes, srcs]
        dsts += dsts >= srcs                 # any node but the source
        traffic.append(list(zip(lanes.tolist(), srcs.tolist(),
                                dsts.tolist())))
    return traffic


def _time_steps(mesh, inject, traffic) -> tuple:
    """(inject, step) microseconds per cycle over one run."""
    clock = time.perf_counter
    inject_s = step_s = 0.0
    for cycle_packets in traffic:
        start = clock()
        for packet in cycle_packets:
            inject(*packet)
        mid = clock()
        mesh.step()
        inject_s += mid - start
        step_s += clock() - mid
    return inject_s / len(traffic) * MEGA, step_s / len(traffic) * MEGA


def one_vc_step_timings(repeats: int = 7) -> dict:
    """us/cycle: BatchedVCMesh(num_vcs=1) vs BatchedMesh, same traffic.

    Each kernel takes its packets through its public ``inject``, which
    defers them to the shared bulk flush inside ``step``
    (``repro.noc.mesh.lanes.SourceQueues``), so the record splits inject
    and step time and gives their sum.  Min of ``repeats`` fresh runs
    per kernel and load (packet construction not timed); the delivered
    counts of the two kernels must agree lane for lane.  Seven repeats,
    because at three two back-to-back runs on a 2-vCPU VM read 1.61 and
    1.27 at load 0.05, either side of the ~1.35 fold threshold (DESIGN
    §16).
    """
    width, height = STEP_MESH["width"], STEP_MESH["height"]
    lanes = STEP_MESH["lanes"]
    by_load = {}
    for load in STEP_MESH["loads"]:
        traffic = _uniform_traffic(load)
        vc_traffic = [[(lane, Packet(src=src, dst=dst, size=1))
                       for lane, src, dst in cycle_packets]
                      for cycle_packets in traffic]
        vc_runs, mesh_runs = [], []
        for _ in range(repeats):
            vc_mesh = BatchedVCMesh(width, height, num_vcs=(1,) * lanes,
                                    buffer_flits=8, credit_latency=1)
            vc_runs.append(_time_steps(vc_mesh, vc_mesh.inject, vc_traffic))
            mesh = BatchedMesh(width, height, batch=lanes)
            mesh_runs.append(_time_steps(
                mesh, lambda lane, src, dst: mesh.inject(lane, src, dst, 1),
                traffic))
        vc_inject, vc_step = min(vc_runs, key=sum)
        mesh_inject, mesh_step = min(mesh_runs, key=sum)
        by_load[str(load)] = {
            "vcmesh": {"inject_us": vc_inject, "step_us": vc_step,
                       "total_us": vc_inject + vc_step},
            "mesh": {"inject_us": mesh_inject, "step_us": mesh_step,
                     "total_us": mesh_inject + mesh_step},
            "ratio": (vc_inject + vc_step) / (mesh_inject + mesh_step),
            "delivered_equal": (mesh.delivered_count.tolist()
                                == [vc_mesh.delivered_count(lane)
                                    for lane in range(lanes)])}
    return {"config": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in STEP_MESH.items()}, "by_load": by_load}


def grid_jobs_timings(repeats: int = 2) -> dict:
    """The 16-lane sweep in-process vs ``jobs=2``; min of ``repeats``."""
    grid = dict(GRID, seeds=(0, 1))
    inproc_s = pooled_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        inproc = sweep_vc_grid(**grid)
        inproc_s = min(inproc_s, time.perf_counter() - start)
        start = time.perf_counter()
        pooled = sweep_vc_grid(jobs=2, **grid)
        pooled_s = min(pooled_s, time.perf_counter() - start)
    return {"lanes": _lanes(grid), "cycles": grid["cycles"],
            "inproc_s": inproc_s, "jobs2_s": pooled_s,
            "identical": ([r.to_json() for r in inproc]
                          == [r.to_json() for r in pooled])}


def grid_cache_timings() -> dict:
    """The batched sweep cold vs warm through the content-addressed cache."""
    payload = {k: list(v) if isinstance(v, tuple) else v
               for k, v in GRID.items()}

    key = cache_key("bench:vc-grid", payload, engine="vcmesh:batched")

    def cached_grid(cache):
        value = cache.get(key)
        if value is None:
            value = [r.to_json() for r in batched_vc_grid(**GRID)]
            cache.put(key, value)
        return value

    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        start = time.perf_counter()
        cold_value = cached_grid(cache)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        warm_value = cached_grid(cache)
        warm = time.perf_counter() - start
    return {"cold_s": cold, "warm_s": warm, "speedup": cold / warm,
            "round_trip_identical": cold_value == warm_value}


def vc_benefit(grid: list[dict]) -> dict:
    """Fig 21 moral from the timed grid: class separation restores service.

    Compares the deepest-buffer, lowest-latency cell at 1 VC vs 2 VCs —
    the pair where everything except class separation is equal and
    as favourable as the sweep allows.
    """
    depth = max(GRID["buffer_depths"])
    latency = min(GRID["credit_latencies"])

    def cell(vcs):
        return next(r for r in grid
                    if r["num_vcs"] == vcs and r["buffer_flits"] == depth
                    and r["credit_latency"] == latency)

    one, two = cell(1), cell(2)
    return {
        "service_rate_1vc": one["service_rate"],
        "service_rate_2vc": two["service_rate"],
        "improvement": two["service_rate"] / one["service_rate"],
    }


def collect() -> dict:
    record = {"cpu_count": os.cpu_count()}
    record["vcmesh_engine"] = vcmesh_engine_timings()
    record["vc_benefit"] = vc_benefit(record["vcmesh_engine"]["grid"])
    record["grid_cache"] = grid_cache_timings()
    record["one_vc_step_us"] = one_vc_step_timings()
    record["grid_jobs"] = grid_jobs_timings()
    return record


def check(record: dict) -> None:
    engine = record["vcmesh_engine"]
    assert engine["bit_identical"]
    assert engine["speedup"] >= 3.0
    cache = record["grid_cache"]
    assert cache["round_trip_identical"]
    assert cache["warm_s"] < cache["cold_s"]
    benefit = record["vc_benefit"]
    assert benefit["improvement"] > 1.5
    assert benefit["service_rate_2vc"] > 0.5
    for row in record["one_vc_step_us"]["by_load"].values():
        assert row["delivered_equal"]
    assert record["grid_jobs"]["identical"]


def bench_ext_vc_mesh(benchmark):
    record = benchmark.pedantic(collect, rounds=1, iterations=1)
    benefit = record["vc_benefit"]
    show("Shared request/reply mesh: 1 VC vs 2 class-separated VCs",
         paper_vs([
             ("service rate, 1 VC (req/cycle)", "collapses",
              round(benefit["service_rate_1vc"], 3)),
             ("service rate, 2 VCs (req/cycle)", "healthy",
              round(benefit["service_rate_2vc"], 3)),
             ("improvement", "separate reply resources required",
              f"{benefit['improvement']:.2f}x"),
             ("batched vs scalar sweep", "n/a",
              f"{record['vcmesh_engine']['speedup']:.1f}x"),
         ]))
    check(record)


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON record to FILE as well "
                             "as stdout")
    args = parser.parse_args()
    record = collect()
    body = json.dumps(record, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(body + "\n")
    print(body)
    check(record)
