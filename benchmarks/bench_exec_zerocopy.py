"""Zero-copy sweep results: the shm shard transport.

The batched engines made VC-mesh sweeps compute-cheap enough that
moving their array-valued results started to dominate: shard results
used to cross the pool boundary as in-band pickle (four passes over
the array bytes).  This benchmark times the replacement end to end and
emits one machine-readable JSON document (``python
benchmarks/bench_exec_zerocopy.py --out BENCH_exec.json``, or printed
under ``pytest -s``):

* ``vcmesh_transport`` — 8 shards of full-fidelity (``window=1``)
  VC-mesh ``SharedNetworkResult`` records moved through a warm
  8-process pool the way ``SweepRunner.map`` moves them, in-band pickle
  vs the ``repro.exec.shm`` segment transport (pickle-5 out-of-band
  buffers parked in one ``/dev/shm`` segment, parent maps them in
  place).  Min-of-N per
  side, early exit once the ratio of minima clears the 2x floor, and
  bit-identity — ``utilization.tobytes()`` per record — verified on
  the *timed* zero-copy results;
* ``vcmesh_sweep`` — the real (small) batched VC sweep through
  ``sweep_vc_grid(jobs=...)``, serial vs pooled, ``to_json`` equality
  on every grid point: the wiring the transport rides in production.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from _figutil import paper_vs, show

from repro.units import MIB
from repro.exec.runner import pool_chunksize
from repro.exec.shm import (ZEROCOPY_MIN_BYTES, decode_result, run_token,
                            sweep_run, zerocopy_shard)
from repro.ipc import map_available
from repro.noc.mesh.vc import SharedNetworkResult, sweep_vc_grid

#: Transport workload: 8 shards x 128 grid points, each point carrying
#: a full per-cycle utilization trace (window=1 over 8000 cycles, the
#: sweep default's fidelity ceiling) — ~8 MiB of float64 per shard.
TRANSPORT = dict(shards=8, jobs=8, points=128, samples=8000)

#: End-to-end sweep workload (real simulation, kept small: the point is
#: wiring identity, the transport floor is asserted on TRANSPORT).
SWEEP = dict(vc_counts=(1, 2), buffer_depths=(2, 4),
             credit_latencies=(1,), injection_rates=(None,), seeds=(0,),
             cycles=1200, reply_flits=5, window=100)

#: Shard payloads for the transport echo workers.  Module-global so
#: forked pool workers inherit them and the *send* side costs nothing:
#: the timed region is purely result transport, which is what the
#: pickled and zero-copy paths differ in.
_SHARDS: list = []


def _make_shards() -> list:
    shards = []
    for shard in range(TRANSPORT["shards"]):
        gen = np.random.default_rng(9000 + shard)
        results = []
        for point in range(TRANSPORT["points"]):
            util = gen.random(TRANSPORT["samples"])
            results.append(SharedNetworkResult(
                num_vcs=1 + point % 4, buffer_flits=2 + point % 3,
                credit_latency=1 + point % 2, width=6, height=6,
                cycles=TRANSPORT["samples"], reply_flits=5,
                seed=shard * TRANSPORT["points"] + point,
                injection_rate=None,
                serviced_requests=int(util.sum()),
                utilization=util,
                mean_utilization=float(util.mean()),
                peak_utilization=float(util.max()),
                window=1))
        shards.append(results)
    return shards


def _echo_shard(index: int) -> list:
    return _SHARDS[index]


def _pool_map(pool, zerocopy: bool, indexes: list) -> list:
    """One ``SweepRunner.map`` round over a warm pool, either transport."""
    chunksize = pool_chunksize(len(indexes), TRANSPORT["jobs"])
    if not zerocopy:
        return list(pool.map(_echo_shard, indexes, chunksize=chunksize))
    token = run_token()
    packed = [(_echo_shard, index, token, ZEROCOPY_MIN_BYTES)
              for index in indexes]
    try:
        return [decode_result(item) for item in
                pool.map(zerocopy_shard, packed, chunksize=chunksize)]
    except BaseException:
        sweep_run(token)
        raise


def _shards_identical(got: list, want: list) -> bool:
    return all(
        len(g) == len(w) and all(
            a.seed == b.seed
            and a.serviced_requests == b.serviced_requests
            and a.utilization.tobytes() == b.utilization.tobytes()
            for a, b in zip(g, w))
        for g, w in zip(got, want))


def vcmesh_transport_timings(floor: float = 2.0, attempts: int = 6) -> dict:
    """8-job pool transport of VC-mesh shard results, pickle vs shm.

    Min-of-N per side; further attempts stop as soon as the ratio of
    minima clears ``floor``.  Bit-identity is asserted on the timed
    zero-copy results themselves.
    """
    if not map_available():
        return {"skipped": "platform has no file-backed shared memory"}
    global _SHARDS
    _SHARDS = _make_shards()
    indexes = list(range(TRANSPORT["shards"]))
    per_shard = sum(r.utilization.nbytes for r in _SHARDS[0])

    timings = {}
    identical = {}
    for label, zerocopy in (("pickled", False), ("zerocopy", True)):
        best = float("inf")
        runs = 0
        with ProcessPoolExecutor(max_workers=TRANSPORT["jobs"]) as pool:
            _pool_map(pool, zerocopy, indexes)    # warm the pool
            for _ in range(attempts):
                runs += 1
                start = time.perf_counter()
                got = _pool_map(pool, zerocopy, indexes)
                best = min(best, time.perf_counter() - start)
                if "pickled" in timings and timings["pickled"] / best >= floor:
                    break
        timings[label] = best
        identical[label] = _shards_identical(got, _SHARDS)
    _SHARDS = []

    return {
        "shards": TRANSPORT["shards"],
        "jobs": TRANSPORT["jobs"],
        "points_per_shard": TRANSPORT["points"],
        "bytes_per_shard": per_shard,
        "pickled_s": timings["pickled"],
        "zerocopy_s": timings["zerocopy"],
        "speedup": timings["pickled"] / timings["zerocopy"],
        "bit_identical": identical["pickled"] and identical["zerocopy"],
    }


def vcmesh_sweep_timings() -> dict:
    """The real batched VC sweep, serial vs pooled (wiring identity)."""
    start = time.perf_counter()
    serial = sweep_vc_grid(engine="batched", **SWEEP)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = sweep_vc_grid(engine="batched", jobs=2, **SWEEP)
    jobs_s = time.perf_counter() - start
    return {
        "points": len(serial),
        "cycles": SWEEP["cycles"],
        "serial_s": serial_s,
        "jobs_s": jobs_s,
        "bit_identical": ([r.to_json() for r in serial]
                          == [r.to_json() for r in pooled]),
    }


def collect() -> dict:
    record = {"cpu_count": os.cpu_count(), "shm": map_available()}
    record["vcmesh_transport"] = vcmesh_transport_timings()
    record["vcmesh_sweep"] = vcmesh_sweep_timings()
    return record


def check(record: dict) -> None:
    transport = record["vcmesh_transport"]
    if "skipped" not in transport:
        assert transport["bit_identical"]
        assert transport["speedup"] >= 2.0
    sweep = record["vcmesh_sweep"]
    assert sweep["bit_identical"]


def bench_exec_zerocopy(benchmark):
    record = benchmark.pedantic(collect, rounds=1, iterations=1)
    transport = record["vcmesh_transport"]
    rows = [("serial vs pooled sweep", "n/a",
             "identical" if record["vcmesh_sweep"]["bit_identical"]
             else "DIFFERS")]
    if "skipped" not in transport:
        mib = transport["bytes_per_shard"] / MIB
        rows.insert(0, (f"shard transport ({mib:.0f} MiB/shard)", "n/a",
                        f"{transport['speedup']:.1f}x"))
    show("Zero-copy sweep results: shm shard transport", paper_vs(rows))
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
