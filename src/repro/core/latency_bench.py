"""Algorithm 1: the L2 round-trip latency microbenchmark.

Faithful to the paper's methodology (Section II-C1):

* a kernel pinned to one SM, using **one thread of one warp** — no
  coalescing, no contention;
* one address per target L2 slice, found via the address->slice map
  (``M[s]``, discovered through the profiler);
* a warm-up pass so every timed access **hits** in L2 (L1 is always
  bypassed, ``-dlcm=cg``);
* timing with the per-SM ``clock()`` register around each dependent load.

The measured round trip therefore contains SM front-end + NoC + L2 time,
and differences across (SM, slice) pairs isolate the NoC, exactly as the
paper argues.
"""

from __future__ import annotations

import operator

import numpy as np

from repro import engines
from repro.errors import LaunchError
from repro.gpu.device import SimulatedGPU
from repro.gpu.hierarchy import component_ids
from repro.runtime.kernel import KernelSpec
from repro.runtime.launcher import launch
from repro.runtime.scheduler import PinnedScheduler


def _latency_kernel(block, addresses, samples, results):
    """Device code: warm then time one dependent load per target address.

    ``results`` collects (slice_index, latency_cycles) pairs; only lane 0
    of warp 0 is active (Algorithm 1 uses a single thread).
    """
    warp = block.warp(0)
    for idx, address in enumerate(addresses):
        warp.ldcg(address)                     # warm-up: install in L2
        for _ in range(samples):
            start = warp.clock()
            warp.ldcg(address)                 # timed access: L2 hit
            results.append((idx, warp.clock() - start))


def measure_l2_latency(gpu: SimulatedGPU, sm: int, slices=None,
                       samples: int = 3) -> np.ndarray:
    """Average round-trip L2 *hit* latency from one SM to each slice.

    Returns one value per requested slice id (default: all slices),
    in cycles.  Ids may be any integers (NumPy ones included).
    """
    if samples <= 0:
        raise LaunchError("samples must be positive")
    sm = operator.index(sm)
    slices = (component_ids(slices) if slices is not None
              else gpu.hier.all_slices)
    addresses = [gpu.memory.addresses_for_slice(s, 1)[0] for s in slices]
    results: list = []
    launch(gpu, _latency_kernel, KernelSpec(grid_dim=1, block_dim=32,
                                            name="l2_latency"),
           PinnedScheduler([sm]), args=(addresses, samples, results),
           cooperative=False)
    sums = np.zeros(len(slices))
    counts = np.zeros(len(slices))
    for idx, cycles in results:
        sums[idx] += cycles
        counts[idx] += 1
    return sums / counts


def latency_profile(gpu: SimulatedGPU, sm: int, samples: int = 3,
                    engine: str | None = None) -> np.ndarray:
    """The SM's full latency vector over all slices (Fig 1a)."""
    if engines.resolve("device", engine) == "vectorized":
        from repro.core.fastpath.latency import vectorized_latency_matrix
        return vectorized_latency_matrix(gpu, [sm], None, samples)[0]
    return measure_l2_latency(gpu, sm, samples=samples)


def _latency_shard(args) -> np.ndarray:
    """Sweep-runner worker: one chunk of SMs on a freshly rebuilt device.

    Each shard rebuilds its :class:`SimulatedGPU` from the spec dict, so
    the measurement stream it sees depends only on the shard contents —
    results are bit-identical no matter how many workers run the sweep.
    With the vectorized engine a shard is one NumPy block instead of a
    per-SM interpreter loop, same contents either way.  The shard's
    ``[SM x slice]`` block comes back as an ndarray so the pool's
    zero-copy transport can move its buffer without re-encoding it.
    """
    spec_data, seed, sms, slices, samples, engine = args
    from repro.exec.runner import rebuild_device
    gpu = rebuild_device(spec_data, seed)
    slices = list(slices) if slices is not None else None
    if engine == "vectorized":
        from repro.core.fastpath.latency import vectorized_latency_matrix
        return vectorized_latency_matrix(gpu, sms, slices, samples)
    return np.array([measure_l2_latency(gpu, sm, slices, samples)
                     for sm in sms])


def measured_latency_matrix(gpu: SimulatedGPU, sms=None, slices=None,
                            samples: int = 2, jobs: int | None = None,
                            engine: str | None = None) -> np.ndarray:
    """[SM x slice] measured hit-latency matrix (input of Fig 2/3/5/6).

    ``jobs=None`` keeps the legacy serial path (all SMs measured on the
    shared ``gpu`` instance).  Any ``jobs >= 1`` selects the sharded
    execution: SMs are split into fixed chunks, each chunk measured on a
    device rebuilt from ``gpu``'s spec and seed, optionally across a
    process pool — ``jobs=1`` and ``jobs=N`` produce bit-identical
    matrices.

    ``engine="vectorized"`` computes the same matrix as batched array
    operations (``repro.core.fastpath``), bit-identical to the scalar
    golden path under every ``jobs`` setting.
    """
    engine = engines.resolve("device", engine)
    sms = list(sms) if sms is not None else gpu.hier.all_sms
    if jobs is None:
        if engine == "vectorized":
            from repro.core.fastpath.latency import vectorized_latency_matrix
            return vectorized_latency_matrix(gpu, sms, slices, samples)
        return np.array([measure_l2_latency(gpu, sm, slices, samples)
                         for sm in sms])
    from repro.exec import SweepRunner, chunk, device_payload
    spec_data, seed = device_payload(gpu)
    slices_key = tuple(slices) if slices is not None else None
    shards = [(spec_data, seed, shard, slices_key, samples, engine)
              for shard in chunk(sms)]
    shard_rows = SweepRunner(jobs).map(_latency_shard, shards)
    return np.concatenate([np.atleast_2d(rows) for rows in shard_rows])


def measure_miss_penalty(gpu: SimulatedGPU, sm: int, slices=None,
                         samples: int = 3) -> np.ndarray:
    """Average L2 *miss* penalty per slice (Fig 8 bottom row).

    Measured as (cold-miss round trip) - (warm-hit round trip), using the
    model's truth for hit/miss rather than a cache-thrashing loop: the
    simulated L2 reports hit/miss exactly, so invalidating between timed
    accesses reproduces the paper's cold-line methodology.
    """
    sm = operator.index(sm)
    slices = list(slices) if slices is not None else gpu.hier.all_slices
    hits = measure_l2_latency(gpu, sm, slices, samples)
    penalties = np.empty(len(slices))
    for i, s in enumerate(slices):
        address = gpu.memory.addresses_for_slice(s, 1)[0]
        vals = []
        for trial in range(samples):
            gpu.memory.l2.invalidate()
            vals.append(gpu.memory.access(sm, address,
                                          trial=trial).latency_cycles)
        penalties[i] = float(np.mean(vals)) - hits[i]
    return penalties


def _dsmem_kernel(block, destinations, samples, results):
    """Device code: time remote shared-memory loads to each destination."""
    warp = block.warp(0)
    for dst in destinations:
        for _ in range(samples):
            start = warp.clock()
            warp.ld_shared_remote(dst)
            results.append((block.smid, dst, warp.clock() - start))


def measure_dsmem_latency(gpu: SimulatedGPU, gpc: int, samples: int = 3
                          ) -> dict:
    """Average SM-to-SM (distributed shared memory) latency per CPC pair.

    H100 only (Fig 7b).  Runs a pinned kernel on each source SM that
    loads from every other SM's shared memory in the GPC, then averages
    by (src CPC, dst CPC).  Returns {(src_cpc, dst_cpc): cycles}.
    """
    spec = gpu.spec
    if not spec.has_dsmem:
        raise LaunchError(f"{spec.name} has no SM-to-SM network")
    results: list = []
    sms = gpu.hier.sms_in_gpc(gpc)
    for src in sms:
        destinations = [dst for dst in sms if dst != src]
        launch(gpu, _dsmem_kernel, KernelSpec(grid_dim=1, block_dim=32,
                                              name="dsmem"),
               PinnedScheduler([src]), args=(destinations, samples, results),
               cooperative=False)
    sums: dict = {}
    counts: dict = {}
    for src, dst, cycles in results:
        key = (gpu.hier.sm_info(src).cpc_in_gpc,
               gpu.hier.sm_info(dst).cpc_in_gpc)
        sums[key] = sums.get(key, 0.0) + cycles
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}
