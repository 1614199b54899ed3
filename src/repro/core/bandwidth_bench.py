"""Algorithm 2: the L2 fabric bandwidth microbenchmark.

The paper's bandwidth kernel streams strided reads from many threads, with
the *destination L2 slice controlled* via the ``M[s]`` address table, and
reports bytes moved / elapsed time.  On the simulated device steady-state
streaming throughput is computed by the max-min-fair flow solver
(``repro.noc.flows``), which plays the role the saturated kernel plays on
hardware; the traffic patterns here mirror the paper's experiments
one-to-one (Fig 9, 12, 13, 14, 15).
"""

from __future__ import annotations

import numpy as np

from repro import engines
from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.noc.topology_graph import AccessKind, BandwidthReport


def measure_bandwidth(gpu: SimulatedGPU, traffic: dict,
                      kind: AccessKind = AccessKind.READ,
                      l2_hit: bool = True) -> BandwidthReport:
    """Steady-state bandwidth for {sm: [home slice ids]} traffic."""
    return gpu.topology.solve(traffic, kind=kind, l2_hit=l2_hit)


def single_sm_slice_bandwidth(gpu: SimulatedGPU, sm: int, slice_id: int,
                              engine: str | None = None) -> float:
    """One SM streaming to one slice (Fig 9b / Fig 12), GB/s."""
    if engines.resolve("device", engine) == "vectorized":
        from repro.core.fastpath.bandwidth import (
            vectorized_single_sm_slice_bandwidth)
        return vectorized_single_sm_slice_bandwidth(gpu, sm, slice_id)
    return measure_bandwidth(gpu, {sm: [slice_id]}).total_gbps


def _distribution_shard(args) -> np.ndarray:
    """Sweep-runner worker: solo bandwidths for one chunk of SMs.

    Returns the chunk as an ndarray so the pool's zero-copy transport
    can move its buffer without re-encoding it.
    """
    spec_data, seed, sms, slice_id, engine = args
    from repro.exec.runner import rebuild_device
    gpu = rebuild_device(spec_data, seed)
    if engine == "vectorized":
        from repro.core.fastpath.bandwidth import (
            vectorized_bandwidth_distribution)
        return vectorized_bandwidth_distribution(gpu, slice_id, sms)
    return np.array([measure_bandwidth(gpu, {sm: [slice_id]}).total_gbps
                     for sm in sms])


def slice_bandwidth_distribution(gpu: SimulatedGPU, slice_id: int,
                                 sms=None, jobs: int | None = None,
                                 engine: str | None = None) -> np.ndarray:
    """Per-SM solo bandwidth to one slice, across SMs (Fig 9b/13).

    Each SM is measured alone (the paper collects the distribution over
    all source/destination combinations, one at a time).  ``jobs``
    shards the SMs over a process pool; the flow solver is a pure
    function of (spec, seed, traffic), so sharded results are
    bit-identical to the serial sweep.  ``engine="vectorized"`` runs
    every SM's single-flow solve as one batched fixed point
    (``repro.core.fastpath.bandwidth``), bit-identical to scalar.
    """
    engine = engines.resolve("device", engine)
    sms = list(sms) if sms is not None else gpu.hier.all_sms
    if jobs is None:
        if engine == "vectorized":
            from repro.core.fastpath.bandwidth import (
                vectorized_bandwidth_distribution)
            return vectorized_bandwidth_distribution(gpu, slice_id, sms)
        return np.array([measure_bandwidth(gpu, {sm: [slice_id]}).total_gbps
                         for sm in sms])
    from repro.exec import SweepRunner, chunk, device_payload
    spec_data, seed = device_payload(gpu)
    shards = [(spec_data, seed, shard, slice_id, engine)
              for shard in chunk(sms)]
    values = SweepRunner(jobs).map(_distribution_shard, shards)
    return np.concatenate([np.atleast_1d(v) for v in values])


def group_to_slice_bandwidth(gpu: SimulatedGPU, sms, slice_id: int,
                             engine: str | None = None) -> float:
    """A group of SMs (e.g. one GPC) streaming to one slice (Fig 9c)."""
    if engines.resolve("device", engine) == "vectorized":
        from repro.core.fastpath.bandwidth import (
            vectorized_group_to_slice_bandwidth)
        return vectorized_group_to_slice_bandwidth(gpu, sms, slice_id)
    sms = list(sms)
    if not sms:
        raise ConfigurationError("need at least one SM")
    return measure_bandwidth(gpu, {sm: [slice_id]for sm in sms}).total_gbps


def aggregate_l2_bandwidth(gpu: SimulatedGPU,
                           engine: str | None = None) -> float:
    """All SMs streaming to all slices, hitting in L2 (Fig 9a), GB/s."""
    if engines.resolve("device", engine) == "vectorized":
        from repro.core.fastpath.bandwidth import (
            vectorized_aggregate_l2_bandwidth)
        return vectorized_aggregate_l2_bandwidth(gpu)
    traffic = {sm: gpu.hier.all_slices for sm in gpu.hier.all_sms}
    return measure_bandwidth(gpu, traffic).total_gbps


def aggregate_memory_bandwidth(gpu: SimulatedGPU,
                               engine: str | None = None) -> float:
    """All SMs streaming with L2 misses: off-chip DRAM bandwidth (Fig 9a)."""
    if engines.resolve("device", engine) == "vectorized":
        from repro.core.fastpath.bandwidth import (
            vectorized_aggregate_memory_bandwidth)
        return vectorized_aggregate_memory_bandwidth(gpu)
    traffic = {sm: gpu.hier.all_slices for sm in gpu.hier.all_sms}
    return measure_bandwidth(gpu, traffic, l2_hit=False).total_gbps


def _saturation_shard(args) -> float:
    """Sweep-runner worker: one point of the saturation curve."""
    spec_data, seed, sms, slice_id, n, engine = args
    from repro.exec.runner import rebuild_device
    gpu = rebuild_device(spec_data, seed)
    if engine == "vectorized":
        from repro.core.fastpath.bandwidth import solve_traffic
        return solve_traffic(gpu, {sm: [slice_id] for sm in sms[:n]})
    return measure_bandwidth(
        gpu, {sm: [slice_id] for sm in sms[:n]}).total_gbps


def slice_saturation_curve(gpu: SimulatedGPU, slice_id: int, sms,
                           counts=None, jobs: int | None = None,
                           engine: str | None = None) -> dict:
    """Slice bandwidth as more SMs target it (Fig 14).

    ``sms`` is the ordered pool to draw from; returns {n: GB/s}.
    ``jobs`` solves the curve's points in parallel (one shard per point).
    ``engine="vectorized"`` assembles each point's solver arrays directly
    from the traffic pattern, bit-identical to the scalar build.
    """
    engine = engines.resolve("device", engine)
    sms = list(sms)
    if engine == "vectorized" and jobs is None:
        from repro.core.fastpath.bandwidth import vectorized_saturation_curve
        return vectorized_saturation_curve(gpu, slice_id, sms, counts)
    counts = list(counts) if counts is not None else list(
        range(1, len(sms) + 1))
    if not sms:
        raise ConfigurationError("need a non-empty SM pool")
    for n in counts:
        if not 1 <= n <= len(sms):
            raise ConfigurationError(f"cannot use {n} SMs from a pool of "
                                     f"{len(sms)}")
    if jobs is None:
        return {n: measure_bandwidth(
            gpu, {sm: [slice_id] for sm in sms[:n]}).total_gbps
            for n in counts}
    from repro.exec import SweepRunner, device_payload
    spec_data, seed = device_payload(gpu)
    shards = [(spec_data, seed, tuple(sms), slice_id, n, engine)
              for n in counts]
    values = SweepRunner(jobs).map(_saturation_shard, shards)
    return dict(zip(counts, values))
