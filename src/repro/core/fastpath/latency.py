"""Vectorized Algorithm 1: whole latency matrices as array operations.

Replicates the scalar interpreter's arithmetic *operation for operation*
(same associativity, same ``np.where`` branches as its ``if``\\ s, same
noise streams via :mod:`repro.core.fastpath.noise`) so every cell is
bit-identical to ``measure_l2_latency`` driving simulated warps — the
scalar path stays the golden model.  The measured matrix also replays the
golden path's device-state side effects: L2 residency/LRU and hit/miss
counters, DRAM bytes serviced, per-slice request counters and the memory
access sequence, so interleaving engines on one device never diverges.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro import rng
from repro.core.fastpath.noise import DRAW_CHUNK, get_bank
from repro.errors import ConfigurationError, LaunchError
from repro.gpu.hierarchy import component_ids
from repro.gpu.layout import LayoutArrays, spec_layout
from repro.memory.address import AddressHasher
from repro.runtime.device_api import (ISSUE_SLOT_CYCLES,
                                      MEM_ISSUE_OVERHEAD_CYCLES)


def _geometry(model) -> LayoutArrays:
    """The spec's shared hierarchy + floorplan arrays."""
    return spec_layout(model.spec).arrays


def _route_table(model) -> np.ndarray:
    """The model's [SM x slice] route-offset table (NaN until drawn):
    offsets depend on the seed, so the table lives on the model."""
    table = getattr(model, "_fastpath_route_offsets", None)
    if table is None:
        spec = model.spec
        table = np.full((spec.num_sms, spec.num_slices), np.nan)
        model._fastpath_route_offsets = table
    return table


def _service_matrix(model, sm_idx: np.ndarray, sl_idx: np.ndarray,
                    for_hit: bool) -> np.ndarray:
    """[n x m] servicing slice ids (``HierarchicalCrossbar.path``)."""
    geo = _geometry(model)
    home = sl_idx[None, :]
    if for_hit and model.spec.local_l2_policy:
        sm_part = geo.sm_part[sm_idx][:, None]
        home_part = geo.sl_part[home]
        local = geo.part_first[sm_part] + (home - geo.part_first[home_part])
        return np.where(home_part == sm_part, home, local)
    n = len(sm_idx)
    return np.broadcast_to(home, (n, len(sl_idx))).copy()


def _structural_base(model, sm_idx: np.ndarray, sl_idx: np.ndarray,
                     hit: bool) -> tuple:
    """(total, service) for every (sm, slice) pair, bit-equal to the
    scalar ``hit_latency`` / ``miss_latency``."""
    spec = model.spec
    geo = _geometry(model)
    # miss_latency = hit_latency + miss_penalty: both engines build the
    # structural part on the *hit* path (aliased service slice)
    service = _service_matrix(model, sm_idx, sl_idx, for_hit=True)
    # offsets first: their temporaries are freed before the distance
    # arrays below exist (an A100 matrix peaks ~0.5 MiB lower)
    offsets = _route_offsets(model, sm_idx, service)
    sm_part = geo.sm_part[sm_idx][:, None]
    crosses = sm_part != geo.sl_part[service]
    px, py = geo.sm_x[sm_idx][:, None], geo.sm_y[sm_idx][:, None]
    qx, qy = geo.sl_x[service], geo.sl_y[service]
    bx, by = geo.bridge.x, geo.bridge.y
    wyf = spec.wire_y_factor
    direct = np.abs(px - qx) + wyf * np.abs(py - qy)
    via = ((np.abs(px - bx) + wyf * np.abs(py - by))
           + (np.abs(bx - qx) + wyf * np.abs(by - qy)))
    dist = np.where(crosses, via, direct)
    oneway = spec.noc_base_oneway_cycles + spec.cycles_per_mm * dist
    oneway = np.where(crosses, oneway + spec.partition_cross_oneway_cycles,
                      oneway)
    # LatencyBreakdown.total: left-associative sum of the five parts
    structural = (((spec.sm_pipeline_cycles + oneway)
                   + spec.l2_hit_cycles) + oneway) + 0.0
    total = structural + offsets
    if not hit:
        total = total + _miss_penalty(model, sm_idx, sl_idx, service)
    return total, service


def _miss_penalty(model, sm_idx: np.ndarray, sl_idx: np.ndarray,
                  service: np.ndarray) -> np.ndarray:
    """[n x m] ``LatencyModel.miss_penalty`` values."""
    spec = model.spec
    penalty = np.full((len(sm_idx), len(sl_idx)),
                      spec.dram_miss_penalty_cycles)
    if spec.local_l2_policy:
        geo = _geometry(model)
        home = np.broadcast_to(sl_idx[None, :], service.shape)
        qx, qy = geo.sl_x[service], geo.sl_y[service]
        hx, hy = geo.sl_x[home], geo.sl_y[home]
        bx, by = geo.bridge.x, geo.bridge.y
        extra_mm = ((np.abs(qx - bx) + np.abs(qy - by))
                    + (np.abs(bx - hx) + np.abs(by - hy)))
        refill = 2 * (spec.partition_cross_oneway_cycles
                      + spec.cycles_per_mm * extra_mm)
        penalty = np.where(service != home, penalty + refill, penalty)
    return penalty


#: Key shape of the measurement-jitter streams (the route-offset shape
#: is ``(tag, group, service slice)``; see :func:`repro.rng.render_keys`).
_MEASURE_SHAPE = ("measure", rng.COLUMN, rng.COLUMN, True, (0, rng.COLUMN))


def _draw(seed: int, *requests) -> list:
    """One keyed jitter draw per row of each ``(sigma, shape, columns)``
    request, all in one bank call; keys are rendered :data:`DRAW_CHUNK`
    rows at a time (never one text list per device)."""
    sizes = [len(columns[0]) for _, _, columns in requests]
    texts = itertools.chain.from_iterable(
        rng.render_keys(seed, shape,
                        *(c[start:start + DRAW_CHUNK] for c in columns))
        for (_, shape, columns), size in zip(requests, sizes)
        for start in range(0, size, DRAW_CHUNK))
    sigma = np.repeat([s for s, _, _ in requests], sizes)
    draws = get_bank().batch_normal_texts(texts, sigma)
    return np.split(draws, np.cumsum(sizes)[:-1])


def _route_offsets(model, sm_idx: np.ndarray,
                   service: np.ndarray) -> np.ndarray:
    """[n x m] ``LatencyModel._route_offset`` values.

    Each (SM, service slice) offset is drawn once per model into its
    route table, from the same keyed streams and in the same
    SM + GPC (+ CPC) addition order as the scalar model.
    """
    spec = model.spec
    geo = _geometry(model)
    table = _route_table(model)
    num_slices = spec.num_slices
    rows = np.asarray(sm_idx)[:, None]
    offsets = table[rows, service]
    todo = np.isnan(offsets)
    if todo.any():
        codes = np.unique((rows * num_slices + service)[todo])
        sms, svs = np.divmod(codes, num_slices)
        levels = [("route-gpc", geo.sm_gpc, spec.gpc_route_sigma_cycles)]
        if spec.cpc_route_sigma_cycles and spec.tpcs_per_cpc:
            levels.append(("route-cpc", geo.sm_cpc,
                           spec.cpc_route_sigma_cycles))
        requests = [(spec.sm_route_sigma_cycles,
                     ("route-sm", rng.COLUMN, rng.COLUMN), (sms, svs))]
        inverses = []
        for tag, group_of, sigma in levels:
            groups, inverse = np.unique(group_of[sms] * num_slices + svs,
                                        return_inverse=True)
            requests.append((sigma, (tag, rng.COLUMN, rng.COLUMN),
                             np.divmod(groups, num_slices)))
            inverses.append(inverse)
        off, *group_offs = _draw(model.seed, *requests)
        for group_off, inverse in zip(group_offs, inverses):
            off = off + group_off[inverse]
        table[sms, svs] = off
        offsets = table[rows, service]
    return offsets


def structural_latency_matrix(model, sms=None, slices=None,
                              hit: bool = True) -> np.ndarray:
    """Vectorized ``LatencyModel.latency_matrix`` (structural, no jitter)."""
    sms = list(sms) if sms is not None else model.hier.all_sms
    slices = list(slices) if slices is not None else model.hier.all_slices
    total, _service = _structural_base(model, np.asarray(sms, dtype=int),
                                       np.asarray(slices, dtype=int), hit)
    return total


@functools.lru_cache(maxsize=8)
def _first_addresses(num_slices: int, line_bytes: int, fold_bits: int,
                     mode: str) -> tuple:
    """({slice: first address homing to it}, scanned bytes) for one
    hasher geometry: the scan is pure, so devices share it."""
    hasher = AddressHasher(num_slices, line_bytes, fold_bits, mode)
    limit = 1 * num_slices * line_bytes * 8
    grid = np.arange(0, limit, line_bytes, dtype=np.uint64)
    found, first = np.unique(hasher.slice_of_array(grid), return_index=True)
    return dict(zip(found.tolist(), grid[first].tolist())), limit


def slice_address_table(memory, slices) -> list:
    """First address homing to each requested slice (vectorized M[s] scan).

    Bit-equal to ``AddressHasher.addresses_for_slice(s, 1)[0]`` including
    its failure mode, and memoized per hasher geometry.
    """
    hasher = memory.hasher
    first, limit = _first_addresses(hasher.num_slices, hasher.line_bytes,
                                    hasher.fold_bits, hasher.mode)
    for s in slices:
        if s not in first:
            raise ConfigurationError(
                f"only found 0/1 addresses for slice {s} "
                f"in a {limit}-byte region")
    return [first[s] for s in slices]


def vectorized_latency_matrix(gpu, sms=None, slices=None,
                              samples: int = 2) -> np.ndarray:
    """[SM x slice] measured hit-latency matrix, one NumPy block.

    Bit-identical to the scalar serial ``measured_latency_matrix`` on the
    same device instance, including all device-state side effects of the
    simulated measurement kernels.
    """
    if samples <= 0:
        raise LaunchError("samples must be positive")
    sms = component_ids(sms) if sms is not None else gpu.hier.all_sms
    slices = (component_ids(slices) if slices is not None
              else gpu.hier.all_slices)
    memory = gpu.memory
    model = memory.latency
    spec = gpu.spec
    addresses = slice_address_table(memory, slices)
    n, m = len(sms), len(slices)
    sm_idx = np.asarray(sms, dtype=int)
    sl_idx = np.asarray(slices, dtype=int)
    base, service = _structural_base(model, sm_idx, sl_idx, hit=True)

    # measurement jitter: one stream per timed access (cell i*m+j, sample
    # k), keyed by the golden path's monotone access sequence (warm-up
    # draws are consumed by no one — each (seed, key) stream is
    # independent)
    cell, k = np.divmod(np.arange(n * m * samples), samples)
    columns = (np.repeat(sm_idx, m * samples),
               np.tile(np.repeat(sl_idx, samples), n),
               memory._access_seq + cell * (samples + 1) + 2 + k)
    noise, = _draw(model.seed, (spec.measurement_jitter_cycles,
                                _MEASURE_SHAPE, columns))
    noise = noise.reshape(n, m, samples)

    # Warp.ldcg timing: completion = max(0, issue_slot*0 + rint(base+noise)),
    # stall = issue overhead + completion, observed via integer clock()s
    measured = MEM_ISSUE_OVERHEAD_CYCLES + np.maximum(
        0.0, ISSUE_SLOT_CYCLES * 0 + np.rint(base[:, :, None] + noise))
    matrix = measured.sum(axis=2) / float(samples)

    # replay the golden path's device-state effects: per cell one real
    # warm access (installs the line, may touch DRAM) and `samples`
    # guaranteed hits on the line just installed
    l2_slices = memory.l2.slices
    dram = memory.dram
    requests = memory.slice_requests
    line_bytes = spec.cache_line_bytes
    home_mp = _geometry(model).sl_mp[sl_idx].tolist()
    service_rows = service.tolist()
    for i in range(n):
        row = service_rows[i]
        for j in range(m):
            sv = row[j]
            target = l2_slices[sv]
            if not target.access(addresses[j]):
                dram.channel(home_mp[j]).service(line_bytes)
            target.hits += samples
            requests[sv] += samples + 1
    memory._access_seq += n * m * (samples + 1)
    return matrix
