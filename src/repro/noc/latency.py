"""Round-trip latency model (paper Algorithm 1's device-side truth).

Latency of an L2 access is composed exactly as the paper decomposes it
(Section II-C1): SM front-end + NoC request traversal + L2 access + NoC
reply traversal (+ DRAM on a miss).  On top of the structural geometry,
deterministic *route offsets* model port-assignment and wire-routing detail
at SM, GPC and (H100) CPC granularity — they control how quickly the
Pearson correlation of latency profiles decays across the hierarchy
(Fig 6) without affecting means.

All structural values are deterministic; :meth:`LatencyModel.sample` adds
measurement jitter from a seeded stream so repeated experiments reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import engines, rng
from repro.gpu.floorplan import Floorplan
from repro.gpu.hierarchy import Hierarchy
from repro.gpu.layout import spec_layout
from repro.gpu.specs import GPUSpec
from repro.noc.crossbar import HierarchicalCrossbar


@dataclass(frozen=True)
class LatencyBreakdown:
    """Decomposition of one round-trip latency (cycles)."""
    sm_pipeline: float
    noc_request: float
    l2_access: float
    noc_reply: float
    dram: float
    route_offset: float

    @property
    def total(self) -> float:
        return (self.sm_pipeline + self.noc_request + self.l2_access
                + self.noc_reply + self.dram + self.route_offset)


class LatencyModel:
    """SM<->L2 and SM<->SM latency for one simulated device."""

    def __init__(self, spec: GPUSpec, hierarchy: Hierarchy | None = None,
                 floorplan: Floorplan | None = None, seed: int = 0):
        self.spec = spec
        layout = spec_layout(spec)
        self.hier = hierarchy or layout.hier
        self.floorplan = floorplan or layout.floorplan
        self.crossbar = HierarchicalCrossbar(spec, self.hier, self.floorplan)
        self.seed = seed
        self._offset_cache: dict[tuple[int, int], float] = {}

    # ---- route offsets ------------------------------------------------------
    def _route_offset(self, sm: int, service_slice: int) -> float:
        key = (sm, service_slice)
        cached = self._offset_cache.get(key)
        if cached is not None:
            return cached
        spec = self.spec
        info = self.hier.sm_info(sm)
        off = float(rng.jitter(self.seed, "route-sm", sm, service_slice,
                               sigma=spec.sm_route_sigma_cycles)[0])
        off += float(rng.jitter(self.seed, "route-gpc", info.gpc, service_slice,
                                sigma=spec.gpc_route_sigma_cycles)[0])
        if spec.cpc_route_sigma_cycles and info.cpc >= 0:
            off += float(rng.jitter(self.seed, "route-cpc", info.cpc,
                                    service_slice,
                                    sigma=spec.cpc_route_sigma_cycles)[0])
        self._offset_cache[key] = off
        return off

    # ---- L2 hit --------------------------------------------------------------
    def hit_breakdown(self, sm: int, slice_id: int) -> LatencyBreakdown:
        """Structural breakdown of an L1-bypassing load that hits in L2."""
        path = self.crossbar.path(sm, slice_id, for_hit=True)
        oneway = self.crossbar.oneway_cycles(path)
        return LatencyBreakdown(
            sm_pipeline=self.spec.sm_pipeline_cycles,
            noc_request=oneway,
            l2_access=self.spec.l2_hit_cycles,
            noc_reply=oneway,
            dram=0.0,
            route_offset=self._route_offset(sm, path.slice_id),
        )

    def hit_latency(self, sm: int, slice_id: int) -> float:
        """Structural round-trip cycles for an L2 hit (no jitter)."""
        return self.hit_breakdown(sm, slice_id).total

    # ---- L2 miss ----------------------------------------------------------------
    def miss_penalty(self, sm: int, slice_id: int) -> float:
        """Extra cycles an L2 miss adds over a hit (DRAM + refill path).

        V100/A100: the servicing slice sits in front of its own DRAM
        channel, so the penalty is (nearly) constant — Fig 8(d,e).
        H100: the *servicing* slice is partition-local but the address's
        home DRAM channel may be in the remote partition, so the refill
        crosses the bridge and the penalty varies — Fig 8(f).
        """
        spec = self.spec
        penalty = spec.dram_miss_penalty_cycles
        if spec.local_l2_policy:
            service = self.crossbar.service_slice(sm, slice_id)
            if service != slice_id:
                # refill fetched from the home MP across the bridge
                b = self.floorplan.bridge_point
                extra_mm = (self.floorplan.slice_position(service).manhattan(b)
                            + b.manhattan(self.floorplan.slice_position(slice_id)))
                penalty += 2 * (spec.partition_cross_oneway_cycles
                                + spec.cycles_per_mm * extra_mm)
        return penalty

    def miss_latency(self, sm: int, slice_id: int) -> float:
        """Structural round-trip cycles for an access missing in L2."""
        return self.hit_latency(sm, slice_id) + self.miss_penalty(sm, slice_id)

    # ---- SM-to-SM (distributed shared memory, H100) ------------------------------
    def sm_to_sm_latency(self, src: int, dst: int) -> float:
        """Round-trip cycles of a remote shared-memory load (Fig 7)."""
        spec = self.spec
        if not spec.has_dsmem:
            raise NotImplementedError(
                f"{spec.name} has no SM-to-SM (dsmem) network")
        dist = self.floorplan.sm_sm_distance_mm(src, dst)
        structural = spec.dsmem_base_cycles + spec.dsmem_cycles_per_mm * dist
        return structural + float(rng.jitter(self.seed, "dsmem-route", src, dst,
                                             sigma=1.0)[0])

    # ---- sampling --------------------------------------------------------------
    def sample(self, sm: int, slice_id: int, n: int = 1, hit: bool = True,
               trial: int = 0) -> np.ndarray:
        """``n`` jittered latency measurements for one (sm, slice) pair.

        ``trial`` selects an independent jitter stream so repeated runs of
        an experiment observe fresh noise, deterministically.
        """
        base = self.hit_latency(sm, slice_id) if hit else self.miss_latency(sm, slice_id)
        noise = rng.jitter(self.seed, "measure", sm, slice_id, hit, trial,
                           sigma=self.spec.measurement_jitter_cycles, n=n)
        return np.rint(base + noise)

    # ---- bulk queries -------------------------------------------------------------
    def latency_matrix(self, sms=None, slices=None, hit: bool = True,
                       engine: str | None = None) -> np.ndarray:
        """Structural latency matrix [len(sms) x len(slices)] in cycles."""
        if engines.resolve("device", engine) == "vectorized":
            from repro.core.fastpath.latency import structural_latency_matrix
            return structural_latency_matrix(self, sms, slices, hit)
        sms = list(sms) if sms is not None else self.hier.all_sms
        slices = list(slices) if slices is not None else self.hier.all_slices
        fn = self.hit_latency if hit else self.miss_latency
        return np.array([[fn(sm, s) for s in slices] for sm in sms])
