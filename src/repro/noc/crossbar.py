"""Hierarchical-crossbar path model.

The paper concludes real GPU NoCs resemble a hierarchical crossbar
(Section II-B, VI-C): SMs mux into TPCs, TPCs into (CPCs into) GPC ports,
GPC ports into a central crossbar spine that fans out to the NoC->MP
interfaces, and on multi-partition dies a bridge joins the two halves.

:class:`HierarchicalCrossbar` enumerates the *stages* a request traverses
and the wire distance it covers.  The latency model converts a path to
cycles; the bandwidth model converts the same stages to shared links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.floorplan import Floorplan
from repro.gpu.hierarchy import Hierarchy
from repro.gpu.layout import spec_layout
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class CrossbarPath:
    """One SM->L2-slice traversal through the hierarchical crossbar."""
    sm: int
    slice_id: int            # slice that services the access
    home_slice: int          # slice the address hashes to (may differ on H100)
    distance_mm: float
    crosses_partition: bool  # bridge on the *service* path
    stages: tuple            # symbolic stage names, request direction

    @property
    def num_stages(self) -> int:
        return len(self.stages)


class HierarchicalCrossbar:
    """Builds crossbar paths for a device."""

    def __init__(self, spec: GPUSpec, hierarchy: Hierarchy | None = None,
                 floorplan: Floorplan | None = None):
        self.spec = spec
        layout = spec_layout(spec)
        self.hier = hierarchy or layout.hier
        self.floorplan = floorplan or layout.floorplan

    def service_slice(self, sm: int, slice_id: int) -> int:
        """Slice that actually services an L2 *hit* for this SM.

        On H100 the partition-local caching policy means hits are serviced
        by the local-partition alias of the home slice (paper Sec III-C);
        on V100/A100 hits are serviced at the home slice itself.
        """
        if self.spec.local_l2_policy:
            return self.hier.local_alias_slice(sm, slice_id)
        return slice_id

    def path(self, sm: int, slice_id: int, for_hit: bool = True) -> CrossbarPath:
        """Path from ``sm`` to the slice servicing ``slice_id``.

        ``for_hit=False`` returns the path to the *home* slice (the one in
        front of the DRAM channel owning the address), which is what a miss
        refill traverses.
        """
        service = self.service_slice(sm, slice_id) if for_hit else slice_id
        info = self.hier.sm_info(sm)
        crosses = self.hier.crosses_partition(sm, service)
        stages = ["sm_out", "tpc_mux"]
        if self.spec.tpcs_per_cpc:
            stages.append("cpc_mux")
        stages += ["gpc_port", "xbar"]
        if crosses:
            stages.append("bridge")
        stages += ["mp_iface", "slice_in"]
        return CrossbarPath(
            sm=sm,
            slice_id=service,
            home_slice=slice_id,
            distance_mm=self.floorplan.sm_slice_distance_mm(sm, service),
            crosses_partition=crosses,
            stages=tuple(stages),
        )

    def oneway_cycles(self, path: CrossbarPath) -> float:
        """Structural one-way NoC traversal cycles for a path."""
        spec = self.spec
        cycles = spec.noc_base_oneway_cycles
        cycles += spec.cycles_per_mm * path.distance_mm
        if path.crosses_partition:
            cycles += spec.partition_cross_oneway_cycles
        return cycles
