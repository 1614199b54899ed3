"""SM / TPC / CPC / GPC / partition hierarchy and id arithmetic.

The paper identifies components by flat ids (``smid``, profiler L2 slice id).
This module provides the bidirectional mapping between flat ids and positions
in the hierarchy tree, for both the compute side (SMs) and the memory side
(MPs and L2 slices).

SM ids are enumerated GPC-major: ``sm = gpc * sms_per_gpc + tpc_in_gpc *
sms_per_tpc + sm_in_tpc``.  Slice ids are MP-major.  (Real ``%smid``
enumeration differs per chip; only *distinctness* matters for the paper's
methodology, as Section II-C notes.)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from repro.errors import UnknownComponentError
from repro.gpu.specs import GPUSpec


@dataclass(frozen=True)
class SMInfo:
    """Position of one SM in the hierarchy."""
    sm: int
    tpc: int            # global TPC id
    tpc_in_gpc: int
    cpc: int            # global CPC id, -1 if the GPU has no CPC level
    cpc_in_gpc: int     # -1 if no CPC level
    gpc: int
    partition: int
    sm_in_tpc: int
    sms_per_tpc: int = 2

    @property
    def sm_in_gpc(self) -> int:
        return self.tpc_in_gpc * self.sms_per_tpc + self.sm_in_tpc


@dataclass(frozen=True)
class SliceInfo:
    """Position of one L2 slice in the memory organisation."""
    slice_id: int
    mp: int
    slice_in_mp: int
    partition: int


class Hierarchy:
    """Id arithmetic for one :class:`GPUSpec`."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec

    # ---- compute side ----------------------------------------------------
    def sm_info(self, sm: int) -> SMInfo:
        spec = self.spec
        if not 0 <= sm < spec.num_sms:
            raise UnknownComponentError(f"SM {sm} out of range for {spec.name}")
        gpc, rem = divmod(sm, spec.sms_per_gpc)
        tpc_in_gpc, sm_in_tpc = divmod(rem, spec.sms_per_tpc)
        if spec.tpcs_per_cpc:
            cpc_in_gpc = tpc_in_gpc // spec.tpcs_per_cpc
            cpc = gpc * spec.cpcs_per_gpc + cpc_in_gpc
        else:
            cpc_in_gpc = cpc = -1
        return SMInfo(
            sm=sm,
            tpc=gpc * spec.tpcs_per_gpc + tpc_in_gpc,
            tpc_in_gpc=tpc_in_gpc,
            cpc=cpc, cpc_in_gpc=cpc_in_gpc,
            gpc=gpc,
            partition=spec.gpc_partition[gpc],
            sm_in_tpc=sm_in_tpc,
            sms_per_tpc=spec.sms_per_tpc,
        )

    def sm_id(self, gpc: int, tpc_in_gpc: int, sm_in_tpc: int = 0) -> int:
        spec = self.spec
        if not 0 <= gpc < spec.num_gpcs:
            raise UnknownComponentError(f"GPC {gpc} out of range for {spec.name}")
        if not 0 <= tpc_in_gpc < spec.tpcs_per_gpc:
            raise UnknownComponentError(f"TPC {tpc_in_gpc} out of range in GPC")
        if not 0 <= sm_in_tpc < spec.sms_per_tpc:
            raise UnknownComponentError(f"SM-in-TPC {sm_in_tpc} out of range")
        return (gpc * spec.sms_per_gpc + tpc_in_gpc * spec.sms_per_tpc
                + sm_in_tpc)

    def sms_in_gpc(self, gpc: int) -> list[int]:
        if not 0 <= gpc < self.spec.num_gpcs:
            raise UnknownComponentError(f"GPC {gpc} out of range")
        base = gpc * self.spec.sms_per_gpc
        return list(range(base, base + self.spec.sms_per_gpc))

    def sms_in_tpc(self, tpc: int) -> list[int]:
        if not 0 <= tpc < self.spec.num_tpcs:
            raise UnknownComponentError(f"TPC {tpc} out of range")
        base = tpc * self.spec.sms_per_tpc
        return list(range(base, base + self.spec.sms_per_tpc))

    def sms_in_cpc(self, gpc: int, cpc_in_gpc: int) -> list[int]:
        spec = self.spec
        if not spec.tpcs_per_cpc:
            raise UnknownComponentError(f"{spec.name} has no CPC hierarchy")
        if not 0 <= cpc_in_gpc < spec.cpcs_per_gpc:
            raise UnknownComponentError(f"CPC {cpc_in_gpc} out of range in GPC")
        first_tpc = cpc_in_gpc * spec.tpcs_per_cpc
        return [self.sm_id(gpc, first_tpc + t, s)
                for t in range(spec.tpcs_per_cpc)
                for s in range(spec.sms_per_tpc)]

    def sms_in_partition(self, partition: int) -> list[int]:
        return [sm for gpc, p in enumerate(self.spec.gpc_partition) if p == partition
                for sm in self.sms_in_gpc(gpc)]

    @cached_property
    def all_sms(self) -> tuple[int, ...]:
        # a tuple: one Hierarchy is shared by every device of a spec
        return tuple(range(self.spec.num_sms))

    # ---- memory side -----------------------------------------------------
    def slice_info(self, slice_id: int) -> SliceInfo:
        spec = self.spec
        if not 0 <= slice_id < spec.num_slices:
            raise UnknownComponentError(
                f"L2 slice {slice_id} out of range for {spec.name}")
        mp, slice_in_mp = divmod(slice_id, spec.slices_per_mp)
        return SliceInfo(slice_id=slice_id, mp=mp, slice_in_mp=slice_in_mp,
                         partition=spec.partition_of_mp(mp))

    def slice_id(self, mp: int, slice_in_mp: int) -> int:
        spec = self.spec
        if not 0 <= mp < spec.num_mps:
            raise UnknownComponentError(f"MP {mp} out of range for {spec.name}")
        if not 0 <= slice_in_mp < spec.slices_per_mp:
            raise UnknownComponentError(f"slice {slice_in_mp} out of range in MP")
        return mp * spec.slices_per_mp + slice_in_mp

    def slices_in_mp(self, mp: int) -> list[int]:
        if not 0 <= mp < self.spec.num_mps:
            raise UnknownComponentError(f"MP {mp} out of range")
        base = mp * self.spec.slices_per_mp
        return list(range(base, base + self.spec.slices_per_mp))

    def slices_in_partition(self, partition: int) -> list[int]:
        return [s for mp in range(self.spec.num_mps)
                if self.spec.partition_of_mp(mp) == partition
                for s in self.slices_in_mp(mp)]

    @cached_property
    def all_slices(self) -> tuple[int, ...]:
        return tuple(range(self.spec.num_slices))

    # ---- cross-partition helpers ------------------------------------------
    def crosses_partition(self, sm: int, slice_id: int) -> bool:
        """True when an SM->slice access traverses the partition bridge."""
        return (self.sm_info(sm).partition
                != self.slice_info(slice_id).partition)

    def local_alias_slice(self, sm: int, slice_id: int) -> int:
        """The partition-local slice that caches ``slice_id``'s data (H100).

        H100's L2 "caches data for memory accesses from SMs in GPCs directly
        connected to the partition" (paper Section III-C), so a hit is
        serviced by a slice in the SM's own partition at the same offset.
        """
        spec = self.spec
        info = self.slice_info(slice_id)
        sm_part = self.sm_info(sm).partition
        if info.partition == sm_part:
            return slice_id
        offset = slice_id - sm_part_first(spec, info.partition)
        return sm_part_first(spec, sm_part) + offset


def component_ids(ids) -> list[int]:
    """SM or slice ids as plain Python ints.

    Ids enter the measurement noise-stream keys as text, and a NumPy
    integer renders differently (``np.int64(0)``), so every latency entry
    point normalises its ids here before drawing.
    """
    return [operator.index(i) for i in ids]


def sm_part_first(spec: GPUSpec, partition: int) -> int:
    """First slice id belonging to ``partition`` (contiguous MP split)."""
    return partition * spec.slices_per_partition
