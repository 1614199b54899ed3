"""Spec-only device state, built once per spec value.

A device's hierarchy, floorplan and their array form depend only on its
:class:`~repro.gpu.specs.GPUSpec`, never on its seed.  Every device (and
latency model) of one spec value shares one :class:`SpecLayout`, so a
fresh :class:`~repro.gpu.device.SimulatedGPU` per request pays only for
its per-seed state.  Everything here is read-only once built.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.gpu.floorplan import Floorplan
from repro.gpu.hierarchy import Hierarchy
from repro.gpu.specs import GPUSpec


class LayoutArrays:
    """Array form of hierarchy + floorplan facts (the batched engines'
    per-SM and per-slice lookup tables)."""

    def __init__(self, spec: GPUSpec, hier: Hierarchy, fp: Floorplan):
        sm_infos = [hier.sm_info(sm) for sm in range(spec.num_sms)]
        sl_infos = [hier.slice_info(s) for s in range(spec.num_slices)]
        self.sm_x = np.array([p.x for p in fp._sm_pos])
        self.sm_y = np.array([p.y for p in fp._sm_pos])
        self.sm_tpc = np.array([i.tpc for i in sm_infos])
        self.sm_gpc = np.array([i.gpc for i in sm_infos])
        self.sm_cpc = np.array([i.cpc for i in sm_infos])
        self.sm_part = np.array([i.partition for i in sm_infos])
        self.sl_x = np.array([p.x for p in fp._slice_pos])
        self.sl_y = np.array([p.y for p in fp._slice_pos])
        self.sl_part = np.array([i.partition for i in sl_infos])
        self.sl_mp = np.array([i.mp for i in sl_infos])
        self.part_first = np.array(
            [p * spec.slices_per_partition
             for p in range(spec.num_partitions)])
        self.bridge = fp.bridge_point
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


class SpecLayout:
    """Hierarchy, floorplan and their arrays for one spec value."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec
        self.hier = Hierarchy(spec)
        self.floorplan = Floorplan(spec, self.hier)
        self.arrays = LayoutArrays(spec, self.hier, self.floorplan)


@functools.lru_cache(maxsize=8)
def spec_layout(spec: GPUSpec) -> SpecLayout:
    """The shared :class:`SpecLayout` of ``spec`` (keyed by value: a spec
    rebuilt field for field, e.g. from its JSON dict, shares it)."""
    return SpecLayout(spec)
