"""The simulated GPU device: one object wiring every substrate together.

:class:`SimulatedGPU` is the handle the rest of the package (runtime,
microbenchmarks, side-channel harnesses) works against.  It owns:

* the spec (Table I parameters + calibration),
* hierarchy and floorplan, shared by every device of one spec value
  (:mod:`repro.gpu.layout`),
* the NoC latency model and bandwidth topology,
* the memory subsystem (hash, sliced L2, DRAM).

All randomness inside a device derives from its ``seed``, so two devices
built with the same spec and seed behave identically.
"""

from __future__ import annotations

from functools import cached_property

from repro.gpu.layout import spec_layout
from repro.gpu.specs import GPUSpec, get_spec


class SimulatedGPU:
    """A software model of one GPU (paper Table I device)."""

    def __init__(self, spec: GPUSpec | str, seed: int = 0):
        self.spec = get_spec(spec) if isinstance(spec, str) else spec
        self.seed = seed
        layout = spec_layout(self.spec)
        self.hier = layout.hier
        self.floorplan = layout.floorplan

    @cached_property
    def latency(self):
        from repro.noc.latency import LatencyModel
        return LatencyModel(self.spec, self.hier, self.floorplan, self.seed)

    @cached_property
    def topology(self):
        from repro.noc.topology_graph import TopologyGraph
        return TopologyGraph(self.latency, self.seed)

    @cached_property
    def memory(self):
        from repro.memory.subsystem import MemorySubsystem
        return MemorySubsystem(self.latency)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_sms(self) -> int:
        return self.spec.num_sms

    @property
    def num_slices(self) -> int:
        return self.spec.num_slices

    def fresh_memory(self):
        """A new, cold memory subsystem (drops all cached L2 state)."""
        self.__dict__.pop("memory", None)
        return self.memory

    def __repr__(self) -> str:
        return (f"SimulatedGPU({self.spec.name}, sms={self.num_sms}, "
                f"slices={self.num_slices}, seed={self.seed})")
