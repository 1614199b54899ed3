"""GPU specifications (paper Table I) plus simulation calibration constants.

The paper characterises three NVIDIA GPUs.  :class:`GPUSpec` captures both
the public microarchitecture parameters (Table I) and the calibration
constants our simulated device needs to reproduce the paper's measured
latency/bandwidth shapes.  Calibration constants are documented inline with
the figure they were fitted against.

Notes on modelling choices
--------------------------
* We model the *full die* organisation (e.g. 84 SMs for GV100, 128 for
  GA100, 144 for GH100) because hierarchy symmetry, not the exact enabled-SM
  count, determines every observation in the paper.
* ``gpc_partition`` maps each GPC to a die partition.  The paper's figures
  use inconsistent ID labellings across Fig 6/8/17 (profiler vs logical
  enumeration); we use the contiguous assignment of Fig 6's caption
  (GPC 0-3 left, GPC 4-7 right) and note the labelling delta in
  EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import GIGA, MIB


@dataclass(frozen=True)
class GPUSpec:
    """Microarchitecture + calibration description of one GPU model."""

    name: str

    # ---- Table I microarchitecture -------------------------------------
    num_gpcs: int
    tpcs_per_gpc: int
    sms_per_tpc: int = 2
    tpcs_per_cpc: int = 0          # 0 = no CPC hierarchy level (pre-H100)
    num_partitions: int = 1
    num_mps: int = 4               # memory partitions
    slices_per_mp: int = 8         # L2 slices per MP
    l2_capacity_bytes: int = 6 * MIB
    mem_bandwidth_gbps: float = 900.0   # peak off-chip DRAM bandwidth
    core_clock_hz: float = 1.38e9
    cache_line_bytes: int = 128
    sector_bytes: int = 32
    has_dsmem: bool = False        # distributed shared memory (H100)
    local_l2_policy: bool = False  # H100 partition-local L2 caching

    # ---- Floorplan (approximate die geometry, mm) ----------------------
    die_width_mm: float = 33.0
    die_height_mm: float = 26.0
    #: vertical wire distance weight: the NoC spine runs horizontally, so
    #: vertical runs (within GPC columns / slice stacks) are shorter wires.
    wire_y_factor: float = 0.4

    # ---- Latency model calibration (cycles unless noted) ---------------
    sm_pipeline_cycles: float = 30.0   # L1 lookup/bypass + LSU issue
    l2_hit_cycles: float = 65.0        # slice tag+data access
    l1_hit_cycles: float = 28.0        # per-SM L1 hit (when not bypassed)
    l1_capacity_bytes: int = 128 * 1024
    noc_base_oneway_cycles: float = 20.0   # router stages per direction
    cycles_per_mm: float = 1.75        # repeated-wire delay
    partition_cross_oneway_cycles: float = 0.0  # extra per crossing (A100)
    dram_miss_penalty_cycles: float = 220.0     # extra on L2 miss
    # route-detail offsets: deterministic per-(group, slice) deltas that
    # model port assignment / wire routing detail; they control how fast
    # Pearson correlation decays across the hierarchy (Fig 6).
    sm_route_sigma_cycles: float = 1.5
    gpc_route_sigma_cycles: float = 2.0
    cpc_route_sigma_cycles: float = 0.0
    measurement_jitter_cycles: float = 1.0
    # SM-to-SM (dsmem) network, H100 only (Fig 7)
    dsmem_base_cycles: float = 186.0
    dsmem_cycles_per_mm: float = 2.2

    # ---- Bandwidth model calibration (GB/s) -----------------------------
    # Fitted against Fig 9/10/12/13/14/15; see DESIGN.md section 5.
    flow_cap_gbps: float = 34.0        # per-(SM, slice) hard cap (Fig 9b)
    sm_mshr_bytes: float = 11520.0     # per-SM outstanding bytes (Little)
    flow_mshr_bytes: float = 8000.0    # per-destination outstanding bytes
    noc_buffer_bytes: float = 1200.0   # extra in-flight on partition cross
    slice_bw_gbps: float = 85.0        # per-slice ingress service (Fig 9c)
    slice_bw_sigma_gbps: float = 0.06
    tpc_out_read_gbps: float = 150.0   # TPC read speedup 2.0 (Fig 10)
    tpc_out_write_gbps: float = 65.0   # V100 write speedup 1.09 (Fig 10)
    cpc_out_read_gbps: float = 0.0     # 0 = no CPC link
    cpc_out_write_gbps: float = 0.0
    gpc_out_gbps: float = 525.0        # concentrator; GPC_l 3.5x (Fig 10)
    gpc_mp_channel_gbps: float = 120.0 # per GPC->MP channel (Fig 15c)
    mp_input_gbps: float = 700.0       # NoC->MP interface (Fig 15a)
    partition_bridge_gbps: float = 0.0 # 0 = single partition
    write_bw_ratio: float = 0.8        # per-SM write vs read efficiency
    dram_efficiency: float = 0.87      # measured/peak DRAM (Fig 9a)

    # Partition map: index -> partition id (len == num_gpcs)
    gpc_partition: tuple = ()

    def __post_init__(self):
        if self.num_gpcs <= 0 or self.tpcs_per_gpc <= 0 or self.sms_per_tpc <= 0:
            raise ConfigurationError(f"{self.name}: hierarchy sizes must be positive")
        if self.tpcs_per_cpc and self.tpcs_per_gpc % self.tpcs_per_cpc:
            raise ConfigurationError(
                f"{self.name}: tpcs_per_gpc ({self.tpcs_per_gpc}) not divisible "
                f"by tpcs_per_cpc ({self.tpcs_per_cpc})")
        if self.num_mps % self.num_partitions:
            raise ConfigurationError(
                f"{self.name}: num_mps must divide evenly across partitions")
        part = self.gpc_partition or tuple(
            g * self.num_partitions // self.num_gpcs for g in range(self.num_gpcs))
        if len(part) != self.num_gpcs:
            raise ConfigurationError(
                f"{self.name}: gpc_partition needs {self.num_gpcs} entries")
        if any(p < 0 or p >= self.num_partitions for p in part):
            raise ConfigurationError(f"{self.name}: partition id out of range")
        # a tuple keeps the frozen spec hashable (spec_layout keys on it)
        object.__setattr__(self, "gpc_partition", tuple(part))

    # ---- Derived counts --------------------------------------------------
    @property
    def sms_per_gpc(self) -> int:
        return self.tpcs_per_gpc * self.sms_per_tpc

    @property
    def num_tpcs(self) -> int:
        return self.num_gpcs * self.tpcs_per_gpc

    @property
    def num_sms(self) -> int:
        return self.num_tpcs * self.sms_per_tpc

    @property
    def num_slices(self) -> int:
        return self.num_mps * self.slices_per_mp

    @property
    def cpcs_per_gpc(self) -> int:
        if not self.tpcs_per_cpc:
            return 0
        return self.tpcs_per_gpc // self.tpcs_per_cpc

    @property
    def sms_per_cpc(self) -> int:
        return self.tpcs_per_cpc * self.sms_per_tpc

    @property
    def mps_per_partition(self) -> int:
        return self.num_mps // self.num_partitions

    @property
    def slices_per_partition(self) -> int:
        return self.num_slices // self.num_partitions

    def partition_of_mp(self, mp: int) -> int:
        """Partition hosting memory partition ``mp`` (split contiguously)."""
        if not 0 <= mp < self.num_mps:
            raise ConfigurationError(f"MP {mp} out of range for {self.name}")
        return mp * self.num_partitions // self.num_mps

    def table1_row(self) -> dict:
        """The paper's Table I summary row for this GPU."""
        return {
            "GPU": self.name,
            "SMs": self.num_sms,
            "GPCs": self.num_gpcs,
            "TPCs/GPC": self.tpcs_per_gpc,
            "L2 slices": self.num_slices,
            "L2 (MB)": self.l2_capacity_bytes / MIB,
            "Mem BW (GB/s)": self.mem_bandwidth_gbps,
            "Partitions": self.num_partitions,
            "Clock (GHz)": self.core_clock_hz / GIGA,
        }


# --------------------------------------------------------------------------
# Table I devices.
# --------------------------------------------------------------------------

#: Volta V100 (GV100 full die: 6 GPCs x 7 TPCs x 2 SMs = 84 SMs; 4 MPs x 8
#: L2 slices = 32 slices; 6 MB L2; 900 GB/s HBM2).  Single partition.
V100 = GPUSpec(
    name="V100",
    num_gpcs=6, tpcs_per_gpc=7,
    num_mps=4, slices_per_mp=8,
    l2_capacity_bytes=6 * MIB,
    mem_bandwidth_gbps=900.0,
    core_clock_hz=1.38e9,
    die_width_mm=33.0, die_height_mm=26.0,
    # Latency fit: Fig 1 (mean ~212, range 175-248), Fig 2 (GPC sigma 7-14).
    sm_pipeline_cycles=30.0, l2_hit_cycles=65.0,
    noc_base_oneway_cycles=39.0, cycles_per_mm=1.05,
    dram_miss_penalty_cycles=220.0,
    sm_route_sigma_cycles=0.6, gpc_route_sigma_cycles=6.0,
    # Bandwidth fit: Fig 9 (34 GB/s SM->slice, 85 GB/s GPC->slice,
    # aggregate ~2.3x DRAM), Fig 10 (TPC 2.0/1.09, GPC_l ~3.5), Fig 15.
    flow_cap_gbps=34.0, sm_mshr_bytes=11520.0, flow_mshr_bytes=8000.0,
    slice_bw_gbps=85.0, tpc_out_read_gbps=150.0, tpc_out_write_gbps=65.0,
    gpc_out_gbps=420.0, gpc_mp_channel_gbps=120.0, mp_input_gbps=700.0,
)

#: Ampere A100 (GA100 full die: 8 GPCs x 8 TPCs x 2 SMs = 128 SMs; two die
#: partitions; 8 MPs x 10 slices = 80 slices; 40 MB L2; 1555 GB/s HBM2e).
A100 = GPUSpec(
    name="A100",
    num_gpcs=8, tpcs_per_gpc=8,
    num_partitions=2,
    num_mps=8, slices_per_mp=10,
    l2_capacity_bytes=40 * MIB,
    mem_bandwidth_gbps=1555.0,
    core_clock_hz=1.41e9,
    die_width_mm=42.0, die_height_mm=26.0,
    # Latency fit: Fig 8b (near ~212, far ~400 via 2 crossings of ~47 cy
    # each way plus bridge distance).
    sm_pipeline_cycles=30.0, l2_hit_cycles=65.0,
    noc_base_oneway_cycles=43.0, cycles_per_mm=1.8,
    partition_cross_oneway_cycles=30.0,
    dram_miss_penalty_cycles=230.0,
    sm_route_sigma_cycles=0.6, gpc_route_sigma_cycles=4.0,
    # Bandwidth fit: Fig 12/13 (near 39.5, far 26 GB/s), Fig 14 (saturation
    # ~8 SMs), Fig 9a (aggregate ~3x DRAM).
    flow_cap_gbps=39.5, sm_mshr_bytes=10800.0, flow_mshr_bytes=7376.0,
    noc_buffer_bytes=0.0,
    slice_bw_gbps=170.0, slice_bw_sigma_gbps=0.4,
    tpc_out_read_gbps=160.0, tpc_out_write_gbps=130.0,
    gpc_out_gbps=1500.0, gpc_mp_channel_gbps=420.0, mp_input_gbps=1500.0,
    partition_bridge_gbps=1800.0,
)

#: Hopper H100 (GH100 full die: 8 GPCs x 9 TPCs x 2 SMs = 144 SMs; 3 CPCs
#: per GPC; two partitions with partition-local L2 caching; 8 MPs x 10
#: slices; 50 MB L2; 3350 GB/s HBM3; distributed shared memory).
H100 = GPUSpec(
    name="H100",
    num_gpcs=8, tpcs_per_gpc=9, tpcs_per_cpc=3,
    num_partitions=2,
    num_mps=8, slices_per_mp=10,
    l2_capacity_bytes=50 * MIB,
    mem_bandwidth_gbps=3350.0,
    core_clock_hz=1.78e9,
    has_dsmem=True, local_l2_policy=True,
    die_width_mm=46.0, die_height_mm=28.0,
    # Latency fit: Fig 8c (uniform hit latency via local caching), Fig 8f
    # (variable miss penalty), Fig 7 (dsmem 196-213 cy).
    sm_pipeline_cycles=32.0, l2_hit_cycles=70.0,
    noc_base_oneway_cycles=40.0, cycles_per_mm=1.5,
    partition_cross_oneway_cycles=70.0,
    dram_miss_penalty_cycles=240.0,
    sm_route_sigma_cycles=0.6, gpc_route_sigma_cycles=3.0,
    cpc_route_sigma_cycles=6.0,
    dsmem_base_cycles=185.0, dsmem_cycles_per_mm=1.1,
    # Bandwidth fit: Fig 13b (single peak ~45 GB/s), Fig 10 (GPC_l ~7.7,
    # CPC read 6.0 / write 4.6), Fig 9a (aggregate ~2.4x DRAM).
    flow_cap_gbps=45.0, sm_mshr_bytes=9800.0, flow_mshr_bytes=9000.0,
    slice_bw_gbps=200.0, slice_bw_sigma_gbps=0.5,
    tpc_out_read_gbps=170.0, tpc_out_write_gbps=140.0,
    cpc_out_read_gbps=500.0, cpc_out_write_gbps=280.0,
    gpc_out_gbps=4050.0, gpc_mp_channel_gbps=1100.0, mp_input_gbps=2200.0,
    partition_bridge_gbps=2600.0,
)


_REGISTRY = {spec.name: spec for spec in (V100, A100, H100)}


def known_specs() -> tuple:
    """Names of the built-in GPU specs (Table I devices)."""
    return tuple(_REGISTRY)


def get_spec(name: str) -> GPUSpec:
    """Look up a built-in spec by (case-insensitive) name."""
    try:
        return _REGISTRY[name.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown GPU {name!r}; known: {', '.join(_REGISTRY)}") from None
