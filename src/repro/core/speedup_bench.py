"""Input-speedup measurement (paper Fig 10).

Speedup at a hierarchy level is the bandwidth of ``x`` SMs relative to one
SM, with all SMs streaming **to all L2 slices** (Section IV-A):

* TPC:    x = SMs per TPC (both SMs of one TPC);
* CPC:    x = SMs per CPC (H100 only);
* GPC_l:  x = TPCs per GPC, using one SM from each TPC;
* GPC_g:  x = all SMs of the GPC.

Measured separately for Reads (reply-side data) and Writes (request-side
data).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import engines
from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro.noc.speedup import SpeedupConfig
from repro.noc.topology_graph import AccessKind


@dataclass(frozen=True)
class SpeedupMeasurement:
    """Measured vs required speedup at one hierarchy level."""
    level: str
    kind: AccessKind
    sms_used: int
    required: int
    bandwidth_gbps: float
    baseline_gbps: float

    @property
    def speedup(self) -> float:
        return self.bandwidth_gbps / self.baseline_gbps

    @property
    def fraction_of_full(self) -> float:
        return self.speedup / self.required


def _group_bandwidth(gpu: SimulatedGPU, sms, kind: AccessKind,
                     engine: str) -> float:
    traffic = {sm: gpu.hier.all_slices for sm in sms}
    if engine == "vectorized":
        from repro.core.fastpath.bandwidth import solve_traffic
        return solve_traffic(gpu, traffic, kind=kind)
    return gpu.topology.solve(traffic, kind=kind).total_gbps


def _level_sms(gpu: SimulatedGPU, level: str, gpc: int = 0) -> list:
    spec = gpu.spec
    hier = gpu.hier
    if level == "TPC":
        return hier.sms_in_tpc(gpc * spec.tpcs_per_gpc)
    if level == "CPC":
        if not spec.tpcs_per_cpc:
            raise ConfigurationError(f"{spec.name} has no CPC level")
        return hier.sms_in_cpc(gpc, 0)
    if level == "GPC_l":
        return [hier.sm_id(gpc, t, 0) for t in range(spec.tpcs_per_gpc)]
    if level == "GPC_g":
        return hier.sms_in_gpc(gpc)
    raise ConfigurationError(f"unknown speedup level {level!r}")


def measure_speedups(gpu: SimulatedGPU, gpc: int = 0,
                     kinds=(AccessKind.READ, AccessKind.WRITE),
                     engine: str | None = None) -> list:
    """All speedup levels of a device, for each access kind (Fig 10)."""
    engine = engines.resolve("device", engine)
    config = SpeedupConfig.for_spec(gpu.spec)
    results = []
    for kind in kinds:
        baseline = _group_bandwidth(gpu, [gpu.hier.sm_id(gpc, 0, 0)], kind,
                                    engine)
        for level in config.levels():
            sms = _level_sms(gpu, level, gpc)
            results.append(SpeedupMeasurement(
                level=level,
                kind=kind,
                sms_used=len(sms),
                required=config.required(level),
                bandwidth_gbps=_group_bandwidth(gpu, sms, kind, engine),
                baseline_gbps=baseline,
            ))
    return results
