"""Load-latency curves for the mesh (standard NoC evaluation).

Sweeps the Bernoulli injection rate of the many-to-few pattern and
records average packet latency and accepted throughput per point — the
classic curve whose knee marks network saturation.  Used to show where
the simulator mesh saturates relative to the offered load of a
memory-intensive GPU workload (Section VI context) and how arbitration
affects the saturated regime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import engines
from repro.errors import MeshConfigError
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.traffic import ManyToFewTraffic
from repro.noc.mesh.vc import one_vc_mesh


@dataclass(frozen=True)
class LoadPoint:
    """One injection-rate sample of the load-latency curve."""
    offered_rate: float        # packets/cycle/compute-node
    accepted_rate: float       # delivered packets/cycle/compute-node
    avg_latency: float         # cycles, delivered packets only

    @property
    def saturated(self) -> bool:
        """Accepted lags offered by more than 10%."""
        return self.accepted_rate < 0.9 * self.offered_rate


@dataclass(frozen=True)
class LoadCurve:
    """Full sweep result."""
    arbiter: str
    points: tuple

    def saturation_rate(self) -> float:
        """Lowest offered rate at which the network is saturated.

        Returns +inf when no sampled point saturates.
        """
        for point in self.points:
            if point.saturated:
                return point.offered_rate
        return float("inf")


def measure_load_point(rate: float, arbiter: str = "rr", width: int = 6,
                       height: int = 6, cycles: int = 6000,
                       warmup: int = 1500, seed: int = 0) -> LoadPoint:
    """Run one injection rate; average latency over the steady window."""
    if not 0 < rate <= 1:
        raise MeshConfigError("rate must be in (0, 1]")
    if warmup < 0:
        raise MeshConfigError("warmup must be >= 0")
    if cycles <= warmup:
        raise MeshConfigError("cycles must exceed warmup")
    mesh = one_vc_mesh(width, height, arbiter_kind=arbiter)
    traffic = ManyToFewTraffic(mesh, default_mc_nodes(width, height),
                               seed=seed, injection_rate=rate,
                               max_source_backlog=64)
    for _ in range(warmup):
        traffic.feed()
        mesh.step()
    start_count = mesh.stats.count
    start_latency_sum = mesh.stats.latency_sum
    start_cycle = mesh.cycle
    for _ in range(cycles - warmup):
        traffic.feed()
        mesh.step()
    window = mesh.cycle - start_cycle
    delivered = mesh.stats.count - start_count
    latency_sum = mesh.stats.latency_sum - start_latency_sum
    n_compute = len(traffic.compute_nodes)
    accepted = delivered / window / n_compute
    latency = (latency_sum / delivered) if delivered else float("inf")
    return LoadPoint(offered_rate=rate, accepted_rate=accepted,
                     avg_latency=latency)


def sweep_load(rates, arbiter: str = "rr", engine: str | None = None,
               **kwargs) -> LoadCurve:
    """Measure a list of injection rates into a :class:`LoadCurve`.

    ``engine`` selects the kernel: the default ``"batched"`` runs the
    whole sweep as ONE lockstep simulation
    (:func:`repro.noc.mesh.fastmesh.batched_sweep_load`, bit-identical
    to scalar by contract); ``"scalar"`` steps one golden
    :func:`~repro.noc.mesh.vc.one_vc_mesh` per rate.
    """
    engine = engines.resolve("mesh", engine)
    rates = list(rates)
    if not rates:
        raise MeshConfigError("need at least one rate")
    if engine == "batched":
        from repro.noc.mesh.fastmesh import batched_sweep_load
        return batched_sweep_load(rates, arbiter=arbiter, **kwargs)
    points = tuple(measure_load_point(r, arbiter=arbiter, **kwargs)
                   for r in rates)
    return LoadCurve(arbiter=arbiter, points=points)
