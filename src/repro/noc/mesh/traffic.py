"""Many-to-few traffic and the mesh fairness experiment (paper Fig 23).

Replicates the paper's network-only setup: a 6x6 mesh, 30 compute nodes
sending random traffic to 6 memory-controller nodes on the edges, XY
routing, and either round-robin or age-based arbitration.  Under
round-robin, nodes adjacent to the MCs capture a disproportionate share of
the saturated links (parking-lot effect, up to ~2.4x); age-based
arbitration equalises throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import engines, rng
from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.vc import VCMesh, one_vc_mesh


class ManyToFewTraffic:
    """Compute nodes sending single-flit requests to uniform-random MCs.

    ``injection_rate`` is the Bernoulli offered load per compute node in
    packets/cycle (the paper's network-only setup); ``None`` means greedy
    sources that keep their queues saturated.
    """

    def __init__(self, mesh: VCMesh, mc_nodes, seed: int = 0,
                 injection_rate: float | None = None,
                 max_source_backlog: int = 4):
        self.mesh = mesh
        self.mc_nodes = list(mc_nodes)
        if not self.mc_nodes:
            raise MeshConfigError("need at least one memory controller")
        for n in self.mc_nodes:
            if not 0 <= n < mesh.num_nodes:
                raise MeshConfigError(f"MC node {n} outside mesh")
        if injection_rate is not None and not 0 < injection_rate <= 1:
            raise MeshConfigError("injection_rate must be in (0, 1]")
        self.compute_nodes = [n for n in range(mesh.num_nodes)
                              if n not in self.mc_nodes]
        self.gen = rng.generator_for(seed, "mesh-traffic")
        self.injection_rate = injection_rate
        self.max_source_backlog = max_source_backlog

    def _random_mc(self) -> int:
        return self.mc_nodes[int(self.gen.integers(len(self.mc_nodes)))]

    def feed(self) -> None:
        """Offer one cycle of load at every compute node."""
        for node in self.compute_nodes:
            if self.injection_rate is not None:
                if (self.gen.random() < self.injection_rate
                        and self.mesh.source_backlog(node)
                        < self.max_source_backlog):
                    self.mesh.inject(Packet(src=node, dst=self._random_mc(),
                                            size=1, kind=PacketKind.REQUEST))
            else:
                while self.mesh.source_backlog(node) < self.max_source_backlog:
                    self.mesh.inject(Packet(src=node, dst=self._random_mc(),
                                            size=1, kind=PacketKind.REQUEST))


@dataclass(frozen=True)
class FairnessResult:
    """Per-node accepted throughput of one fairness run (Fig 23)."""
    arbiter: str
    throughput: dict          # compute node -> packets/cycle
    cycles: int

    @property
    def values(self) -> np.ndarray:
        return np.array(sorted(self.throughput.values()))

    @property
    def unfairness(self) -> float:
        """max/min throughput across compute nodes (2.4x in the paper)."""
        vals = self.values
        lowest = vals[vals > 0]
        if lowest.size == 0:
            raise MeshConfigError("no node made progress")
        return float(vals.max() / lowest.min())

    @property
    def total_throughput(self) -> float:
        return float(sum(self.throughput.values()))


def run_fairness_experiment(arbiter: str = "rr", width: int = 6,
                            height: int = 6, cycles: int = 20000,
                            warmup: int = 2000, seed: int = 0,
                            injection_rate: float | None = None,
                            engine: str | None = None) -> FairnessResult:
    """Saturated many-to-few run; per-source delivered throughput.

    Greedy sources (the default) measure each node's *accepted* throughput
    at saturation, the regime where round-robin's parking-lot unfairness
    shows (paper Fig 23).  Pass an ``injection_rate`` for open-loop
    Bernoulli load instead.  ``engine`` selects the kernel: the default
    ``"batched"`` delegates to the lockstep fastmesh twin (bit-identical
    by contract), ``"scalar"`` steps the golden
    :func:`~repro.noc.mesh.vc.one_vc_mesh`.
    """
    engine = engines.resolve("mesh", engine)
    if engine == "batched":
        from repro.noc.mesh.fastmesh import batched_fairness_experiment
        return batched_fairness_experiment(
            arbiter, width=width, height=height, cycles=cycles,
            warmup=warmup, seed=seed, injection_rate=injection_rate)
    if warmup < 0:
        raise MeshConfigError("warmup must be >= 0")
    if cycles <= warmup:
        raise MeshConfigError("cycles must exceed warmup")
    mesh = one_vc_mesh(width, height, arbiter_kind=arbiter)
    traffic = ManyToFewTraffic(mesh, default_mc_nodes(width, height),
                               seed=seed, injection_rate=injection_rate)
    # warm up into steady state, then count deliveries over the window
    for _ in range(warmup):
        traffic.feed()
        mesh.step()
    baseline = dict(mesh.stats.by_source)
    for _ in range(cycles - warmup):
        traffic.feed()
        mesh.step()
    final = mesh.stats.by_source
    window = cycles - warmup
    throughput = {node: (final.get(node, 0) - baseline.get(node, 0)) / window
                  for node in traffic.compute_nodes}
    return FairnessResult(arbiter=arbiter, throughput=throughput,
                          cycles=window)


def distinct_arbiters(arbiters) -> list:
    """``arbiters`` as a list; MeshConfigError if empty or repeated.

    Fairness results are keyed by arbiter, so a repeated arbiter would
    simulate a lane whose result is then silently dropped.
    """
    arbiters = list(arbiters)
    if not arbiters:
        raise MeshConfigError("need at least one arbiter kind")
    if len(set(arbiters)) != len(arbiters):
        raise MeshConfigError(f"arbiters must be distinct: {arbiters}")
    return arbiters


def run_fairness_experiments(arbiters=("rr", "age"),
                             engine: str | None = None,
                             **kwargs) -> dict:
    """Fairness runs for several arbiters.

    Returns {arbiter: :class:`FairnessResult`}.  The default
    ``engine="batched"`` runs the whole arbiter list as ONE lockstep
    simulation; with ``engine="scalar"`` each run builds its own mesh
    and traffic from (arbiter, seed), one after another.
    """
    engine = engines.resolve("mesh", engine)
    arbiters = distinct_arbiters(arbiters)
    if engine == "batched":
        from repro.noc.mesh.fastmesh import batched_fairness_experiments
        return batched_fairness_experiments(arbiters, **kwargs)
    results = [run_fairness_experiment(a, engine="scalar", **kwargs)
               for a in arbiters]
    return dict(zip(arbiters, results))
