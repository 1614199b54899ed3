"""NoC->MEM interface and the reply-bandwidth bottleneck (paper Fig 21).

Prior simulator baselines couple a memory controller that can service one
request per cycle to a *reply* injection port that can only push one flit
per cycle — but a reply carries a whole cache line (several flits).  The
reply interface therefore backs up, backpressure stalls the controller,
and measured memory-channel utilisation collapses to roughly
``1 / reply_flits`` with full-rate bursts whenever the queue drains —
the fluctuation plotted in Fig 21.  Real GPUs (Fig 9a) provision this
interface properly and sustain >85%.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.traffic import ManyToFewTraffic
from repro.noc.mesh.vc import VCMesh, one_vc_mesh


class MemoryNode:
    """A memory controller bridging the request and reply networks.

    Requests arrive (ejected) on the *request* mesh; each serviced request
    emits a ``reply_flits``-flit reply into the *reply* mesh, whose local
    injection port drains one flit per cycle — the paper's NoC->MEM reply
    interface.  The controller services one request per ``service_cycles``
    while its reply queue has room; when the reply interface backs up,
    backpressure stalls the channel (Fig 21).
    """

    def __init__(self, request_mesh: VCMesh, reply_mesh: VCMesh, node: int,
                 reply_flits: int = 5, service_cycles: int = 1,
                 reply_queue_limit: int = 8):
        if reply_flits <= 0 or service_cycles <= 0 or reply_queue_limit <= 0:
            raise MeshConfigError("memory node parameters must be positive")
        self.request_mesh = request_mesh
        self.reply_mesh = reply_mesh
        self.node = node
        self.reply_flits = reply_flits
        self.service_cycles = service_cycles
        self.reply_queue_limit = reply_queue_limit
        self.pending = deque()          # delivered, unserviced requests
        self.serviced = 0
        self.busy_cycles = 0
        self._cooldown = 0
        request_mesh.add_sink(node, self._on_delivery)

    def _on_delivery(self, packet: Packet, cycle: int) -> None:
        if packet.kind is PacketKind.REQUEST:
            self.pending.append(packet)

    def _reply_backlog_packets(self) -> int:
        """Replies still queued at this node's reply-injection port."""
        return self.reply_mesh.source_backlog(self.node) // self.reply_flits

    def tick(self) -> bool:
        """One memory-channel cycle; True when the channel did work."""
        if self._cooldown > 0:
            self._cooldown -= 1
            self.busy_cycles += 1
            return True
        if not self.pending:
            return False
        if self._reply_backlog_packets() >= self.reply_queue_limit:
            return False            # backpressure: reply interface is full
        request = self.pending.popleft()
        self.reply_mesh.inject(Packet(src=self.node, dst=request.src,
                                      size=self.reply_flits,
                                      kind=PacketKind.REPLY))
        self.serviced += 1
        self._cooldown = self.service_cycles - 1
        self.busy_cycles += 1
        return True


@dataclass(frozen=True)
class ReplyBottleneckResult:
    """Memory-channel utilisation trace of one Fig 21 run."""
    utilization: np.ndarray    # per-window utilisation of channel 0
    mean_utilization: float
    peak_utilization: float
    window: int


def run_reply_bottleneck(cycles: int = 20000, window: int = 100,
                         reply_flits: int = 5, width: int = 6,
                         height: int = 6, seed: int = 0,
                         arbiter: str = "rr",
                         engine: str | None = None) -> ReplyBottleneckResult:
    """Memory-intensive run measuring one channel's utilisation over time.

    ``engine`` selects the kernel: the default ``"batched"`` runs the
    request/reply mesh pair as one two-lane lockstep simulation
    (:func:`repro.noc.mesh.fastmesh.batched_reply_bottleneck`,
    bit-identical by contract); ``"scalar"`` steps two golden
    :func:`~repro.noc.mesh.vc.one_vc_mesh` meshes.
    """
    from repro import engines as engine_registry
    engine = engine_registry.resolve("mesh", engine)
    if engine == "batched":
        from repro.noc.mesh.fastmesh import batched_reply_bottleneck
        return batched_reply_bottleneck(
            cycles=cycles, window=window, reply_flits=reply_flits,
            width=width, height=height, seed=seed, arbiter=arbiter)
    if cycles <= 0 or window <= 0 or cycles < window:
        raise MeshConfigError("need cycles >= window > 0")
    request_mesh = one_vc_mesh(width, height, arbiter_kind=arbiter)
    reply_mesh = one_vc_mesh(width, height, arbiter_kind=arbiter)
    mc_nodes = default_mc_nodes(width, height)
    traffic = ManyToFewTraffic(request_mesh, mc_nodes, seed=seed)
    memories = [MemoryNode(request_mesh, reply_mesh, n,
                           reply_flits=reply_flits) for n in mc_nodes]
    probe = memories[0]
    samples = []
    busy_in_window = 0
    for cycle in range(cycles):
        traffic.feed()
        busy_before = probe.busy_cycles
        for memory in memories:
            memory.tick()
        busy_in_window += probe.busy_cycles - busy_before
        request_mesh.step()
        reply_mesh.step()
        if (cycle + 1) % window == 0:
            samples.append(busy_in_window / window)
            busy_in_window = 0
    util = np.array(samples)
    return ReplyBottleneckResult(
        utilization=util,
        mean_utilization=float(util.mean()),
        peak_utilization=float(util.max()),
        window=window,
    )
