"""Cycle-driven 2-D mesh network (the golden model).

The plain implementation of the wormhole mesh: one
:class:`~repro.noc.mesh.router.Router` object per node, per-port arbiter
objects and a loop over the :class:`~repro.noc.mesh.routing.Port` enum.
Each cycle every output port of every router may forward one flit
(subject to arbitration, wormhole locks and downstream credit), each
node may inject one flit from its source queue and eject one flit at its
local port.

The batched kernel in :mod:`repro.noc.mesh.fastmesh` must match this
model flit-for-flit on identical traffic
(``tests/test_fastmesh_equivalence.py``); keep this module boring and
obviously correct.

Delivered :class:`Packet` objects are not kept: each tail ejection
updates :class:`DeliveryStats` (aggregate and per-source counts and
latencies), so memory stays bounded on long runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet
from repro.noc.mesh.router import Router
from repro.noc.mesh.routing import Port, neighbor, xy_route

_OPPOSITE = {Port.EAST: Port.WEST, Port.WEST: Port.EAST,
             Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH}


@dataclass
class DeliveryStats:
    """Aggregate delivery statistics, updated at each tail ejection."""
    count: int = 0
    latency_sum: float = 0.0
    latency_min: float = float("inf")
    latency_max: float = float("-inf")
    by_source: dict = field(default_factory=dict)          # src -> packets
    latency_by_source: dict = field(default_factory=dict)  # src -> sum cycles

    def observe(self, src: int, latency: int) -> None:
        self.count += 1
        self.latency_sum += latency
        if latency < self.latency_min:
            self.latency_min = latency
        if latency > self.latency_max:
            self.latency_max = latency
        self.by_source[src] = self.by_source.get(src, 0) + 1
        self.latency_by_source[src] = (self.latency_by_source.get(src, 0.0)
                                       + latency)

    @property
    def mean_latency(self) -> float:
        if self.count == 0:
            raise MeshConfigError("no packets delivered yet")
        return self.latency_sum / self.count


class Mesh2D:
    """A width x height wormhole mesh with XY routing."""

    def __init__(self, width: int, height: int, buffer_flits: int = 8,
                 arbiter_kind: str = "rr"):
        if width <= 0 or height <= 0:
            raise MeshConfigError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self.routers = [Router(n, buffer_flits, arbiter_kind)
                        for n in range(width * height)]
        self.source_queues = [deque() for _ in range(width * height)]
        self.cycle = 0
        self.stats = DeliveryStats()
        self.flits_delivered = 0
        self.sinks = {}           # node -> callback(packet, cycle)

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    # ---- injection -------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet for injection at its source node."""
        if not 0 <= packet.src < self.num_nodes:
            raise MeshConfigError(f"source {packet.src} outside mesh")
        if not 0 <= packet.dst < self.num_nodes:
            raise MeshConfigError(f"destination {packet.dst} outside mesh")
        packet.birth_cycle = self.cycle
        self.source_queues[packet.src].extend(packet.flits())

    def source_backlog(self, node: int) -> int:
        return len(self.source_queues[node])

    def add_sink(self, node: int, callback) -> None:
        """Register a delivery callback for packets ejected at ``node``."""
        self.sinks[node] = callback

    # ---- simulation ------------------------------------------------------
    def _route_of(self, node: int):
        def route(flit):
            return xy_route(node, flit.dst, self.width)
        return route

    def step(self) -> None:
        """Advance the network one cycle."""
        moves = []      # (src_router, in_port, out_port, dst_router|None)
        scheduled_in = {}   # (dst_node, port) -> flits already arriving

        for router in self.routers:
            route_of = self._route_of(router.node)
            for out_port in Port:
                candidates = router.candidates_for(out_port, route_of)
                if not candidates:
                    continue
                if out_port is Port.LOCAL:
                    dst = None      # ejection: always one flit per cycle
                else:
                    dst = neighbor(router.node, out_port, self.width,
                                   self.height)
                    in_slot = (dst, _OPPOSITE[out_port])
                    space = (self.routers[dst].space(_OPPOSITE[out_port])
                             - scheduled_in.get(in_slot, 0))
                    if space <= 0:
                        continue
                    scheduled_in[in_slot] = scheduled_in.get(in_slot, 0) + 1
                winner = router.arbiters[out_port].grant(candidates)
                moves.append((router.node, Port(winner), out_port, dst))

        for node, in_port, out_port, dst in moves:
            flit = self.routers[node].pop(in_port, out_port)
            if dst is None:
                self.flits_delivered += 1
                if flit.is_tail:
                    packet = flit.packet
                    packet.delivered_cycle = self.cycle
                    self.stats.observe(packet.src, packet.latency)
                    sink = self.sinks.get(node)
                    if sink is not None:
                        sink(packet, self.cycle)
            else:
                self.routers[dst].accept(_OPPOSITE[out_port], flit)

        # injection: one flit per node per cycle from the source queue
        for node, queue in enumerate(self.source_queues):
            if queue and self.routers[node].space(Port.LOCAL) > 0:
                self.routers[node].accept(Port.LOCAL, queue.popleft())

        self.cycle += 1

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise MeshConfigError("cannot run negative cycles")
        for _ in range(cycles):
            self.step()

    # ---- accounting ------------------------------------------------------
    @property
    def delivered_count(self) -> int:
        """Delivered packets."""
        return self.stats.count

    def in_flight_flits(self) -> int:
        return sum(r.occupancy for r in self.routers)

    def buffer_occupancy(self) -> list:
        """Flit count of every input buffer (invariant checks in tests)."""
        return [len(buf) for router in self.routers
                for buf in router.in_buffers.values()]

    def delivered_by_source(self) -> dict:
        """Delivered packet count per source node."""
        return dict(self.stats.by_source)
