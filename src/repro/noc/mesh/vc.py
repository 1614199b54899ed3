"""Credit-based wormhole VC mesh and the shared request/reply study.

The paper's baseline NoC (Fig 20/21) uses *physically separate* request
and reply networks.  The textbook alternative is one physical mesh with
**virtual channels**: message classes get their own buffers so a backed-
up reply class cannot block requests (protocol deadlock avoidance,
Dally & Towles ch. 14).  This module implements the full credit-based
wormhole router of the SST-GPU-Simulation-NOC reference (SNIPPETS.md
§2-3) — per-(input port, VC) flit buffers, explicit credit return with
a configurable ``credit_latency``, and a multi-stage pipeline each
:meth:`VCMesh.step` walks in order:

1. **credit return** — credits issued ``credit_latency`` cycles ago
   land at their upstream (output, VC) counters;
2. **buffer write / route compute / VC allocation** — an arriving flit
   is written into its class VC's input buffer and becomes eligible for
   switch allocation ``pipeline_stages`` cycles later (its XY route and
   per-(output, VC) wormhole lock are evaluated on pre-cycle state);
3. **switch allocation** — one grant per output port per cycle among
   all eligible (input, VC) heads, round-robin or age-ordered;
4. **switch traversal** — granted flits cross to the downstream input
   buffer, consuming one credit on their (output, VC);
5. **credit issue** — every traversal frees an upstream buffer slot;
   the credit travels back for ``credit_latency`` cycles.

Sends never overflow: a flit only traverses when its (output, VC)
credit counter is positive, and the counter is the downstream buffer's
free space delayed by the credit loop.  Class-based VC assignment
(REQUEST->VC0, REPLY->VC1) makes the protocol-deadlock experiment
sharp: with one VC the request/reply cycle throttles the memory
controllers to a crawl; with two VCs the shared network behaves.

At one VC, with a one-cycle credit loop and a one-stage pipeline
(:func:`one_vc_mesh`), the same router is the plain wormhole mesh the
``"mesh"`` engine domain simulates for Fig 21/23, so both NoC domains
share this one scalar router model.

The batched twin (:class:`repro.noc.mesh.vcmesh_batched.BatchedVCMesh`)
runs whole VC-count x buffer-depth x credit-latency x seed grids in
lockstep, flit-identical to this scalar model; engines resolve through
the :mod:`repro.engines` registry (domain ``"vcmesh"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro import rng
from repro.errors import ConfigurationError, MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import Port, default_mc_nodes, neighbor, xy_route

_OPPOSITE = {Port.EAST: Port.WEST, Port.WEST: Port.EAST,
             Port.NORTH: Port.SOUTH, Port.SOUTH: Port.NORTH}

_CLASS_VC = {PacketKind.REQUEST: 0, PacketKind.REPLY: 1}

_ARBITER_KINDS = ("rr", "age")


def class_vc(packet: Packet, num_vcs: int) -> int:
    """VC assigned to a packet: its message class, folded into num_vcs."""
    return _CLASS_VC[packet.kind] % num_vcs


def update_wormhole_lock(locks: dict, key, flit) -> None:
    """Wormhole lock transition for one traversing flit.

    A head flit acquires the (output, VC) channel for its packet, the
    tail flit releases it, and a single-flit packet (head *and* tail)
    passes without ever holding the lock.
    """
    if flit.is_head and not flit.is_tail:
        locks[key] = flit.packet
    if flit.is_tail:
        locks[key] = None


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


class VCRouter:
    """Input-queued wormhole router with per-class virtual channels.

    Buffers hold ``(flit, ready_cycle)`` pairs: the ready stamp models
    the buffer-write / route-compute / VC-allocation pipeline depth.
    ``credits[(out_port, vc)]`` counts free downstream slots on that
    virtual channel; the mesh decrements it at switch traversal and
    returns credits through its credit ring.
    """

    def __init__(self, node: int, num_vcs: int = 2, buffer_flits: int = 4,
                 arbiter_kind: str = "rr"):
        if num_vcs <= 0 or buffer_flits <= 0:
            raise MeshConfigError("num_vcs and buffer_flits must be positive")
        if arbiter_kind not in _ARBITER_KINDS:
            raise MeshConfigError(f"unknown arbiter kind {arbiter_kind!r}")
        self.node = node
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self.arbiter_kind = arbiter_kind
        self.buffers = {(port, vc): deque()
                        for port in Port for vc in range(num_vcs)}
        self.out_lock = {(port, vc): None
                         for port in Port for vc in range(num_vcs)}
        self.credits = {(port, vc): buffer_flits
                        for port in Port for vc in range(num_vcs)}
        # output port a partially-forwarded packet's body flits follow
        self.body_out = {(port, vc): None
                         for port in Port for vc in range(num_vcs)}
        # per-output rotating priority over the P*V candidate index space
        self.rr_last = {port: len(Port) * num_vcs - 1 for port in Port}

    def space(self, port: Port, vc: int) -> int:
        return self.buffer_flits - len(self.buffers[(port, vc)])

    def accept(self, port: Port, flit, ready: int = 0) -> None:
        """Buffer write: the flit joins its class VC, eligible at ready."""
        vc = class_vc(flit.packet, self.num_vcs)
        if self.space(port, vc) <= 0:
            raise MeshConfigError(
                f"router {self.node}: input ({port.name}, vc{vc}) overflow")
        self.buffers[(port, vc)].append((flit, ready))

    def grant(self, out_port: Port, eligible: dict) -> int:
        """Switch allocation for one output: pick a candidate index.

        ``eligible`` maps ``in_port * num_vcs + vc`` to the head flit.
        Round-robin rotates a per-output pointer over the full candidate
        index space; age picks the oldest packet (birth, then pid).
        """
        if self.arbiter_kind == "age":
            return min(eligible,
                       key=lambda i: (eligible[i].birth_cycle,
                                      eligible[i].packet.pid))
        count = len(Port) * self.num_vcs
        last = self.rr_last[out_port]
        for offset in range(1, count + 1):
            idx = (last + offset) % count
            if idx in eligible:
                self.rr_last[out_port] = idx
                return idx
        raise MeshConfigError("candidate indices out of range")

    def pop(self, in_port: Port, vc: int, out_port: Port):
        """Switch traversal bookkeeping: unbuffer, locks, body routing."""
        buf = self.buffers[(in_port, vc)]
        if not buf:
            raise MeshConfigError(f"router {self.node}: pop from empty VC")
        flit, _ready = buf.popleft()
        update_wormhole_lock(self.out_lock, (out_port, vc), flit)
        if flit.is_head and not flit.is_tail:
            self.body_out[(in_port, vc)] = out_port
        if flit.is_tail:
            self.body_out[(in_port, vc)] = None
        return flit

    @property
    def occupancy(self) -> int:
        return sum(len(b) for b in self.buffers.values())


class VCMesh:
    """2-D mesh of :class:`VCRouter` with XY routing and credit return.

    Delivered :class:`Packet` objects are not kept: each tail ejection
    updates :class:`DeliveryStats` (aggregate and per-source counts and
    latencies), so memory stays bounded on long runs.
    """

    def __init__(self, width: int, height: int, num_vcs: int = 2,
                 buffer_flits: int = 4, credit_latency: int = 1,
                 pipeline_stages: int = 1, arbiter_kind: str = "rr"):
        if width <= 0 or height <= 0:
            raise MeshConfigError("mesh dimensions must be positive")
        if credit_latency <= 0:
            raise MeshConfigError("credit_latency must be positive")
        if pipeline_stages <= 0:
            raise MeshConfigError("pipeline_stages must be positive")
        self.width = width
        self.height = height
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self.credit_latency = credit_latency
        self.pipeline_stages = pipeline_stages
        self.routers = [VCRouter(n, num_vcs, buffer_flits, arbiter_kind)
                        for n in range(width * height)]
        self.source_queues = [deque() for _ in range(width * height)]
        self.cycle = 0
        self.stats = DeliveryStats()
        self.flits_delivered = 0
        self.sinks = {}
        # credit ring: slot (cycle % credit_latency) drains at the start
        # of ``cycle``; a credit issued at cycle t lands at t + latency
        self._credit_ring = [[] for _ in range(credit_latency)]

    @property
    def num_nodes(self) -> int:
        return self.width * self.height

    def inject(self, packet: Packet) -> None:
        if not 0 <= packet.src < self.num_nodes:
            raise MeshConfigError(f"source {packet.src} outside mesh")
        if not 0 <= packet.dst < self.num_nodes:
            raise MeshConfigError(f"destination {packet.dst} outside mesh")
        packet.birth_cycle = self.cycle
        self.source_queues[packet.src].extend(packet.flits())

    def source_backlog(self, node: int) -> int:
        return len(self.source_queues[node])

    def add_sink(self, node: int, callback) -> None:
        self.sinks[node] = callback

    def delivered_count(self) -> int:
        """Packets fully ejected so far."""
        return self.stats.count

    def delivered_flits(self) -> int:
        """Flits ejected at LOCAL ports so far."""
        return self.flits_delivered

    def buffer_occupancy(self) -> list:
        """Flit counts of every (node, port, VC) input buffer, flattened.

        The lockstep equivalence suite compares this against the batched
        kernel's per-lane snapshot cycle for cycle.
        """
        return [len(r.buffers[(port, vc)]) for r in self.routers
                for port in Port for vc in range(self.num_vcs)]

    def credit_snapshot(self) -> list:
        """Credit counters of every (node, port, VC), flattened."""
        return [r.credits[(port, vc)] for r in self.routers
                for port in Port for vc in range(self.num_vcs)]

    def step(self) -> None:
        cycle = self.cycle
        # ---- stage 1: credit return ---------------------------------
        ring_slot = cycle % self.credit_latency
        for node, port, vc in self._credit_ring[ring_slot]:
            self.routers[node].credits[(port, vc)] += 1
        self._credit_ring[ring_slot] = []

        # ---- stages 2-3: route compute + VC/switch allocation -------
        # pure function of pre-cycle state: locks, credits and ready
        # stamps are read before any traversal mutates them
        moves = []
        for router in self.routers:
            for out_port in Port:
                eligible = {}
                for vc in range(self.num_vcs):
                    for in_port in Port:
                        buf = router.buffers[(in_port, vc)]
                        if not buf:
                            continue
                        flit, ready = buf[0]
                        if ready > cycle:
                            continue        # still in the input pipeline
                        if flit.is_head:
                            if xy_route(router.node, flit.dst,
                                        self.width) is not out_port:
                                continue
                            lock = router.out_lock[(out_port, vc)]
                            if lock is not None and lock is not flit.packet:
                                continue
                        elif router.body_out[(in_port, vc)] is not out_port:
                            continue
                        if out_port is not Port.LOCAL and \
                                router.credits[(out_port, vc)] <= 0:
                            continue        # no downstream buffer slot
                        eligible[int(in_port) * self.num_vcs + vc] = flit
                if not eligible:
                    continue
                winner = router.grant(out_port, eligible)
                moves.append((router.node, Port(winner // self.num_vcs),
                              winner % self.num_vcs, out_port))

        # ---- stages 4-5: switch traversal + credit issue ------------
        for node, in_port, vc, out_port in moves:
            router = self.routers[node]
            flit = router.pop(in_port, vc, out_port)
            if out_port is Port.LOCAL:
                self.flits_delivered += 1
                if flit.is_tail:
                    packet = flit.packet
                    packet.delivered_cycle = cycle
                    self.stats.observe(packet.src, packet.latency)
                    sink = self.sinks.get(node)
                    if sink is not None:
                        sink(packet, cycle)
            else:
                router.credits[(out_port, vc)] -= 1
                dst = neighbor(node, out_port, self.width, self.height)
                self.routers[dst].accept(_OPPOSITE[out_port], flit,
                                         ready=cycle + self.pipeline_stages)
            if in_port is not Port.LOCAL:
                # the freed slot's credit travels back upstream
                upstream = neighbor(node, in_port, self.width, self.height)
                self._credit_ring[ring_slot].append(
                    (upstream, _OPPOSITE[in_port], vc))

        # ---- injection: one flit per node per cycle into LOCAL ------
        for node, queue in enumerate(self.source_queues):
            if queue:
                flit = queue[0]
                vc = class_vc(flit.packet, self.num_vcs)
                if self.routers[node].space(Port.LOCAL, vc) > 0:
                    self.routers[node].accept(
                        Port.LOCAL, queue.popleft(),
                        ready=cycle + self.pipeline_stages)

        self.cycle += 1

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise MeshConfigError("cannot run negative cycles")
        for _ in range(cycles):
            self.step()


def one_vc_mesh(width: int, height: int, buffer_flits: int = 8,
                arbiter_kind: str = "rr") -> VCMesh:
    """The ``"mesh"`` domain's golden model: a :class:`VCMesh` at one VC.

    One VC, a one-cycle credit loop and a one-stage input pipeline make
    the credit-based router the plain Booksim-style wormhole mesh of the
    paper's Section VI (Fig 21/23); the batched
    :class:`~repro.noc.mesh.fastmesh.BatchedMesh` matches it flit for
    flit.
    """
    return VCMesh(width, height, num_vcs=1, buffer_flits=buffer_flits,
                  credit_latency=1, pipeline_stages=1,
                  arbiter_kind=arbiter_kind)


@dataclass(frozen=True)
class SharedNetworkResult:
    """Outcome of one shared request/reply network configuration.

    Carries the full configuration axes plus the same windowed
    utilisation trace shape as :class:`repro.noc.mesh.interfaces
    .ReplyBottleneckResult`, so serve endpoints and ResultCache payloads
    treat VC sweeps like every other mesh experiment.
    """
    num_vcs: int
    buffer_flits: int
    credit_latency: int
    width: int
    height: int
    cycles: int
    reply_flits: int
    seed: int
    injection_rate: float | None
    serviced_requests: int
    utilization: np.ndarray    # per-window serviced rate per MC
    mean_utilization: float
    peak_utilization: float
    window: int

    @property
    def service_rate(self) -> float:
        return self.serviced_requests / self.cycles

    def to_json(self) -> dict:
        return {"num_vcs": self.num_vcs, "buffer_flits": self.buffer_flits,
                "credit_latency": self.credit_latency,
                "width": self.width, "height": self.height,
                "cycles": self.cycles, "reply_flits": self.reply_flits,
                "seed": self.seed, "injection_rate": self.injection_rate,
                "serviced_requests": self.serviced_requests,
                "service_rate": self.service_rate,
                "mean_utilization": self.mean_utilization,
                "peak_utilization": self.peak_utilization,
                "window": self.window,
                "utilization": [float(u) for u in self.utilization]}


def run_shared_network_experiment(num_vcs: int, width: int = 6,
                                  height: int = 6, cycles: int = 8000,
                                  reply_flits: int = 5, seed: int = 0,
                                  buffer_flits: int = 4,
                                  credit_latency: int = 1,
                                  window: int = 100,
                                  injection_rate: float | None = None,
                                  engine: str | None = None
                                  ) -> SharedNetworkResult:
    """Requests and replies on ONE physical mesh.

    Compute nodes stream requests at the MCs; each serviced request
    emits a multi-flit reply on the *same* network.  With one VC the
    reply class backs up into the request class (head-of-line blocking
    across the protocol cycle) and service crawls; separate VCs keep
    both classes moving.

    ``engine`` selects the ``"vcmesh"`` registry domain kernel: the
    default ``"batched"`` runs through :class:`repro.noc.mesh
    .vcmesh_batched.BatchedVCMesh` (bit-identical by contract),
    ``"scalar"`` steps this module's :class:`VCMesh`.
    """
    from repro import engines as engine_registry
    engine = engine_registry.resolve("vcmesh", engine)
    if engine == "batched":
        from repro.noc.mesh.vcmesh_batched import (
            batched_shared_network_experiment)
        return batched_shared_network_experiment(
            num_vcs, width=width, height=height, cycles=cycles,
            reply_flits=reply_flits, seed=seed, buffer_flits=buffer_flits,
            credit_latency=credit_latency, window=window,
            injection_rate=injection_rate)
    if cycles <= 0 or window <= 0 or cycles < window:
        raise MeshConfigError("need cycles >= window > 0")
    if reply_flits <= 0:
        raise MeshConfigError("reply_flits must be positive")
    if injection_rate is not None and not 0 < injection_rate <= 1:
        raise MeshConfigError("injection_rate must be in (0, 1]")
    mesh = VCMesh(width, height, num_vcs=num_vcs, buffer_flits=buffer_flits,
                  credit_latency=credit_latency)
    mc_nodes = default_mc_nodes(width, height)
    compute = [n for n in range(mesh.num_nodes) if n not in mc_nodes]
    gen = rng.generator_for(seed, "shared-net", num_vcs)
    pending = {mc: deque() for mc in mc_nodes}
    serviced = 0
    samples = []
    in_window = 0

    def make_sink(mc):
        def sink(packet, _cycle):
            if packet.kind is PacketKind.REQUEST:
                pending[mc].append(packet)
        return sink

    for mc in mc_nodes:
        mesh.add_sink(mc, make_sink(mc))

    for cycle in range(cycles):
        for node in compute:
            if mesh.source_backlog(node) < 4:
                if injection_rate is not None and \
                        float(gen.random()) >= injection_rate:
                    continue
                dst = mc_nodes[int(gen.integers(len(mc_nodes)))]
                mesh.inject(Packet(src=node, dst=dst, size=1,
                                   kind=PacketKind.REQUEST))
        for mc in mc_nodes:
            if pending[mc] and mesh.source_backlog(mc) < 2 * reply_flits:
                request = pending[mc].popleft()
                mesh.inject(Packet(src=mc, dst=request.src,
                                   size=reply_flits,
                                   kind=PacketKind.REPLY))
                serviced += 1
                in_window += 1
        mesh.step()
        if (cycle + 1) % window == 0:
            samples.append(in_window / (window * len(mc_nodes)))
            in_window = 0
    util = np.array(samples)
    return SharedNetworkResult(
        num_vcs=num_vcs, buffer_flits=buffer_flits,
        credit_latency=credit_latency, width=width, height=height,
        cycles=cycles, reply_flits=reply_flits, seed=seed,
        injection_rate=injection_rate,
        serviced_requests=serviced, utilization=util,
        mean_utilization=float(util.mean()) if samples else 0.0,
        peak_utilization=float(util.max()) if samples else 0.0,
        window=window)


def _vc_points_shard(args) -> list:
    """Sweep-runner worker: one block of grid points, lockstep or scalar.

    Lanes are mutually independent (each replays its own traffic
    stream), so a block simulated on its own produces exactly the lanes
    the full grid would — sharding cannot change a single flit.  The
    results carry small ``utilization`` ndarrays: a shard's results
    encode to well under :data:`repro.exec.shm.ZEROCOPY_MIN_BYTES`, so
    they come back pickled through the pool pipe, not through shared
    memory.
    """
    points, width, height, cycles, reply_flits, window, engine = args
    if engine == "batched":
        from repro.noc.mesh.vcmesh_batched import batched_vc_points
        return batched_vc_points(points, width=width, height=height,
                                 cycles=cycles, reply_flits=reply_flits,
                                 window=window)
    return [run_shared_network_experiment(
                num_vcs, width=width, height=height, cycles=cycles,
                reply_flits=reply_flits, seed=seed, buffer_flits=depth,
                credit_latency=latency, window=window,
                injection_rate=rate, engine="scalar")
            for num_vcs, depth, latency, rate, seed in points]


def sweep_vc_grid(vc_counts=(1, 2), buffer_depths=(4,),
                  credit_latencies=(1,), injection_rates=(None,),
                  seeds=(0,), width: int = 6,
                  height: int = 6, cycles: int = 8000, reply_flits: int = 5,
                  window: int = 100, engine: str | None = None,
                  jobs: int | None = None) -> list:
    """The full Fig 21/23-class VC sweep, one result per grid point.

    Grid order is ``vc_counts`` x ``buffer_depths`` x
    ``credit_latencies`` x ``injection_rates`` x ``seeds`` (row-major;
    an ``injection_rate`` of ``None`` means greedy backlog-limited
    sources).  The default
    ``"batched"`` engine simulates every grid point as one lane of a
    single lockstep :class:`~repro.noc.mesh.vcmesh_batched
    .BatchedVCMesh` run; ``"scalar"`` loops this module's golden model.

    ``jobs=N`` splits the row-major grid into ``min(N, points)``
    contiguous blocks of near-equal size and runs them on a
    :class:`~repro.exec.SweepRunner` pool, each block one lockstep batch
    under the batched engine (``jobs=1`` is one in-process block).  The
    blocks depend on ``jobs``, the results do not: every lane replays
    its own traffic stream, so a lane's result is the same in any batch
    (see :func:`~repro.noc.mesh.vcmesh_batched.batched_vc_points`), and
    every ``jobs`` returns bit-identical results in row-major order.
    """
    from repro import engines as engine_registry
    engine = engine_registry.resolve("vcmesh", engine)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    grid = [(num_vcs, depth, latency, rate, seed)
            for num_vcs in vc_counts
            for depth in buffer_depths
            for latency in credit_latencies
            for rate in injection_rates
            for seed in seeds]
    if jobs is None:
        return _vc_points_shard((grid, width, height, cycles, reply_flits,
                                 window, engine))
    from repro.exec import SweepRunner
    # one contiguous block per worker: lanes are batch-independent, so
    # block boundaries cannot move a result, and fewer, wider lockstep
    # batches are what the batched kernel is fast at
    blocks = min(jobs, len(grid))
    size, extra = divmod(len(grid), max(blocks, 1))
    bounds = [i * size + min(i, extra) for i in range(blocks + 1)]
    shards = [(grid[lo:hi], width, height, cycles, reply_flits, window,
               engine) for lo, hi in zip(bounds, bounds[1:])]
    shard_results = SweepRunner(jobs).map(_vc_points_shard, shards)
    return [result for shard in shard_results for result in shard]
