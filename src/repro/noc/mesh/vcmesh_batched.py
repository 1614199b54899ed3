"""Batched struct-of-arrays kernel for the credit-based VC mesh.

:class:`repro.noc.mesh.vc.VCMesh` interprets one credit-based wormhole
router mesh, one flit at a time, through Python dicts and deques; a
Fig 21/23-class sweep over VC counts x buffer depths x credit latencies
x injection rates x seeds pays that interpreter once per grid point.
This module simulates **the whole grid in lockstep** as flat NumPy
arrays, one *lane* per grid point — the same struct-of-arrays design as
:mod:`repro.noc.mesh.fastmesh`, extended along the VC axis:

* the global slot id is ``g = ((lane*n + node)*P + port)*V + vc`` with
  ``V`` the widest lane's VC count; per-slot capacity / credit-latency
  arrays give each lane its own buffer depth and credit loop;
* a third ring array carries each flit's *ready cycle* (the
  buffer-write -> route-compute -> VC-allocation pipeline stamp);
* per-(output, VC) credit counters are decremented at switch traversal
  and returned through a ``(max_latency+1) x G`` credit ring whose row
  ``(cycle + lane_latency) % R`` collects the cycle's issued credits;
* switch allocation is per *output port* across all of its VCs: the
  contender bitmask packs candidate index ``port*V + vc``, the
  single-contender fast path decodes it with ``frexp``, and contended
  outputs replay the scalar arbiter exactly — including the per-lane
  ``port*num_vcs + vc`` rotation arithmetic of the round-robin pointer.

The contract is the one every fast engine here holds: **flit-for-flit
and statistic-identical** to the scalar golden model, asserted per
cycle by ``tests/test_vcmesh_equivalence.py`` (buffer occupancies,
credit counters, delivery counters) and across random geometries by the
registry fuzz harness.  Traffic replays the scalar draws through
:func:`repro.noc.mesh.fastmesh.make_stream` on the identical
``(seed, "shared-net", num_vcs)`` key.

Entry points mirror the scalar experiment APIs and return the same
:class:`~repro.noc.mesh.vc.SharedNetworkResult`:
:func:`batched_shared_network_experiment` and :func:`batched_vc_grid`
(with :func:`batched_vc_points` taking an explicit lane list, the unit
a ``jobs``-parallel sweep shards over).  Engines resolve through the
:mod:`repro.engines` registry (domain ``"vcmesh"``, this kernel is
``"batched"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import MeshConfigError
from repro.noc.mesh.fastmesh import (_A_DST_SHIFT, _A_SRC_MASK,
                                     _A_SRC_SHIFT, _F_HEAD, _F_REPLY,
                                     _F_TAIL, _MAX_NODES, _NO_KEY,
                                     make_stream)
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.routing import Port, default_mc_nodes, xy_route
from repro.noc.mesh.vc import SharedNetworkResult

_NUM_PORTS = len(Port)
_OPP = (0, 2, 1, 4, 3)          # LOCAL, EAST<->WEST, NORTH<->SOUTH
_EMPTY_I = np.empty(0, dtype=np.int64)

#: candidate bitmasks stay exact in float64 bincount weights up to here
_MAX_VCS = 8


@dataclass(frozen=True)
class DeliveredPacket:
    """Sink-visible record of one ejected packet (batched lanes do not
    retain :class:`~repro.noc.mesh.flit.Packet` objects)."""
    src: int
    dst: int
    kind: PacketKind


class BatchedVCMesh:
    """``B`` independent :class:`~repro.noc.mesh.vc.VCMesh` instances
    stepped in lockstep, each with its own VC count, buffer depth and
    credit latency.

    Every lane shares the geometry, pipeline depth and arbiter kind;
    the per-lane axes are exactly the sweep axes of
    :func:`~repro.noc.mesh.vc.sweep_vc_grid`.
    """

    def __init__(self, width: int, height: int, num_vcs=(2,),
                 buffer_flits=(4,), credit_latency=(1,),
                 pipeline_stages: int = 1, arbiter_kind: str = "rr",
                 source_capacity: int = 16):
        if width <= 0 or height <= 0:
            raise MeshConfigError("mesh dimensions must be positive")
        if arbiter_kind not in ("rr", "age"):
            raise MeshConfigError(f"unknown arbiter kind {arbiter_kind!r}")
        if pipeline_stages <= 0:
            raise MeshConfigError("pipeline_stages must be positive")
        if isinstance(num_vcs, int):
            num_vcs = (num_vcs,)
        batch = len(num_vcs)
        if isinstance(buffer_flits, int):
            buffer_flits = (buffer_flits,) * batch
        if isinstance(credit_latency, int):
            credit_latency = (credit_latency,) * batch
        if not (len(buffer_flits) == len(credit_latency) == batch) or not batch:
            raise MeshConfigError("need one num_vcs/buffer_flits/"
                                  "credit_latency per lane")
        for vcs, depth, lat in zip(num_vcs, buffer_flits, credit_latency):
            if vcs <= 0 or depth <= 0:
                raise MeshConfigError(
                    "num_vcs and buffer_flits must be positive")
            if vcs > _MAX_VCS:
                raise MeshConfigError(
                    f"batched engine supports at most {_MAX_VCS} VCs")
            if lat <= 0:
                raise MeshConfigError("credit_latency must be positive")
        n = width * height
        if n > _MAX_NODES:
            raise MeshConfigError("mesh too large for the batched engine")
        self.width = width
        self.height = height
        self.batch = batch
        self.num_vcs_per_lane = tuple(num_vcs)
        self.buffer_flits_per_lane = tuple(buffer_flits)
        self.credit_latency_per_lane = tuple(credit_latency)
        self.pipeline_stages = pipeline_stages
        self.arbiter_kind = arbiter_kind
        self.cycle = 0
        self._n = n

        P = _NUM_PORTS
        V = max(num_vcs)                  # slot stride; folded VCs unused
        F = max(buffer_flits)
        B = batch
        self._v = V
        self._f = F
        spl = n * P * V                   # slots per lane
        self._spl = spl
        G = B * spl
        self._g = G
        OP = G // V                       # output-port grant slots
        self._op = OP

        lane_vcs = np.array(num_vcs, dtype=np.int64)
        lane_cap = np.array(buffer_flits, dtype=np.int64)
        lane_lat = np.array(credit_latency, dtype=np.int64)
        self._lane_vcs = lane_vcs

        # ---- input-buffer rings + materialised head caches -------------
        self._rf_a = np.zeros(G * F, dtype=np.int64)
        self._rf_b = np.zeros(G * F, dtype=np.int64)
        self._rf_r = np.zeros(G * F, dtype=np.int64)
        self._hd = np.zeros(G, dtype=np.int64)
        self._ln = np.zeros(G, dtype=np.int64)
        self._h_a = np.zeros(G, dtype=np.int64)
        self._h_b = np.zeros(G, dtype=np.int64)
        self._h_r = np.zeros(G, dtype=np.int64)
        self._h_out = np.zeros(G, dtype=np.int64)

        # ---- router state ----------------------------------------------
        self._lock = np.full(G, -1, dtype=np.int64)     # per (out, vc)
        self._body_out = np.zeros(G, dtype=np.int64)    # per (in, vc)
        self._credits = np.zeros(G, dtype=np.int64)     # per (out, vc)
        # rr pointer per output port, in the lane's own P*Vl index space
        self._rr_last = np.zeros(OP, dtype=np.int64)

        # ---- precomputed flat topology ----------------------------------
        gf = np.arange(G, dtype=np.int64)
        self._vc_f = gf % V
        self._port_f = (gf // V) % P
        node_f = (gf // (P * V)) % n
        self._lane_f = gf // spl
        self._nb_f = gf - self._port_f * V - self._vc_f  # node block base
        self._nbop_f = self._nb_f // V                   # node's op base
        self._cap_f = lane_cap.take(self._lane_f)
        self._lat_f = lane_lat.take(self._lane_f)
        self._bit_f = (1 << (self._port_f * V + self._vc_f)) \
            .astype(np.float64)
        self._route_f = np.array(
            [int(xy_route(node, dst, width))
             for node in range(n) for dst in range(n)], dtype=np.int64)
        self._rtbase_f = node_f * n
        # link map: slot (node, port, vc) <-> (nbr(node, port), OPP, vc)
        # — downstream input slot of an output channel AND upstream
        # output slot of an input channel (the link is symmetric)
        nbr_node = np.full((n, P), -1, dtype=np.int64)
        for node in range(n):
            x, y = node % width, node // width
            for port, dst in ((Port.EAST, node + 1 if x + 1 < width else -1),
                              (Port.WEST, node - 1 if x > 0 else -1),
                              (Port.SOUTH,
                               node + width if y + 1 < height else -1),
                              (Port.NORTH, node - width if y > 0 else -1)):
                if dst >= 0:
                    nbr_node[node, port] = dst
        opp = np.array(_OPP, dtype=np.int64)
        link = (nbr_node[node_f, self._port_f] * P * V
                + opp.take(self._port_f) * V + self._vc_f)
        # boundary ports never carry traffic (XY routing): clip to 0
        self._link_g = np.maximum(link, 0) + self._lane_f * spl

        opf = np.arange(OP, dtype=np.int64)
        self._op_port = opf % P
        self._op_lane = opf // (n * P)
        op_vcs = lane_vcs.take(self._op_lane)
        self._op_k = P * op_vcs            # lane arbiter index space
        self._rr_last[:] = self._op_k - 1  # first grant scans from idx 0
        # global-V candidate column j = port*V + v -> lane idx port*Vl + v
        arange_k = np.arange(P * V, dtype=np.int64)
        self._col_port = arange_k // V
        self._col_vc = arange_k % V

        # per-lane class->VC fold: REQUEST -> 0, REPLY -> 1 % Vl
        self._reply_vc = (lane_vcs > 1).astype(np.int64)

        # buffers start empty: every credit counter holds a full window
        self._credits[:] = self._cap_f

        # ---- credit ring: row (cycle % R) drains at the start of cycle;
        # a credit issued at cycle t lands in row (t + latency) % R
        R = int(lane_lat.max()) + 1
        self._r = R
        self._cring = np.zeros(R * G, dtype=np.int64)
        self._cring_rows: list = [[] for _ in range(R)]  # scatter indices

        # ---- source queues (ring per node, flat over lanes) -------------
        cap = max(2, int(source_capacity))
        self._q_cap = cap
        self._qf_a = np.zeros(B * n * cap, dtype=np.int64)
        self._qf_b = np.zeros(B * n * cap, dtype=np.int64)
        self._q_hd = np.zeros(B * n, dtype=np.int64)
        self._q_ln = np.zeros(B * n, dtype=np.int64)
        self._next_pid = [0] * B

        # ---- per-lane delivery statistics --------------------------------
        self._d_count = np.zeros(B, dtype=np.int64)
        self._flits_delivered = np.zeros(B, dtype=np.int64)
        self._sinks: dict = {}
        # tails ejected by the last step(): (lanes, nodes, srcs, flags)
        self._last_tl = _EMPTY_I
        self._last_tnode = _EMPTY_I
        self._last_tsrc = _EMPTY_I
        self._last_tflg = _EMPTY_I

    @property
    def num_nodes(self) -> int:
        return self._n

    # ---- injection -------------------------------------------------------
    def _grow_queues(self) -> None:
        """Double source-queue capacity, normalising rings to head 0."""
        cap = self._q_cap
        queues = self.batch * self._n
        order = ((self._q_hd[:, None] + np.arange(cap)) % cap
                 + np.arange(queues, dtype=np.int64)[:, None] * cap)
        for name in ("_qf_a", "_qf_b"):
            old = getattr(self, name)
            new = np.zeros(queues * cap * 2, dtype=np.int64)
            new.reshape(queues, cap * 2)[:, :cap] = old.take(order)
            setattr(self, name, new)
        self._q_hd[:] = 0
        self._q_cap = cap * 2

    def _enqueue(self, lane: int, src: int, dst: int, size: int,
                 reply: bool) -> None:
        qi = lane * self._n + src
        while int(self._q_ln[qi]) + size > self._q_cap:
            self._grow_queues()
        pid = self._next_pid[lane]
        self._next_pid[lane] = pid + 1
        hd, ln = int(self._q_hd[qi]), int(self._q_ln[qi])
        cap = self._q_cap
        base = qi * cap
        a = (dst << _A_DST_SHIFT) | (src << _A_SRC_SHIFT) | \
            (_F_REPLY if reply else 0)
        b = (self.cycle << 32) | pid
        qf_a, qf_b = self._qf_a, self._qf_b
        for i in range(size):
            p = base + (hd + ln + i) % cap
            qf_a[p] = (a | (_F_HEAD if i == 0 else 0)
                       | (_F_TAIL if i == size - 1 else 0))
            qf_b[p] = b
        self._q_ln[qi] = ln + size

    def inject(self, lane: int, packet: Packet) -> None:
        """Queue one packet's flit train at its source on ``lane``."""
        if not 0 <= packet.src < self._n:
            raise MeshConfigError(f"source {packet.src} outside mesh")
        if not 0 <= packet.dst < self._n:
            raise MeshConfigError(f"destination {packet.dst} outside mesh")
        self._enqueue(lane, packet.src, packet.dst, packet.size,
                      packet.kind is PacketKind.REPLY)

    def source_backlog(self, lane: int, node: int) -> int:
        return int(self._q_ln[lane * self._n + node])

    def add_sink(self, lane: int, node: int, callback) -> None:
        """``callback(DeliveredPacket, cycle)`` per ejected tail there."""
        self._sinks[(lane, node)] = callback

    # ---- accounting ------------------------------------------------------
    def delivered_count(self, lane: int) -> int:
        """Packets fully ejected so far on one lane."""
        return int(self._d_count[lane])

    def delivered_flits(self, lane: int) -> int:
        """Flits ejected at LOCAL ports so far on one lane."""
        return int(self._flits_delivered[lane])

    def buffer_occupancy(self, lane: int) -> list:
        """Flit counts of every (node, port, VC) buffer, scalar order.

        Slots for folded VCs (``vc >= num_vcs[lane]``) are omitted so
        the list aligns element for element with
        :meth:`repro.noc.mesh.vc.VCMesh.buffer_occupancy`.
        """
        vl = int(self._lane_vcs[lane])
        lane_ln = self._ln.reshape(self.batch, self._n * _NUM_PORTS,
                                   self._v)[lane]
        return lane_ln[:, :vl].ravel().tolist()

    def credit_snapshot(self, lane: int) -> list:
        """Credit counters of every (node, port, VC), scalar order."""
        vl = int(self._lane_vcs[lane])
        lane_cr = self._credits.reshape(self.batch, self._n * _NUM_PORTS,
                                        self._v)[lane]
        return lane_cr[:, :vl].ravel().tolist()

    @property
    def last_ejected(self):
        """Tails ejected by the last step(): (lanes, nodes, srcs, flags)."""
        return (self._last_tl, self._last_tnode, self._last_tsrc,
                self._last_tflg)

    # ---- simulation ------------------------------------------------------
    def step(self) -> None:
        """Advance every lane one cycle (stages 1-5 + injection)."""
        V, F, G = self._v, self._f, self._g
        P = _NUM_PORTS
        cycle = self.cycle
        ln = self._ln
        hd = self._hd
        h_a = self._h_a
        h_b = self._h_b
        h_out = self._h_out
        credits = self._credits
        self._last_tl = _EMPTY_I
        self._last_tnode = _EMPTY_I
        self._last_tsrc = _EMPTY_I
        self._last_tflg = _EMPTY_I

        # ---- stage 1: credit return ------------------------------------
        row = cycle % self._r
        pend = self._cring_rows[row]
        if pend:
            base = row * G
            ring = self._cring[base:base + G]
            credits += ring
            ring[:] = 0
            del pend[:]

        # ---- stages 2-3: route compute + VC/switch allocation ----------
        # pure function of pre-cycle state (locks, credits, ready stamps)
        is_head = (h_a & _F_HEAD) != 0
        out_slot = self._nb_f + h_out * V + self._vc_f
        lockv = self._lock.take(out_slot)
        elig = ((ln != 0) & (self._h_r <= cycle)
                & (~is_head | (lockv == -1) | (lockv == h_b))
                & ((h_out == 0) | (credits.take(out_slot) > 0)))
        eg = np.flatnonzero(elig)
        granted = _EMPTY_I
        if eg.size:
            # contender bitmask per output port; bit = port*V + vc of the
            # candidate input slot (exact in float64 for V <= 8)
            out_op = self._nbop_f.take(eg) + h_out.take(eg)
            M = np.bincount(out_op, weights=self._bit_f.take(eg),
                            minlength=self._op)
            granted = np.flatnonzero(M)

        if granted.size:
            mg = M.take(granted).astype(np.int64)
            # single-contender grants decode the lone bit via frexp
            win = np.frexp(M.take(granted))[1] - 1
            multi = (mg & (mg - 1)) != 0
            if multi.any():
                gm = granted[multi]
                cols = ((gm // P) * (P * V))[:, None] + \
                    np.arange(P * V, dtype=np.int64)[None, :]
                req = elig.take(cols) & \
                    (h_out.take(cols) == self._op_port.take(gm)[:, None])
                if self.arbiter_kind == "age":
                    # oldest head wins: min B = min (birth<<32 | pid)
                    keys = np.where(req, h_b.take(cols), _NO_KEY)
                    win[multi] = keys.argmin(axis=1)
                else:
                    # replay the scalar rotation in the lane's own
                    # port*num_vcs + vc index space
                    vl = self._lane_vcs.take(self._op_lane.take(gm))
                    idx = self._col_port[None, :] * vl[:, None] + \
                        self._col_vc[None, :]
                    kl = self._op_k.take(gm)[:, None]
                    rot = (idx - self._rr_last.take(gm)[:, None] - 1) % kl
                    win[multi] = np.where(req, rot, _NO_KEY).argmin(axis=1)
            if self.arbiter_kind == "rr":
                # the pointer rotates on every grant, contended or not
                self._rr_last[granted] = \
                    (win // V) * self._lane_vcs.take(
                        self._op_lane.take(granted)) + (win % V)

            # ---- stages 4-5: switch traversal + credit issue -----------
            src_g = (granted // P) * (P * V) + win
            f_a = h_a.take(src_g)
            f_b = h_b.take(src_g)
            f_vc = src_g % V
            o_port = self._op_port.take(granted)
            og = self._nb_f.take(src_g) + o_port * V + f_vc

            f_tail = (f_a & _F_TAIL) != 0
            # wormhole locks: tails release, head-only flits acquire
            self._lock[og[f_tail]] = -1
            acq = ((f_a & _F_HEAD) != 0) & ~f_tail
            if acq.any():
                self._lock[og[acq]] = f_b[acq]
                self._body_out[src_g[acq]] = o_port[acq]

            # pop the moved flits, then re-materialise the new heads
            nh = (hd.take(src_g) + 1) % self._cap_f.take(src_g)
            hd[src_g] = nh
            nl = ln.take(src_g) - 1
            ln[src_g] = nl
            rem = nl != 0
            if rem.any():
                rs = src_g[rem]
                ri = rs * F + nh[rem]
                na = self._rf_a.take(ri)
                h_a[rs] = na
                h_b[rs] = self._rf_b.take(ri)
                self._h_r[rs] = self._rf_r.take(ri)
                rt = self._route_f.take(self._rtbase_f.take(rs)
                                        + (na >> _A_DST_SHIFT))
                h_out[rs] = np.where((na & _F_HEAD) != 0, rt,
                                     self._body_out.take(rs))

            # upstream credit for every pop from a non-LOCAL input
            in_port = self._port_f.take(src_g)
            up = in_port != 0
            if up.any():
                up_og = self._link_g.take(src_g[up])
                lat = self._lat_f.take(src_g[up])
                rows = (cycle + lat) % self._r
                np.add.at(self._cring, rows * G + up_og, 1)
                for r in np.unique(rows).tolist():
                    self._cring_rows[r].append(True)

            # ejections vs forwards
            ej = o_port == 0
            if ej.any():
                jl = self._lane_f.take(src_g[ej])
                self._flits_delivered += np.bincount(jl,
                                                     minlength=self.batch)
                tm = ej & f_tail
                if tm.any():
                    tg = src_g[tm]
                    ta = f_a[tm]
                    tl = self._lane_f.take(tg)
                    tnode = self._nbop_f.take(tg) // P % self._n
                    tsrc = (ta >> _A_SRC_SHIFT) & _A_SRC_MASK
                    self._d_count += np.bincount(tl, minlength=self.batch)
                    self._last_tl = tl
                    self._last_tnode = tnode
                    self._last_tsrc = tsrc
                    self._last_tflg = ta & (_F_REPLY | _F_HEAD | _F_TAIL)
                    if self._sinks:
                        dsts = (ta >> _A_DST_SHIFT) & _A_SRC_MASK
                        for i in range(tl.size):
                            sink = self._sinks.get((int(tl[i]),
                                                    int(tnode[i])))
                            if sink is not None:
                                kind = (PacketKind.REPLY
                                        if ta[i] & _F_REPLY
                                        else PacketKind.REQUEST)
                                sink(DeliveredPacket(int(tsrc[i]),
                                                     int(dsts[i]), kind),
                                     cycle)
            fw = ~ej
            if fw.any():
                fog = og[fw]
                credits[fog] -= 1
                dg = self._link_g.take(fog)
                m_a = f_a[fw]
                m_b = f_b[fw]
            else:
                dg = _EMPTY_I
        else:
            dg = _EMPTY_I

        # ---- injection: one flit per node per cycle into LOCAL ---------
        # (forwards only target ports 1-4, so this check sees exactly the
        # scalar engine's post-pop LOCAL state)
        q_ln = self._q_ln
        iq = np.flatnonzero(q_ln)
        ig = _EMPTY_I
        if iq.size:
            cap = self._q_cap
            qh = self._q_hd.take(iq)
            qi = iq * cap + qh
            i_a = self._qf_a.take(qi)
            # LOCAL input slot of the head flit's class VC on its lane
            vc = np.where((i_a & _F_REPLY) != 0,
                          self._reply_vc.take(iq // self._n), 0)
            lg = (iq // self._n) * self._spl \
                + (iq % self._n) * (P * V) + vc
            can = ln.take(lg) < self._cap_f.take(lg)
            if can.any():
                iq = iq[can]
                qi = qi[can]
                i_a = i_a[can]
                ig = lg[can]
                i_b = self._qf_b.take(qi)
                self._q_hd[iq] = (qh[can] + 1) % cap
                q_ln[iq] -= 1

        # ---- merged push: forwards (ports 1-4) + injections (LOCAL) ----
        if dg.size and ig.size:
            tgt = np.concatenate((dg, ig))
            p_a = np.concatenate((m_a, i_a))
            p_b = np.concatenate((m_b, i_b))
        elif dg.size:
            tgt, p_a, p_b = dg, m_a, m_b
        elif ig.size:
            tgt, p_a, p_b = ig, i_a, i_b
        else:
            tgt = _EMPTY_I
        if tgt.size:
            dl = ln.take(tgt)
            pos = (hd.take(tgt) + dl) % self._cap_f.take(tgt)
            ri = tgt * F + pos
            ready = cycle + self.pipeline_stages
            self._rf_a[ri] = p_a
            self._rf_b[ri] = p_b
            self._rf_r[ri] = ready
            ln[tgt] = dl + 1
            fresh = dl == 0
            if fresh.any():
                fs = tgt[fresh]
                fa = p_a[fresh]
                h_a[fs] = fa
                h_b[fs] = p_b[fresh]
                self._h_r[fs] = ready
                rt = self._route_f.take(self._rtbase_f.take(fs)
                                        + (fa >> _A_DST_SHIFT))
                h_out[fs] = np.where((fa & _F_HEAD) != 0, rt,
                                     self._body_out.take(fs))

        self.cycle += 1

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise MeshConfigError("cannot run negative cycles")
        step = self.step
        for _ in range(cycles):
            step()


# ---------------------------------------------------------------------------
# Batched shared request/reply experiment (exact replay per lane)
# ---------------------------------------------------------------------------

def batched_vc_grid(vc_counts=(1, 2), buffer_depths=(4,),
                    credit_latencies=(1,), injection_rates=(None,),
                    seeds=(0,), width: int = 6, height: int = 6,
                    cycles: int = 8000, reply_flits: int = 5,
                    window: int = 100) -> list:
    """Every grid point of the shared-network sweep as one lockstep run.

    One lane per (num_vcs, buffer_flits, credit_latency, injection_rate,
    seed) combination, in the scalar :func:`~repro.noc.mesh.vc
    .sweep_vc_grid` row-major order; each lane's traffic replays the
    scalar draws on its own ``(seed, "shared-net", num_vcs)`` stream.
    """
    grid = [(v, d, la, ra, s)
            for v in vc_counts for d in buffer_depths
            for la in credit_latencies for ra in injection_rates
            for s in seeds]
    return batched_vc_points(grid, width=width, height=height,
                             cycles=cycles, reply_flits=reply_flits,
                             window=window)


def batched_vc_points(points, *, width: int = 6, height: int = 6,
                      cycles: int = 8000, reply_flits: int = 5,
                      window: int = 100) -> list:
    """An explicit list of ``(num_vcs, buffer_flits, credit_latency,
    injection_rate, seed)`` points as one lockstep run, one lane each.

    This is :func:`batched_vc_grid` minus the cross-product: lanes are
    mutually independent (each replays its own traffic stream), so any
    sub-list of a grid — e.g. one shard of a ``jobs``-parallel sweep —
    produces exactly the lanes the full grid would.
    """
    grid = [tuple(point) for point in points]
    if not grid:
        return []
    if cycles <= 0 or window <= 0 or cycles < window:
        raise MeshConfigError("need cycles >= window > 0")
    if reply_flits <= 0:
        raise MeshConfigError("reply_flits must be positive")
    for _v, _d, _la, rate, _s in grid:
        if rate is not None and not 0 < rate <= 1:
            raise MeshConfigError("injection_rate must be in (0, 1]")
    mesh = BatchedVCMesh(
        width, height,
        num_vcs=tuple(v for v, _d, _la, _ra, _s in grid),
        buffer_flits=tuple(d for _v, d, _la, _ra, _s in grid),
        credit_latency=tuple(la for _v, _d, la, _ra, _s in grid))
    n = mesh.num_nodes
    batch = len(grid)
    mc_nodes = default_mc_nodes(width, height)
    mc_set = frozenset(mc_nodes)
    n_mc = len(mc_nodes)
    compute = [node for node in range(n) if node not in mc_set]
    streams = [make_stream(s, "shared-net", v)
               for v, _d, _la, _ra, s in grid]
    rates = [ra for _v, _d, _la, ra, _s in grid]
    pending = [{mc: deque() for mc in mc_nodes} for _ in range(batch)]
    serviced = [0] * batch
    in_window = [0] * batch
    samples: list = [[] for _ in range(batch)]
    enqueue = mesh._enqueue
    q_ln = mesh._q_ln
    reply_limit = 2 * reply_flits

    for cycle in range(cycles):
        backlog = q_ln.tolist()       # each queue is checked before any
        for lane in range(batch):     # same-cycle enqueue touches it
            base = lane * n
            stream = streams[lane]
            rate = rates[lane]
            integers = stream.integers
            for node in compute:
                if backlog[base + node] < 4:
                    if rate is not None and stream.random() >= rate:
                        continue
                    enqueue(lane, node, mc_nodes[integers(n_mc)], 1, False)
            lane_pending = pending[lane]
            for mc in mc_nodes:
                if lane_pending[mc] and backlog[base + mc] < reply_limit:
                    src = lane_pending[mc].popleft()
                    enqueue(lane, mc, src, reply_flits, True)
                    serviced[lane] += 1
                    in_window[lane] += 1
        mesh.step()
        tl, tnode, tsrc, tflg = mesh.last_ejected
        for i in range(tl.size):
            if not tflg[i] & _F_REPLY and tnode[i] in mc_set:
                pending[int(tl[i])][int(tnode[i])].append(int(tsrc[i]))
        if (cycle + 1) % window == 0:
            scale = window * n_mc
            for lane in range(batch):
                samples[lane].append(in_window[lane] / scale)
                in_window[lane] = 0

    results = []
    for lane, (v, d, la, ra, s) in enumerate(grid):
        util = np.array(samples[lane])
        results.append(SharedNetworkResult(
            num_vcs=v, buffer_flits=d, credit_latency=la, width=width,
            height=height, cycles=cycles, reply_flits=reply_flits,
            seed=s, injection_rate=ra, serviced_requests=serviced[lane],
            utilization=util,
            mean_utilization=float(util.mean()) if samples[lane] else 0.0,
            peak_utilization=float(util.max()) if samples[lane] else 0.0,
            window=window))
    return results


def batched_shared_network_experiment(num_vcs: int, width: int = 6,
                                      height: int = 6, cycles: int = 8000,
                                      reply_flits: int = 5, seed: int = 0,
                                      buffer_flits: int = 4,
                                      credit_latency: int = 1,
                                      window: int = 100,
                                      injection_rate: float | None = None
                                      ) -> SharedNetworkResult:
    """One shared request/reply configuration as a single-lane grid."""
    return batched_vc_grid(
        vc_counts=(num_vcs,), buffer_depths=(buffer_flits,),
        credit_latencies=(credit_latency,),
        injection_rates=(injection_rate,), seeds=(seed,), width=width,
        height=height, cycles=cycles, reply_flits=reply_flits,
        window=window)[0]
