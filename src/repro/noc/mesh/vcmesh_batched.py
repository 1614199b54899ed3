"""Batched struct-of-arrays kernel for the credit-based VC mesh.

:class:`repro.noc.mesh.vc.VCMesh` interprets one credit-based wormhole
router mesh, one flit at a time, through Python dicts and deques; a
Fig 21/23-class sweep over VC counts x buffer depths x credit latencies
x injection rates x seeds pays that interpreter once per grid point.
This module simulates **the whole grid in lockstep** as flat NumPy
arrays, one *lane* per grid point — the same struct-of-arrays design as
:mod:`repro.noc.mesh.fastmesh` (the two kernels share
:mod:`repro.noc.mesh.lanes` and import nothing from each other),
extended along the VC axis:

* the global slot id is ``g = ((lane*n + node)*P + port)*V + vc`` with
  ``V`` the widest lane's VC count; per-slot capacity / credit-latency
  arrays give each lane its own buffer depth and credit loop;
* with a multi-stage pipeline a third ring array carries each flit's
  *ready cycle* (the buffer-write -> route-compute -> VC-allocation
  stamp); a one-stage pipeline keeps no stamps, as every flit is due
  the cycle after it lands;
* per-(output, VC) credit counters are decremented at switch traversal
  and returned through a ``(max_latency+1) x G`` credit ring whose row
  ``(cycle + lane_latency) % R`` collects the cycle's issued credits;
  a per-row dirty flag skips the drain of rows that hold none;
* switch allocation is per *output port* across all of its VCs, and
  eligibility is evaluated on the occupied input slots only: the
  contender bitmask packs candidate index ``port*V + vc``; round-robin
  takes the lowest set bit of the mask rotated to the output's scan
  start (the scalar pointer's ``port*num_vcs + vc`` order is the same
  order restricted to the lane's VCs), and age decodes a lone
  contender with ``frexp`` and compares B words otherwise;
* injected packets are deferred and enqueued once per step by
  :class:`repro.noc.mesh.lanes.SourceQueues` (shared with
  :mod:`~repro.noc.mesh.fastmesh`): the flush expands every packet into
  its flit train with ``np.repeat``, sets HEAD/TAIL from each flit's
  offset, keeps inject order within each source queue and grows the
  queues when needed.  Packet ids count up in inject order, which is
  all the age arbiter's tie break needs;
* delivery counters fold lazily from per-step ejection records; the
  accessors fold before they read.

The contract is the one every fast engine here holds: **flit-for-flit
and statistic-identical** to the scalar golden model, asserted per
cycle by ``tests/test_vcmesh_equivalence.py`` (buffer occupancies,
credit counters, delivery counters) and across random geometries by the
registry fuzz harness.  Traffic replays the scalar draws through
:func:`repro.noc.mesh.lanes.make_stream` on the identical
``(seed, "shared-net", num_vcs)`` key.

Entry points mirror the scalar experiment APIs and return the same
:class:`~repro.noc.mesh.vc.SharedNetworkResult`:
:func:`batched_shared_network_experiment` and :func:`batched_vc_grid`
(with :func:`batched_vc_points` taking an explicit lane list: one
contiguous block of a ``jobs``-parallel sweep).  Engines resolve
through the :mod:`repro.engines` registry (domain ``"vcmesh"``, this
kernel is ``"batched"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import MeshConfigError
from repro.noc.mesh.flit import Packet, PacketKind
from repro.noc.mesh.lanes import (_A_DST_SHIFT, _A_SRC_MASK, _A_SRC_SHIFT,
                                  _EMPTY_I, _F_HEAD, _F_REPLY, _F_TAIL,
                                  _MAX_NODES, _MAX_PACKET_FLITS, _NO_KEY,
                                  _NUM_PORTS, _OPP, _PEND_Q_SHIFT,
                                  _PEND_SIZE_SHIFT, SourceQueues,
                                  check_lane, make_stream, neighbor_nodes,
                                  route_table)
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.vc import SharedNetworkResult

#: candidate bitmasks stay exact in float64 bincount weights up to here
_MAX_VCS = 8

# steps of ejection records folded into the delivery counters at once:
# exact at any value (integer counts); small enough that the record
# lists stay a few KiB per lane
_STATS_FOLD_STEPS = 64


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
        # source queues (ring per node, flat over lanes); built first, as
        # it rejects lane counts the deferred-enqueue code cannot pack
        self._queues = SourceQueues(batch * n, source_capacity)
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
        # ring stride: a power of two >= every lane's depth, so ring
        # positions wrap with a mask (a lane never holds more than its
        # own depth, whatever the stride)
        F = 1 << (max(buffer_flits) - 1).bit_length()
        B = batch
        self._v = V
        self._f = F
        self._fmask = F - 1
        spl = n * P * V                   # slots per lane
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
        self._hd = np.zeros(G, dtype=np.int64)
        self._ln = np.zeros(G, dtype=np.int64)
        self._h_a = np.zeros(G, dtype=np.int64)
        self._h_b = np.zeros(G, dtype=np.int64)
        self._h_out = np.zeros(G, dtype=np.int64)
        # ready stamps: with a one-stage pipeline every buffered flit is
        # already due at the next cycle, so the stamps are not kept
        self._staged = pipeline_stages > 1
        if self._staged:
            self._rf_r = np.zeros(G * F, dtype=np.int64)
            self._h_r = np.zeros(G, dtype=np.int64)

        # ---- router state ----------------------------------------------
        self._lock = np.full(G, -1, dtype=np.int64)     # per (out, vc)
        self._body_out = np.zeros(G, dtype=np.int64)    # per (in, vc)
        self._credits = np.zeros(G, dtype=np.int64)     # per (out, vc)
        # rr scan start per output port, as a candidate column
        # j = port*V + vc: the scalar pointer walks port*Vl + vc, which
        # orders a lane's own VCs exactly as j does, so the rotation
        # replays in the global column space (first grant scans from 0)
        self._rr_next = np.zeros(OP, dtype=np.int64)

        # ---- precomputed flat topology ----------------------------------
        gf = np.arange(G, dtype=np.int64)
        vc_f = gf % V
        port_f = (gf // V) % P
        node_f = (gf // (P * V)) % n
        lane_f = gf // spl
        # output slot of (node, vc) minus port*V: the node's block base
        # plus the slot's own VC
        self._nbvc_f = gf - port_f * V
        self._cap_f = lane_cap.take(lane_f)
        self._bit_f = (1 << (port_f * V + vc_f)).astype(np.float64)
        self._route_f = route_table(width, height)
        self._rtbase_f = node_f * n
        # link map: slot (node, port, vc) <-> (nbr(node, port), OPP, vc)
        # — downstream input slot of an output channel AND upstream
        # output slot of an input channel (the link is symmetric)
        nbr_node = neighbor_nodes(width, height)
        opp = np.array(_OPP, dtype=np.int64)
        link = (nbr_node[node_f, port_f] * P * V
                + opp.take(port_f) * V + vc_f)
        # boundary ports never carry traffic (XY routing): clip to 0
        self._link_g = np.maximum(link, 0) + lane_f * spl

        opf = np.arange(OP, dtype=np.int64)
        self._op_port = opf % P
        self._op_node = opf // P % n
        self._op_lane = opf // (P * n)
        self._arange_k = np.arange(P * V, dtype=np.int64)
        self._k_mask = (1 << (P * V)) - 1

        # LOCAL input slot of each source queue's request and reply
        # class VCs (class -> VC fold: REQUEST -> 0, REPLY -> 1 % Vl)
        qf = np.arange(B * n, dtype=np.int64)
        self._q_local = qf // n * spl + qf % n * (P * V)
        self._q_reply = self._q_local + np.repeat(
            (lane_vcs > 1).astype(np.int64), n)

        # buffers start empty: every credit counter holds a full window
        self._credits[:] = self._cap_f

        # ---- credit ring: row (cycle % R) drains at the start of cycle;
        # a credit issued at cycle t lands in row (t + latency) % R, at
        # flat index (t*G + _cr_off[g]) % (R*G) for a pop from slot g
        R = int(lane_lat.max()) + 1
        self._r = R
        self._cring = np.zeros(R * G, dtype=np.int64)
        self._cring_dirty = np.zeros(R, dtype=bool)     # row holds credits
        self._lats = np.unique(lane_lat)    # rows a cycle's credits hit
        self._cr_off = self._link_g + lane_lat.take(lane_f) * G

        # ---- per-lane delivery statistics (folded lazily) ---------------
        self._d_count = np.zeros(B, dtype=np.int64)
        self._flits_delivered = np.zeros(B, dtype=np.int64)
        self._fd_pend: list = []        # lanes of ejected flits, per step
        self._tl_pend: list = []        # lanes of ejected tails, per step
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
    def inject(self, lane: int, packet: Packet) -> None:
        """Queue one packet's flit train at its source on ``lane``."""
        check_lane(lane, self.batch)
        if not 0 <= packet.src < self._n:
            raise MeshConfigError(f"source {packet.src} outside mesh")
        if not 0 <= packet.dst < self._n:
            raise MeshConfigError(f"destination {packet.dst} outside mesh")
        self._queues.defer(
            lane * self._n + packet.src, packet.size,
            (packet.dst << _A_DST_SHIFT) | (packet.src << _A_SRC_SHIFT)
            | (_F_REPLY if packet.kind is PacketKind.REPLY else 0))

    def source_backlog(self, lane: int, node: int) -> int:
        check_lane(lane, self.batch)
        return self._queues.backlog(lane * self._n + node)

    def add_sink(self, lane: int, node: int, callback) -> None:
        """``callback(DeliveredPacket, cycle)`` per ejected tail there."""
        check_lane(lane, self.batch)
        self._sinks[(lane, node)] = callback

    # ---- accounting ------------------------------------------------------
    def _flush_stats(self) -> None:
        """Fold the deferred per-step ejection records into the counters."""
        if self._fd_pend:
            self._flits_delivered += np.bincount(
                np.concatenate(self._fd_pend), minlength=self.batch)
            del self._fd_pend[:]
        if self._tl_pend:
            self._d_count += np.bincount(np.concatenate(self._tl_pend),
                                         minlength=self.batch)
            del self._tl_pend[:]

    def delivered_count(self, lane: int) -> int:
        """Packets fully ejected so far on one lane."""
        check_lane(lane, self.batch)
        self._flush_stats()
        return int(self._d_count[lane])

    def delivered_flits(self, lane: int) -> int:
        """Flits ejected at LOCAL ports so far on one lane."""
        check_lane(lane, self.batch)
        self._flush_stats()
        return int(self._flits_delivered[lane])

    def buffer_occupancy(self, lane: int) -> list:
        """Flit counts of every (node, port, VC) buffer, scalar order.

        Slots for folded VCs (``vc >= num_vcs[lane]``) are omitted so
        the list aligns element for element with
        :meth:`repro.noc.mesh.vc.VCMesh.buffer_occupancy`.
        """
        check_lane(lane, self.batch)
        vl = int(self._lane_vcs[lane])
        lane_ln = self._ln.reshape(self.batch, self._n * _NUM_PORTS,
                                   self._v)[lane]
        return lane_ln[:, :vl].ravel().tolist()

    def credit_snapshot(self, lane: int) -> list:
        """Credit counters of every (node, port, VC), scalar order."""
        check_lane(lane, self.batch)
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
        fmask = self._fmask
        P = _NUM_PORTS
        cycle = self.cycle
        staged = self._staged
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
        if self._cring_dirty[row]:
            base = row * G
            ring = self._cring[base:base + G]
            credits += ring
            ring[:] = 0
            self._cring_dirty[row] = False

        # ---- stages 2-3: route compute + VC/switch allocation ----------
        # pure function of pre-cycle state (locks, credits, ready stamps),
        # evaluated on the occupied slots only.  A head needs its output
        # lock free or its own; a body flit always finds its own packet's
        # lock there (held from head to tail), so one test covers both.
        # LOCAL outputs never spend credits, so their counters stay full.
        occ = (ln != 0).nonzero()[0]
        out_slot = self._nbvc_f.take(occ) + h_out.take(occ) * V
        lockv = self._lock.take(out_slot)
        ok = (((lockv == -1) | (lockv == h_b.take(occ)))
              & (credits.take(out_slot) > 0))
        if staged:
            ok &= self._h_r.take(occ) <= cycle
        ok = ok.nonzero()[0]
        granted = _EMPTY_I
        if ok.size:
            # contender bitmask per output port; bit = port*V + vc of the
            # candidate input slot (exact in float64 for V <= 8)
            eg = occ.take(ok)
            out_op = out_slot.take(ok) // V
            M = np.bincount(out_op, weights=self._bit_f.take(eg),
                            minlength=self._op)
            granted = (M != 0).nonzero()[0]

        if granted.size:
            K = P * V
            mg = M.take(granted).astype(np.int64)
            if self.arbiter_kind == "rr":
                # first contender at or after the scan start, cyclically:
                # the lowest set bit of the mask rotated right by it
                start = self._rr_next.take(granted)
                rot = ((mg >> start) | (mg << (K - start))) & self._k_mask
                win = (np.frexp(rot & -rot)[1] - 1 + start) % K
                self._rr_next[granted] = (win + 1) % K
            else:
                # a lone contender's bit decodes via frexp; contended
                # outputs pick the oldest head: min B = min (birth<<32|pid)
                win = np.frexp(M.take(granted))[1] - 1
                multi = ((mg & (mg - 1)) != 0).nonzero()[0]
                if multi.size:
                    cols = ((granted.take(multi) // P) * K)[:, None] \
                        + self._arange_k
                    req = ((mg.take(multi)[:, None] >> self._arange_k)
                           & 1) != 0
                    keys = np.where(req, h_b.take(cols), _NO_KEY)
                    win[multi] = keys.argmin(axis=1)

            # ---- stages 4-5: switch traversal + credit issue -----------
            src_g = (granted // P) * K + win
            f_a = h_a.take(src_g)
            f_b = h_b.take(src_g)
            o_port = self._op_port.take(granted)
            og = self._nbvc_f.take(src_g) + o_port * V

            is_tail = (f_a & _F_TAIL) != 0
            # wormhole locks: tails release, head-only flits acquire
            self._lock[og[is_tail]] = -1
            acq = ((f_a & (_F_HEAD | _F_TAIL)) == _F_HEAD).nonzero()[0]
            if acq.size:
                self._lock[og.take(acq)] = f_b.take(acq)
                self._body_out[src_g.take(acq)] = o_port.take(acq)

            # pop the moved flits (their new heads are read after the
            # push); one grant per output, so src_g has no repeats
            hd[src_g] = (hd.take(src_g) + 1) & fmask
            ln[src_g] = ln.take(src_g) - 1

            # upstream credit for every pop from a non-LOCAL input; each
            # upstream (output, VC) gets at most one credit per cycle, so
            # the scatter indices are unique
            up = (win >= V).nonzero()[0]
            if up.size:
                self._cring[(self._cr_off.take(src_g.take(up)) + cycle * G)
                            % self._cring.size] += 1
                self._cring_dirty[(cycle + self._lats) % self._r] = True

            # ejections vs forwards
            is_ej = o_port == 0
            ej = is_ej.nonzero()[0]
            if ej.size:
                self._fd_pend.append(self._op_lane.take(granted.take(ej)))
                te = (is_ej & is_tail).nonzero()[0]
                if te.size:
                    tg = granted.take(te)
                    ta = f_a.take(te)
                    tl = self._op_lane.take(tg)
                    tnode = self._op_node.take(tg)
                    tsrc = (ta >> _A_SRC_SHIFT) & _A_SRC_MASK
                    self._tl_pend.append(tl)
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
            fw = (~is_ej).nonzero()[0]
            fog = og.take(fw)
            credits[fog] -= 1
            dg = self._link_g.take(fog)
            m_a = f_a.take(fw)
            m_b = f_b.take(fw)
        else:
            src_g = dg = _EMPTY_I

        # ---- injection: one flit per node per cycle into LOCAL ---------
        # (forwards only target ports 1-4, so this check sees exactly the
        # scalar engine's post-pop LOCAL state)
        queues = self._queues
        queues.flush(cycle)
        q_ln = queues.ln
        iq = (q_ln != 0).nonzero()[0]
        ig = _EMPTY_I
        if iq.size:
            cap = queues.cap
            qh = queues.hd.take(iq)
            qi = iq * cap + qh
            i_a = queues.a.take(qi)
            # LOCAL input slot of the head flit's class VC on its lane
            lg = np.where((i_a & _F_REPLY) != 0, self._q_reply.take(iq),
                          self._q_local.take(iq))
            can = (ln.take(lg) < self._cap_f.take(lg)).nonzero()[0]
            if can.size:
                iq = iq.take(can)
                qi = qi.take(can)
                i_a = i_a.take(can)
                ig = lg.take(can)
                i_b = queues.b.take(qi)
                queues.hd[iq] = (qh.take(can) + 1) % cap
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
            ri = tgt * F + ((hd.take(tgt) + dl) & fmask)
            self._rf_a[ri] = p_a
            self._rf_b[ri] = p_b
            if staged:
                self._rf_r[ri] = cycle + self.pipeline_stages
            ln[tgt] = dl + 1

        # ---- head caches: re-read the head of every slot a flit left
        # or entered (an emptied slot's stale head is never read) -------
        touched = np.concatenate((src_g, tgt))
        if touched.size:
            ri = touched * F + hd.take(touched)
            na = self._rf_a.take(ri)
            h_a[touched] = na
            h_b[touched] = self._rf_b.take(ri)
            if staged:
                self._h_r[touched] = self._rf_r.take(ri)
            rt = self._route_f.take(self._rtbase_f.take(touched)
                                    + (na >> _A_DST_SHIFT))
            h_out[touched] = np.where((na & _F_HEAD) != 0, rt,
                                      self._body_out.take(touched))

        self.cycle += 1
        if len(self._fd_pend) >= _STATS_FOLD_STEPS:
            self._flush_stats()

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise MeshConfigError("cannot run negative cycles")
        step = self.step
        for _ in range(cycles):
            step()


# ---------------------------------------------------------------------------
# Batched shared request/reply experiment (exact replay per lane)
# ---------------------------------------------------------------------------

class _SharedNetLane:
    """One lane's shared request/reply traffic over a :class:`BatchedVCMesh`.

    Replays the scalar :func:`~repro.noc.mesh.vc
    .run_shared_network_experiment` loop draw for draw: each compute
    node with fewer than four queued flits draws (Bernoulli, then
    destination MC) and sends a one-flit request; each MC with a pending
    request and room in its queue sends a ``reply_flits`` reply back.
    ``feed`` is a closure over the lane's constants (queue ids, packed
    enqueue codes) that appends to the mesh's deferred-enqueue batch.
    """

    __slots__ = ("pending", "feed")

    def __init__(self, mesh: BatchedVCMesh, lane: int, mc_nodes,
                 reply_flits: int, stream, rate: float | None):
        base = lane * mesh.num_nodes
        mc_set = frozenset(mc_nodes)
        #: requester node ids per MC, in ejection order
        self.pending = {mc: deque() for mc in mc_nodes}
        # packed codes: queue id + one-flit request from the node
        requests = [(base + node, ((base + node) << _PEND_Q_SHIFT)
                     | (node << _A_SRC_SHIFT))
                    for node in range(mesh.num_nodes) if node not in mc_set]
        mc_codes = [mc << _A_DST_SHIFT for mc in mc_nodes]
        replies = [(base + mc, self.pending[mc],
                    ((base + mc) << _PEND_Q_SHIFT)
                    | ((reply_flits - 1) << _PEND_SIZE_SHIFT)
                    | (mc << _A_SRC_SHIFT) | _F_REPLY)
                   for mc in mc_nodes]
        n_mc = len(mc_nodes)
        reply_limit = 2 * reply_flits
        append = mesh._queues.pend.append
        extend = mesh._queues.pend.extend
        uniform = stream.random
        integers = stream.integers

        def feed(backlog: list) -> int:
            """Enqueue this cycle's packets; returns the replies sent."""
            if rate is None:
                extend([code | mc_codes[integers(n_mc)]
                        for qi, code in requests if backlog[qi] < 4])
            else:
                for qi, code in requests:
                    if backlog[qi] < 4 and uniform() < rate:
                        append(code | mc_codes[integers(n_mc)])
            served = 0
            for qi, queue, code in replies:
                if queue and backlog[qi] < reply_limit:
                    append(code | (queue.popleft() << _A_DST_SHIFT))
                    served += 1
            return served

        self.feed = feed


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
    if reply_flits > _MAX_PACKET_FLITS:
        raise MeshConfigError(
            f"batched engine packets hold at most {_MAX_PACKET_FLITS} flits")
    mesh = BatchedVCMesh(
        width, height,
        num_vcs=tuple(v for v, _d, _la, _ra, _s in grid),
        buffer_flits=tuple(d for _v, d, _la, _ra, _s in grid),
        credit_latency=tuple(la for _v, _d, la, _ra, _s in grid))
    mc_nodes = default_mc_nodes(width, height)
    n_mc = len(mc_nodes)
    lanes = [_SharedNetLane(mesh, lane, mc_nodes, reply_flits,
                            make_stream(s, "shared-net", v), ra)
             for lane, (v, _d, _la, ra, s) in enumerate(grid)]
    feeds = [lane.feed for lane in lanes]
    pending = [lane.pending for lane in lanes]
    serviced = [0] * len(grid)
    in_window = [0] * len(grid)
    samples: list = [[] for _ in grid]
    q_ln = mesh._queues.ln
    step = mesh.step

    for cycle in range(cycles):
        # every queue is read before any same-cycle enqueue lands: the
        # enqueues stay deferred until step() flushes them
        backlog = q_ln.tolist()
        for lane, feed in enumerate(feeds):
            served = feed(backlog)
            if served:
                serviced[lane] += served
                in_window[lane] += served
        step()
        tl, tnode, tsrc, tflg = mesh.last_ejected
        if tl.size:
            # request tails eject only at the MCs they were sent to
            req = (tflg & _F_REPLY) == 0
            for lane, node, src in zip(tl[req].tolist(),
                                       tnode[req].tolist(),
                                       tsrc[req].tolist()):
                pending[lane][node].append(src)
        if (cycle + 1) % window == 0:
            scale = window * n_mc
            for lane, row in enumerate(samples):
                row.append(in_window[lane] / scale)
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
