"""Batched struct-of-arrays cycle kernel for the 2-D mesh (fast engine).

The golden model, :func:`~repro.noc.mesh.vc.one_vc_mesh` (a one-VC
:class:`~repro.noc.mesh.vc.VCMesh`), interprets one mesh, one flit at a
time, through Python objects; every load-curve point, fairness arbiter
and reply-bottleneck mesh pays that interpreter again.  This module
simulates **B independent mesh instances in lockstep** as flat NumPy
arrays — buffer rings, head caches, wormhole locks, per-port
round-robin pointers and source queues all stored as per-field 1-D
arrays indexed by one global slot id
``g = lane*slots + node*ports + port`` — so an entire load sweep (every
arbiter x seed x injection rate, :func:`batched_load_curves`) runs as
ONE batched simulation, and so do the rr-vs-age fairness lanes
(:func:`batched_fairness_experiments`) and the reply-bottleneck
request/reply mesh pair (:func:`batched_reply_bottleneck`).

The contract is **flit-for-flit and statistic-identical** results
against that one-VC golden model.  Three properties make the
vectorisation exact:

* every downstream input buffer has exactly one upstream (router,
  output-port) contender per cycle, and with a one-cycle credit loop the
  scalar router's credit counter equals that buffer's free space at the
  start of the cycle, so the credit check is a pure function of
  pre-cycle state;
* the scalar traffic classes interleave ``Generator.random()`` and
  ``Generator.integers(n)`` draws on one ``repro.rng`` stream, which
  :func:`repro.noc.mesh.lanes.make_stream` replays *exactly* from
  ``bit_generator.random_raw()`` blocks (an install-time self-check
  falls back to the real per-lane ``Generator`` on mismatch — always
  correct, just slower);
* source-queue enqueues and delivery statistics commute with the cycle
  loop — a source reads only its own node's backlog, and every packet
  injected in a cycle enters its queue in inject order before that
  cycle's injection phase, so deferring the enqueues to one bulk flush
  per cycle (:class:`repro.noc.mesh.lanes.SourceQueues`, shared with
  the VC kernel) and folding delivery stats into per-lane counters
  lazily reproduces the scalar order bit for bit.

With a few lanes a step costs about one microsecond per NumPy call, so
:meth:`BatchedMesh.step` keeps the count low: it schedules on the
occupied slots' ids, arbitrates with one pick-table lookup per grant
(the round-robin pointer or the age lanes' row selects the table row),
writes every granted output's wormhole lock once, sends eject outputs'
credit checks to an always-empty sentinel slot, and re-reads the head
of every slot a flit left or entered once, after the merged push.
DESIGN.md §12 gives the argument why each of these is exact.  Where
the host can build it, each step instead runs as one call of the
compiled one-VC step (:mod:`repro.noc.mesh.onevc_step`), which leaves
every array bit-identical; the NumPy step is its reference and its
fallback.  The same build holds the compiled *run*: the entry points'
cycle loop (:class:`_MeshRun`: every lane's traffic source, the reply
pair's memory controllers, the step and the collect) as one C call per
stretch of cycles (the warm-up, then the measured window), drawing
each lane's PCG64 stream word for word as the Python feeds do.  The
Python feeds and the per-cycle step are its reference and its fallback.

Entry points mirror the scalar experiment APIs and return the same
result dataclasses: :func:`batched_sweep_load`,
:func:`batched_load_curves`, :func:`batched_fairness_experiment(s)` and
:func:`batched_reply_bottleneck`.  ``tests/test_fastmesh_equivalence.py``
asserts exact equality on every covered configuration, and the REP004
lint rule keeps the scalar and batched surfaces from drifting.
"""

from __future__ import annotations

import ctypes
from array import array
from collections import deque

import numpy as np

from repro.errors import MeshConfigError
from repro.noc.mesh import onevc_step
from repro.noc.mesh.lanes import (_A_DST_SHIFT, _A_FLG_MASK, _A_SRC_MASK,
                                  _A_SRC_SHIFT, _EMPTY_I, _F_HEAD, _F_REPLY,
                                  _F_TAIL, _MAX_NODES, _MAX_PACKET_FLITS,
                                  _NO_KEY, _NUM_PORTS,
                                  _OPP, _PEND_Q_SHIFT, _RawStream,
                                  SourceQueues, check_lane, make_stream,
                                  neighbor_nodes, route_table)
from repro.noc.mesh.routing import default_mc_nodes
from repro.noc.mesh.vc import DeliveryStats

# _PICK_F[row + mask] is the input port granted among the ports set in
# the 5-bit candidate ``mask``.  An output's ``row`` is ``32*last`` on an
# rr lane: rotating priority from the last winner ``last`` (the scalar
# one-VC ``VCRouter.grant`` round-robin as one table lookup).  Age lanes
# use row ``_AGE_ROW``: the lone contender's port, or -1 when several
# contend (the kernel then picks the oldest head).  _NEXT_ROW_F at the
# same index is the row the output's next grant reads: the winner's row
# on rr lanes, the age row again on age lanes.
_AGE_ROW = _NUM_PORTS * 32
_RR_PICK = [next((idx for off in range(1, _NUM_PORTS + 1)
                  for idx in [(last + off) % _NUM_PORTS]
                  if mask >> idx & 1), 0)
            for last in range(_NUM_PORTS) for mask in range(32)]
_AGE_PICK = [(mask.bit_length() - 1 if mask & (mask - 1) == 0 else -1)
             for mask in range(32)]
_PICK_F = np.array(_RR_PICK + _AGE_PICK, dtype=np.int64)
_NEXT_ROW_F = np.array([port * 32 for port in _RR_PICK]
                       + [_AGE_ROW] * 32, dtype=np.int64)
_SH32 = np.int64(32)
_ARANGE5 = np.arange(_NUM_PORTS, dtype=np.int64)

# cycles of deferred delivery records folded into the counters at once:
# bounds the pending arrays; exact at any value, because latencies are
# integer-valued floats far below 2**53, so no fold order changes a sum
_STATS_FLUSH_CYCLES = 256


class BatchedMesh:
    """``B`` independent one-VC ``VCMesh`` instances stepped in lockstep.

    Per-lane arbiter kinds may differ (the fairness pair runs rr and age
    side by side).  Delivered packets update :class:`DeliveryStats`-shaped
    per-lane arrays, never Python objects.

    All router state lives in per-field flat arrays indexed by the
    global slot id ``g = lane*slots + node*5 + port``; an *output*
    slot's ``g`` doubles as its wormhole-lock index and its
    arbitration-grant index, and a ring position ``p`` of slot ``g``
    lives at flat index ``g*F + p``.  The whole schedule/apply phase
    runs as a short fixed sequence of 1-D NumPy ops regardless of lane
    count.  The NumPy step defers source enqueues and delivery
    statistics into per-cycle batches (see the module docstring for why
    that is exact); the compiled step does both inside its one call.
    """

    def __init__(self, width: int, height: int, batch: int,
                 buffer_flits: int = 8, arbiter_kinds="rr",
                 source_capacity: int = 8):
        if width <= 0 or height <= 0:
            raise MeshConfigError("mesh dimensions must be positive")
        if buffer_flits <= 0:
            raise MeshConfigError("buffer_flits must be positive")
        if batch <= 0:
            raise MeshConfigError("batch must be positive")
        if isinstance(arbiter_kinds, str):
            arbiter_kinds = (arbiter_kinds,) * batch
        arbiter_kinds = tuple(arbiter_kinds)
        if len(arbiter_kinds) != batch:
            raise MeshConfigError("need one arbiter kind per lane")
        for kind in arbiter_kinds:
            if kind not in ("rr", "age"):
                raise MeshConfigError(f"unknown arbiter kind {kind!r}")
        n = width * height
        if n > _MAX_NODES:
            raise MeshConfigError("mesh too large for the batched engine")
        # source queues (ring per node, flat over lanes); built first, as
        # it rejects lane counts the deferred-enqueue code cannot pack
        self._queues = SourceQueues(batch * n, source_capacity)
        self.width = width
        self.height = height
        self.batch = batch
        self.buffer_flits = buffer_flits
        self.arbiter_kinds = arbiter_kinds
        self._n = n
        slots = n * _NUM_PORTS
        self._slots = slots
        self.cycle = 0

        B, F = batch, buffer_flits
        G = B * slots
        self._g = G
        self._pow2 = (F & (F - 1)) == 0
        self._fmask = F - 1

        # ---- input-buffer rings + materialised head caches -------------
        self._rf_a = np.zeros(G * F, dtype=np.int64)
        self._rf_b = np.zeros(G * F, dtype=np.int64)
        self._hd = np.zeros(G, dtype=np.int64)
        # ln[G] is a sentinel slot that stays empty: the credit target of
        # every eject output, so the credit check needs no eject mask
        self._ln = np.zeros(G + 1, dtype=np.int64)
        self._h_a = np.zeros(G, dtype=np.int64)
        self._h_b = np.zeros(G, dtype=np.int64)
        self._h_out = np.zeros(G, dtype=np.int64)

        # ---- router state ----------------------------------------------
        self._lock = np.full(G, -1, dtype=np.int64)
        self._body_out = np.zeros(G, dtype=np.int64)
        # per-output _PICK_F row; an rr pointer starts at the last port
        self._arb_row = np.repeat(
            np.array([_AGE_ROW if k == "age" else (_NUM_PORTS - 1) * 32
                      for k in arbiter_kinds], dtype=np.int64), slots)
        self._has_rr = "rr" in arbiter_kinds
        self._has_age = "age" in arbiter_kinds
        # True once any multi-flit packet exists: gates all lock logic
        self._wormhole = False

        self._snap: list = []           # see _backlog_snapshot
        self._snap_cycle = -1

        # ---- per-lane delivery statistics (folded lazily) ---------------
        self._d_count = np.zeros(B, dtype=np.int64)
        self._d_lat_sum = np.zeros(B)
        self._d_lat_min = np.full(B, np.inf)
        self._d_lat_max = np.full(B, -np.inf)
        self._d_by_src = np.zeros((B, n), dtype=np.int64)
        self._d_lat_by_src = np.zeros((B, n))
        self._flits_delivered = np.zeros(B, dtype=np.int64)
        self._st_lane: list = []
        self._st_src: list = []
        self._st_lat: list = []
        self._fd_pend: list = []
        # tails ejected by the last step() (slots, lanes, srcs, flags)
        self._last_tg = _EMPTY_I
        self._last_tl = _EMPTY_I
        self._last_tsrc = _EMPTY_I
        self._last_tflg = _EMPTY_I

        # ---- precomputed flat topology ----------------------------------
        gf = np.arange(G, dtype=np.int64)
        self._port_f = gf % _NUM_PORTS
        self._node_f = (gf // _NUM_PORTS) % n
        self._lane_f = gf // slots
        self._obase_f = gf - self._port_f
        self._bit_f = (1 << self._port_f).astype(np.float64)
        self._route_f = route_table(width, height)
        self._rtbase_f = self._node_f * n
        # downstream input slot of every output; eject outputs (and the
        # boundary ports, which XY routing never uses) point at the
        # sentinel slot G
        nbr = neighbor_nodes(width, height)
        nbr_f = (nbr * _NUM_PORTS + np.array(_OPP)).ravel()
        self._nbr_g = np.where(
            np.tile(nbr.ravel(), B) < 0, G,
            (np.arange(B, dtype=np.int64)[:, None] * slots
             + nbr_f[None, :]).ravel())
        # queue q = lane*n + node injects into local slot q*5: the local
        # slots' lengths are a strided view of ln
        self._local_g = np.arange(0, G, _NUM_PORTS, dtype=np.int64)
        self._ln_local = self._ln[:G:_NUM_PORTS]
        self._bind(onevc_step.kernel())

    @property
    def num_nodes(self) -> int:
        return self._n

    # ---- injection -------------------------------------------------------
    def inject(self, lane: int, src: int, dst: int, size: int,
               reply: bool = False) -> None:
        """Queue one packet (``size`` flits) at ``src`` on ``lane``."""
        check_lane(lane, self.batch)
        if not 0 <= src < self._n:
            raise MeshConfigError(f"source {src} outside mesh")
        if not 0 <= dst < self._n:
            raise MeshConfigError(f"destination {dst} outside mesh")
        if size <= 0:
            raise MeshConfigError(f"packet size must be positive, got {size}")
        self._queues.defer(lane * self._n + src, size,
                           (dst << _A_DST_SHIFT) | (src << _A_SRC_SHIFT)
                           | (_F_REPLY if reply else 0))
        if size > 1:
            self._wormhole = True

    def source_backlog(self, lane: int, node: int) -> int:
        check_lane(lane, self.batch)
        return self._queues.backlog(lane * self._n + node)

    def _backlog_snapshot(self) -> list:
        """Every source queue's length this cycle, one list per cycle.

        Shared by every lane's feed (one ``tolist()`` per cycle instead
        of one slice per lane); queue lengths change only inside
        :meth:`step`, so the list holds for the whole cycle.
        """
        if self._snap_cycle != self.cycle:
            self._snap = self._queues.ln.tolist()
            self._snap_cycle = self.cycle
        return self._snap

    # ---- simulation ------------------------------------------------------
    def step(self) -> None:
        """Advance every lane one cycle (schedule, apply, inject)."""
        # a flag, not a bound method stored on the mesh: that would be a
        # reference cycle, keeping every finished mesh's arrays alive
        # until the cyclic collector runs
        if self._c_tails is None:
            self._numpy_step()
        else:
            self._compiled_step()

    def _bind(self, kernel) -> None:
        """Step with ``kernel`` (a compiled step) or, if None, NumPy.

        The compiled step works on this mesh's own arrays through one
        ``onevc_step.Kernel`` context, folds delivery statistics straight
        into the per-lane counters and leaves the ejected tails in
        ``_c_tails`` (lane, node, source, flags rows).
        """
        self._c_tails = None
        self._c_kernel = kernel
        if kernel is None:
            return
        G = self._g
        queues = self._queues
        self._c_tails = np.zeros((4, G), dtype=np.int64)
        self._c_ntails = 0
        self._c_scratch = [np.zeros(size, dtype=np.int64) for size in
                           (queues.hd.size, G, G, 2 * G + queues.hd.size)]
        need, grants, gmask, touched = self._c_scratch
        self._c_ctx = kernel.context(
            slots=self._slots, n=self._n, batch=self.batch,
            depth=self.buffer_flits, queues=queues.hd.size,
            rf_a=self._rf_a, rf_b=self._rf_b, hd=self._hd, ln=self._ln,
            h_a=self._h_a, h_b=self._h_b, h_out=self._h_out,
            lock=self._lock, body_out=self._body_out,
            arb_row=self._arb_row, nbr_g=self._nbr_g, node_f=self._node_f,
            rtbase_f=self._rtbase_f, lane_f=self._lane_f,
            route=self._route_f,
            pick=_PICK_F, next_row=_NEXT_ROW_F, qhd=queues.hd,
            qln=queues.ln, d_count=self._d_count,
            d_lat_sum=self._d_lat_sum, d_lat_min=self._d_lat_min,
            d_lat_max=self._d_lat_max, d_by_src=self._d_by_src,
            d_lat_by_src=self._d_lat_by_src,
            flits_delivered=self._flits_delivered, need=need,
            grants=grants, gmask=gmask, touched=touched,
            tails=self._c_tails)
        self._c_addr = ctypes.addressof(self._c_ctx)
        self._c_call = kernel.step
        self._bind_rings()

    def _bind_rings(self) -> None:
        """Point the context at the source rings (``grow`` replaces them)."""
        queues = self._queues
        ctx = self._c_ctx
        ctx.cap = queues.cap
        ctx.qa = onevc_step.address(queues.a, "qa")
        ctx.qb = onevc_step.address(queues.b, "qb")
        self._c_rings = queues.a

    def _compiled_step(self) -> None:
        """One step as one C call, with this cycle's flush folded in."""
        queues = self._queues
        if queues.a is not self._c_rings:
            self._bind_rings()
        pend = queues.pend
        k = len(pend)
        if k:
            b0 = queues.claim_ids(k, self.cycle)
            codes = array("q", pend)
            ptr = codes.buffer_info()[0]
        else:
            b0 = ptr = 0
        call = self._c_call
        res = call(self._c_addr, self.cycle, self._wormhole, ptr, k, b0)
        while res == onevc_step.STEP_GROW:
            queues.grow()
            self._bind_rings()
            res = call(self._c_addr, self.cycle, self._wormhole, ptr, k, b0)
        if res < 0:
            raise MeshConfigError("a deferred packet names no source queue")
        if k:
            del pend[:]
        self._c_ntails = res
        self.cycle += 1

    def _numpy_step(self) -> None:
        """The step as NumPy array code (the compiled step's reference)."""
        F, G = self.buffer_flits, self._g
        ln = self._ln
        hd = self._hd
        h_a = self._h_a
        h_b = self._h_b
        h_out = self._h_out
        pow2 = self._pow2
        fmask = self._fmask
        wormhole = self._wormhole
        self._last_tg = _EMPTY_I
        self._last_tl = _EMPTY_I
        self._last_tsrc = _EMPTY_I
        self._last_tflg = _EMPTY_I

        # ---- schedule: pure function of pre-cycle state ----------------
        # the occupied slots' output slots; an output slot's flat id is
        # also its grant and lock index
        occ = (ln != 0).nonzero()[0]
        out_g = self._obase_f.take(occ) + h_out.take(occ)
        # contender bitmask per output slot: bit = input port
        bits = self._bit_f.take(occ)
        if wormhole:
            # a head needs its output lock free; a body flit always finds
            # its own packet's lock there (a lock stores the holder's B
            # word, held from head to tail), so one test covers both.  A
            # blocked flit contributes no bit.
            lockv = self._lock.take(out_g)
            bits *= (lockv == -1) | (lockv == h_b.take(occ))
        M = np.bincount(out_g, weights=bits, minlength=G)
        cand = (M != 0).nonzero()[0]
        # downstream credit from pre-cycle buffer lengths (each input
        # buffer has exactly one upstream contender: no interference;
        # eject outputs read the always-empty sentinel)
        down = self._nbr_g.take(cand)
        okc = ln.take(down) < F
        granted = cand.compress(okc)

        # ---- apply moves ----------------------------------------------
        src_g = dg = ig = _EMPTY_I
        if granted.size:
            # one table lookup per grant: rr rotating priority, or an age
            # lane's lone contender (-1 marks a contended age output)
            mg = M.take(granted).astype(np.int64)
            row = self._arb_row.take(granted) + mg
            win = _PICK_F.take(row)
            if self._has_rr:
                self._arb_row[granted] = _NEXT_ROW_F.take(row)
            rbase = self._obase_f.take(granted)
            if self._has_age:
                am = (win < 0).nonzero()[0]
                if am.size:
                    # oldest head wins (min B = min (birth<<32 | pid))
                    # among the contenders named by the mask bits
                    cols = rbase.take(am)[:, None] + _ARANGE5
                    req = (mg.take(am)[:, None] >> _ARANGE5) & 1
                    keys = np.where(req, h_b.take(cols), _NO_KEY)
                    win[am] = keys.argmin(axis=1)
            src_g = rbase + win
            f_a = h_a.take(src_g)
            f_b = h_b.take(src_g)

            if wormhole:
                # one lock write per grant: a tail releases, any other
                # flit holds its B word (a head acquires; a body rewrites
                # the word its head stored); body_out of the source slot
                # names this output (a body's head already named it; a
                # lone flit's is never read, the next flit being a head)
                f_tail = (f_a & _F_TAIL) != 0
                self._lock[granted] = np.where(f_tail, -1, f_b)
                self._body_out[src_g] = self._port_f.take(granted)

            # pop the moved flits (their new heads are read after the
            # push); one grant per output, so src_g has no repeats
            nh = hd.take(src_g) + 1
            if pow2:
                nh &= fmask
            else:
                nh %= F
            hd[src_g] = nh
            ln[src_g] = ln.take(src_g) - 1

            # ejections: deferred stats + the sink-visible tail record
            down = down.compress(okc)
            is_ej = down == G
            ej = is_ej.nonzero()[0]
            if ej.size:
                if wormhole:
                    self._fd_pend.append(self._lane_f.take(granted.take(ej)))
                    ej = (is_ej & f_tail).nonzero()[0]
                jg = granted.take(ej)
                ja = f_a.take(ej)
                jl = self._lane_f.take(jg)
                if not wormhole:
                    self._fd_pend.append(jl)
                if jl.size:
                    jsrc = (ja >> _A_SRC_SHIFT) & _A_SRC_MASK
                    self._st_lane.append(jl)
                    self._st_src.append(jsrc)
                    self._st_lat.append(self.cycle
                                        - (f_b.take(ej) >> _SH32))
                    self._last_tg = jg
                    self._last_tl = jl
                    self._last_tsrc = jsrc
                    self._last_tflg = ja & _A_FLG_MASK

            # forwards: queued for the merged push below
            fw = (~is_ej).nonzero()[0]
            dg = down.take(fw)
            m_a = f_a.take(fw)
            m_b = f_b.take(fw)

        # ---- injection: one flit per node per cycle --------------------
        # (forwards only push ports 1-4, so the local-port credit check
        # below still sees exactly the scalar engine's post-pop state)
        queues = self._queues
        queues.flush(self.cycle)
        q_ln = queues.ln
        iq = ((q_ln != 0) & (self._ln_local < F)).nonzero()[0]
        if iq.size:
            cap = queues.cap
            qh = queues.hd.take(iq)
            qi = iq * cap + qh
            i_a = queues.a.take(qi)
            i_b = queues.b.take(qi)
            queues.hd[iq] = (qh + 1) % cap
            q_ln[iq] -= 1
            ig = self._local_g.take(iq)

        # ---- merged push: forwards (ports 1-4) + injections (port 0)
        # are disjoint target sets, so one scatter handles both
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
            pos = hd.take(tgt) + dl
            if pow2:
                pos &= fmask
            else:
                pos %= F
            ri = tgt * F + pos
            self._rf_a[ri] = p_a
            self._rf_b[ri] = p_b
            ln[tgt] = dl + 1

        # ---- head caches: re-read the head of every slot a flit left
        # or entered (an emptied slot's stale head is never read) -------
        touched = np.concatenate((src_g, tgt))
        if touched.size:
            ri = touched * F + hd.take(touched)
            na = self._rf_a.take(ri)
            h_a[touched] = na
            h_b[touched] = self._rf_b.take(ri)
            rt = self._route_f.take(self._rtbase_f.take(touched)
                                    + (na >> _A_DST_SHIFT))
            if wormhole:
                h_out[touched] = np.where(na & _F_HEAD, rt,
                                          self._body_out.take(touched))
            else:
                h_out[touched] = rt

        self.cycle += 1
        if len(self._st_lane) >= _STATS_FLUSH_CYCLES:
            self._flush_stats()

    def run(self, cycles: int) -> None:
        if cycles < 0:
            raise MeshConfigError("cannot run negative cycles")
        step = self.step
        for _ in range(cycles):
            step()

    # ---- accounting ------------------------------------------------------
    def _flush_stats(self) -> None:
        """Fold the deferred per-cycle delivery records into the counters."""
        if self._fd_pend:
            fd = np.concatenate(self._fd_pend)
            del self._fd_pend[:]
            self._flits_delivered += np.bincount(fd, minlength=self.batch)
        if self._st_lane:
            tl = np.concatenate(self._st_lane)
            src = np.concatenate(self._st_src)
            lat = np.concatenate(self._st_lat).astype(np.float64)
            del self._st_lane[:]
            del self._st_src[:]
            del self._st_lat[:]
            B, n = self.batch, self._n
            self._d_count += np.bincount(tl, minlength=B)
            self._d_lat_sum += np.bincount(tl, weights=lat, minlength=B)
            np.minimum.at(self._d_lat_min, tl, lat)
            np.maximum.at(self._d_lat_max, tl, lat)
            flat = tl * n + src
            self._d_by_src += np.bincount(flat,
                                          minlength=B * n).reshape(B, n)
            self._d_lat_by_src += np.bincount(
                flat, weights=lat, minlength=B * n).reshape(B, n)

    @property
    def last_ejected(self):
        """Tails ejected by the last step(): (lanes, nodes, srcs, flags)."""
        if self._c_tails is not None:
            return tuple(self._c_tails[:, :self._c_ntails].copy())
        return (self._last_tl, self._node_f.take(self._last_tg),
                self._last_tsrc, self._last_tflg)

    @property
    def delivered_count(self) -> np.ndarray:
        """Delivered packets per lane."""
        self._flush_stats()
        return self._d_count.copy()

    @property
    def flits_delivered(self) -> np.ndarray:
        self._flush_stats()
        return self._flits_delivered.copy()

    def lane_stats(self, lane: int) -> DeliveryStats:
        """The lane's statistics as a scalar-shaped :class:`DeliveryStats`."""
        check_lane(lane, self.batch)
        self._flush_stats()
        stats = DeliveryStats()
        stats.count = int(self._d_count[lane])
        stats.latency_sum = float(self._d_lat_sum[lane])
        stats.latency_min = float(self._d_lat_min[lane])
        stats.latency_max = float(self._d_lat_max[lane])
        for src in np.flatnonzero(self._d_by_src[lane]).tolist():
            stats.by_source[src] = int(self._d_by_src[lane, src])
            stats.latency_by_source[src] = float(self._d_lat_by_src[lane,
                                                                    src])
        return stats

    def buffer_occupancy(self, lane: int) -> list:
        """Flit count of every input buffer (invariant checks in tests)."""
        check_lane(lane, self.batch)
        return self._ln[:self._g].reshape(self.batch,
                                          self._slots)[lane].tolist()


# ---------------------------------------------------------------------------
# Batched traffic (exact replay of ManyToFewTraffic per lane)
# ---------------------------------------------------------------------------

class BatchedManyToFew:
    """One lane's many-to-few traffic source over a :class:`BatchedMesh`.

    Replays :class:`repro.noc.mesh.traffic.ManyToFewTraffic` draw for
    draw: the same ``rng.generator_for(seed, "mesh-traffic")`` stream,
    the same Bernoulli/greedy decision order per compute node.  Accepted
    packets are appended to the mesh's deferred-enqueue batch; the
    kernel flushes them in order during :meth:`BatchedMesh.step`.

    ``feed`` is built once as a closure over the lane's constants (mesh
    arrays, stream buffers, packed enqueue codes): the per-cycle call
    carries no attribute-lookup preamble.
    """

    def __init__(self, mesh: BatchedMesh, lane: int, mc_nodes, seed: int = 0,
                 injection_rate: float | None = None,
                 max_source_backlog: int = 4):
        check_lane(lane, mesh.batch)
        self.mesh = mesh
        self.lane = lane
        self.mc_nodes = list(mc_nodes)
        if not self.mc_nodes:
            raise MeshConfigError("need at least one memory controller")
        for node in self.mc_nodes:
            if not 0 <= node < mesh.num_nodes:
                raise MeshConfigError(f"MC node {node} outside mesh")
        if injection_rate is not None and not 0 < injection_rate <= 1:
            raise MeshConfigError("injection_rate must be in (0, 1]")
        self.compute_nodes = [node for node in range(mesh.num_nodes)
                              if node not in self.mc_nodes]
        self.stream = make_stream(seed, "mesh-traffic")
        self.injection_rate = injection_rate
        self.max_source_backlog = max_source_backlog
        # each compute node's (queue id, deferred-enqueue code of a
        # one-flit packet), and each MC's destination bits of that code
        base = lane * mesh.num_nodes
        self.node_codes = [(base + node, ((base + node) << _PEND_Q_SHIFT)
                            | (node << _A_SRC_SHIFT))
                           for node in self.compute_nodes]
        self.mc_codes = [node << _A_DST_SHIFT for node in self.mc_nodes]
        self.feed = self._build_feed()

    def _build_feed(self):
        """Compile this lane's per-cycle feed into a constant-bound closure."""
        mesh = self.mesh
        stream = self.stream
        rate = self.injection_rate
        maxb = self.max_source_backlog
        n_mc = len(self.mc_nodes)
        snapshot = mesh._backlog_snapshot
        append = mesh._queues.pend.append
        # The backlog snapshot is exact in every path: each node is
        # visited once per cycle (Bernoulli) or tracks its own local
        # counter (greedy).  Lanes index it by absolute queue id.
        node_codes = self.node_codes
        mc_codes = self.mc_codes

        if rate is None:
            integers = stream.integers

            def feed() -> None:
                backlog = snapshot()
                for qi, code in node_codes:
                    have = backlog[qi]
                    while have < maxb:
                        append(code | mc_codes[integers(n_mc)])
                        have += 1

            return feed

        if type(stream) is not _RawStream:
            uniform = stream.random
            integers = stream.integers

            def feed() -> None:
                backlog = snapshot()
                for qi, code in node_codes:
                    if uniform() < rate and backlog[qi] < maxb:
                        append(code | mc_codes[integers(n_mc)])

            return feed

        # inline the hot random() path of _RawStream (one list read per
        # draw); the cursor is written back around each integers() call
        # and on exit, so the stream object stays in step
        integers = stream.integers

        def feed() -> None:
            pos = stream._pos
            dbl = stream._dbl
            end = stream._len
            backlog = snapshot()
            for qi, code in node_codes:
                if pos == end:
                    stream._refill()
                    dbl = stream._dbl
                    pos = 0
                    end = stream._len
                accept = dbl[pos] < rate
                pos += 1
                if accept and backlog[qi] < maxb:
                    stream._pos = pos
                    append(code | mc_codes[integers(n_mc)])
                    # integers() may have refilled the block
                    pos = stream._pos
                    dbl = stream._dbl
                    end = stream._len
            stream._pos = pos

        return feed


# ---------------------------------------------------------------------------
# Batched twins of the scalar experiment entry points
# ---------------------------------------------------------------------------

def _check_window(cycles: int, warmup: int) -> None:
    if warmup < 0:
        raise MeshConfigError("warmup must be >= 0")
    if cycles <= warmup:
        raise MeshConfigError("cycles must exceed warmup")


def _measure(run, warmup: int, cycles: int) -> tuple:
    """Run to ``warmup``, then to ``cycles``: what each lane delivered in
    between, as ``(packets, latency sums, packets by source node)``."""
    mesh = run.mesh
    run.run(0, warmup)
    mesh._flush_stats()
    start = (mesh._d_count.copy(), mesh._d_lat_sum.copy(),
             mesh._d_by_src.copy())
    run.run(warmup, cycles)
    mesh._flush_stats()
    return (mesh._d_count - start[0], mesh._d_lat_sum - start[1],
            mesh._d_by_src - start[2])


def batched_load_curves(rates, arbiters=("rr", "age"), seeds=(0,),
                        width: int = 6, height: int = 6, cycles: int = 6000,
                        warmup: int = 1500) -> dict:
    """Every (arbiter, seed) load curve of a sweep as ONE batched run.

    Twin of ``{(a, s): sweep_load(rates, arbiter=a, seed=s, ...)}``: one
    lane per (arbiter, seed, rate) triple, identical traffic streams,
    identical :class:`LoadCurve`s keyed by ``(arbiter, seed)``.
    """
    from repro.noc.mesh.loadcurve import LoadCurve, LoadPoint

    rates = list(rates)
    if not rates:
        raise MeshConfigError("need at least one rate")
    for rate in rates:
        if not 0 < rate <= 1:
            raise MeshConfigError("rate must be in (0, 1]")
    arbiters = list(arbiters)
    if not arbiters:
        raise MeshConfigError("need at least one arbiter kind")
    seeds = list(seeds)
    if not seeds:
        raise MeshConfigError("need at least one seed")
    _check_window(cycles, warmup)
    combos = [(arbiter, seed) for arbiter in arbiters for seed in seeds]
    kinds = tuple(arbiter for arbiter, _seed in combos for _rate in rates)
    mesh = BatchedMesh(width, height, batch=len(kinds), arbiter_kinds=kinds,
                       source_capacity=64 + 1)
    mc_nodes = default_mc_nodes(width, height)
    sources = [BatchedManyToFew(mesh, lane_base * len(rates) + offset,
                                mc_nodes, seed=seed, injection_rate=rate,
                                max_source_backlog=64)
               for lane_base, (_arbiter, seed) in enumerate(combos)
               for offset, rate in enumerate(rates)]
    n_compute = len(sources[0].compute_nodes)
    counts, latency_sums, _by_src = _measure(_MeshRun(mesh, sources), warmup,
                                             cycles)
    window = cycles - warmup
    curves = {}
    lane = 0
    for arbiter, seed in combos:
        points = []
        for rate in rates:
            delivered = int(counts[lane])
            latency_sum = float(latency_sums[lane])
            accepted = delivered / window / n_compute
            latency = (latency_sum / delivered) if delivered else float("inf")
            points.append(LoadPoint(offered_rate=rate,
                                    accepted_rate=accepted,
                                    avg_latency=latency))
            lane += 1
        curves[(arbiter, seed)] = LoadCurve(arbiter=arbiter,
                                            points=tuple(points))
    return curves


def batched_sweep_load(rates, arbiter: str = "rr", width: int = 6,
                       height: int = 6, cycles: int = 6000,
                       warmup: int = 1500, seed: int = 0):
    """One batched run covering every injection rate of a load curve.

    Twin of :func:`repro.noc.mesh.loadcurve.sweep_load`: one lane per
    rate, identical traffic streams, identical :class:`LoadPoint`s.
    """
    return batched_load_curves(
        rates, arbiters=(arbiter,), seeds=(seed,), width=width,
        height=height, cycles=cycles, warmup=warmup)[(arbiter, seed)]



class _BatchedMemoryNode:
    """Memory controller over (request lane, reply lane) of one kernel.

    Mirrors :class:`repro.noc.mesh.interfaces.MemoryNode` cycle for
    cycle; ``pending`` holds requester node ids instead of Packets.
    """

    __slots__ = ("mesh", "node", "reply_flits", "service_cycles",
                 "reply_queue_limit", "pending", "serviced", "busy_cycles",
                 "_cooldown", "_request_lane", "_reply_lane")

    def __init__(self, mesh: BatchedMesh, node: int, reply_flits: int = 5,
                 service_cycles: int = 1, reply_queue_limit: int = 8,
                 request_lane: int = 0, reply_lane: int = 1):
        if reply_flits <= 0 or service_cycles <= 0 or reply_queue_limit <= 0:
            raise MeshConfigError("memory node parameters must be positive")
        self.mesh = mesh
        self.node = node
        self.reply_flits = reply_flits
        self.service_cycles = service_cycles
        self.reply_queue_limit = reply_queue_limit
        self.pending = deque()
        self.serviced = 0
        self.busy_cycles = 0
        self._cooldown = 0
        self._request_lane = request_lane
        self._reply_lane = reply_lane

    def tick(self) -> bool:
        """One memory-channel cycle; True when the channel did work."""
        if self._cooldown > 0:
            self._cooldown -= 1
            self.busy_cycles += 1
            return True
        if not self.pending:
            return False
        backlog = self.mesh.source_backlog(self._reply_lane, self.node)
        if backlog // self.reply_flits >= self.reply_queue_limit:
            return False            # backpressure: reply interface is full
        requester = self.pending.popleft()
        self.mesh.inject(self._reply_lane, self.node, requester,
                         self.reply_flits, reply=True)
        self.serviced += 1
        self._cooldown = self.service_cycles - 1
        self.busy_cycles += 1
        return True


class _ReplyPair:
    """The Fig 21 request/reply lane pair's per-cycle feed and bookkeeping.

    Lane ``request_lane`` carries the request mesh and the next lane the
    reply mesh; the Python memory-controller model couples them exactly
    as :func:`repro.noc.mesh.interfaces.run_reply_bottleneck` does, and
    the first controller's busy cycles are sampled once per window.
    """

    def __init__(self, mesh: BatchedMesh, mc_nodes, seed: int, window: int,
                 reply_flits: int = 5, request_lane: int = 0):
        self.mesh = mesh
        self.window = window
        self.request_lane = request_lane
        self.request = BatchedManyToFew(mesh, request_lane, mc_nodes,
                                        seed=seed)
        self._request_feed = self.request.feed
        self.memories = {
            node: _BatchedMemoryNode(mesh, node, reply_flits=reply_flits,
                                     request_lane=request_lane,
                                     reply_lane=request_lane + 1)
            for node in mc_nodes}
        self._ordered = [self.memories[node] for node in mc_nodes]
        self.samples: list = []
        self._busy_in_window = 0

    def feed(self) -> None:
        """Request-lane enqueues, then one tick of every controller."""
        self._request_feed()
        probe = self._ordered[0]
        busy_before = probe.busy_cycles
        for memory in self._ordered:
            memory.tick()
        self._busy_in_window += probe.busy_cycles - busy_before

    def collect(self) -> None:
        """After a step: request tails delivered at an MC become pending
        work, and a finished window becomes one utilisation sample."""
        lanes, nodes, srcs, flags = self.mesh.last_ejected
        if lanes.size:
            request = self.request_lane
            memories = self.memories
            for lane, node, src, flag in zip(lanes.tolist(), nodes.tolist(),
                                             srcs.tolist(), flags.tolist()):
                if lane == request and not flag & _F_REPLY:
                    memory = memories.get(node)
                    if memory is not None:
                        memory.pending.append(src)
        if self.mesh.cycle % self.window == 0:
            self.samples.append(self._busy_in_window / self.window)
            self._busy_in_window = 0

    def controllers(self) -> list:
        """Each controller's ``(pending, cooldown, busy, serviced)``."""
        return [(list(memory.pending), memory._cooldown, memory.busy_cycles,
                 memory.serviced) for memory in self._ordered]

    def result(self):
        from repro.noc.mesh.interfaces import ReplyBottleneckResult
        util = np.array(self.samples)
        return ReplyBottleneckResult(
            utilization=util,
            mean_utilization=float(util.mean()),
            peak_utilization=float(util.max()),
            window=self.window,
        )


# ---------------------------------------------------------------------------
# The cycle loop: Python loop and compiled run
# ---------------------------------------------------------------------------

class _MeshRun:
    """A batched run's cycle loop: sources, controllers, step, collect.

    Each cycle feeds the :class:`BatchedManyToFew` sources in list
    order, then the reply pair (its request lane's source, then one tick
    of every controller), steps the mesh and collects the pair's request
    tails.  Where the mesh steps with a compiled kernel, :meth:`run` is
    one call of the compiled run (:class:`_CompiledRun`) per stretch of
    cycles; otherwise it is the Python feeds and the mesh's step, cycle
    by cycle, which is the compiled run's reference and its fallback.
    """

    def __init__(self, mesh: BatchedMesh, sources=(), pair=None):
        self.mesh = mesh
        self.sources = list(sources)
        self.pair = pair
        self._compiled = _CompiledRun.make(self)

    @property
    def compiled(self) -> bool:
        return self._compiled is not None

    def run(self, start: int, stop: int) -> None:
        """Run cycles ``start .. stop-1`` (``start`` is the mesh's cycle)."""
        mesh = self.mesh
        if start != mesh.cycle or stop < start:
            raise MeshConfigError(
                f"cannot run cycles {start}..{stop} from cycle {mesh.cycle}")
        if self._compiled is None:
            self._run_python(start, stop)
            return
        if mesh._queues.pend and start < stop:
            # packets injected by hand before the run: the Python feeds
            # append after them, and the step flushes them together
            self._run_python(start, start + 1)
        self._compiled.run(stop)

    def _run_python(self, start: int, stop: int) -> None:
        feeds = [source.feed for source in self.sources]
        pair = self.pair
        if pair is not None:
            feeds.append(pair.feed)
        step = self.mesh.step
        for _cycle in range(start, stop):
            for feed in feeds:
                feed()
            step()
            if pair is not None:
                pair.collect()


_U64 = (1 << 64) - 1


def _stream_words(state: int, inc: int, has32: int, buf32: int) -> list:
    """A :meth:`_RawStream.position` as the C run's six stream words."""
    return [state >> 64, state & _U64, inc >> 64, inc & _U64, has32, buf32]


def _stream_position(words) -> tuple:
    """The inverse of :func:`_stream_words` (words as unsigned ints)."""
    hi, lo, inc_hi, inc_lo, has32, buf32 = words
    return (hi << 64) | lo, (inc_hi << 64) | inc_lo, has32, buf32


class _CompiledRun:
    """:class:`_MeshRun`'s cycle loop as one ``onevc_run`` call.

    Holds the C run context: every source's nodes, codes and PCG64
    stream, the controllers' placement and the per-cycle scratch
    (``_ReplyPair`` builds its controllers alike, on distinct nodes, so
    the first one's parameters are every one's).  The
    Python objects stay the state of record: each :meth:`run` loads the
    streams (:meth:`_RawStream.position`), the controllers and the
    pair's window into the context and stores them back when the call
    returns, so the Python loop can take over at any cycle.
    """

    @classmethod
    def make(cls, owner: _MeshRun):
        """The compiled run of ``owner``, or None where the Python loop
        must run: no compiled kernel, a stream that is not the raw PCG64
        replay (this NumPy failed :func:`make_stream`'s check), or
        replies too long for a packed code (the Python loop raises)."""
        kernel = owner.mesh._c_kernel
        sources = list(owner.sources)
        pair = owner.pair
        if pair is not None:
            sources.append(pair.request)
            if pair._ordered[0].reply_flits > _MAX_PACKET_FLITS:
                return None
        if kernel is None or any(type(source.stream) is not _RawStream
                                 for source in sources):
            return None
        # one cycle's packets: a Bernoulli node defers at most one, a
        # greedy one tops up at most its cap, a controller one reply
        codes_cap = sum(len(source.compute_nodes)
                        * (1 if source.injection_rate is not None
                           else max(source.max_source_backlog, 1))
                        for source in sources)
        codes_cap += len(pair._ordered) if pair is not None else 0
        return cls(owner.mesh, kernel, sources, pair, codes_cap)

    def __init__(self, mesh, kernel, sources, pair, codes_cap: int):
        self.mesh = mesh
        self.sources = sources
        self.pair = pair
        self._call = kernel.run
        node_off, mc_off = [0], [0]
        node_q, node_code, mc_code = [], [], []
        for source in sources:
            node_q += [queue for queue, _code in source.node_codes]
            node_code += [code for _queue, code in source.node_codes]
            node_off.append(len(node_q))
            mc_code += source.mc_codes
            mc_off.append(len(mc_code))
        i64 = np.int64
        # the context points into these arrays: they live as long as it
        self._arrays = arrays = {
            "src_maxb": np.array([source.max_source_backlog
                                  for source in sources], i64),
            # a greedy source's rate is -1
            "src_rate": np.array([-1.0 if source.injection_rate is None
                                  else source.injection_rate
                                  for source in sources]),
            "src_node_off": np.array(node_off, i64),
            "node_q": np.array(node_q, i64),
            "node_code": np.array(node_code, i64),
            "src_mc_off": np.array(mc_off, i64),
            "mc_code": np.array(mc_code, i64),
            "stream": np.zeros(6 * len(sources), i64),
            "codes": np.zeros(codes_cap, i64),
            "qpend": np.zeros(mesh._queues.hd.size, i64),
        }
        pairs = {"nmc": 0}
        if pair is not None:
            memories = pair._ordered
            mc_of_node = np.full(mesh.num_nodes, -1, i64)
            for index, memory in enumerate(memories):
                mc_of_node[memory.node] = index
            arrays["mc_node"] = np.array([memory.node for memory in memories],
                                         i64)
            arrays["mc_of_node"] = mc_of_node
            first = memories[0]
            pairs.update(
                nmc=len(memories), window=pair.window,
                reply_flits=first.reply_flits,
                service=first.service_cycles,
                limit=first.reply_queue_limit,
                reply_base=first._reply_lane * mesh.num_nodes,
                request_lane=pair.request_lane)
        self._ctx = kernel.run_context(nsrc=len(sources),
                                       codes_cap=codes_cap, **pairs,
                                       **arrays)
        self._addr = ctypes.addressof(self._ctx)

    def run(self, stop: int) -> None:
        mesh = self.mesh
        queues = mesh._queues
        ctx = self._ctx
        self._load(stop)
        mesh._bind_rings()
        res = self._call(mesh._c_addr, self._addr, stop)
        while res == onevc_step.STEP_GROW:
            # the cycle's feeds ran: the next call resumes at its step
            queues.grow()
            mesh._bind_rings()
            res = self._call(mesh._c_addr, self._addr, stop)
        self._store()
        if res == onevc_step.RUN_NO_IDS:
            queues.claim_ids(ctx.k, ctx.cycle)      # raises
        if res < 0:
            raise MeshConfigError(f"the compiled mesh run failed ({res})")

    def _load(self, stop: int) -> None:
        """Position, streams and controllers into the context."""
        mesh = self.mesh
        ctx = self._ctx
        ctx.cycle = mesh.cycle
        ctx.fed = 0
        ctx.next_pid = mesh._queues.next_pid
        ctx.wormhole = mesh._wormhole
        ctx.ntails = mesh._c_ntails
        words = [word for source in self.sources
                 for word in _stream_words(*source.stream.position())]
        self._arrays["stream"][:] = np.array(words, np.uint64).view(np.int64)
        pair = self.pair
        if pair is None:
            return
        memories = pair._ordered
        pending = [memory.pending for memory in memories]
        # a controller takes at most one request per cycle (one eject
        # port per node), so this many pending slots always suffice
        pcap = max(map(len, pending)) + stop - mesh.cycle
        pend = np.zeros((len(memories), max(pcap, 1)), np.int64)
        for row, queue in zip(pend, pending):
            row[:len(queue)] = list(queue)
        windows = stop // pair.window - mesh.cycle // pair.window
        self._pair_arrays = per_call = {
            "mc_cool": np.array([m._cooldown for m in memories], np.int64),
            "mc_busy": np.array([m.busy_cycles for m in memories], np.int64),
            "mc_served": np.array([m.serviced for m in memories], np.int64),
            "mc_head": np.zeros(len(memories), np.int64),
            "mc_tail": np.array([len(queue) for queue in pending], np.int64),
            "mc_pend": pend.ravel(),
            "samples": np.zeros(max(windows, 1)),
        }
        for name, array in per_call.items():
            setattr(ctx, name, onevc_step.address(array, name))
        ctx.pcap = pend.shape[1]
        ctx.busy_in_window = pair._busy_in_window
        ctx.nsamples = 0

    def _store(self) -> None:
        """The context's position, streams and controllers back out."""
        mesh = self.mesh
        ctx = self._ctx
        mesh.cycle = ctx.cycle
        mesh._queues.next_pid = ctx.next_pid
        mesh._wormhole = bool(ctx.wormhole)
        mesh._c_ntails = ctx.ntails
        words = self._arrays["stream"].view(np.uint64).tolist()
        for index, source in enumerate(self.sources):
            source.stream.resume(*_stream_position(
                words[6 * index:6 * index + 6]))
        pair = self.pair
        if pair is None:
            return
        arrays = self._pair_arrays
        pend = arrays["mc_pend"].reshape(len(pair._ordered), ctx.pcap)
        for index, memory in enumerate(pair._ordered):
            memory._cooldown = int(arrays["mc_cool"][index])
            memory.busy_cycles = int(arrays["mc_busy"][index])
            memory.serviced = int(arrays["mc_served"][index])
            memory.pending.clear()
            memory.pending.extend(pend[index, arrays["mc_head"][index]:
                                       arrays["mc_tail"][index]].tolist())
        pair.samples += arrays["samples"][:ctx.nsamples].tolist()
        pair._busy_in_window = ctx.busy_in_window


def batched_fairness_experiments(arbiters=("rr", "age"), width: int = 6,
                                 height: int = 6, cycles: int = 20000,
                                 warmup: int = 2000, seed: int = 0,
                                 injection_rate: float | None = None) -> dict:
    """The full fairness pair (or any arbiter list) as one batched run.

    Twin of :func:`repro.noc.mesh.traffic.run_fairness_experiments`:
    one lane per arbiter, identical traffic, identical
    :class:`FairnessResult`s.
    """
    from repro.noc.mesh.traffic import FairnessResult, distinct_arbiters
    arbiters = distinct_arbiters(arbiters)
    _check_window(cycles, warmup)
    # source queues grow on demand: capacity only saves regrowth
    mesh = BatchedMesh(width, height, batch=len(arbiters),
                       arbiter_kinds=tuple(arbiters),
                       source_capacity=8 if injection_rate is None
                       else 64 + 1)
    mc_nodes = default_mc_nodes(width, height)
    sources = [BatchedManyToFew(mesh, lane, mc_nodes, seed=seed,
                                injection_rate=injection_rate)
               for lane in range(len(arbiters))]
    _counts, _latency_sums, by_src = _measure(_MeshRun(mesh, sources),
                                              warmup, cycles)
    window = cycles - warmup
    return {arbiter: FairnessResult(
                arbiter=arbiter, cycles=window,
                throughput={node: int(by_src[lane, node]) / window
                            for node in sources[lane].compute_nodes})
            for lane, arbiter in enumerate(arbiters)}


def batched_fairness_experiment(arbiter: str = "rr", width: int = 6,
                                height: int = 6, cycles: int = 20000,
                                warmup: int = 2000, seed: int = 0,
                                injection_rate: float | None = None):
    """Single-arbiter twin of :func:`traffic.run_fairness_experiment`."""
    return batched_fairness_experiments(
        (arbiter,), width=width, height=height, cycles=cycles, warmup=warmup,
        seed=seed, injection_rate=injection_rate)[arbiter]


def batched_reply_bottleneck(cycles: int = 20000, window: int = 100,
                             reply_flits: int = 5, width: int = 6,
                             height: int = 6, seed: int = 0,
                             arbiter: str = "rr"):
    """The Fig 21 request/reply pair as one two-lane batched run.

    Twin of :func:`repro.noc.mesh.interfaces.run_reply_bottleneck`.
    """
    if not 0 < window <= cycles:
        raise MeshConfigError("need cycles >= window > 0")
    mesh = BatchedMesh(width, height, batch=2, arbiter_kinds=arbiter,
                       source_capacity=reply_flits * (8 + 1) + 1)
    pair = _ReplyPair(mesh, default_mc_nodes(width, height), seed, window,
                      reply_flits)
    _MeshRun(mesh, pair=pair).run(0, cycles)
    return pair.result()
