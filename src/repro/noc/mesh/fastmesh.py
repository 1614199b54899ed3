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
ONE batched simulation, and so do the rr-vs-age fairness lanes and the
reply-bottleneck request/reply mesh pair, together
(:func:`batched_mesh_sections`).

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
  :class:`_RawStream` replays *exactly* from ``bit_generator
  .random_raw()`` blocks (an install-time self-check falls back to the
  real per-lane ``Generator`` on mismatch — always correct, just
  slower);
* source-queue enqueues and delivery statistics commute with the cycle
  loop — a Bernoulli source enqueues at most one single-flit packet per
  node per cycle and reads only its own node's backlog, so batching the
  enqueues into one bulk flush per cycle (and folding delivery stats
  into per-lane counters lazily) reproduces the scalar order bit for
  bit.

Entry points mirror the scalar experiment APIs and return the same
result dataclasses: :func:`batched_sweep_load`,
:func:`batched_load_curves`, :func:`batched_fairness_experiment(s)` and
:func:`batched_reply_bottleneck` (the last three are thin wrappers over
:func:`batched_mesh_sections`).  ``tests/test_fastmesh_equivalence.py``
asserts exact equality on every covered configuration, and the REP004
lint rule keeps the scalar and batched surfaces from drifting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import rng
from repro.errors import MeshConfigError
from repro.noc.mesh.routing import Port, default_mc_nodes, xy_route
from repro.noc.mesh.vc import DeliveryStats

_NUM_PORTS = len(Port)
# opposite[port] for the four cardinal ports; LOCAL has no opposite
_OPP = (0, int(Port.WEST), int(Port.EAST), int(Port.SOUTH), int(Port.NORTH))
# _RR_PICK[last][mask] is the rotating-priority winner among the input
# ports set in the 5-bit candidate ``mask`` (the scalar one-VC
# ``VCRouter.grant`` round-robin as one table lookup)
_RR_PICK = tuple(
    tuple(next((idx for off in range(1, _NUM_PORTS + 1)
                for idx in [(last + off) % _NUM_PORTS] if mask >> idx & 1), 0)
          for mask in range(1 << _NUM_PORTS))
    for last in range(_NUM_PORTS))


# ---------------------------------------------------------------------------
# Exact replay of the scalar traffic RNG stream
# ---------------------------------------------------------------------------

# raw words fetched per refill.  The stream is purely sequential, so the
# block size cannot change a draw; 512 words cost the same per word to
# fetch as larger blocks and keep a stream's replay lists near 40 KiB
# (a sweep block holds one stream per lane)
_RAW_BLOCK = 512
_U32 = 0xFFFFFFFF
# Generator.random() maps one raw PCG64 word to [0, 1): (word >> 11) * 2**-53
_RANDOM_SCALE = 2.0 ** -53


class _GeneratorStream:
    """Fallback stream: the real per-lane Generator, call for call."""

    __slots__ = ("_random", "_integers")

    def __init__(self, seed: int, *key):
        gen = rng.generator_for(seed, *key)
        self._random = gen.random
        self._integers = gen.integers

    def random(self) -> float:
        return float(self._random())

    def integers(self, n: int) -> int:
        return int(self._integers(n))


class _RawStream:
    """Replays ``Generator.random()``/``.integers(n)`` from raw words.

    ``random()`` consumes one raw 64-bit word (bypassing the 32-bit
    buffer); ``integers(n)`` uses numpy's buffered 32-bit Lemire
    rejection sampler — the low half of a fresh word first, the stashed
    high half on the next call.  Pre-fetching via ``random_raw`` is safe
    because the raw stream is purely sequential.
    """

    __slots__ = ("_bg", "_words", "_dbl", "_pos", "_len", "_has32", "_buf32")

    def __init__(self, seed: int, *key):
        self._bg = rng.generator_for(seed, *key).bit_generator
        self._words: list = []
        self._dbl: list = []
        self._pos = 0
        self._len = 0
        self._has32 = False
        self._buf32 = 0

    def _refill(self) -> None:
        raw = self._bg.random_raw(_RAW_BLOCK)
        self._words = raw.tolist()
        self._dbl = ((raw >> np.uint64(11)) * _RANDOM_SCALE).tolist()
        self._pos = 0
        self._len = len(self._words)

    def random(self) -> float:
        pos = self._pos
        if pos == self._len:
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._dbl[pos]

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0                # consumes no stream words
        while True:
            if self._has32:
                self._has32 = False
                w32 = self._buf32
            else:
                pos = self._pos
                if pos == self._len:
                    self._refill()
                    pos = 0
                self._pos = pos + 1
                word = self._words[pos]
                self._has32 = True
                self._buf32 = word >> 32
                w32 = word & _U32
            m = w32 * n
            leftover = m & _U32
            # accept unless the draw lands in the biased low band:
            # threshold = 2**32 % n, which is < n
            if leftover >= n or leftover >= (_U32 - n + 1) % n:
                return m >> 32


_STREAM_CLS: type | None = None


def _raw_stream_matches() -> bool:
    """Install-time self-check: raw replay vs the real Generator."""
    for seed in (0, 1, 12345):
        fast = _RawStream(seed, "fastmesh-check")
        gold = rng.generator_for(seed, "fastmesh-check")
        for _ in range(400):
            a, b = fast.random(), float(gold.random())
            if a != b:
                return False
            if a < 0.5:
                for n in (6, 3, 2, 1):
                    if fast.integers(n) != int(gold.integers(n)):
                        return False
        # exercise the Lemire rejection loop (high-probability branch)
        big = 3_000_000_000
        for _ in range(64):
            if fast.integers(big) != int(gold.integers(big)):
                return False
    return True


def make_stream(seed: int, *key):
    """A traffic RNG stream replaying ``rng.generator_for(seed, *key)``.

    Uses the raw-word replay when the install-time self-check passes on
    this numpy build, else the always-correct Generator fallback.
    """
    global _STREAM_CLS
    if _STREAM_CLS is None:
        try:
            ok = _raw_stream_matches()
        except Exception:           # fallback probe: any failure means "no"
            ok = False
        _STREAM_CLS = _RawStream if ok else _GeneratorStream
    return _STREAM_CLS(seed, *key)


# ---------------------------------------------------------------------------
# The batched mesh kernel
# ---------------------------------------------------------------------------

# flit flag bits carried through the ring buffers
_F_HEAD = 1
_F_TAIL = 2
_F_REPLY = 4

# each flit is two packed int64 words:
#   A = (dst << 15) | (src << 12..3) | flags      (node ids fit 12 bits)
#   B = (birth << 32) | pid
# B doubles as the age-arbitration key AND the wormhole lock value (pid
# is unique per lane, so equal B means the same packet).
_A_DST_SHIFT = 15
_A_SRC_SHIFT = 3
_A_SRC_MASK = 0xFFF
_A_FLG_MASK = 7
_MAX_NODES = _A_SRC_MASK + 1

_RR_PICK_F = np.array(_RR_PICK, dtype=np.int64).ravel()    # [last*32 + mask]
# single-contender grants: any arbiter picks the only requesting port
_BIT_PORT_F = np.zeros(32, dtype=np.int64)
for _p in range(_NUM_PORTS):
    _BIT_PORT_F[1 << _p] = _p
del _p
_NO_KEY = np.iinfo(np.int64).max
_SH32 = np.int64(32)
_ARANGE5 = np.arange(_NUM_PORTS, dtype=np.int64)
_EMPTY_I = np.empty(0, dtype=np.int64)

# deferred enqueues are packed as ``(lane*nodes + node) << 27 | A``:
# the low bits are exactly the flit's A word, ready to scatter
_PEND_SHIFT = 27
_PEND_A_MASK = (1 << _PEND_SHIFT) - 1

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
    count.  Source enqueues and delivery statistics are deferred into
    per-cycle batches (see the module docstring for why that is exact).
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
        cap = max(2, int(source_capacity))

        # ---- input-buffer rings + materialised head caches -------------
        self._rf_a = np.zeros(G * F, dtype=np.int64)
        self._rf_b = np.zeros(G * F, dtype=np.int64)
        self._hd = np.zeros(G, dtype=np.int64)
        self._ln = np.zeros(G, dtype=np.int64)
        self._h_a = np.zeros(G, dtype=np.int64)
        self._h_b = np.zeros(G, dtype=np.int64)
        self._h_out = np.zeros(G, dtype=np.int64)

        # ---- router state ----------------------------------------------
        self._lock = np.full(G, -1, dtype=np.int64)
        self._body_out = np.zeros(G, dtype=np.int64)
        self._rr_last = np.full(G, _NUM_PORTS - 1, dtype=np.int64)
        self._arb_age = np.array([k == "age" for k in arbiter_kinds])
        self._arb_age_f = np.repeat(self._arb_age, slots)
        self._has_rr = bool((~self._arb_age).any())
        self._has_age = bool(self._arb_age.any())
        # True once any multi-flit packet exists: gates all lock logic
        self._wormhole = False

        # ---- source queues (ring per node, flat over lanes) -------------
        self._q_cap = cap
        self._qf_a = np.zeros(B * n * cap, dtype=np.int64)
        self._qf_b = np.zeros(B * n * cap, dtype=np.int64)
        self._q_hd = np.zeros(B * n, dtype=np.int64)
        self._q_ln = np.zeros(B * n, dtype=np.int64)
        self._next_pid_arr = np.zeros(B, dtype=np.int64)
        # deferred single-flit enqueues (packed ints in scalar inject
        # order), flushed in bulk each step
        self._pend: list = []
        # per-cycle backlog snapshot shared by every lane's feed (one
        # q_ln.tolist() per cycle instead of one slice per lane);
        # invalidated by anything that mutates q_ln mid-cycle
        self._snap: list = []
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
        self._eject_f = self._port_f == 0
        self._route_f = np.array(
            [int(xy_route(node, dst, width))
             for node in range(n) for dst in range(n)], dtype=np.int64)
        self._rtbase_f = self._node_f * n
        nbr_slot = np.full((n, _NUM_PORTS), -1, dtype=np.int64)
        for node in range(n):
            x, y = node % width, node // width
            for port, dst in ((Port.EAST, node + 1 if x + 1 < width else -1),
                              (Port.WEST, node - 1 if x > 0 else -1),
                              (Port.SOUTH,
                               node + width if y + 1 < height else -1),
                              (Port.NORTH, node - width if y > 0 else -1)):
                if dst >= 0:
                    nbr_slot[node, port] = dst * _NUM_PORTS + _OPP[port]
        # boundary ports never carry traffic (XY routing): clip to 0
        nbr_f = np.maximum(nbr_slot, 0).ravel()
        self._nbr_g = (np.arange(B, dtype=np.int64)[:, None] * slots
                       + nbr_f[None, :]).ravel()
        self._local_g = (np.arange(B, dtype=np.int64)[:, None] * slots
                         + (np.arange(n, dtype=np.int64)
                            * _NUM_PORTS)[None, :]).ravel()

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

    def _inject_now(self, lane: int, src: int, dst: int, size: int,
                    reply: bool = False) -> None:
        self._snap_cycle = -1
        qi = lane * self._n + src
        while int(self._q_ln[qi]) + size > self._q_cap:
            self._grow_queues()
        pid = int(self._next_pid_arr[lane])
        self._next_pid_arr[lane] = pid + 1
        kind = _F_REPLY if reply else 0
        hd, ln = int(self._q_hd[qi]), int(self._q_ln[qi])
        cap = self._q_cap
        base = qi * cap
        a = (dst << _A_DST_SHIFT) | (src << _A_SRC_SHIFT) | kind
        b = (self.cycle << 32) | pid
        for i in range(size):
            p = base + (hd + ln + i) % cap
            self._qf_a[p] = (a | (_F_HEAD if i == 0 else 0)
                             | (_F_TAIL if i == size - 1 else 0))
            self._qf_b[p] = b
        self._q_ln[qi] = ln + size
        if size > 1:
            self._wormhole = True

    def inject(self, lane: int, src: int, dst: int, size: int,
               reply: bool = False) -> None:
        """Queue one packet (``size`` flits) at ``src`` on ``lane``."""
        if not 0 <= src < self._n:
            raise MeshConfigError(f"source {src} outside mesh")
        if not 0 <= dst < self._n:
            raise MeshConfigError(f"destination {dst} outside mesh")
        if size <= 0:
            raise MeshConfigError(f"packet size must be positive, got {size}")
        if self._pend:
            self._flush_pending()
        self._inject_now(lane, src, dst, size, reply)

    def _flush_pending(self) -> None:
        """Bulk-enqueue the deferred single-flit packets, in append order."""
        self._snap_cycle = -1
        pend = self._pend
        k = len(pend)
        if not k:
            return
        code = np.array(pend, dtype=np.int64)
        del pend[:]
        gidx = code >> _PEND_SHIFT
        n = self._n
        lanes = gidx // n
        rank = np.arange(k, dtype=np.int64)
        strict = True
        if k > 1:
            strict = bool((gidx[1:] > gidx[:-1]).all())
            if not strict and bool((gidx[1:] < gidx[:-1]).any()):
                # appends arrived out of (lane, node) order: rare path
                nodes = (code >> _A_SRC_SHIFT) & _A_SRC_MASK
                dsts = (code >> _A_DST_SHIFT) & _A_SRC_MASK
                for i in range(k):
                    self._inject_now(int(lanes[i]), int(nodes[i]),
                                     int(dsts[i]), 1)
                return
        pid = (self._next_pid_arr.take(lanes)
               + (rank - np.searchsorted(lanes, lanes)))
        self._next_pid_arr += np.bincount(lanes, minlength=self.batch)
        if strict:
            # Bernoulli fast path: every queue appears at most once
            ql = self._q_ln.take(gidx)
            if int(ql.max()) + 1 > self._q_cap:
                self._grow_queues()
            cap = self._q_cap
            pos = (self._q_hd.take(gidx) + ql) % cap
            qi = gidx * cap + pos
            self._q_ln[gidx] += 1
        else:
            # consecutive duplicates of one queue (greedy sources) get
            # consecutive ring slots and per-lane sequential packet ids
            off = rank - np.searchsorted(gidx, gidx)
            while int((self._q_ln.take(gidx) + off).max()) + 1 > self._q_cap:
                self._grow_queues()
            cap = self._q_cap
            pos = ((self._q_hd.take(gidx) + self._q_ln.take(gidx) + off)
                   % cap)
            qi = gidx * cap + pos
            last = np.empty(k, dtype=bool)
            last[:-1] = gidx[:-1] != gidx[1:]
            last[-1] = True
            self._q_ln[gidx[last]] += off[last] + 1
        self._qf_a[qi] = code & _PEND_A_MASK
        self._qf_b[qi] = pid + (self.cycle << 32)

    def source_backlog(self, lane: int, node: int) -> int:
        if self._pend:
            self._flush_pending()
        return int(self._q_ln[lane * self._n + node])

    # ---- simulation ------------------------------------------------------
    def step(self) -> None:
        """Advance every lane one cycle (schedule, apply, inject)."""
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
        occ = ln != 0
        if wormhole:
            # a head flit needs its output lock free (or its own); body
            # flits stream behind the lock their head already holds (a
            # lock stores the holder's B word: equal B = same packet)
            is_head = (h_a & _F_HEAD) != 0
            lockv = self._lock.take(self._obase_f + h_out)
            elig = occ & (~is_head | (lockv == -1) | (lockv == h_b))
        else:
            elig = occ
        eg = np.flatnonzero(elig)
        if eg.size:
            # contender bitmask per output slot: bit = input port; the
            # output slot's flat id is also its grant and lock index
            out_g = self._obase_f.take(eg) + h_out.take(eg)
            M = np.bincount(out_g, weights=self._bit_f.take(eg),
                            minlength=G)
            cand = np.flatnonzero(M != 0)
            # downstream credit from pre-cycle buffer lengths (each input
            # buffer has exactly one upstream contender: no interference)
            okc = (self._eject_f.take(cand)
                   | (ln.take(self._nbr_g.take(cand)) < F))
            granted = cand[okc]
        else:
            granted = _EMPTY_I

        # ---- apply moves ----------------------------------------------
        dg = ig = _EMPTY_I
        if granted.size:
            # single-contender grants (most of them, away from the MC
            # hotspots) need no arbitration: the winner is the only
            # requesting port, whatever the arbiter kind
            mg = M.take(granted).astype(np.int64)
            win = _BIT_PORT_F.take(mg)
            multi = (mg & (mg - 1)) != 0
            agem = (self._arb_age_f.take(granted)
                    if self._has_rr and self._has_age else None)
            if self._has_age and multi.any():
                # oldest head wins (min B = min (birth<<32 | pid)); only
                # the truly contended age-lane grants are gathered
                am = agem & multi if agem is not None else multi
                if am.any():
                    ga = granted[am]
                    b5 = (self._obase_f.take(ga)[:, None] + _ARANGE5).ravel()
                    req = (h_out.take(b5).reshape(-1, _NUM_PORTS)
                           == self._port_f.take(ga)[:, None])
                    req &= elig.take(b5).reshape(-1, _NUM_PORTS)
                    k5 = np.where(req, h_b.take(b5).reshape(-1, _NUM_PORTS),
                                  _NO_KEY)
                    win[am] = k5.argmin(axis=1)
            if self._has_rr:
                rm = multi if agem is None else ~agem & multi
                if rm.any():
                    gr = granted[rm]
                    win[rm] = _RR_PICK_F.take(self._rr_last.take(gr) * 32
                                              + mg[rm])
                if agem is None:
                    self._rr_last[granted] = win
                else:
                    rrm = ~agem
                    self._rr_last[granted[rrm]] = win[rrm]
            src_g = self._obase_f.take(granted) + win
            f_a = h_a.take(src_g)
            f_b = h_b.take(src_g)

            if wormhole:
                f_tail = (f_a & _F_TAIL) != 0
                # wormhole locks: tails release, head-only flits acquire
                self._lock[granted[f_tail]] = -1
                acq = ((f_a & _F_HEAD) != 0) & ~f_tail
                if acq.any():
                    ga2 = granted[acq]
                    self._lock[ga2] = f_b[acq]
                    self._body_out[src_g[acq]] = self._port_f.take(ga2)

            # pop the moved flits, then re-materialise the new heads
            nh = hd.take(src_g) + 1
            if pow2:
                nh &= fmask
            else:
                nh %= F
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
                rt = self._route_f.take(self._rtbase_f.take(rs)
                                        + (na >> _A_DST_SHIFT))
                if wormhole:
                    h_out[rs] = np.where((na & _F_HEAD) != 0, rt,
                                         self._body_out.take(rs))
                else:
                    h_out[rs] = rt

            # ejections: deferred stats + the sink-visible tail record
            ej = self._eject_f.take(granted)
            if ej.any():
                if wormhole:
                    self._fd_pend.append(self._lane_f.take(granted[ej]))
                    tm = ej & f_tail
                    jg = granted[tm]
                    ja = f_a[tm]
                    jb = f_b[tm]
                else:
                    jg = granted[ej]
                    ja = f_a[ej]
                    jb = f_b[ej]
                jl = self._lane_f.take(jg)
                if not wormhole:
                    self._fd_pend.append(jl)
                if jl.size:
                    jsrc = (ja >> _A_SRC_SHIFT) & _A_SRC_MASK
                    self._st_lane.append(jl)
                    self._st_src.append(jsrc)
                    self._st_lat.append(self.cycle - (jb >> _SH32))
                    self._last_tg = jg
                    self._last_tl = jl
                    self._last_tsrc = jsrc
                    self._last_tflg = ja & _A_FLG_MASK

            # forwards: queued for the merged push below
            fw = ~ej
            dg = self._nbr_g.take(granted[fw])
            m_a = f_a[fw]
            m_b = f_b[fw]

        # ---- injection: one flit per node per cycle --------------------
        # (forwards only push ports 1-4, so the local-port credit check
        # below still sees exactly the scalar engine's post-pop state)
        if self._pend:
            self._flush_pending()
        q_ln = self._q_ln
        can = (q_ln != 0) & (ln.take(self._local_g) < F)
        iq = np.flatnonzero(can)
        if iq.size:
            cap = self._q_cap
            qh = self._q_hd.take(iq)
            qi = iq * cap + qh
            i_a = self._qf_a.take(qi)
            i_b = self._qf_b.take(qi)
            self._q_hd[iq] = (qh + 1) % cap
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
            fresh = dl == 0
            if fresh.any():
                fs = tgt[fresh]
                fa = p_a[fresh]
                h_a[fs] = fa
                h_b[fs] = p_b[fresh]
                rt = self._route_f.take(self._rtbase_f.take(fs)
                                        + (fa >> _A_DST_SHIFT))
                if wormhole:
                    h_out[fs] = np.where((fa & _F_HEAD) != 0, rt,
                                         self._body_out.take(fs))
                else:
                    h_out[fs] = rt

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
        return self._ln.reshape(self.batch, self._slots)[lane].tolist()


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
        self.feed = self._build_feed()

    def _build_feed(self):
        """Compile this lane's per-cycle feed into a constant-bound closure."""
        mesh = self.mesh
        stream = self.stream
        rate = self.injection_rate
        maxb = self.max_source_backlog
        mc = self.mc_nodes
        n_mc = len(mc)
        nodes = self.compute_nodes
        base = self.lane * mesh._n
        q_ln = mesh._q_ln
        append = mesh._pend.append
        # The backlog snapshot (one q_ln.tolist() per mesh per cycle,
        # shared by every lane and invalidated by any mid-cycle q_ln
        # mutation) is safe in every path: each node is visited once per
        # cycle (Bernoulli) or tracks its own local counter (greedy), so
        # the values cannot go stale within a call.  Lanes index it by
        # absolute queue id ``base + node``.

        # per-node enqueue codes: the low bits are the flit's A word
        node_codes = [(base + node, ((base + node) << _PEND_SHIFT)
                      | (node << _A_SRC_SHIFT) | _F_HEAD | _F_TAIL)
                      for node in nodes]
        mc_codes = [node << _A_DST_SHIFT for node in mc]

        if rate is None:
            integers = stream.integers

            def feed() -> None:
                cycle = mesh.cycle
                if mesh._snap_cycle != cycle:
                    mesh._snap = q_ln.tolist()
                    mesh._snap_cycle = cycle
                backlog = mesh._snap
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
                cycle = mesh.cycle
                if mesh._snap_cycle != cycle:
                    mesh._snap = q_ln.tolist()
                    mesh._snap_cycle = cycle
                backlog = mesh._snap
                for qi, code in node_codes:
                    if uniform() < rate and backlog[qi] < maxb:
                        append(code | mc_codes[integers(n_mc)])

            return feed

        # inline the hot random() and integers() paths of _RawStream;
        # the closure re-syncs the stream's cursor state on exit so the
        # object stays usable stand-alone
        threshold = (_U32 - (n_mc - 1)) % n_mc if n_mc > 1 else 0
        mc0_code = mc_codes[0]

        def feed() -> None:
            pos = stream._pos
            dbl = stream._dbl
            words = stream._words
            end = stream._len
            has32 = stream._has32
            buf32 = stream._buf32
            cycle = mesh.cycle
            if mesh._snap_cycle != cycle:
                mesh._snap = q_ln.tolist()
                mesh._snap_cycle = cycle
            backlog = mesh._snap
            for qi, code in node_codes:
                if pos == end:
                    stream._refill()
                    dbl = stream._dbl
                    words = stream._words
                    pos = 0
                    end = stream._len
                accept = dbl[pos] < rate
                pos += 1
                if accept and backlog[qi] < maxb:
                    if n_mc == 1:
                        dst = mc0_code  # integers(1) consumes nothing
                    else:
                        # numpy's buffered 32-bit Lemire sampler
                        while True:
                            if has32:
                                has32 = False
                                w32 = buf32
                            else:
                                if pos == end:
                                    stream._refill()
                                    dbl = stream._dbl
                                    words = stream._words
                                    pos = 0
                                    end = stream._len
                                word = words[pos]
                                pos += 1
                                buf32 = word >> 32
                                has32 = True
                                w32 = word & _U32
                            m = w32 * n_mc
                            if (m & _U32) >= threshold:
                                break
                        dst = mc_codes[m >> 32]
                    append(code | dst)
            stream._pos = pos
            stream._has32 = has32
            stream._buf32 = buf32

        return feed


# ---------------------------------------------------------------------------
# Batched twins of the scalar experiment entry points
# ---------------------------------------------------------------------------

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
    if warmup < 0:
        raise MeshConfigError("warmup must be >= 0")
    if cycles <= warmup:
        raise MeshConfigError("cycles must exceed warmup")
    combos = [(arbiter, seed) for arbiter in arbiters for seed in seeds]
    kinds = tuple(arbiter for arbiter, _seed in combos for _rate in rates)
    mesh = BatchedMesh(width, height, batch=len(kinds), arbiter_kinds=kinds,
                       source_capacity=64 + 1)
    mc_nodes = default_mc_nodes(width, height)
    feeds = []
    n_compute = 0
    for lane_base, (_arbiter, seed) in enumerate(combos):
        for offset, rate in enumerate(rates):
            source = BatchedManyToFew(mesh, lane_base * len(rates) + offset,
                                      mc_nodes, seed=seed,
                                      injection_rate=rate,
                                      max_source_backlog=64)
            n_compute = len(source.compute_nodes)
            feeds.append(source.feed)
    for _ in range(warmup):
        for feed in feeds:
            feed()
        mesh.step()
    mesh._flush_stats()
    start_count = mesh._d_count.copy()
    start_latency_sum = mesh._d_lat_sum.copy()
    start_cycle = mesh.cycle
    for _ in range(cycles - warmup):
        for feed in feeds:
            feed()
        mesh.step()
    mesh._flush_stats()
    window = mesh.cycle - start_cycle
    curves = {}
    lane = 0
    for arbiter, seed in combos:
        points = []
        for rate in rates:
            delivered = int(mesh._d_count[lane] - start_count[lane])
            latency_sum = float(mesh._d_lat_sum[lane]
                                - start_latency_sum[lane])
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




@dataclass(frozen=True)
class ReplySection:
    """The Fig 21 request/reply lane pair of :func:`batched_mesh_sections`.

    Fields as in :func:`repro.noc.mesh.interfaces.run_reply_bottleneck`.
    """
    cycles: int = 20000
    window: int = 100
    reply_flits: int = 5
    arbiter: str = "rr"


@dataclass(frozen=True)
class FairnessLane:
    """One Fig 23 fairness lane of :func:`batched_mesh_sections`.

    Fields as in :func:`repro.noc.mesh.traffic.run_fairness_experiment`.
    """
    arbiter: str = "rr"
    cycles: int = 20000
    warmup: int = 2000
    injection_rate: float | None = None


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
    """A :class:`ReplySection`'s per-cycle feed and bookkeeping.

    Lane ``request_lane`` carries the request mesh and the next lane the
    reply mesh; the Python memory-controller model couples them exactly
    as :func:`repro.noc.mesh.interfaces.run_reply_bottleneck` does, and
    the first controller's busy cycles are sampled once per window.
    """

    def __init__(self, mesh: BatchedMesh, section: ReplySection,
                 request_lane: int, mc_nodes, seed: int):
        self.mesh = mesh
        self.window = section.window
        self.request_lane = request_lane
        self._request_feed = BatchedManyToFew(mesh, request_lane, mc_nodes,
                                              seed=seed).feed
        self.memories = {
            node: _BatchedMemoryNode(mesh, node,
                                     reply_flits=section.reply_flits,
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

    def result(self):
        from repro.noc.mesh.interfaces import ReplyBottleneckResult
        util = np.array(self.samples)
        return ReplyBottleneckResult(
            utilization=util,
            mean_utilization=float(util.mean()),
            peak_utilization=float(util.max()),
            window=self.window,
        )


def batched_mesh_sections(reply: ReplySection | None = None, fairness=(),
                          width: int = 6, height: int = 6, seed: int = 0):
    """A reply-bottleneck pair and any fairness lanes as ONE lockstep run.

    Lanes ``0..k-1`` are the ``k`` fairness lanes (:class:`FairnessLane`),
    each with its own arbiter kind, cycles, warmup and injection rate; a
    :class:`ReplySection` adds a request lane ``k`` and a reply lane
    ``k+1``.  The run lasts the longest section; each section's feeds
    and bookkeeping stop at its own cycle count.  Lanes share no state,
    so a finished lane that keeps draining changes no other lane's
    result.  Returns ``(ReplyBottleneckResult or None,
    [FairnessResult per lane])``, each equal to its own
    :func:`~repro.noc.mesh.interfaces.run_reply_bottleneck` /
    :func:`~repro.noc.mesh.traffic.run_fairness_experiment` run.
    """
    from repro.noc.mesh.traffic import FairnessResult

    fairness = list(fairness)
    if reply is None and not fairness:
        raise MeshConfigError("need a reply section or a fairness lane")
    if reply is not None and not 0 < reply.window <= reply.cycles:
        raise MeshConfigError("need cycles >= window > 0")
    for lane in fairness:
        if lane.warmup < 0:
            raise MeshConfigError("warmup must be >= 0")
        if lane.cycles <= lane.warmup:
            raise MeshConfigError("cycles must exceed warmup")
    kinds = [lane.arbiter for lane in fairness]
    # source queues grow on demand: capacity only saves regrowth
    capacities = [8 if lane.injection_rate is None else 64 + 1
                  for lane in fairness]
    if reply is not None:
        kinds += [reply.arbiter] * 2
        capacities.append(reply.reply_flits * (8 + 1) + 1)
    mesh = BatchedMesh(width, height, batch=len(kinds),
                       arbiter_kinds=tuple(kinds),
                       source_capacity=max(capacities))
    mc_nodes = default_mc_nodes(width, height)
    # feeds run in lane order, so the deferred enqueues of one cycle stay
    # sorted by queue and flush in bulk (the request lane's controllers
    # flush them all at once when they read the reply backlog)
    feeds = [(lane.cycles,
              BatchedManyToFew(mesh, index, mc_nodes, seed=seed,
                               injection_rate=lane.injection_rate).feed)
             for index, lane in enumerate(fairness)]
    pair = None
    reply_end = 0
    if reply is not None:
        pair = _ReplyPair(mesh, reply, len(fairness), mc_nodes, seed)
        feeds.append((reply.cycles, pair.feed))
        reply_end = reply.cycles
    total = max(end for end, _feed in feeds)

    # per-source delivery counts at every fairness warmup and end cycle
    marks = dict.fromkeys(c for lane in fairness
                          for c in (lane.warmup, lane.cycles))

    def mark(cycle: int) -> None:
        if cycle in marks:
            mesh._flush_stats()
            marks[cycle] = mesh._d_by_src.copy()

    for cycle in range(total):
        mark(cycle)
        for end, feed in feeds:
            if cycle < end:
                feed()
        mesh.step()
        if cycle < reply_end:
            pair.collect()
    mark(total)

    compute_nodes = [node for node in range(width * height)
                     if node not in mc_nodes]
    results = []
    for index, lane in enumerate(fairness):
        delta = marks[lane.cycles][index] - marks[lane.warmup][index]
        window = lane.cycles - lane.warmup
        throughput = {node: int(delta[node]) / window
                      for node in compute_nodes}
        results.append(FairnessResult(arbiter=lane.arbiter,
                                      throughput=throughput, cycles=window))
    return (pair.result() if pair is not None else None), results


def batched_fairness_experiments(arbiters=("rr", "age"), width: int = 6,
                                 height: int = 6, cycles: int = 20000,
                                 warmup: int = 2000, seed: int = 0,
                                 injection_rate: float | None = None) -> dict:
    """The full fairness pair (or any arbiter list) as one batched run.

    Twin of :func:`repro.noc.mesh.traffic.run_fairness_experiments`:
    one lane per arbiter, identical traffic, identical
    :class:`FairnessResult`s.
    """
    from repro.noc.mesh.traffic import distinct_arbiters
    arbiters = distinct_arbiters(arbiters)
    _reply, results = batched_mesh_sections(
        fairness=[FairnessLane(arbiter, cycles, warmup, injection_rate)
                  for arbiter in arbiters],
        width=width, height=height, seed=seed)
    return {result.arbiter: result for result in results}


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
    reply, _results = batched_mesh_sections(
        reply=ReplySection(cycles, window, reply_flits, arbiter),
        width=width, height=height, seed=seed)
    return reply
