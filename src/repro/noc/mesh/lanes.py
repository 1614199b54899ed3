"""What the two batched mesh kernels share: RNG replay, flit words, queues.

:class:`~repro.noc.mesh.fastmesh.BatchedMesh` (one VC, per-lane
arbiters: Fig 21, Fig 23) and
:class:`~repro.noc.mesh.vcmesh_batched.BatchedVCMesh` (per-lane VC
count, buffer depth and credit latency: the VC sweep) both simulate
``B`` independent mesh *lanes* as flat NumPy arrays.  They stay two
kernels: the one-VC step of ``BatchedVCMesh`` costs 1.45-1.65x a
``BatchedMesh`` step, inject included (DESIGN.md §16), so folding the
one-VC work onto it would slow the Fig 23 sweep.  What they have in
common lives here, and neither kernel module imports the other:

* :func:`make_stream` replays the scalar traffic RNG
  (``rng.generator_for(seed, *key)``'s ``random()`` and
  ``integers(n)``) exactly from ``bit_generator.random_raw`` blocks;
  the compiled one-VC run takes a stream over at its
  :meth:`_RawStream.position` and hands it back with
  :meth:`_RawStream.resume`;
* the flit word format: every flit is two int64 words, ``A`` (dst, src,
  flags) and ``B`` (birth cycle, packet id), and a deferred packet is
  one packed int ``queue << 43 | (size-1) << 27 | A``;
* :class:`SourceQueues`: the per-(lane, node) source-queue rings, the
  deferred-enqueue list, its bulk flush and the backlog read.
"""

from __future__ import annotations

import numpy as np

from repro import rng
from repro.errors import MeshConfigError
from repro.noc.mesh.routing import Port, xy_route

_NUM_PORTS = len(Port)
# opposite[port] for the four cardinal ports; LOCAL has no opposite
_OPP = (0, int(Port.WEST), int(Port.EAST), int(Port.SOUTH), int(Port.NORTH))
_EMPTY_I = np.empty(0, dtype=np.int64)


def neighbor_nodes(width: int, height: int) -> np.ndarray:
    """``(nodes, ports)`` table of each port's neighbour node (-1: none)."""
    nbr = np.full((width * height, _NUM_PORTS), -1, dtype=np.int64)
    for node in range(width * height):
        x, y = node % width, node // width
        for port, dst in ((Port.EAST, node + 1 if x + 1 < width else -1),
                          (Port.WEST, node - 1 if x > 0 else -1),
                          (Port.SOUTH, node + width if y + 1 < height else -1),
                          (Port.NORTH, node - width if y > 0 else -1)):
            nbr[node, port] = dst
    return nbr


def check_lane(lane: int, batch: int) -> None:
    """Reject a lane id outside ``0..batch-1``.

    A queue id is ``lane*nodes + node``: an unchecked lane would land in
    another lane's queues, or past the last one.
    """
    if not 0 <= lane < batch:
        raise MeshConfigError(f"lane {lane} outside the {batch}-lane batch")


def route_table(width: int, height: int) -> np.ndarray:
    """XY output port at ``node*nodes + dst``, flat."""
    n = width * height
    return np.array([int(xy_route(node, dst, width))
                     for node in range(n) for dst in range(n)],
                    dtype=np.int64)


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
    because the raw stream is purely sequential.  A hot loop may read
    ``_dbl[_pos]`` inline for ``random()`` as long as it writes ``_pos``
    back before calling a method.  :meth:`position` and :meth:`resume`
    hand the stream to and from the compiled run, which draws the same
    words in C.
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

    def position(self) -> tuple:
        """``(state, inc, has32, buf32)`` as the next draw sees them.

        The PCG64 state and increment are the bit generator's, rewound
        past the prefetched words not read yet; ``has32``/``buf32`` are
        the stashed high half-word of :meth:`integers`.
        """
        state = self._bg.state
        ahead = self._len - self._pos
        if ahead:
            rewound = np.random.PCG64(0)
            rewound.state = state
            rewound.advance(-ahead)
            state = rewound.state
        inner = state["state"]
        return inner["state"], inner["inc"], int(self._has32), self._buf32

    def resume(self, state: int, inc: int, has32: int, buf32: int) -> None:
        """Continue from a :meth:`position` (nothing prefetched)."""
        full = self._bg.state
        full["state"] = {"state": state, "inc": inc}
        self._bg.state = full
        self._words = []
        self._dbl = []
        self._pos = self._len = 0
        self._has32 = bool(has32)
        self._buf32 = buf32


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
# Flit words
# ---------------------------------------------------------------------------

# flit flag bits carried through the ring buffers
_F_HEAD = 1
_F_TAIL = 2
_F_REPLY = 4

# each flit is two packed int64 words:
#   A = (dst << 15) | (src << 12..3) | flags      (node ids fit 12 bits)
#   B = (birth << 32) | pid
# B doubles as the age-arbitration key AND the wormhole lock value (pid
# is unique, so equal B means the same packet).
_A_DST_SHIFT = 15
_A_SRC_SHIFT = 3
_A_SRC_MASK = 0xFFF
_A_FLG_MASK = 7
_MAX_NODES = _A_SRC_MASK + 1
_NO_KEY = np.iinfo(np.int64).max
_PID_LIMIT = 1 << 32

# deferred packets are packed as ``queue << 43 | (size - 1) << 27 | A``
# with the HEAD/TAIL bits of ``A`` clear: the flush expands each packet
# into its flit train and sets them from each flit's offset
_PEND_SIZE_SHIFT = 27
_PEND_Q_SHIFT = 43
_PEND_A_MASK = (1 << _PEND_SIZE_SHIFT) - 1
_PEND_SIZE_MASK = (1 << (_PEND_Q_SHIFT - _PEND_SIZE_SHIFT)) - 1
_PEND_SIZE_BITS = _PEND_SIZE_MASK << _PEND_SIZE_SHIFT
_MAX_PACKET_FLITS = _PEND_SIZE_MASK + 1
_MAX_QUEUES = 1 << (63 - _PEND_Q_SHIFT)


# ---------------------------------------------------------------------------
# Source queues
# ---------------------------------------------------------------------------

class SourceQueues:
    """Every lane's per-node source queue as flat flit rings.

    Queue ``q = lane*nodes + node`` holds ``ln[q]`` flits from ring
    position ``hd[q]`` of ``a[q*cap:(q+1)*cap]`` / ``b[...]`` (A and B
    words).  Injected packets are not written at once: their packed
    codes collect in ``pend`` (feeds append to it directly) and
    :meth:`flush` enqueues them in one bulk scatter before the kernel's
    injection phase reads the queues, so ``ln`` changes only inside a
    kernel step.  ``pend`` and ``ln`` are never rebound: a feed may keep
    ``pend.append`` and ``ln`` across cycles.
    """

    __slots__ = ("cap", "a", "b", "hd", "ln", "pend", "next_pid")

    def __init__(self, queues: int, capacity: int):
        if queues > _MAX_QUEUES:
            raise MeshConfigError("too many lanes for the batched engine")
        cap = max(2, int(capacity))
        self.cap = cap
        self.a = np.zeros(queues * cap, dtype=np.int64)
        self.b = np.zeros(queues * cap, dtype=np.int64)
        self.hd = np.zeros(queues, dtype=np.int64)
        self.ln = np.zeros(queues, dtype=np.int64)
        self.pend: list = []
        self.next_pid = 0

    def defer(self, queue: int, size: int, a: int) -> None:
        """Defer a ``size``-flit packet whose flits carry word ``a``."""
        if size > _MAX_PACKET_FLITS:
            raise MeshConfigError(
                f"batched engine packets hold at most {_MAX_PACKET_FLITS} "
                "flits")
        self.pend.append((queue << _PEND_Q_SHIFT)
                         | ((size - 1) << _PEND_SIZE_SHIFT) | a)

    def backlog(self, queue: int) -> int:
        """Flits queued at ``queue``, the deferred packets included."""
        queued = int(self.ln[queue])
        pend = self.pend
        # a code's high bits are its queue, so max() names the highest
        # deferred queue; when that is below ``queue`` (a reply-lane read
        # after the lower lanes' feeds and the lower controllers'
        # replies) the Python scan is skipped
        if pend and max(pend) >> _PEND_Q_SHIFT >= queue:
            for code in pend:
                if code >> _PEND_Q_SHIFT == queue:
                    queued += ((code >> _PEND_SIZE_SHIFT)
                               & _PEND_SIZE_MASK) + 1
        return queued

    def grow(self) -> None:
        """Double the ring capacity, normalising rings to head 0."""
        cap = self.cap
        queues = self.hd.size
        order = ((self.hd[:, None] + np.arange(cap)) % cap
                 + np.arange(queues, dtype=np.int64)[:, None] * cap)
        for name in ("a", "b"):
            new = np.zeros(queues * cap * 2, dtype=np.int64)
            new.reshape(queues, cap * 2)[:, :cap] = getattr(self, name).take(
                order)
            setattr(self, name, new)
        self.hd[:] = 0
        self.cap = cap * 2

    def claim_ids(self, k: int, cycle: int) -> int:
        """Age key ``(cycle << 32) | pid`` of the first of ``k`` packets.

        The next ``k`` packet ids are taken; the ``i``-th packet's key
        is the result plus ``i``.
        """
        # age key B = (birth << 32) | pid: an id past 2**32 would spill
        # into the birth bits (a saturated 16-lane grid injects ~100
        # packets per cycle, so that is ~4e7 cycles away)
        if self.next_pid + k > _PID_LIMIT:
            raise MeshConfigError(
                "the batched engine ran out of packet ids "
                f"({_PID_LIMIT} per run); split the run into fewer "
                "cycles or lanes")
        b0 = (cycle << 32) | self.next_pid
        self.next_pid += k
        return b0

    def flush(self, cycle: int) -> None:
        """Enqueue the deferred packets' flit trains in one bulk scatter.

        Packets keep their inject order within each source queue, and
        packet ids count up in inject order (the age arbiter's tie
        break; like the scalar model's ids they are unique across
        lanes), whatever order the lanes and queues were appended in.
        """
        pend = self.pend
        if not pend:
            return
        k = len(pend)
        b0 = self.claim_ids(k, cycle)
        code = np.array(pend, dtype=np.int64)
        del pend[:]
        qid = code >> _PEND_Q_SHIFT
        ln = self.ln
        # queue-id steps that do not increase: none means one packet per
        # queue in queue order
        ties = k > 1 and np.count_nonzero(qid[1:] <= qid[:-1])
        if not ties and not np.count_nonzero(code & _PEND_SIZE_BITS):
            # one single-flit packet per queue, in queue order (every
            # Bernoulli cycle): no flit trains
            ahead = ln.take(qid)
            if np.count_nonzero(ahead >= self.cap):
                self.grow()
            cap = self.cap
            slot = (self.hd.take(qid) + ahead) % cap + qid * cap
            self.a[slot] = (code & _PEND_A_MASK) | (_F_HEAD | _F_TAIL)
            self.b[slot] = np.arange(b0, b0 + k, dtype=np.int64)
            ln[qid] = ahead + 1
            return
        if ties and np.count_nonzero(qid[1:] < qid[:-1]):
            # queue-major, inject order within a queue
            order = qid.argsort(kind="stable")
            qid = qid.take(order)
            code = code.take(order)
            bword = order + b0
        else:
            # already queue-major (the lanes' feeds and a reply lane's
            # controllers append in queue order): no sort
            bword = np.arange(b0, b0 + k, dtype=np.int64)
        # every packet's flit train, flit by flit; queue-major order
        # makes a flit's rank among this flush's flits of its queue its
        # distance from the queue's first flushed flit
        size = ((code >> _PEND_SIZE_SHIFT) & _PEND_SIZE_MASK) + 1
        fq = qid.repeat(size)
        ahead = (ln.take(fq) + np.arange(fq.size, dtype=np.int64)
                 - fq.searchsorted(fq))
        while np.count_nonzero(ahead >= self.cap):
            self.grow()
        cap = self.cap
        slot = (self.hd.take(fq) + ahead) % cap + fq * cap
        end = size.cumsum()
        a = (code & _PEND_A_MASK).repeat(size)
        a[end - size] |= _F_HEAD
        a[end - 1] |= _F_TAIL
        self.a[slot] = a
        self.b[slot] = bword.repeat(size)
        ln += np.bincount(fq, minlength=ln.size)
