"""Batched keyed-jitter draws, bit-equal to :func:`repro.rng.jitter`.

The golden measurement path derives one ``numpy.random.Generator`` per
(seed, key) stream — ``default_rng(sha256(repr((seed, key)))[:8])`` — and
draws a single Gaussian from it.  Constructing a fresh ``SeedSequence``
+ ``PCG64`` + ``Generator`` per draw costs ~26 us; a full V100 latency
matrix needs ~10^4 draws, which is what made the scalar path slow.

This module reproduces numpy's seeding pipeline *vectorised*:

1. ``SeedSequence`` entropy-pool mixing and ``generate_state(4,
   uint64)`` are pure 32-bit integer hashes whose round constants do not
   depend on the data — they run here as uint32 array arithmetic over
   every digest at once;
2. the PCG64 ``srandom`` initialisation (one 128-bit multiply-add) runs
   as 64-bit limb arithmetic;
3. each draw installs the precomputed (state, inc) into one reused
   ``PCG64`` bit generator and takes ``standard_normal()`` — the exact
   first draw the per-key Generator would have produced.

State installation uses a direct ctypes write into the bit generator's
C struct when an *install-time self-check* proves the memory layout
(native little-endian ``__uint128_t`` build); otherwise it falls back to
the public ``.state`` setter, and if the vectorised seeding itself fails
verification (foreign platform) every draw falls back to
``default_rng`` — always correct, merely slower.  Digests below 2**32
coerce to a single ``SeedSequence`` entropy word and always take the
fallback.  All parity is asserted draw-for-draw in
``tests/test_fastpath_equivalence.py``.
"""

from __future__ import annotations

import ctypes
import itertools
import threading

import numpy as np

from repro import rng

#: Keys digested and drawn per pass of :meth:`NoiseBank.batch_normal_texts`;
#: bounds the per-key Python objects a whole-device batch holds at once.
DRAW_CHUNK = 1024

_U32_MASK = 0xFFFFFFFF
_XSHIFT = np.uint32(16)

# SeedSequence round constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L = np.uint32(0xca01f9dd)
_MIX_R = np.uint32(0x4973f715)

# PCG64 multiplier: high/low 64-bit halves of the 128-bit constant.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)


def _hash_consts(init: int, mult: int, count: int):
    """(xor, multiply) constants of ``count`` consecutive hashmix calls."""
    xors, muls = [], []
    const = init
    for _ in range(count):
        xors.append(np.uint32(const))
        const = (const * mult) & _U32_MASK
        muls.append(np.uint32(const))
    return tuple(xors), tuple(muls)


# mix_entropy performs 16 hashmix calls for a 2-word entropy input
# (4 pool fills + 4*3 inter-word mixes); generate_state performs 8.
_MIX_XOR, _MIX_MUL = _hash_consts(_INIT_A, _MULT_A, 16)
_GEN_XOR, _GEN_MUL = _hash_consts(_INIT_B, _MULT_B, 8)


def _pool_mix(lo: np.ndarray, hi: np.ndarray) -> list:
    """Vectorised ``SeedSequence.mix_entropy`` for [lo, hi] entropy."""
    step = [0]

    def hashmix(value):
        k = step[0]
        step[0] = k + 1
        value = (value ^ _MIX_XOR[k]) * _MIX_MUL[k]
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(lo)
    pool = [hashmix(lo), hashmix(hi), hashmix(zero), hashmix(zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return pool


def _state_words(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Vectorised ``SeedSequence.generate_state(4, uint64)`` words."""
    pool = _pool_mix(lo, hi)
    words32 = []
    for k in range(8):
        value = (pool[k % 4] ^ _GEN_XOR[k]) * _GEN_MUL[k]
        words32.append(value ^ (value >> _XSHIFT))
    shift = np.uint64(32)
    return tuple(words32[2 * j].astype(np.uint64)
                 | (words32[2 * j + 1].astype(np.uint64) << shift)
                 for j in range(4))


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of a 64x64 product, via 32-bit limbs."""
    mask = np.uint64(_U32_MASK)
    s32 = np.uint64(32)
    a_lo, a_hi = a & mask, a >> s32
    b_lo, b_hi = b & mask, b >> s32
    t = a_lo * b_lo
    carry = t >> s32
    t = a_hi * b_lo + carry
    w1, w2 = t & mask, t >> s32
    t = a_lo * b_hi + w1
    return a_hi * b_hi + w2 + (t >> s32)


def _pcg_limbs(w0, w1, w2, w3) -> tuple:
    """PCG64 ``srandom(initstate=(w0,w1), initseq=(w2,w3))`` as limbs.

    Replicates ``state = ((inc + initstate) * MULT + inc) mod 2**128``
    with ``inc = (initseq << 1) | 1``; returns (state_hi, state_lo,
    inc_hi, inc_lo) uint64 arrays.
    """
    one, s63 = np.uint64(1), np.uint64(63)
    inc_lo = (w3 << one) | one
    inc_hi = (w2 << one) | (w3 >> s63)
    t_lo = inc_lo + w1
    t_hi = inc_hi + w0 + (t_lo < inc_lo).astype(np.uint64)
    p_lo = t_lo * _PCG_MULT_LO
    p_hi = (_mulhi64(t_lo, _PCG_MULT_LO) + t_lo * _PCG_MULT_HI
            + t_hi * _PCG_MULT_LO)
    s_lo = p_lo + inc_lo
    s_hi = p_hi + inc_hi + (s_lo < p_lo).astype(np.uint64)
    return s_hi, s_lo, inc_hi, inc_lo


#: Digests exercising the install path at self-check time (all >= 2**32).
_CHECK_DIGESTS = (
    1 << 32, 0xdeadbeef12345678, 0xffffffffffffffff, 1 << 63,
    0x0123456789abcdef, 0x9e3779b97f4a7c15, 0x100000001, 0xfedcba9876543210,
)


class NoiseBank:
    """Reusable engine for batched keyed-normal draws.

    Not safe for concurrent use from multiple threads without the
    internal lock (one shared scratch bit generator); :meth:`batch_normal`
    serialises itself.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._bg = np.random.PCG64()
        self._gen = np.random.Generator(self._bg)
        self._raw = None
        self.mode = "generic"
        if self._seeding_ok():
            for mode in ("ctypes", "state"):
                if mode == "ctypes" and not self._probe_ctypes():
                    continue
                self.mode = mode
                if self._draws_ok():
                    break
                self.mode = "generic"

    # ---- install-time self-checks ---------------------------------------
    def _seeding_ok(self) -> bool:
        """Vectorised SeedSequence words must match numpy's own."""
        digs = np.array(_CHECK_DIGESTS, dtype=np.uint64)
        lo = (digs & np.uint64(_U32_MASK)).astype(np.uint32)
        hi = (digs >> np.uint64(32)).astype(np.uint32)
        words = _state_words(lo, hi)
        for i, d in enumerate(digs.tolist()):
            expect = np.random.SeedSequence(d).generate_state(4, np.uint64)
            if any(int(words[j][i]) != int(expect[j]) for j in range(4)):
                return False
        return True

    def _probe_ctypes(self) -> bool:
        """Verify the PCG64 C-struct layout before ever writing to it.

        ``state_address`` points at ``pcg64_state { pcg64_random_t *rng;
        int has_uint32; uint32 uinteger; }``; on native ``__uint128_t``
        little-endian builds the pointee is four uint64 words
        (state_lo, state_hi, inc_lo, inc_hi).  The probe installs known
        values through the public ``.state`` setter and only trusts the
        raw view if it reads them back exactly.
        """
        try:
            address = self._bg.ctypes.state_address
            pointer = ctypes.c_void_p.from_address(address).value
            if not pointer:
                return False
            raw = (ctypes.c_uint64 * 4).from_address(pointer)
            mask64 = (1 << 64) - 1
            for state, inc in (((0x0123456789abcdef << 64) | 0x1122334455667788,
                                (0xfedcba9876543210 << 64) | 0x0f0f0f0f0f0f0f0f),
                               (1 << 127, (1 << 64) + 1)):
                self._bg.state = {"bit_generator": "PCG64",
                                  "state": {"state": state, "inc": inc},
                                  "has_uint32": 0, "uinteger": 0}
                got = (raw[0], raw[1], raw[2], raw[3])
                want = (state & mask64, state >> 64, inc & mask64, inc >> 64)
                if got != want:
                    return False
            self._raw = raw
            return True
        except Exception:
            return False

    def _draws_ok(self) -> bool:
        """End-to-end: fast draws must equal per-key ``default_rng``."""
        try:
            digs = np.array(_CHECK_DIGESTS, dtype=np.uint64)
            got = np.empty(len(_CHECK_DIGESTS))
            self._fast_draws(digs, np.arange(len(_CHECK_DIGESTS)), got)
        except Exception:
            return False
        return all(
            float(got[i]) == float(np.random.default_rng(d).standard_normal())
            for i, d in enumerate(_CHECK_DIGESTS))

    # ---- draws ------------------------------------------------------------
    def _fast_draws(self, digs: np.ndarray, idx, out: np.ndarray) -> None:
        """Standard-normal first draws for ``digs[idx]`` into ``out[idx]``."""
        lo = (digs & np.uint64(_U32_MASK)).astype(np.uint32)
        hi = (digs >> np.uint64(32)).astype(np.uint32)
        s_hi, s_lo, i_hi, i_lo = _pcg_limbs(*_state_words(lo, hi))
        sh, sl = s_hi.tolist(), s_lo.tolist()
        ih, il = i_hi.tolist(), i_lo.tolist()
        draw = self._gen.standard_normal
        if self.mode == "ctypes":
            raw = self._raw
            for k in idx.tolist():
                raw[0] = sl[k]
                raw[1] = sh[k]
                raw[2] = il[k]
                raw[3] = ih[k]
                out[k] = draw()
        else:
            bg = self._bg
            template = {"bit_generator": "PCG64",
                        "state": {"state": 0, "inc": 0},
                        "has_uint32": 0, "uinteger": 0}
            for k in idx.tolist():
                template["state"] = {"state": (sh[k] << 64) | sl[k],
                                     "inc": (ih[k] << 64) | il[k]}
                bg.state = template
                out[k] = draw()

    def batch_normal(self, seed: int, keys, sigma: float) -> np.ndarray:
        """One draw per key: ``rng.jitter(seed, *key, sigma=sigma)[0]``.

        ``keys`` is an iterable of tuples whose elements must ``repr``
        exactly as the scalar path's key parts do (plain Python ints,
        bools and strings — not numpy scalars).
        """
        seed = int(seed)
        return self.batch_normal_texts(
            (rng.key_text(seed, key) for key in keys), sigma)

    def batch_normal_texts(self, texts, sigma: float) -> np.ndarray:
        """One draw per stream text (:func:`repro.rng.key_text` bytes, as
        :func:`repro.rng.render_keys` writes them for a key batch).

        Texts are digested and drawn :data:`DRAW_CHUNK` at a time, so a
        generator of texts never holds more than one chunk of per-key
        Python objects; every stream is independent, so chunking cannot
        change a draw.
        """
        texts = iter(texts)
        parts = []
        while True:
            chunk = list(itertools.islice(texts, DRAW_CHUNK))
            if not chunk:
                break
            parts.append(self._draw_chunk(rng.text_digests(chunk)))
        out = np.concatenate(parts) if parts else np.empty(0)
        # the per-stream Generator computes loc + scale * x; replicate
        # the identical float operation order on the whole batch
        return out * float(sigma) + 0.0

    def _draw_chunk(self, digs: np.ndarray) -> np.ndarray:
        """Standard-normal first draws of one chunk of stream digests."""
        n = len(digs)
        out = np.empty(n)
        with self._lock:
            small = digs < np.uint64(1 << 32)
            if self.mode == "generic":
                small = np.ones(n, dtype=bool)
            slow_idx = np.flatnonzero(small)
            for k in slow_idx.tolist():
                out[k] = np.random.default_rng(
                    int(digs[k])).standard_normal()
            fast_idx = np.flatnonzero(~small)
            if fast_idx.size:
                self._fast_draws(digs, fast_idx, out)
        return out


_BANK: NoiseBank | None = None
_BANK_LOCK = threading.Lock()


def get_bank() -> NoiseBank:
    """The process-wide :class:`NoiseBank` (created on first use)."""
    global _BANK
    if _BANK is None:
        with _BANK_LOCK:
            if _BANK is None:
                _BANK = NoiseBank()
    return _BANK


def batch_jitter(seed: int, keys, sigma: float) -> np.ndarray:
    """Module-level convenience wrapper over :meth:`NoiseBank.batch_normal`."""
    return get_bank().batch_normal(seed, keys, sigma)
