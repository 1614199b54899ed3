"""Batched keyed-jitter draws, bit-equal to :func:`repro.rng.jitter`.

The golden measurement path derives one ``numpy.random.Generator`` per
(seed, key) stream — ``default_rng(sha256(repr((seed, key)))[:8])`` — and
draws a single Gaussian from it.  Constructing a fresh ``SeedSequence``
+ ``PCG64`` + ``Generator`` per draw costs ~26 us; a full V100 latency
matrix needs ~10^4 draws, which is what made the scalar path slow.

This module reproduces numpy's seeding pipeline *vectorised*:

1. ``SeedSequence`` entropy-pool mixing and ``generate_state(4,
   uint64)`` are pure 32-bit integer hashes whose round constants do not
   depend on the data — they run here as uint32 array arithmetic on
   stacked ``(k, n)`` pool rows, over every digest at once;
2. the PCG64 ``srandom`` initialisation (one 128-bit multiply-add) runs
   as 64-bit limb arithmetic;
3. the first draw is array arithmetic too: one more LCG step and the
   XSL-RR output give each stream's first ``next_uint64``, and the first
   iteration of numpy's ``random_standard_normal`` ziggurat (strip
   ``r & 0xff``, sign bit 8, 52-bit magnitude ``r >> 9``, value
   ``magnitude * wi[strip]``) is returned when the magnitude is below
   ``ki[strip]``.  Only the draws that iteration rejects (~1.5%) install
   their (state, inc) into one reused ``PCG64`` bit generator and take
   ``standard_normal()`` — the exact draw the per-key Generator makes.

numpy keeps ``wi``/``ki`` private, so each bank derives them at
construction (a few ms) by drawing from installed states that force a
chosen first output; a strip whose ``ki`` is not proven exact keeps
``ki = 0`` and all its draws take the install path.  State installation
uses a direct ctypes write into the bit generator's C struct when an
*install-time self-check* proves the memory layout (native little-endian
``__uint128_t`` build); otherwise it falls back to the public ``.state``
setter, and if the vectorised seeding itself fails verification (foreign
platform) every draw falls back to ``default_rng`` — always correct,
merely slower.  Digests below 2**32 coerce to a single ``SeedSequence``
entropy word and always take the fallback.  All parity is asserted
draw-for-draw in ``tests/test_fastpath_equivalence.py``.
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


def _hash_consts(init: int, mult: int, count: int) -> tuple:
    """(xor, multiply) constant columns of ``count`` consecutive hashmix
    calls, shaped ``(count, 1)`` to broadcast over stacked pool rows."""
    xors, muls = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = (const * mult) & _U32_MASK
        muls.append(const)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(muls, dtype=np.uint32)[:, None])


# mix_entropy performs 16 hashmix calls for a 2-word entropy input
# (4 pool fills + 4*3 inter-word mixes); generate_state performs 8.
_MIX_XOR, _MIX_MUL = _hash_consts(_INIT_A, _MULT_A, 16)
_GEN_XOR, _GEN_MUL = _hash_consts(_INIT_B, _MULT_B, 8)
#: Per source pool word: the rows it mixes into, in SeedSequence's
#: order, and the (xor, multiply) columns of its three hashmix calls.
_MIX_STAGES = tuple(([d for d in range(4) if d != src],
                     _MIX_XOR[4 + 3 * src:7 + 3 * src],
                     _MIX_MUL[4 + 3 * src:7 + 3 * src]) for src in range(4))


def _pool_mix(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised ``SeedSequence.mix_entropy`` for [lo, hi] entropy: the
    ``(4, n)`` uint32 pool.  Each source word's three hashmix calls run
    as one stacked operation (the source row is not mixed into itself,
    so it stays fixed while they run)."""
    pool = np.zeros((4, len(lo)), dtype=np.uint32)
    pool[0], pool[1] = lo, hi
    pool ^= _MIX_XOR[:4]
    pool *= _MIX_MUL[:4]
    pool ^= pool >> _XSHIFT
    for src, (dst, xor, mul) in enumerate(_MIX_STAGES):
        hashed = pool[src] ^ xor
        hashed *= mul
        hashed ^= hashed >> _XSHIFT
        hashed *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    return pool


def _state_words(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorised ``SeedSequence.generate_state(4, uint64)``: ``(4, n)``."""
    pool = _pool_mix(lo, hi)
    value = np.concatenate((pool, pool)) ^ _GEN_XOR
    value *= _GEN_MUL
    value ^= value >> _XSHIFT
    words32 = value.astype(np.uint64)
    return words32[0::2] | (words32[1::2] << np.uint64(32))


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


def _lcg_step(s_hi, s_lo, i_hi, i_lo) -> tuple:
    """(hi, lo) limbs of the PCG64 step ``state * MULT + inc mod 2**128``."""
    lo = s_lo * _PCG_MULT_LO + i_lo
    hi = (_mulhi64(s_lo, _PCG_MULT_LO) + s_lo * _PCG_MULT_HI
          + s_hi * _PCG_MULT_LO + i_hi + (lo < i_lo).astype(np.uint64))
    return hi, lo


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
    return (*_lcg_step(t_hi, t_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _first_output(s_hi, s_lo, i_hi, i_lo) -> np.ndarray:
    """PCG64 ``next_uint64`` from (state, inc) limbs: one LCG step, then
    the XSL-RR output ``rotr64(hi ^ lo, hi >> 58)`` of the new state."""
    hi, lo = _lcg_step(s_hi, s_lo, i_hi, i_lo)
    word, rot = hi ^ lo, hi >> np.uint64(58)
    return (word >> rot) | (word << ((np.uint64(64) - rot) & np.uint64(63)))


def _split(digs: np.ndarray) -> tuple:
    """(low, high) uint32 words of uint64 digests."""
    return ((digs & np.uint64(_U32_MASK)).astype(np.uint32),
            (digs >> np.uint64(32)).astype(np.uint32))


# PCG64 arithmetic on Python ints, for installing states that force a
# chosen first output (the ziggurat table probe).
_PCG_MULT = (int(_PCG_MULT_HI) << 64) | int(_PCG_MULT_LO)
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_U128_MASK = (1 << 128) - 1


def _forced_state(output: int) -> tuple:
    """A PCG64 (state, inc) whose next two ``next_uint64`` outputs are
    ``output`` and a value below 2**11 (so a following ``next_double``
    reads 0.0).

    The post-step state is ``(hi=0, lo=output)``, whose XSL-RR output is
    ``output`` itself; ``inc`` steers the next state to ``(0, t)`` with
    ``t`` in {0, 1} (``inc`` must be odd); the inverse LCG step then
    gives the state to install.
    """
    inc = (1 - (output & 1) - output * _PCG_MULT) & _U128_MASK
    return ((output - inc) * _PCG_MULT_INV) & _U128_MASK, inc


#: ``random_standard_normal``'s first ziggurat draw splits a 64-bit
#: output into a strip index, a sign bit and a 52-bit magnitude.
_ZIG_STRIPS = 256
_RABS_BITS = 52
_RABS_MASK = np.uint64((1 << _RABS_BITS) - 1)


def _ziggurat_output(idx: int, rabs: int, negative: bool = False) -> int:
    """The ``next_uint64`` value that selects strip ``idx``, magnitude
    ``rabs`` and the given sign in the ziggurat's first iteration."""
    return idx | (int(negative) << 8) | (rabs << 9)


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
        # ziggurat strip tables; ki = 0 sends a strip to the install path
        self._wi = np.zeros(_ZIG_STRIPS)
        self._ki = np.zeros(_ZIG_STRIPS, dtype=np.uint64)
        self.mode = "generic"
        if self._seeding_ok():
            for mode in ("ctypes", "state"):
                if mode == "ctypes" and not self._probe_ctypes():
                    continue
                self.mode = mode
                if self._draws_ok():
                    break
                self.mode = "generic"
        if self.mode != "generic":
            self._probe_tables()
            if not self._draws_ok():
                self._ki[:] = 0

    # ---- install-time self-checks ---------------------------------------
    def _seeding_ok(self) -> bool:
        """Vectorised SeedSequence words must match numpy's own."""
        words = _state_words(*_split(np.array(_CHECK_DIGESTS,
                                              dtype=np.uint64)))
        for i, d in enumerate(_CHECK_DIGESTS):
            expect = np.random.SeedSequence(d).generate_state(4, np.uint64)
            if words[:, i].tolist() != expect.tolist():
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
        """End-to-end: chunk draws must equal per-key ``default_rng``
        (every one through the install path while ``ki`` is all 0)."""
        try:
            got = self._draw_chunk(np.array(_CHECK_DIGESTS, dtype=np.uint64))
        except Exception:
            return False
        return got.tolist() == [np.random.default_rng(d).standard_normal()
                                for d in _CHECK_DIGESTS]

    def _forced_draw(self, output: int) -> tuple:
        """(draw, consumed exactly one output) of ``standard_normal()`` on
        a state whose first output is ``output`` (see
        :func:`_forced_state`)."""
        state, inc = _forced_state(output)
        self._install(state, inc)
        value = self._gen.standard_normal()
        if self.mode == "ctypes":
            post = (self._raw[1] << 64) | self._raw[0]
        else:
            post = self._bg.state["state"]["state"]
        return value, post == output

    def _accepts(self, idx: int, rabs: int) -> bool:
        """Whether the first ziggurat iteration returns at (idx, rabs),
        with the value the vectorised draw computes."""
        value, one = self._forced_draw(_ziggurat_output(idx, rabs))
        return one and value == float(rabs) * self._wi[idx]

    def _probe_tables(self) -> None:
        """Derive numpy's private ziggurat tables ``wi``/``ki`` by forced
        draws; a strip whose ``ki`` is not proven keeps ``ki = 0``.

        ``wi[idx]`` is the draw at magnitude 1 (returned on the first
        iteration, or by the wedge test that the forced ``next_double`` of
        0.0 passes).  ``ki[idx] = k`` is proven when magnitude ``k - 1``
        returns after one output and ``k`` does not; ``k`` is searched
        near ``2**52 * wi[idx-1] / wi[idx]`` (exact or one low), and by
        bisection for strip 0.
        """
        wi, ki = self._wi, self._ki
        for idx in range(_ZIG_STRIPS):
            wi[idx] = self._forced_draw(_ziggurat_output(idx, 1))[0]
        if not self._accepts(0, 1):
            return
        lo, hi = 1, 1 << _RABS_BITS         # accepts lo; hi is past the end
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if self._accepts(0, mid) else (lo, mid)
        ki[0] = hi
        for idx in range(1, _ZIG_STRIPS):
            if not wi[idx] > 0:
                continue
            ratio = wi[idx - 1] / wi[idx] * 2.0 ** _RABS_BITS
            if not 1 <= ratio < 2 ** _RABS_BITS:
                continue                    # strip 1: past 2**52, ki = 0
            k = int(ratio)
            if self._accepts(idx, k):
                if k + 1 == 1 << _RABS_BITS or not self._accepts(idx, k + 1):
                    ki[idx] = k + 1
            elif self._accepts(idx, k - 1):
                ki[idx] = k

    # ---- draws ------------------------------------------------------------
    def _install(self, state: int, inc: int) -> None:
        """Install a PCG64 (state, inc) into the scratch bit generator."""
        if self.mode == "ctypes":
            raw = self._raw
            raw[0], raw[1] = state & 0xFFFFFFFFFFFFFFFF, state >> 64
            raw[2], raw[3] = inc & 0xFFFFFFFFFFFFFFFF, inc >> 64
        else:
            self._bg.state = {"bit_generator": "PCG64",
                              "state": {"state": state, "inc": inc},
                              "has_uint32": 0, "uinteger": 0}

    def _ziggurat(self, r: np.ndarray) -> tuple:
        """(draw, accepted) of ``random_standard_normal``'s first ziggurat
        iteration on first outputs ``r``: strip ``r & 0xff``, sign bit 8,
        magnitude ``(r >> 9) & (2**52 - 1)``, returned iff it is below the
        strip's ``ki``."""
        idx = (r & np.uint64(0xFF)).astype(np.intp)
        rabs = (r >> np.uint64(9)) & _RABS_MASK
        draws = rabs.astype(np.float64) * self._wi[idx]
        np.negative(draws, out=draws,
                    where=(r & np.uint64(0x100)).astype(bool))
        return draws, rabs < self._ki[idx]

    def _install_draws(self, limbs: tuple, idx: np.ndarray,
                       out: np.ndarray) -> None:
        """``out[idx]``: install each stream's PCG64 limbs into the
        scratch generator and take ``standard_normal()``."""
        draw = self._gen.standard_normal
        sh, sl, ih, il = (limb[idx].tolist() for limb in limbs)
        for k, s_hi, s_lo, i_hi, i_lo in zip(idx.tolist(), sh, sl, ih, il):
            self._install((s_hi << 64) | s_lo, (i_hi << 64) | i_lo)
            out[k] = draw()

    def batch_normal(self, seed: int, keys, sigma) -> np.ndarray:
        """One draw per key: ``rng.jitter(seed, *key, sigma=sigma)[0]``.

        ``keys`` is an iterable of key tuples, rendered by
        :func:`repro.rng.key_text`; ``sigma`` is as in
        :meth:`batch_normal_texts`.
        """
        seed = int(seed)
        return self.batch_normal_texts(
            (rng.key_text(seed, key) for key in keys), sigma)

    def batch_normal_texts(self, texts, sigma) -> np.ndarray:
        """One draw per stream text (:func:`repro.rng.key_text` bytes, as
        :func:`repro.rng.render_keys` writes them for a key batch).

        ``sigma`` is one scale for every stream or an array with one per
        stream, so streams of several scales draw in one call.  Texts
        are digested and drawn :data:`DRAW_CHUNK` at a time, so a
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
        scale = np.asarray(sigma, dtype=np.float64)
        if scale.ndim and scale.shape != out.shape:
            raise ValueError(f"{scale.shape[0]} sigmas for {len(out)} "
                             f"streams")
        # the per-stream Generator computes loc + scale * x; replicate
        # the identical float operation order on the whole batch
        return out * scale + 0.0

    def _draw_chunk(self, digs: np.ndarray) -> np.ndarray:
        """Standard-normal first draws of one chunk of stream digests.

        Every stream's first output and first ziggurat iteration run as
        array arithmetic; the draws that iteration rejects (~1.5%) take
        the per-stream install path.  Digests below 2**32 seed a
        one-word ``SeedSequence`` and take ``default_rng``.
        """
        with self._lock:
            if self.mode == "generic":
                out = np.empty(len(digs))
                small = np.ones(len(digs), dtype=bool)
            else:
                limbs = _pcg_limbs(*_state_words(*_split(digs)))
                out, accepted = self._ziggurat(_first_output(*limbs))
                small = digs < np.uint64(1 << 32)
                self._install_draws(limbs, np.flatnonzero(~accepted & ~small),
                                    out)
            for k in np.flatnonzero(small).tolist():
                out[k] = np.random.default_rng(
                    int(digs[k])).standard_normal()
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
