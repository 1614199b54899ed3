"""Raw-word replay of the traffic RNG (``lanes._RawStream``).

The batched mesh kernels draw their traffic from :class:`_RawStream`,
which replays ``Generator.random()`` and ``Generator.integers(n)`` from
``bit_generator.random_raw`` blocks.  Every draw must equal the real
Generator's, including across block refills and with numpy's stashed
32-bit high half carried over a refill; when the install-time self-check
fails, :func:`make_stream` falls back to the Generator itself and the
sweeps' bytes do not change.
"""

import json

import numpy as np
import pytest

from repro import rng
from repro.noc.mesh import lanes
from repro.noc.mesh.lanes import _GeneratorStream, _RawStream, make_stream
from repro.noc.mesh.vc import sweep_vc_grid

BOUNDS = (1, 2, 3, 6, 3_000_000_000)
BLOCK = 7       # a small block forces many refills at odd offsets


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(lanes, "_RAW_BLOCK", BLOCK)


def _draw(stream, op):
    return stream.random() if op == 0 else stream.integers(BOUNDS[op - 1])


def _gold(gen, op):
    if op == 0:
        return float(gen.random())
    return int(gen.integers(BOUNDS[op - 1]))


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_interleaved_draws_match_generator(small_block, seed):
    fast = _RawStream(seed, "raw-test")
    gold = rng.generator_for(seed, "raw-test")
    ops = np.random.default_rng(seed).integers(0, len(BOUNDS) + 1, 600)
    refills = 0
    for i, op in enumerate(ops.tolist()):
        pos = fast._pos
        assert _draw(fast, op) == _gold(gold, op), (i, op)
        refills += fast._pos < pos
    assert refills >= 3


def test_stashed_high_half_straddles_refill(small_block):
    fast = _RawStream(3, "raw-test")
    gold = rng.generator_for(3, "raw-test")
    # use up the block but its last word, then take that word's low half
    for _ in range(BLOCK - 1):
        assert fast.random() == float(gold.random())
    assert fast.integers(6) == int(gold.integers(6))
    assert fast._pos == fast._len and fast._has32
    # random() refills and leaves the stash alone; integers() reads the
    # stash from the old block, then the next one takes a fresh word
    assert fast.random() == float(gold.random())
    assert fast._pos == 1 and fast._has32
    for n in (6, 6, 3, 3_000_000_000):
        assert fast.integers(n) == int(gold.integers(n))


def test_integers_one_consumes_no_words(small_block):
    fast = _RawStream(5, "raw-test")
    gold = rng.generator_for(5, "raw-test")
    for _ in range(3 * BLOCK):
        assert fast.integers(1) == int(gold.integers(1)) == 0
    assert fast.random() == float(gold.random())


def _grid_bytes() -> bytes:
    results = sweep_vc_grid(vc_counts=(1, 2), buffer_depths=(2,),
                            injection_rates=(None, 0.3), seeds=(0, 1),
                            cycles=300, reply_flits=3, window=50)
    return json.dumps([r.to_json() for r in results]).encode()


def test_generator_fallback_is_bit_identical(monkeypatch):
    monkeypatch.setattr(lanes, "_STREAM_CLS", None)
    assert type(make_stream(0, "shared-net", 1)) is _RawStream
    fast = _grid_bytes()
    monkeypatch.setattr(lanes, "_STREAM_CLS", None)
    monkeypatch.setattr(lanes, "_raw_stream_matches", lambda: False)
    assert type(make_stream(0, "shared-net", 1)) is _GeneratorStream
    assert _grid_bytes() == fast
