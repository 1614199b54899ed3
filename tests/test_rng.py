"""Deterministic keyed noise streams."""

import numpy as np
import pytest

from repro import rng


def test_same_key_same_stream():
    a = rng.jitter(0, "latency", 3, 7, sigma=2.0, n=16)
    b = rng.jitter(0, "latency", 3, 7, sigma=2.0, n=16)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = rng.jitter(0, "latency", 3, 7, sigma=2.0, n=16)
    b = rng.jitter(0, "latency", 3, 8, sigma=2.0, n=16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = rng.jitter(0, "x", sigma=1.0, n=8)
    b = rng.jitter(1, "x", sigma=1.0, n=8)
    assert not np.array_equal(a, b)


def test_stream_independence():
    """Consuming one stream must not perturb another."""
    before = rng.jitter(0, "a", sigma=1.0, n=4)
    rng.jitter(0, "b", sigma=1.0, n=1000)
    after = rng.jitter(0, "a", sigma=1.0, n=4)
    assert np.array_equal(before, after)


def test_uniform_offset_in_range():
    for key in range(50):
        v = rng.uniform_offset(0, key, low=-3.0, high=5.0)
        assert -3.0 <= v <= 5.0


def test_jitter_scales_with_sigma():
    wide = rng.jitter(0, "scale", sigma=10.0, n=2000).std()
    narrow = rng.jitter(0, "scale", sigma=1.0, n=2000).std()
    assert wide == pytest.approx(10 * narrow)


def test_nested_tuple_keys_supported():
    a = rng.jitter(0, "m", (1, 2), sigma=1.0, n=2)
    b = rng.jitter(0, "m", (1, 3), sigma=1.0, n=2)
    assert not np.array_equal(a, b)


# ------------------------------------------------------- rendered key text

#: Every key shape the batched engines draw, as (shape, key builder).
KEY_SHAPES = {
    "measure": (("measure", rng.COLUMN, rng.COLUMN, True, (0, rng.COLUMN)),
                lambda sm, home, seq: ("measure", sm, home, True, (0, seq))),
    "route-sm": (("route-sm", rng.COLUMN, rng.COLUMN),
                 lambda sm, sv: ("route-sm", sm, sv)),
    "route-gpc": (("route-gpc", rng.COLUMN, rng.COLUMN),
                  lambda gpc, sv: ("route-gpc", gpc, sv)),
    "route-cpc": (("route-cpc", rng.COLUMN, rng.COLUMN),
                  lambda cpc, sv: ("route-cpc", cpc, sv)),
    "slice-bw": (("slice-bw", rng.COLUMN), lambda s: ("slice-bw", s)),
}
SEEDS = (0, 7, -5, -(2 ** 70), 2 ** 63, 2 ** 64 + 3, True, np.int64(11))


@pytest.mark.parametrize("name", sorted(KEY_SHAPES))
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_render_keys_writes_the_scalar_key_text(name, seed):
    shape, build = KEY_SHAPES[name]
    width = build.__code__.co_argcount
    columns = [np.arange(start, start + 40) * (3 + k) % 97
               for k, start in enumerate(range(0, 40 * width, 40))]
    columns[-1] = columns[-1] + 10 ** 12          # large access sequences
    texts = rng.render_keys(seed, shape, *columns)
    keys = [build(*row) for row in zip(*(c.tolist() for c in columns))]
    assert texts == [repr((int(seed), key)).encode() for key in keys]
    assert texts == [rng.key_text(seed, key) for key in keys]
    assert rng.text_digests(texts).tolist() \
        == [rng._digest(seed, key) for key in keys]


def test_render_keys_accepts_lists_and_empty_columns():
    assert rng.render_keys(3, ("slice-bw", rng.COLUMN), [1, 2]) \
        == [b"(3, ('slice-bw', 1))", b"(3, ('slice-bw', 2))"]
    assert rng.render_keys(3, ("slice-bw", rng.COLUMN), []) == []
    assert rng.text_digests([]).shape == (0,)


def test_render_keys_escapes_constant_text():
    """Constant key parts containing ``%`` or newlines render verbatim."""
    shape = ("50%\n%d", rng.COLUMN, "\0")
    assert rng.render_keys(1, shape, [4, 5]) \
        == [rng.key_text(1, ("50%\n%d", v, "\0")) for v in (4, 5)]


def test_render_keys_rejects_non_integer_columns():
    shape = ("slice-bw", rng.COLUMN)
    with pytest.raises(TypeError):
        rng.render_keys(0, shape, [True, False])   # would render 1/0
    with pytest.raises(TypeError):
        rng.render_keys(0, shape, [1.0])
    with pytest.raises(ValueError):
        rng.render_keys(0, shape, [1], [2])


def test_text_digests_are_the_first_eight_sha256_bytes():
    import hashlib
    texts = [b"", b"(0, ('slice-bw', 1))", bytes(range(256))]
    assert rng.text_digests(texts).tolist() == [
        int.from_bytes(hashlib.sha256(t).digest()[:8], "little")
        for t in texts]


# --------------------------------------------------------- NumPy key parts

def test_key_text_renders_numpy_parts_as_python_values():
    plain = ("measure", 3, 7, True, (0, (5, False)))
    mixed = ("measure", np.int64(3), np.uint8(7), np.True_,
             (np.int32(0), (np.int16(5), np.bool_(False))))
    assert rng.key_text(0, mixed) == rng.key_text(0, plain) \
        == repr((0, plain)).encode()
    assert rng.key_text(np.int64(9), ["a", 1]) == b"(9, ('a', 1))"


def _numpy_ids_match(draw, *ids):
    """``draw`` reads the same with NumPy ids as with the Python ids."""
    as_numpy = [np.bool_(i) if isinstance(i, bool) else np.int64(i)
                for i in ids]
    assert np.array_equal(draw(*ids), draw(*as_numpy))


def test_numpy_ids_key_the_same_latency_samples():
    from repro.gpu.device import SimulatedGPU
    latency = SimulatedGPU("V100", seed=0).latency
    _numpy_ids_match(lambda sm, sl, hit: latency.sample(sm, sl, n=3,
                                                        hit=hit),
                     0, 1, True)


def test_numpy_ids_key_the_same_memory_access():
    from repro.gpu.device import SimulatedGPU

    def access(sm, address):
        return SimulatedGPU("V100", seed=0).memory.access(
            sm, address).latency_cycles

    _numpy_ids_match(access, 0, 0)


def test_numpy_ids_key_the_same_sm_to_sm_latency():
    from repro.gpu.device import SimulatedGPU
    latency = SimulatedGPU("H100", seed=0).latency
    _numpy_ids_match(latency.sm_to_sm_latency, 0, 5)


def test_numpy_ids_key_the_same_slice_bandwidth():
    from repro.gpu.device import SimulatedGPU
    topology = SimulatedGPU("V100", seed=0).topology
    _numpy_ids_match(topology._slice_capacity, 3)


def test_numpy_ids_key_the_same_covert_measurement():
    from repro.gpu.device import SimulatedGPU
    from repro.sidechannel.covert import CovertChannel
    channel = CovertChannel(SimulatedGPU("V100", seed=0), 0, [0, 1], [2, 3])
    _numpy_ids_match(lambda active, symbol:
                     channel._receiver_bandwidth(active, symbol=symbol),
                     True, 4)
