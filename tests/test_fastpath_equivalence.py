"""Exact-equality parity: the vectorized engine vs the scalar golden model.

Every assertion here is ``==`` on floats — the fast path consumes the
same deterministic noise streams as the scalar interpreter, so results
must be *bit-identical*, not merely close.  Devices are always built in
pairs (one per engine) so device-state side effects are compared too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bandwidth_bench import (aggregate_l2_bandwidth,
                                        aggregate_memory_bandwidth,
                                        group_to_slice_bandwidth,
                                        single_sm_slice_bandwidth,
                                        slice_bandwidth_distribution,
                                        slice_saturation_curve)
from repro.core.fastpath.latency import structural_latency_matrix
from repro.core.fastpath import noise
from repro.core.fastpath.noise import DRAW_CHUNK, NoiseBank, get_bank
from repro.core.latency_bench import measured_latency_matrix
from repro.core.speedup_bench import measure_speedups
from repro.errors import ConfigurationError
from repro.gpu.device import SimulatedGPU
from repro import rng

SPECS = ("V100", "A100", "H100")
SEEDS = (0, 11)


def device_pair(spec, seed):
    return SimulatedGPU(spec, seed=seed), SimulatedGPU(spec, seed=seed)


# ------------------------------------------------------------- engine arg

def test_measurement_apis_reject_unknown_engine():
    gpu = SimulatedGPU("V100", seed=0)
    with pytest.raises(ConfigurationError):
        measured_latency_matrix(gpu, sms=[0], engine="turbo")
    with pytest.raises(ConfigurationError):
        slice_bandwidth_distribution(gpu, 0, sms=[0], engine="turbo")


def test_scalar_engine_never_reaches_the_fast_path(monkeypatch):
    """``engine="scalar"`` must run the golden model on every path.

    Every public fast-path entry point raises here, so an inner call
    that drops the engine and falls back to the (vectorized) default
    fails instead of silently comparing the fast path with itself.
    ``jobs=1`` runs the shard workers inline, covering the sharded
    code on the calling process.
    """
    import inspect

    from repro.core.fastpath import bandwidth, latency
    from repro.core.latency_bench import latency_profile

    def forbidden(*args, **kwargs):
        raise AssertionError("engine='scalar' reached the fast path")

    for module in (bandwidth, latency):
        for name, fn in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                monkeypatch.setattr(module, name, forbidden)

    gpu = SimulatedGPU("V100", seed=0)
    pool = [0, 5, 9]
    latency_profile(gpu, 0, samples=1, engine="scalar")
    gpu.latency.latency_matrix(sms=pool, engine="scalar")
    for jobs in (None, 1):
        measured_latency_matrix(gpu, sms=pool, slices=[0, 3], samples=1,
                                jobs=jobs, engine="scalar")
        slice_bandwidth_distribution(gpu, 2, sms=pool, jobs=jobs,
                                     engine="scalar")
        slice_saturation_curve(gpu, 0, pool, counts=[1, 3], jobs=jobs,
                               engine="scalar")
    single_sm_slice_bandwidth(gpu, 4, 3, engine="scalar")
    group_to_slice_bandwidth(gpu, pool, 0, engine="scalar")
    aggregate_l2_bandwidth(gpu, engine="scalar")
    aggregate_memory_bandwidth(gpu, engine="scalar")
    measure_speedups(gpu, engine="scalar")


# ------------------------------------------------------------ noise bank

def test_batch_normal_matches_rng_jitter():
    bank = get_bank()
    keys = [("measure", sm, sv, hit, (0, seq))
            for sm in (0, 3) for sv in (1, 7)
            for hit in (True, False) for seq in (2, 900)]
    keys += [("route-sm", 5, 9), ("slice-bw", 12)]
    for seed in SEEDS:
        batch = bank.batch_normal(seed, keys, 4.5)
        scalar = np.array([rng.jitter(seed, *key, sigma=4.5, n=1)[0]
                           for key in keys])
        assert (batch == scalar).all()


def _bank_in_mode(mode):
    bank = NoiseBank()
    if mode == "ctypes" and bank.mode != "ctypes":
        pytest.skip("the ctypes install path failed its self-check here")
    if mode != "generic" and bank.mode == "generic":
        pytest.skip("the vectorised seeding failed its self-check here")
    bank.mode = mode
    return bank


@pytest.mark.parametrize("mode", ("ctypes", "state", "generic"))
def test_batch_normal_chunk_edges(mode):
    """Chunked draws equal per-key jitter on every chunk boundary."""
    bank = _bank_in_mode(mode)
    for n in (0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
              3 * DRAW_CHUNK + 7):
        keys = [("route-sm", k % 97, k) for k in range(n)]
        scalar = np.array([rng.jitter(3, *key, sigma=2.5, n=1)[0]
                           for key in keys])
        for given_keys in (keys, iter(keys)):
            batch = bank.batch_normal(3, given_keys, 2.5)
            assert batch.shape == (n,)
            assert (batch == scalar).all()


def _reference_draw(state: int, inc: int) -> tuple:
    """(first ``standard_normal()``, post-draw state) of a public
    ``Generator`` whose PCG64 state is set through ``.state``."""
    bit_gen = np.random.PCG64()
    bit_gen.state = {"bit_generator": "PCG64",
                     "state": {"state": state, "inc": inc},
                     "has_uint32": 0, "uinteger": 0}
    value = np.random.Generator(bit_gen).standard_normal()
    return value, bit_gen.state["state"]["state"]


def _vector_draw(bank, state: int, inc: int) -> tuple:
    """(draw, accepted) of the bank's array path for one (state, inc)."""
    mask = (1 << 64) - 1
    limbs = tuple(np.array([v], dtype=np.uint64)
                  for v in (state >> 64, state & mask, inc >> 64, inc & mask))
    draw, accepted = bank._ziggurat(noise._first_output(*limbs))
    return draw[0], bool(accepted[0])


def test_forced_outputs_match_the_generator_on_every_strip():
    """For every ziggurat strip: magnitude ``ki - 1`` is returned by the
    array path bit-for-bit, ``ki`` is handed to the install path (the
    Generator consumes more than one output there), and magnitude 0 with
    the sign bit set reads ``-0.0``."""
    bank = get_bank()
    if bank.mode == "generic":
        pytest.skip("the vectorised seeding failed its self-check here")
    ki = bank._ki.tolist()
    assert ki[1] == 0 and sum(k > 0 for k in ki) == 255
    for idx in range(256):
        cases = [(0, True)]
        if ki[idx]:
            cases += [(ki[idx] - 1, False), (ki[idx] - 1, True)]
        if ki[idx] < 2 ** 52:
            cases.append((ki[idx], False))
        for rabs, negative in cases:
            output = noise._ziggurat_output(idx, rabs, negative)
            state, inc = noise._forced_state(output)
            want, post = _reference_draw(state, inc)
            got, accepted = _vector_draw(bank, state, inc)
            assert accepted == (rabs < ki[idx]) == (post == output)
            if accepted:
                assert got == want
                assert np.signbit(got) == np.signbit(want) == negative


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2 ** 32, 2 ** 64 - 1), min_size=1,
                max_size=80))
def test_chunk_draws_match_default_rng(digests):
    got = get_bank()._draw_chunk(np.array(digests, dtype=np.uint64))
    want = [np.random.default_rng(d).standard_normal() for d in digests]
    assert got.tolist() == want


@pytest.mark.parametrize("failing", ("every strip", "strip 7"))
def test_failed_table_probe_still_matches(monkeypatch, failing):
    """A strip whose table probe fails keeps ``ki = 0``: every draw in it
    takes the per-stream install path, and draws stay exact."""
    forced_draw = NoiseBank._forced_draw

    def broken(self, output):
        if failing == "every strip" or output & 0xFF == 7:
            return 0.0, False
        return forced_draw(self, output)

    monkeypatch.setattr(NoiseBank, "_forced_draw", broken)
    bank = NoiseBank()
    if bank.mode == "generic":
        pytest.skip("the vectorised seeding failed its self-check here")
    assert bank._ki[7] == 0
    assert (bank._ki == 0).all() == (failing == "every strip")
    digests = np.random.default_rng(5).integers(
        2 ** 32, 2 ** 64, size=3000, dtype=np.uint64, endpoint=False)
    got = bank._draw_chunk(digests)
    assert got.tolist() == [np.random.default_rng(int(d)).standard_normal()
                            for d in digests]


def test_per_row_sigma_equals_per_part_sigmas():
    bank = get_bank()
    parts = [(rng.render_keys(2, ("route-sm", rng.COLUMN, rng.COLUMN),
                              np.arange(40) % 8, np.arange(40)), 3.5),
             (rng.render_keys(2, ("route-gpc", rng.COLUMN, rng.COLUMN),
                              np.arange(7), np.arange(7)), 1.25),
             (rng.render_keys(2, ("slice-bw", rng.COLUMN), [0]), 7)]
    texts = [t for part, _ in parts for t in part]
    sigma = np.concatenate([np.full(len(part), float(s))
                            for part, s in parts])
    joined = bank.batch_normal_texts(iter(texts), sigma)
    assert joined.tolist() == [v for part, s in parts
                               for v in bank.batch_normal_texts(part, s)]
    with pytest.raises(ValueError):
        bank.batch_normal_texts(texts, sigma[:-1])


def test_structural_matrix_memory_bound():
    """No per-pair Python objects for a whole device: an A100 structural
    matrix traced 4.79 MiB at peak when the route offsets went through
    whole-matrix key lists and the scalar model's offset dict."""
    import tracemalloc
    structural_latency_matrix(SimulatedGPU("A100", seed=1).latency)
    model = SimulatedGPU("A100", seed=0).latency
    tracemalloc.start()
    try:
        structural_latency_matrix(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2 ** 20


# ------------------------------------------------- Algorithm 1 (latency)

@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
def test_latency_matrix_bit_identical(spec, seed):
    g_scalar, g_fast = device_pair(spec, seed)
    sms = range(0, g_scalar.num_sms, 7)
    a = measured_latency_matrix(g_scalar, sms=sms, samples=2,
                                engine="scalar")
    b = measured_latency_matrix(g_fast, sms=sms, samples=2,
                                engine="vectorized")
    assert (a == b).all()


def test_full_v100_matrix_and_device_state():
    g_scalar, g_fast = device_pair("V100", 0)
    a = measured_latency_matrix(g_scalar, samples=2, engine="scalar")
    b = measured_latency_matrix(g_fast, samples=2, engine="vectorized")
    assert (a == b).all()
    # the vectorized engine replays the golden path's side effects
    assert g_scalar.memory._access_seq == g_fast.memory._access_seq
    for s_sl, f_sl in zip(g_scalar.memory.l2.slices, g_fast.memory.l2.slices):
        assert (s_sl.hits, s_sl.misses) == (f_sl.hits, f_sl.misses)
    assert g_scalar.memory.slice_requests == g_fast.memory.slice_requests
    assert [c.bytes_serviced for c in g_scalar.memory.dram.channels] \
        == [c.bytes_serviced for c in g_fast.memory.dram.channels]


def test_interleaved_engines_share_one_stream():
    """Running vectorized then scalar on ONE device continues the same
    measurement stream a scalar-only device would see."""
    g_mixed, g_scalar = device_pair("V100", 3)
    first = measured_latency_matrix(g_mixed, sms=[0, 1], samples=2,
                                    engine="vectorized")
    second = measured_latency_matrix(g_mixed, sms=[2, 3], samples=2,
                                     engine="scalar")
    ref = measured_latency_matrix(g_scalar, sms=[0, 1, 2, 3], samples=2,
                                  engine="scalar")
    assert (np.vstack([first, second]) == ref).all()


def test_sliced_and_shuffled_requests():
    g_scalar, g_fast = device_pair("A100", 1)
    sms = [17, 3, 40, 8]
    slices = [31, 0, 12, 5, 19]
    a = measured_latency_matrix(g_scalar, sms=sms, slices=slices, samples=3,
                                engine="scalar")
    b = measured_latency_matrix(g_fast, sms=sms, slices=slices, samples=3,
                                engine="vectorized")
    assert (a == b).all()


def test_sharded_jobs_parity():
    g_scalar, g_fast = device_pair("V100", 0)
    a = measured_latency_matrix(g_scalar, sms=range(20), samples=2, jobs=1,
                                engine="scalar")
    b = measured_latency_matrix(g_fast, sms=range(20), samples=2, jobs=1,
                                engine="vectorized")
    assert (a == b).all()


@pytest.mark.parametrize("engine", ("scalar", "vectorized"))
@pytest.mark.parametrize("jobs", (None, 1))
def test_numpy_integer_ids_measure_like_python_ints(engine, jobs):
    """Ids enter the noise-stream keys as text, where ``np.int64(0)``
    would read ``'np.int64(0)'``: every engine normalises them."""
    plain = measured_latency_matrix(SimulatedGPU("V100", seed=4),
                                    sms=[0, 1], slices=[2, 5], samples=2,
                                    jobs=jobs, engine=engine)
    numpy_ids = measured_latency_matrix(SimulatedGPU("V100", seed=4),
                                        sms=np.arange(2),
                                        slices=np.array([2, 5]), samples=2,
                                        jobs=jobs, engine=engine)
    assert (plain == numpy_ids).all()


def test_numpy_integer_single_sm_entry_points():
    from repro.core.latency_bench import (latency_profile,
                                          measure_l2_latency,
                                          measure_miss_penalty)

    def fresh():
        return SimulatedGPU("A100", seed=6)
    sm, slices = np.int64(3), np.array([0, 41])
    assert (measure_l2_latency(fresh(), sm, slices)
            == measure_l2_latency(fresh(), 3, [0, 41])).all()
    assert (measure_miss_penalty(fresh(), sm, slices)
            == measure_miss_penalty(fresh(), 3, [0, 41])).all()
    for engine in ("scalar", "vectorized"):
        assert (latency_profile(fresh(), sm, engine=engine)
                == latency_profile(fresh(), 3, engine="scalar")).all()


def test_slice_address_table_matches_the_scan():
    """The memoized first-address table equals the scalar M[s] scan for
    every slice and hasher mode, and fails where the scan fails."""
    from types import SimpleNamespace

    from repro.core.fastpath.latency import slice_address_table
    from repro.memory.address import AddressHasher
    for spec in SPECS:
        gpu = SimulatedGPU(spec, seed=0)
        for mode in AddressHasher.MODES:
            hasher = AddressHasher(gpu.num_slices, 128, mode=mode)
            memory = SimpleNamespace(hasher=hasher)
            slices = list(gpu.hier.all_slices)[::-1]
            assert slice_address_table(memory, slices) \
                == [hasher.addresses_for_slice(s, 1)[0] for s in slices]
            with pytest.raises(ConfigurationError):
                slice_address_table(memory, [gpu.num_slices])


def test_structural_matrix_parity():
    for spec in SPECS:
        gpu = SimulatedGPU(spec, seed=5)
        for hit in (True, False):
            a = gpu.latency.latency_matrix(hit=hit, engine="scalar")
            b = gpu.latency.latency_matrix(hit=hit, engine="vectorized")
            assert (a == b).all()


# ----------------------------------------------- Algorithm 2 (bandwidth)

@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("seed", SEEDS)
def test_bandwidth_distribution_bit_identical(spec, seed):
    g_scalar, g_fast = device_pair(spec, seed)
    sms = range(0, g_scalar.num_sms, 5)
    a = slice_bandwidth_distribution(g_scalar, 2, sms=sms, engine="scalar")
    b = slice_bandwidth_distribution(g_fast, 2, sms=sms,
                                     engine="vectorized")
    assert (a == b).all()


def test_bandwidth_point_and_group_parity():
    for spec in SPECS:
        g_scalar, g_fast = device_pair(spec, 7)
        assert single_sm_slice_bandwidth(g_scalar, 4, 3, engine="scalar") \
            == single_sm_slice_bandwidth(g_fast, 4, 3, engine="vectorized")
        gpc0 = g_scalar.hier.sms_in_gpc(0)
        assert group_to_slice_bandwidth(g_scalar, gpc0, 0,
                                        engine="scalar") \
            == group_to_slice_bandwidth(g_fast, gpc0, 0,
                                        engine="vectorized")


def test_aggregate_bandwidth_parity():
    g_scalar, g_fast = device_pair("V100", 0)
    assert aggregate_l2_bandwidth(g_scalar, engine="scalar") \
        == aggregate_l2_bandwidth(g_fast, engine="vectorized")
    assert aggregate_memory_bandwidth(g_scalar, engine="scalar") \
        == aggregate_memory_bandwidth(g_fast, engine="vectorized")


def test_saturation_curve_parity():
    g_scalar, g_fast = device_pair("A100", 2)
    pool = g_scalar.hier.sms_in_partition(0)
    counts = [1, 2, len(pool) // 2, len(pool)]
    a = slice_saturation_curve(g_scalar, 0, pool, counts=counts,
                               engine="scalar")
    b = slice_saturation_curve(g_fast, 0, pool, counts=counts,
                               engine="vectorized")
    assert a == b


def test_speedup_table_parity():
    for spec in SPECS:
        g_scalar, g_fast = device_pair(spec, 0)
        assert measure_speedups(g_scalar, engine="scalar") \
            == measure_speedups(g_fast, engine="vectorized")


# -------------------------------------------------------- property test

@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_submatrix_parity(data):
    spec = data.draw(st.sampled_from(SPECS))
    seed = data.draw(st.integers(min_value=0, max_value=50))
    g_scalar, g_fast = device_pair(spec, seed)
    sms = data.draw(st.lists(
        st.integers(min_value=0, max_value=g_scalar.num_sms - 1),
        min_size=1, max_size=6, unique=True))
    slices = data.draw(st.lists(
        st.integers(min_value=0, max_value=g_scalar.num_slices - 1),
        min_size=1, max_size=6, unique=True))
    samples = data.draw(st.integers(min_value=1, max_value=4))
    a = measured_latency_matrix(g_scalar, sms=sms, slices=slices,
                                samples=samples, engine="scalar")
    b = measured_latency_matrix(g_fast, sms=sms, slices=slices,
                                samples=samples, engine="vectorized")
    assert (a == b).all()
    sm = data.draw(st.sampled_from(sms))
    s = data.draw(st.sampled_from(slices))
    assert single_sm_slice_bandwidth(g_scalar, sm, s, engine="scalar") \
        == single_sm_slice_bandwidth(g_fast, sm, s, engine="vectorized")
