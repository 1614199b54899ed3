"""repro.exec.shm + SweepRunner zero-copy wiring: transport equivalence,
fallbacks on degraded platforms, and orphan sweeping."""

from __future__ import annotations

import glob

import numpy as np
import pytest

import repro.exec.runner as runner_mod
import repro.exec.shm as exec_shm
from repro.exec.runner import SweepRunner, pool_chunksize
from repro.exec.shm import (ZEROCOPY_MIN_BYTES, ShardSegment, decode_result,
                            encode_result, run_token, sweep_run)
from repro.ipc import shm_available


def _matrix_worker(args):
    n, side = args
    return {"matrix": np.full((side, side), float(n)),
            "meta": {"n": n, "tags": ["a", "b"]}}


def _failing_worker(args):
    n, side = args
    if n == 2:
        raise RuntimeError("shard 2 exploded")
    return _matrix_worker(args)


SHARDS = [(n, 96) for n in range(5)]      # 96*96*8 = ~72 KiB per shard


def _no_exec_orphans() -> bool:
    return not glob.glob("/dev/shm/repro-exec-*")


# ------------------------------------------------------------ encode/decode

@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_encode_decode_round_trip_bit_identical():
    value = _matrix_worker((3, 128))
    encoded = encode_result(value, token=run_token(), min_bytes=1024)
    assert isinstance(encoded, ShardSegment)
    decoded = decode_result(encoded)
    assert decoded["meta"] == value["meta"]
    assert decoded["matrix"].dtype == value["matrix"].dtype
    assert decoded["matrix"].tobytes() == value["matrix"].tobytes()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_decoded_arrays_are_writable_views():
    encoded = encode_result(_matrix_worker((1, 128)),
                            token=run_token(), min_bytes=1024)
    decoded = decode_result(encoded)
    decoded["matrix"][0, 0] = -1.0        # zero-copy views stay writable
    assert decoded["matrix"][0, 0] == -1.0


def test_below_floor_returns_value_unchanged():
    value = {"small": np.eye(2)}
    assert encode_result(value, min_bytes=ZEROCOPY_MIN_BYTES) is value
    assert _no_exec_orphans()


def test_decode_passes_through_plain_values():
    value = {"x": 1}
    assert decode_result(value) is value


def test_shm_unavailable_falls_back_to_pickle(monkeypatch):
    monkeypatch.setattr(exec_shm, "shm_available", lambda: False)
    value = _matrix_worker((1, 256))
    assert encode_result(value, min_bytes=0) is value


# ------------------------------------------------------- SweepRunner wiring

@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_map_zerocopy_matches_pickled_and_serial():
    serial = SweepRunner(jobs=1).map(_matrix_worker, SHARDS)
    pickled = SweepRunner(jobs=2, zerocopy=False).map(_matrix_worker, SHARDS)
    zerocopy = SweepRunner(jobs=2, zerocopy=True).map(_matrix_worker, SHARDS)
    for a, b, c in zip(serial, pickled, zerocopy):
        assert a["meta"] == b["meta"] == c["meta"]
        assert a["matrix"].tobytes() == b["matrix"].tobytes() \
            == c["matrix"].tobytes()
    assert _no_exec_orphans()


def test_map_identical_when_shm_unavailable(monkeypatch):
    expected = SweepRunner(jobs=1).map(_matrix_worker, SHARDS)
    monkeypatch.setattr(runner_mod, "shm_available", lambda: False)
    degraded = SweepRunner(jobs=2)        # auto-detect picks pickle path
    assert degraded.zerocopy is False
    got = degraded.map(_matrix_worker, SHARDS)
    for a, b in zip(expected, got):
        assert a["meta"] == b["meta"]
        assert a["matrix"].tobytes() == b["matrix"].tobytes()


@pytest.mark.skipif(not shm_available(), reason="no shared memory")
def test_map_failure_sweeps_run_segments():
    with pytest.raises(RuntimeError, match="shard 2 exploded"):
        SweepRunner(jobs=2, zerocopy=True).map(_failing_worker, SHARDS)
    assert _no_exec_orphans()


def test_sweep_run_removes_only_its_token():
    if not shm_available():
        pytest.skip("no shared memory")
    token_a, token_b = run_token(), run_token()
    encode_result(_matrix_worker((1, 96)), token=token_a, min_bytes=0)
    encode_result(_matrix_worker((2, 96)), token=token_b, min_bytes=0)
    assert sweep_run(token_a) == 1
    assert sweep_run(token_a) == 0
    assert sweep_run(token_b) == 1


# ------------------------------------------------------------- chunk sizing

def test_pool_chunksize_scales_with_shards():
    assert pool_chunksize(3, 8) == 1      # short lists: old behaviour
    assert pool_chunksize(64, 8) == 2
    assert pool_chunksize(400, 8) == 12
    assert pool_chunksize(0, 4) == 1


def test_map_caps_workers_and_passes_chunksize(monkeypatch):
    seen = {}

    class FakePool:
        def __init__(self, max_workers=None, initializer=None):
            seen["max_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            seen["chunksize"] = chunksize
            return [fn(item) for item in items]

    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", FakePool)
    shards = [(n, 4) for n in range(40)]  # tiny matrices: pickle floor
    SweepRunner(jobs=64).map(_matrix_worker, shards)
    assert seen["max_workers"] == 40      # min(jobs, len(shard_args))
    assert seen["chunksize"] == pool_chunksize(40, 40)
