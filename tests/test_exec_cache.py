"""The content-addressed result cache: keys, round trips, recovery."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec import ResultCache, cache_key


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def test_key_is_stable_and_order_insensitive():
    a = cache_key("latency", {"seed": 0, "sms": [1, 2]})
    b = cache_key("latency", {"sms": [1, 2], "seed": 0})
    assert a == b
    assert len(a) == 64 and int(a, 16) >= 0    # hex SHA-256


def test_key_changes_with_any_input():
    base = cache_key("latency", {"seed": 0, "spec": {"name": "V100"}})
    assert cache_key("bandwidth", {"seed": 0,
                                   "spec": {"name": "V100"}}) != base
    assert cache_key("latency", {"seed": 1,
                                 "spec": {"name": "V100"}}) != base
    assert cache_key("latency", {"seed": 0,
                                 "spec": {"name": "A100"}}) != base


def test_key_separates_engines():
    """Engine-addressed entries never alias across engines or versions."""
    from repro.engines import FASTPATH_VERSION, fingerprint_for
    base = cache_key("latency", {"seed": 0})
    scalar = cache_key("latency", {"seed": 0}, engine="scalar")
    fast = cache_key("latency", {"seed": 0}, engine="vectorized")
    assert len({base, scalar, fast}) == 3
    # the vectorized fingerprint pins the fastpath version, so bumping it
    # invalidates vectorized entries without touching scalar ones
    assert fingerprint_for("vectorized") == {
        "name": "vectorized", "fastpath_version": FASTPATH_VERSION}
    assert fingerprint_for("scalar") == {"name": "scalar"}
    with pytest.raises(ConfigurationError):
        cache_key("latency", {"seed": 0}, engine="turbo")


def test_get_or_compute_keys_by_engine(cache):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    cache.get_or_compute("alg", {"p": 1}, compute, engine="scalar")
    cache.get_or_compute("alg", {"p": 1}, compute, engine="vectorized")
    assert len(calls) == 2
    cache.get_or_compute("alg", {"p": 1}, compute, engine="vectorized")
    assert len(calls) == 2


def test_key_accepts_numpy_payloads():
    a = cache_key("x", {"values": np.arange(3), "n": np.int64(3)})
    b = cache_key("x", {"values": [0, 1, 2], "n": 3})
    assert a == b


def test_key_requires_algorithm():
    with pytest.raises(ConfigurationError):
        cache_key("", {"seed": 0})


def test_round_trip_and_counters(cache):
    key = cache_key("t", {"seed": 0})
    assert cache.get(key) is None
    assert cache.misses == 1
    cache.put(key, {"rows": [[1.0, 2.0]], "n": 2})
    assert cache.get(key) == {"rows": [[1.0, 2.0]], "n": 2}
    assert (cache.hits, cache.misses) == (1, 1)
    assert len(cache) == 1


def test_numpy_values_come_back_as_lists(cache):
    key = cache_key("t", {"seed": 0})
    cache.put(key, {"matrix": np.eye(2), "scalar": np.float64(1.5)})
    assert cache.get(key) == {"matrix": [[1.0, 0.0], [0.0, 1.0]],
                              "scalar": 1.5}


def test_corrupted_entry_is_dropped_and_recomputed(cache):
    key = cache_key("t", {"seed": 0})
    cache.put(key, [1, 2, 3])
    path = cache.directory / f"{key}.json"
    path.write_text("{truncated")
    assert cache.get(key, "fallback") == "fallback"
    assert not path.exists()                   # bad file removed
    assert cache.get_or_compute("t", {"seed": 0}, lambda: [1, 2, 3]) \
        == [1, 2, 3]
    assert path.exists()


def test_entry_with_wrong_key_is_rejected(cache):
    """A renamed/copied entry must not serve under the wrong key."""
    key = cache_key("t", {"seed": 0})
    other = cache_key("t", {"seed": 1})
    cache.put(other, "other-value")
    source = (cache.directory / f"{other}.json").read_text()
    (cache.directory / f"{key}.json").write_text(source)
    assert cache.get(key) is None
    assert json.loads(
        (cache.directory / f"{other}.json").read_text())["value"] \
        == "other-value"


def test_get_or_compute_memoizes(cache):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    first = cache.get_or_compute("alg", {"p": 1}, compute)
    second = cache.get_or_compute("alg", {"p": 1}, compute)
    assert first == second == {"answer": 42}
    assert len(calls) == 1
    cache.get_or_compute("alg", {"p": 2}, compute)   # new inputs: recompute
    assert len(calls) == 2


def test_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b" / "cache"
    cache = ResultCache(nested)
    cache.put(cache_key("t", {}), 1)
    assert nested.is_dir() and len(cache) == 1


# --------------------------------------------------------------------------
# stampedes: concurrent writers/computers of one key must never tear
# --------------------------------------------------------------------------

def _assert_clean(directory, key, expected):
    """The entry is complete valid JSON and no tmp residue survives."""
    entry = json.loads((directory / f"{key}.json").read_text())
    assert entry == {"key": key, "value": expected}
    assert list(directory.glob("*.tmp")) == []


def test_thread_stampede_computes_once(cache):
    """N threads racing get_or_compute: one computation, one value."""
    import threading

    calls = []
    barrier = threading.Barrier(16)
    results = [None] * 16

    def compute():
        calls.append(1)
        import time
        time.sleep(0.05)           # widen the race window
        return {"winner": True}

    def racer(i):
        barrier.wait()
        results[i] = cache.get_or_compute("stampede", {"k": 1}, compute)

    threads = [threading.Thread(target=racer, args=(i,))
               for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    assert len(calls) == 1                      # coalesced, not duplicated
    assert all(r == {"winner": True} for r in results)
    _assert_clean(cache.directory, cache_key("stampede", {"k": 1}),
                  {"winner": True})


def test_thread_stampede_on_put_leaves_no_torn_files(cache):
    """Concurrent put() of one key: last writer wins, never a tear."""
    import threading

    key = cache_key("put-race", {"k": 1})
    barrier = threading.Barrier(8)

    def writer(i):
        barrier.wait()
        for round_ in range(25):
            cache.put(key, {"writer": i, "round": round_})

    threads = [threading.Thread(target=writer, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)

    entry = json.loads((cache.directory / f"{key}.json").read_text())
    assert entry["key"] == key
    assert entry["value"]["round"] == 24        # some writer's final round
    assert list(cache.directory.glob("*.tmp")) == []


def _process_stampede_worker(args):
    """Pool worker: open the shared directory and race get_or_compute."""
    directory, worker_id = args
    cache = ResultCache(directory)
    return cache.get_or_compute(
        "proc-stampede", {"k": 1},
        lambda: {"value": "deterministic", "pid_independent": True})


def test_process_stampede_yields_one_value_and_no_tmp(tmp_path):
    """Processes racing one key: every caller sees the one stored value."""
    from concurrent.futures import ProcessPoolExecutor

    directory = tmp_path / "cache"
    ResultCache(directory)                      # pre-create the directory
    with ProcessPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(_process_stampede_worker,
                                [(directory, i) for i in range(8)]))

    expected = {"value": "deterministic", "pid_independent": True}
    assert all(r == expected for r in results)
    _assert_clean(directory, cache_key("proc-stampede", {"k": 1}),
                  expected)


def _exactly_once_racer(directory, spool, barrier, replies):
    """Child process: race one cold key; log every actual computation."""
    import os
    import time

    cache = ResultCache(directory)

    def compute():
        marker = spool / f"computed-by-{os.getpid()}-{time.monotonic_ns()}"
        marker.write_text("x")
        time.sleep(0.05)                        # widen the race window
        return {"winner": True, "stable": [1.5, 2.5]}

    barrier.wait()                              # all racers start together
    value = cache.get_or_compute("exactly-once", {"k": 1}, compute)
    replies.put(json.dumps(value, sort_keys=True))


def test_process_stampede_computes_exactly_once(tmp_path):
    """The cross-process flock: N processes racing one cold key perform
    exactly one computation, and every process gets identical bytes."""
    pytest.importorskip("fcntl")                # POSIX-only guarantee
    import multiprocessing

    context = multiprocessing.get_context("fork")
    directory = tmp_path / "cache"
    spool = tmp_path / "spool"
    spool.mkdir()
    ResultCache(directory)

    racers = 6
    barrier = context.Barrier(racers)
    replies = context.Queue()
    processes = [context.Process(target=_exactly_once_racer,
                                 args=(directory, spool, barrier, replies))
                 for _ in range(racers)]
    for process in processes:
        process.start()
    payloads = [replies.get(timeout=60) for _ in range(racers)]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0

    assert len(list(spool.iterdir())) == 1      # exactly one computation
    assert len(set(payloads)) == 1              # identical bytes for all
    _assert_clean(directory, cache_key("exactly-once", {"k": 1}),
                  {"winner": True, "stable": [1.5, 2.5]})


def test_put_bytes_round_trips_canonical_payloads(cache):
    """put_bytes splices pre-serialized JSON; get() parses it back."""
    key = cache_key("spliced", {"k": 1})
    value = {"matrix": [[1.0, 2.5]], "text": "µ", "none": None}
    canonical = json.dumps(value, sort_keys=True,
                           separators=(",", ":")).encode()
    cache.put_bytes(key, canonical)
    assert cache.get(key) == value
    assert list(cache.directory.glob("*.tmp")) == []


_SPLICED = b'{"matrix":[[1.0,2.5]],"n":2}'


def _flip_value_digit(data: bytes, key: str) -> bytes:
    at = data.index(b"2.5")
    return data[:at] + b"3" + data[at + 1:]


def _flip_digest_digit(data: bytes, key: str) -> bytes:
    at = data.index(b'"sha256": "') + len(b'"sha256": "')
    return data[:at] + (b"0" if data[at:at + 1] != b"0" else b"1") \
        + data[at + 1:]


def _other_key(data: bytes, key: str) -> bytes:
    return data.replace(key.encode(), cache_key("spliced", {"k": 2}).encode())


def _no_digest(data: bytes, key: str) -> bytes:
    return b'{"key": "%s", "value": %s}' % (key.encode(), _SPLICED)


@pytest.mark.parametrize("corrupt", [
    lambda data, key: data[:-3],
    _flip_value_digit,
    _flip_digest_digit,
    _other_key,
    _no_digest,
    lambda data, key: b"",
], ids=["truncated-tail", "flipped-value-byte", "flipped-digest-digit",
        "other-key", "no-digest", "empty-file"])
def test_get_bytes_treats_corruption_as_a_miss(cache, corrupt):
    """Anything but an intact digest envelope for this key is a miss,
    and the entry is dropped so the recompute rewrites it."""
    key = cache_key("spliced", {"k": 1})
    cache.put_bytes(key, _SPLICED)
    path = cache.directory / f"{key}.json"
    path.write_bytes(corrupt(path.read_bytes(), key))
    assert cache.get_bytes(key) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert not path.exists()
    cache.put_bytes(key, _SPLICED)
    assert cache.get_bytes(key) == _SPLICED


def test_get_bytes_returns_exactly_the_stored_bytes(cache):
    key = cache_key("spliced", {"k": 1})
    assert cache.get_bytes(key) is None            # absent: a plain miss
    cache.put_bytes(key, _SPLICED)
    assert cache.get_bytes(key) == _SPLICED
    assert (cache.hits, cache.misses) == (1, 1)
    envelope = json.loads((cache.directory / f"{key}.json").read_bytes())
    assert envelope["key"] == key
    assert envelope["sha256"] == hashlib.sha256(_SPLICED).hexdigest()
    # get() still parses the digest envelope to the value
    assert cache.get(key) == {"matrix": [[1.0, 2.5]], "n": 2}


# ------------------------------------------------------------- binary tier

def _big_matrix() -> np.ndarray:
    return np.arange(4000, dtype=np.float64).reshape(80, 50)


def test_large_arrays_go_to_npz_sidecar(cache):
    big = _big_matrix()
    cache.put("key-big", {"matrix": big, "meta": {"n": 1}})
    envelope = json.loads((cache.directory / "key-big.json").read_text())
    manifest = envelope["binary"]
    assert (cache.directory / manifest["blob"]).is_file()
    assert manifest["arrays"]["a0"] == {"dtype": "float64",
                                        "shape": [80, 50]}
    got = cache.get("key-big")
    assert isinstance(got["matrix"], np.ndarray)
    assert got["matrix"].tobytes() == big.tobytes()
    assert got["meta"] == {"n": 1}


def test_small_arrays_stay_pure_json(cache):
    cache.put("key-small", {"matrix": np.eye(2)})
    assert not (cache.directory / "key-small.npz").exists()
    assert cache.get("key-small") == {"matrix": [[1.0, 0.0], [0.0, 1.0]]}


def test_binary_entries_survive_nested_trees(cache):
    big = _big_matrix()
    value = {"rows": [big, big[:2]], "label": "x", "n": 7}
    cache.put("key-nest", value)
    got = cache.get("key-nest")
    assert got["label"] == "x" and got["n"] == 7
    assert got["rows"][0].tobytes() == big.tobytes()
    assert np.array_equal(got["rows"][1], big[:2])


def test_corrupted_sidecar_is_a_miss_and_recomputed(cache):
    big = _big_matrix()
    calls = []

    def compute():
        calls.append(1)
        return {"matrix": big}

    cache.get_or_compute("alg", {"p": 1}, compute)
    blob = next(cache.directory.glob("*.npz"))
    blob.write_bytes(blob.read_bytes()[:64])          # truncate
    value = cache.get_or_compute("alg", {"p": 1}, compute)
    assert len(calls) == 2                            # recomputed
    assert value["matrix"].tobytes() == big.tobytes()


def test_missing_sidecar_is_a_miss(cache):
    cache.put("key-gone", {"matrix": _big_matrix()})
    next(cache.directory.glob("*.npz")).unlink()
    misses = cache.misses
    assert cache.get("key-gone") is None
    assert cache.misses == misses + 1
    assert not (cache.directory / "key-gone.json").exists()  # both parts dropped


def test_digest_mismatch_sidecar_is_a_miss(cache):
    cache.put("key-swap", {"matrix": _big_matrix()})
    blob = next(cache.directory.glob("*.npz"))
    # a VALID npz with different content: only the digest check can tell
    other = cache.directory / "other.bin"
    with open(other, "wb") as handle:
        np.savez(handle, a0=np.zeros((80, 50)))
    blob.write_bytes(other.read_bytes())
    other.unlink()
    assert cache.get("key-swap") is None


def test_overwriting_with_small_value_removes_sidecar(cache):
    cache.put("key-shrink", {"matrix": _big_matrix()})
    assert (cache.directory / "key-shrink.npz").exists()
    cache.put("key-shrink", {"matrix": [1, 2]})
    assert not (cache.directory / "key-shrink.npz").exists()
    assert cache.get("key-shrink") == {"matrix": [1, 2]}


def test_object_dtype_arrays_keep_legacy_path(cache):
    # np.savez would pickle object arrays; they stay on the tolist path
    cache.put("key-obj", {"mixed": np.array([1, 2.5], dtype=object),
                          "big": _big_matrix()})
    got = cache.get("key-obj")
    assert got["mixed"] == [1, 2.5]
    assert isinstance(got["big"], np.ndarray)


# ----------------------------------------------------- stale locks + stats

def test_len_and_stats_ignore_locks_and_sidecars(cache):
    cache.put("key-a", {"matrix": _big_matrix()})
    cache.put("key-b", {"x": 1})
    (cache.directory / "stale.lock").touch()
    assert len(cache) == 2
    stats = cache.stats()
    assert stats["entries"] == 2
    assert stats["binary_blobs"] == 1
    assert stats["lock_files"] == 1


def test_sweep_stale_locks_is_bounded_and_age_keyed(cache):
    import os
    import time
    old = time.time() - 7200
    for i in range(5):
        path = cache.directory / f"old-{i}.lock"
        path.touch()
        os.utime(path, (old, old))
    fresh = cache.directory / "fresh.lock"
    fresh.touch()
    assert cache.sweep_stale_locks(limit=3) == 3      # bounded per call
    assert cache.sweep_stale_locks() == 2
    assert fresh.exists()                             # young lock kept


def test_process_lock_refreshes_lock_mtime(cache):
    import os
    import time
    cache.get_or_compute("alg", {"p": 9}, lambda: {"x": 1})
    lock = next(cache.directory.glob("*.lock"))
    old = time.time() - 7200
    os.utime(lock, (old, old))
    cache.get_or_compute("alg", {"p": 9}, lambda: {"x": 1})  # cache hit: no lock
    cache.get_or_compute("alg", {"p": 10}, lambda: {"x": 2})
    # the p=9 lock was not touched by unrelated keys and sweeps away
    assert cache.sweep_stale_locks() == 1


# ------------------------------------------------------ degraded platforms

def test_fcntl_unavailable_yields_identical_results(cache, monkeypatch):
    import repro.exec.cache as cache_mod
    big = _big_matrix()
    expected = cache.get_or_compute("alg", {"p": 1},
                                    lambda: {"matrix": big})
    monkeypatch.setattr(cache_mod, "fcntl", None)
    degraded = ResultCache(cache.directory.parent / "degraded")
    value = degraded.get_or_compute("alg", {"p": 1},
                                    lambda: {"matrix": big})
    assert value["matrix"].tobytes() == expected["matrix"].tobytes()
    # and the stored bytes are identical too
    a = (cache.directory / next(
        p.name for p in cache.directory.glob("*.json"))).read_text()
    b = (degraded.directory / next(
        p.name for p in degraded.directory.glob("*.json"))).read_text()
    assert a == b
