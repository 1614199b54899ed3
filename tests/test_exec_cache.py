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


def _get_or_compute(cache, algorithm, payload, compute, engine=None):
    """The memoizing pattern callers build on ``ResultCache`` (report
    tasks, traffic schedules): ``cache_key`` + ``get``, compute and
    ``put`` on a miss."""
    key = cache_key(algorithm, payload, engine=engine)
    value = cache.get(key)
    if value is None:
        value = compute()
        cache.put(key, value)
    return value


def test_get_or_compute_keys_by_engine(cache):
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    _get_or_compute(cache, "alg", {"p": 1}, compute, engine="scalar")
    _get_or_compute(cache, "alg", {"p": 1}, compute, engine="vectorized")
    assert len(calls) == 2
    _get_or_compute(cache, "alg", {"p": 1}, compute, engine="vectorized")
    assert len(calls) == 2
    assert (cache.hits, cache.misses) == (1, 2)


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
    cache.put(key, [1, 2, 3])                  # the caller's recompute
    assert cache.get(key) == [1, 2, 3]


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

    first = _get_or_compute(cache, "alg", {"p": 1}, compute)
    second = _get_or_compute(cache, "alg", {"p": 1}, compute)
    assert first == second == {"answer": 42}
    assert len(calls) == 1
    _get_or_compute(cache, "alg", {"p": 2}, compute)  # new inputs: recompute
    assert len(calls) == 2


def test_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b" / "cache"
    cache = ResultCache(nested)
    cache.put(cache_key("t", {}), 1)
    assert nested.is_dir() and len(cache) == 1


# --------------------------------------------------------------------------
# stampedes: concurrent writers of one key must never tear
# --------------------------------------------------------------------------

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


#: The value every process-stampede racer writes: long enough that a
#: torn write could not pass for it, deterministic across processes.
_RACED = b'{"rows":[' + b",".join(b"[%d,%d.5]" % (i, i)
                                  for i in range(2000)) + b']}'


def _put_bytes_racer(directory, barrier, replies):
    """Child process: race put_bytes of one key, then read it back."""
    cache = ResultCache(directory)
    key = cache_key("proc-stampede", {"k": 1})
    barrier.wait()                              # all racers start together
    for _ in range(20):
        cache.put_bytes(key, _RACED)
        value = cache.get_bytes(key)
        replies.put(hashlib.sha256(value).hexdigest() if value else None)


def test_process_stampede_yields_one_value_and_no_tmp(tmp_path):
    """Processes racing put_bytes of one key — what serve workers do —
    never tear it: every get_bytes returns the one complete,
    digest-verified value, and no tmp file survives."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    directory = tmp_path / "cache"
    ResultCache(directory)                      # pre-create the directory

    racers = 4
    barrier = context.Barrier(racers)
    replies = context.Queue()
    processes = [context.Process(target=_put_bytes_racer,
                                 args=(directory, barrier, replies))
                 for _ in range(racers)]
    for process in processes:
        process.start()
    digests = [replies.get(timeout=60) for _ in range(racers * 20)]
    for process in processes:
        process.join(timeout=60)
        assert process.exitcode == 0

    assert set(digests) == {hashlib.sha256(_RACED).hexdigest()}
    assert ResultCache(directory).get_bytes(
        cache_key("proc-stampede", {"k": 1})) == _RACED
    assert list(directory.glob("*.tmp")) == []


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


# ------------------------------------------------------------ arrays + stats

def _big_matrix() -> np.ndarray:
    return np.arange(4000, dtype=np.float64).reshape(80, 50)


def test_large_arrays_go_to_npz_sidecar(cache, monkeypatch):
    """A large-array entry the version-3 sidecar tier wrote (envelope of
    placeholders + ``.npz``) is never read as a value: its key was taken
    at version 3, so no current key reaches it; ``stats()`` still counts
    the leftover sidecar."""
    import repro.exec.cache as cache_module

    monkeypatch.setattr(cache_module, "CACHE_VERSION", 3)
    old_key = cache_key("alg", {"p": 1})
    monkeypatch.undo()
    with open(cache.directory / f"{old_key}.npz", "wb") as handle:
        np.savez(handle, a0=_big_matrix())
    (cache.directory / f"{old_key}.json").write_text(json.dumps(
        {"key": old_key, "value": {"matrix": {"__npz__": "a0"}},
         "binary": {"blob": f"{old_key}.npz", "sha256": "0" * 64,
                    "arrays": {"a0": {"dtype": "float64",
                                      "shape": [80, 50]}}}}))

    new_key = cache_key("alg", {"p": 1})
    assert new_key != old_key
    assert cache.get(new_key) is None
    cache.put(new_key, {"matrix": _big_matrix()})
    assert cache.get(new_key) == {"matrix": _big_matrix().tolist()}
    assert not (cache.directory / f"{new_key}.npz").exists()
    assert cache.stats()["binary_blobs"] == 1


def test_large_arrays_stay_pure_json(cache):
    """Arrays of any size are stored as JSON lists in the one envelope —
    no sidecar file — and come back as lists."""
    cache.put("key-big", {"matrix": _big_matrix()})
    assert [p.name for p in cache.directory.iterdir()] == ["key-big.json"]
    assert cache.get("key-big") == {"matrix": _big_matrix().tolist()}


def test_binary_entries_survive_nested_trees(cache):
    """Arrays at any depth of the value tree round-trip as lists."""
    big = _big_matrix()
    value = {"rows": [big, big[:2]], "label": "x", "n": 7}
    cache.put("key-nest", value)
    got = cache.get("key-nest")
    assert got["label"] == "x" and got["n"] == 7
    assert got["rows"][0] == big.tolist()
    assert got["rows"][1] == big[:2].tolist()


def test_small_arrays_stay_pure_json(cache):
    cache.put("key-small", {"matrix": np.eye(2)})
    assert not (cache.directory / "key-small.npz").exists()
    assert cache.get("key-small") == {"matrix": [[1.0, 0.0], [0.0, 1.0]]}


def test_object_dtype_arrays_keep_legacy_path(cache):
    # object arrays take the same tolist encoding as every other array
    cache.put("key-obj", {"mixed": np.array([1, 2.5], dtype=object)})
    assert cache.get("key-obj") == {"mixed": [1, 2.5]}


def test_len_and_stats_ignore_locks_and_sidecars(cache):
    """A version-3 directory's leftover ``.lock`` files and ``.npz``
    sidecars are not entries; ``binary_blobs`` counts the sidecars."""
    cache.put("key-a", {"x": 1})
    cache.put("key-b", {"x": 2})
    (cache.directory / "stale.lock").touch()
    (cache.directory / "leftover.npz").touch()
    assert len(cache) == 2
    assert cache.stats() == {"entries": 2, "binary_blobs": 1,
                             "hits": 0, "misses": 0}
