"""Content-addressed on-disk result cache.

Memoizes expensive sweep results (figure sections, matrices, mesh
experiment summaries) across process runs.  Entries are addressed by a
SHA-256 over the *content* that determines the result — the algorithm
name, the GPU spec as canonical JSON, the device seed, and every
parameter — plus a cache format version, so:

* changing a spec field, seed, or parameter changes the key (automatic
  invalidation, no staleness),
* bumping :data:`CACHE_VERSION` invalidates every entry at once (after
  model recalibrations that change results without changing inputs),
* a corrupted or truncated entry fails JSON validation and is treated as
  a miss — the file is deleted and the value recomputed.

Pre-serialized values (:meth:`ResultCache.put_bytes`, the serve tier's
canonical JSON) are stored as ``{"key": K, "sha256": D, "value": V}``
with ``D`` the SHA-256 of the bytes ``V``;
:meth:`ResultCache.get_bytes` hands ``V`` back unparsed once it hashes
to ``D``, and treats anything else — even a flipped digit that would
still parse — as a miss.

Values must be JSON-serializable; numpy arrays and scalars are converted
on the way in (and come back as plain lists/floats) — **except** that an
entry whose arrays total at least :data:`BINARY_MIN_BYTES` is stored in
two parts: the arrays go raw into a sidecar ``<key>.npz`` blob
(uncompressed, one member per array) and the JSON envelope keeps the
key, the value tree with per-array placeholders, a dtype/shape manifest
and the blob's SHA-256.  :meth:`ResultCache.get` reads the blob back
through ``np.load(mmap_mode="r")`` and returns those arrays as
*ndarrays* — a warm large-matrix hit is a binary decode, not a
list-of-lists parse.  A missing, truncated, or digest-mismatching
sidecar makes the whole entry a miss (both files are dropped and the
value recomputed), exactly like a corrupted JSON envelope.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

try:                                    # POSIX: cross-process key locks
    import fcntl
except ImportError:                     # non-POSIX: thread-level only
    fcntl = None

#: Bump when a model recalibration changes results for identical inputs.
#: 2: the report's mesh-bottleneck task now honours ``seed`` (it was
#: silently ignored), so pre-existing non-zero-seed entries are stale.
#: 3: array-valued entries split into JSON envelope + ``.npz`` sidecar
#: (and come back as ndarrays); old all-JSON entries must not alias.
CACHE_VERSION = 3

_MISS = object()

#: Entries whose ndarrays total at least this many bytes get the binary
#: sidecar tier; smaller ones stay pure JSON (the blob costs an extra
#: file open per read, which only pays off past a couple of pages).
BINARY_MIN_BYTES = 4096

#: Placeholder key marking where an extracted array sits in the value
#: tree; only interpreted in entries that carry a ``binary`` manifest.
_ARRAY_KEY = "__npz__"

#: Separates the hex digest from the value in a :meth:`put_bytes`
#: envelope.
_VALUE_SEP = b'", "value": '

#: Stale-lock sweeps touch at most this many files per call, so a sweep
#: over a shared cache directory with thousands of keys stays cheap.
LOCK_SWEEP_LIMIT = 256

#: A ``.lock`` file untouched for this long belongs to no live
#: ``get_or_compute`` (those hold locks for one compute, not hours).
LOCK_STALE_SECONDS = 3600.0

#: Distinguishes tmp files of concurrent writers within one process; the
#: pid distinguishes processes.
_TMP_COUNTER = itertools.count()


def _jsonify(value):
    """JSON encoder fallback for numpy types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def _strip_arrays(value, arrays: list):
    """Swap binary-eligible ndarrays for placeholders, collecting them.

    Object-dtype arrays stay in the tree (``np.savez`` would pickle
    them, and the read path loads with ``allow_pickle=False``); they
    fall through to the legacy ``tolist`` encoding like before.
    Containers come back as fresh dicts/lists — the same shapes a JSON
    round trip produces.
    """
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        name = f"a{len(arrays)}"
        arrays.append((name, value))
        return {_ARRAY_KEY: name}
    if isinstance(value, dict):
        return {k: _strip_arrays(v, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strip_arrays(v, arrays) for v in value]
    return value


def _restore_arrays(value, loaded: dict):
    """Inverse of :func:`_strip_arrays` over a loaded blob's arrays."""
    if isinstance(value, dict):
        if set(value) == {_ARRAY_KEY}:
            return loaded[value[_ARRAY_KEY]]
        return {k: _restore_arrays(v, loaded) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore_arrays(v, loaded) for v in value]
    return value


def cache_key(algorithm: str, payload: dict, engine: str | None = None) -> str:
    """Stable content hash for (algorithm, payload) at CACHE_VERSION.

    ``engine`` folds the engine's registry fingerprint (name plus, for
    versioned engines, their ``*_version`` field) into the key: results
    produced by different engines — or different engine revisions —
    never alias, even though they are bit-identical by contract today.
    Accepts a qualified ``"domain:name"`` reference or an unambiguous
    bare name (see :func:`repro.engines.fingerprint_for`).
    """
    if not algorithm:
        raise ConfigurationError("cache key needs an algorithm name")
    entry = {"version": CACHE_VERSION, "algorithm": algorithm,
             "payload": payload}
    if engine is not None:
        from repro.engines import fingerprint_for
        entry["engine"] = fingerprint_for(engine)
    canonical = json.dumps(entry, sort_keys=True, separators=(",", ":"),
                           default=_jsonify)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """One directory of ``<key>.json`` entries with hit/miss accounting."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._locks_guard = threading.Lock()
        self._key_locks: dict[str, threading.Lock] = {}

    def _key_lock(self, key: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._key_locks.get(key)
            if lock is None:
                lock = self._key_locks[key] = threading.Lock()
            return lock

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _blob_path(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _drop(self, key: str) -> None:
        """Remove both parts of a corrupted entry (miss + recompute)."""
        self._path(key).unlink(missing_ok=True)
        self._blob_path(key).unlink(missing_ok=True)

    def get(self, key: str, default=None):
        """Cached value for ``key``; ``default`` on miss or corruption.

        Binary-tier entries come back with their arrays as *ndarrays*
        (loaded via ``np.load(mmap_mode="r")`` after the sidecar passes
        its digest check); pure-JSON entries return plain lists/floats
        as always.  Any sidecar problem — missing file, truncation,
        digest mismatch, manifest disagreement — drops the whole entry
        and reports a miss.
        """
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            self.misses += 1
            return default
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # corrupted entry: drop it and recompute
            self._drop(key)
            self.misses += 1
            return default
        if not isinstance(entry, dict) or entry.get("key") != key \
                or "value" not in entry:
            self._drop(key)
            self.misses += 1
            return default
        manifest = entry.get("binary")
        if manifest is None:
            self.hits += 1
            return entry["value"]
        try:
            loaded = self._read_blob(key, manifest)
        except (OSError, ValueError, KeyError, TypeError):
            self._drop(key)
            self.misses += 1
            return default
        self.hits += 1
        return _restore_arrays(entry["value"], loaded)

    def _read_blob(self, key: str, manifest: dict) -> dict:
        """Load and verify the ``.npz`` sidecar against its manifest.

        Raises on any mismatch; the caller treats that as a miss.
        """
        blob = self._blob_path(key)
        if hashlib.sha256(blob.read_bytes()).hexdigest() != \
                manifest["sha256"]:
            raise ValueError(f"cache blob {blob.name} failed digest check")
        arrays = manifest["arrays"]
        with np.load(blob, mmap_mode="r", allow_pickle=False) as npz:
            loaded = {name: npz[name] for name in arrays}
        for name, spec in arrays.items():
            array = loaded[name]
            if str(array.dtype) != spec["dtype"] or \
                    list(array.shape) != list(spec["shape"]):
                raise ValueError(
                    f"cache blob {blob.name} disagrees with its manifest")
        return loaded

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic rename, crash-safe).

        The tmp name is unique per writer (pid + counter), so concurrent
        writers of the same key never replace each other's half-written
        file — last completed writer wins, every reader always sees a
        complete entry.

        When the value's arrays total at least :data:`BINARY_MIN_BYTES`
        they are written raw into the ``<key>.npz`` sidecar (blob first,
        then the envelope naming its digest: a crash in between leaves a
        digest mismatch, which reads as a miss, never as wrong data).
        """
        arrays: list = []
        tree = _strip_arrays(value, arrays)
        if arrays and sum(a.nbytes for _n, a in arrays) >= BINARY_MIN_BYTES:
            manifest = self._write_blob(key, arrays)
            body = json.dumps({"key": key, "value": tree,
                               "binary": manifest}, default=_jsonify)
            self._write_atomic(key, body.encode())
            return
        body = json.dumps({"key": key, "value": value}, default=_jsonify)
        self._write_atomic(key, body.encode())
        # an earlier binary-tier entry under this key leaves a sidecar
        # the new envelope no longer references
        self._blob_path(key).unlink(missing_ok=True)

    def _write_blob(self, key: str, arrays: list) -> dict:
        """Write the sidecar atomically; return the envelope manifest."""
        blob = self._blob_path(key)
        tmp = blob.parent / (f"{key}.{os.getpid()}."
                             f"{next(_TMP_COUNTER)}.tmp")
        try:
            # an open file handle: np.savez would append ".npz" to a
            # plain filename, breaking the tmp+rename protocol
            with open(tmp, "wb") as handle:
                np.savez(handle, **dict(arrays))
            digest = hashlib.sha256(tmp.read_bytes()).hexdigest()
            os.replace(tmp, blob)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return {"blob": blob.name, "sha256": digest,
                "arrays": {name: {"dtype": str(array.dtype),
                                  "shape": list(array.shape)}
                           for name, array in arrays}}

    def put_bytes(self, key: str, value_bytes: bytes) -> None:
        """Store already-serialized JSON ``value_bytes`` under ``key``.

        The serve worker tier produces canonical-JSON result bytes
        anyway (they *are* the wire format); this writes them into the
        envelope ``{"key": K, "sha256": D, "value": V}`` as bytes, with
        ``D`` the SHA-256 of ``V`` and ``V`` exactly ``value_bytes`` —
        no decode/encode round trip.  :meth:`get_bytes` returns ``V``
        after checking ``D``; :meth:`get` parses the written entry to
        exactly the value :meth:`put` of the parsed bytes would have
        stored.
        """
        digest = hashlib.sha256(value_bytes).hexdigest()
        self._write_atomic(key, self._bytes_head(key) + digest.encode()
                           + _VALUE_SEP + value_bytes + b"}")
        # pre-serialized entries are always pure JSON; drop any sidecar
        # a previous binary-tier write of this key left behind
        self._blob_path(key).unlink(missing_ok=True)

    @staticmethod
    def _bytes_head(key: str) -> bytes:
        """The envelope bytes :meth:`put_bytes` writes before ``D``."""
        return b'{"key": ' + json.dumps(key).encode() + b', "sha256": "'

    def get_bytes(self, key: str) -> bytes | None:
        """The stored value bytes of a :meth:`put_bytes` entry, or None.

        Returns ``V`` only if the file is exactly a :meth:`put_bytes`
        envelope naming ``key`` and ``V`` hashes to its ``D`` — the
        value is never parsed.  Anything else (a truncated tail, a
        flipped byte, another key, an envelope without a digest or a
        :meth:`put` entry) is dropped and reads as a miss, so the
        caller's recompute rewrites it.
        """
        try:
            data = self._path(key).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            data = b""          # unreadable: dropped like a corrupt entry
        head = self._bytes_head(key)
        digest_end = len(head) + 64
        value_start = digest_end + len(_VALUE_SEP)
        value = data[value_start:-1]
        if data.startswith(head) and data.endswith(b"}") and value \
                and data[digest_end:value_start] == _VALUE_SEP \
                and hashlib.sha256(value).hexdigest().encode() \
                == data[len(head):digest_end]:
            self.hits += 1
            return value
        self._drop(key)
        self.misses += 1
        return None

    def _write_atomic(self, key: str, body: bytes) -> None:
        path = self._path(key)
        tmp = path.parent / f"{key}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        try:
            tmp.write_bytes(body)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @contextlib.contextmanager
    def _process_lock(self, key: str):
        """Cross-process exclusive lock for ``key`` (POSIX ``flock``).

        Serializes :meth:`get_or_compute` stampedes *across worker
        processes* sharing one cache directory: exactly one process
        computes a cold key while the rest block, then read its entry.
        The lock file persists (flock metadata only, no content); a
        crashed holder's lock is released by the kernel automatically.
        On platforms without ``fcntl`` this degrades to the documented
        thread-level coalescing (duplicate cross-process computation,
        still never a torn entry).
        """
        if fcntl is None:
            yield
            return
        lock_path = self.directory / f"{key}.lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            with contextlib.suppress(OSError):
                # refresh mtime so sweep_stale_locks never removes a
                # lock file with a live or recent holder
                os.utime(lock_path)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def get_or_compute(self, algorithm: str, payload: dict, compute,
                       engine: str | None = None):
        """Memoize ``compute()`` under the content key of the inputs.

        Concurrent callers of the same key are coalesced at two levels:
        a per-key thread lock lets exactly one *thread* per process run
        ``compute()``, and a per-key ``flock`` (POSIX) lets exactly one
        *process* per shared cache directory run it — the rest block,
        then read the winner's stored value.  Where ``fcntl`` is
        unavailable the cross-process level degrades to harmless
        duplicate computation (the atomic :meth:`put` still never
        tears an entry).
        """
        key = cache_key(algorithm, payload, engine)
        value = self.get(key, _MISS)
        if value is not _MISS:
            return value
        with self._key_lock(key):
            value = self.get(key, _MISS)      # recheck after the wait
            if value is not _MISS:
                return value
            with self._process_lock(key):
                value = self.get(key, _MISS)  # recheck: another process?
                if value is not _MISS:
                    return value
                value = compute()
                self.put(key, value)
        return value

    def sweep_stale_locks(self, stale_seconds: float = LOCK_STALE_SECONDS,
                          limit: int = LOCK_SWEEP_LIMIT) -> int:
        """Remove ``.lock`` files idle longer than ``stale_seconds``.

        :meth:`_process_lock` leaves its lock files behind by design
        (``flock`` metadata only), so a long-lived shared cache
        directory accumulates one per key ever computed.  This sweeps
        at most ``limit`` stale ones per call — the same bounded
        best-effort idiom as :func:`repro.ipc.sweep_orphans` — keyed on
        mtime, which every :meth:`_process_lock` acquisition refreshes.
        A racing unlink of a lock file another process still holds can
        at worst duplicate one computation (the atomic :meth:`put`
        still never tears an entry); it cannot corrupt anything.
        """
        now = time.time()
        removed = 0
        for path in self.directory.glob("*.lock"):
            if removed >= limit:
                break
            with contextlib.suppress(OSError):
                if now - path.stat().st_mtime > stale_seconds:
                    path.unlink()
                    removed += 1
        return removed

    def stats(self) -> dict:
        """Directory + accounting summary.

        ``.lock`` files (stampede-control metadata) and ``.npz``
        sidecars are counted separately and explicitly excluded from
        ``entries`` — an entry is its JSON envelope, whatever tier its
        value lives in.
        """
        entries = blobs = locks = 0
        for path in self.directory.iterdir():
            if path.name.endswith(".json"):
                entries += 1
            elif path.name.endswith(".npz"):
                blobs += 1
            elif path.name.endswith(".lock"):
                locks += 1
        return {"entries": entries, "binary_blobs": blobs,
                "lock_files": locks, "hits": self.hits,
                "misses": self.misses}

    def __len__(self) -> int:
        # entries only: .lock and .npz sidecars are deliberately not
        # matched by the *.json glob
        return sum(1 for _ in self.directory.glob("*.json"))
