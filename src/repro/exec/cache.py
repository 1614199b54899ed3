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
on the way in and come back as plain lists/floats.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

#: Bump when a model recalibration changes results for identical inputs.
#: 2: the report's mesh-bottleneck task now honours ``seed`` (it was
#: silently ignored), so pre-existing non-zero-seed entries are stale.
#: 3: array-valued entries split into JSON envelope + binary sidecar
#: (and come back as ndarrays); old all-JSON entries must not alias.
#: 4: the sidecar tier is gone; a v3 envelope whose value lives in a
#: sidecar must never be read as that value.
CACHE_VERSION = 4

#: Separates the hex digest from the value in a :meth:`put_bytes`
#: envelope.
_VALUE_SEP = b'", "value": '

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
    """One directory of ``<key>.json`` entries with hit/miss accounting.

    Concurrent writers of one key — threads or processes sharing the
    directory — never tear an entry: every write is a uniquely named
    tmp file renamed into place, so the last completed writer wins.
    Computing each key once is the caller's job (the serve tier's
    single-flight table and its key-routed worker shards).
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _drop(self, key: str) -> None:
        """Remove a corrupted entry (miss + recompute)."""
        self._path(key).unlink(missing_ok=True)

    def get(self, key: str, default=None):
        """Cached value for ``key``; ``default`` on miss or corruption."""
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
        self.hits += 1
        return entry["value"]

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key`` (atomic rename, crash-safe).

        The tmp name is unique per writer (pid + counter), so concurrent
        writers of the same key never replace each other's half-written
        file — last completed writer wins, every reader always sees a
        complete entry.
        """
        body = json.dumps({"key": key, "value": value}, default=_jsonify)
        self._write_atomic(key, body.encode())

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

    def stats(self) -> dict:
        """Directory + accounting summary.

        ``binary_blobs`` counts the ``.npz`` sidecars a version-3
        directory left behind; nothing reads or writes them any more.
        """
        entries = blobs = 0
        for path in self.directory.iterdir():
            if path.name.endswith(".json"):
                entries += 1
            elif path.name.endswith(".npz"):
                blobs += 1
        return {"entries": entries, "binary_blobs": blobs,
                "hits": self.hits, "misses": self.misses}

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
