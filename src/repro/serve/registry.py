"""Run registry: durable per-request receipts for audit and replay.

Every computation the serve tier performs leaves a **receipt** — a
small JSON record binding the request to what produced its answer:

* ``request_sha`` — SHA-256 over the canonical JSON of
  ``{experiment, params}`` (the normalized request envelope, so two
  spellings of one request share a hash);
* ``key`` — the engine-version-fingerprinted cache key the result was
  stored under (:func:`repro.exec.cache.cache_key`);
* ``engine`` — the engine fingerprint dict (name + version for the
  fast engines), pinned at computation time;
* ``worker`` — which worker process computed it (``"worker-N"``);
* ``result_sha`` — SHA-256 over the canonical JSON bytes of the result
  value;
* ``wall_ms``, ``transport``, ``ts``, ``seq`` — timing, how the bytes
  travelled (``inline``/``shm``), and ordering.

Receipts answer two operational questions.  *Audit*: which worker and
engine revision produced this response, and how long did it take?
*Replay*: recompute the experiment from the receipt's normalized
params and compare ``result_sha`` — a byte-level determinism check of
the whole stack, exposed as ``POST /v1/replay``.

With a ``path`` the registry is durable: one canonical-JSON line per
receipt, appended + flushed + fsync'd before the caller proceeds, and
reloaded on construction so sequence numbers and replayability survive
a restart.  With ``path=None`` it keeps a bounded in-memory ring
(tests, caches-off servers).
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import threading
import time
from pathlib import Path

from repro.errors import ConfigurationError

#: In-memory receipts retained for ``recent()``/``find()`` lookups;
#: the on-disk log keeps everything.
DEFAULT_KEEP = 1024


def _canonical(value) -> bytes:
    from repro.exec.cache import _jsonify
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=_jsonify).encode()


def request_sha(experiment: str, params: dict) -> str:
    """Hash of the normalized request envelope (experiment + params)."""
    return hashlib.sha256(
        _canonical({"experiment": experiment, "params": params})).hexdigest()


def result_sha(value_bytes: bytes) -> str:
    """Hash of a result's canonical JSON bytes."""
    return hashlib.sha256(value_bytes).hexdigest()


class RunRegistry:
    """Append-only receipt log with replay lookups.

    Thread-safe: the serve front-end records receipts from
    ``asyncio.to_thread`` workers while ``/v1/receipts`` readers take
    snapshots.
    """

    def __init__(self, path=None, keep: int = DEFAULT_KEEP):
        if keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {keep}")
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._recent: collections.deque = collections.deque(maxlen=keep)
        self._seq = 0
        self.recorded = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._reload()

    def _reload(self) -> None:
        """Recover seq + recent receipts from an existing log file."""
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return
        for line in lines:
            try:
                receipt = json.loads(line)
            except json.JSONDecodeError:
                continue                  # torn tail line: skip, keep going
            if isinstance(receipt, dict) and "seq" in receipt:
                self._recent.append(receipt)
                self._seq = max(self._seq, int(receipt["seq"]))

    @property
    def count(self) -> int:
        """Receipts recorded by this instance (not the reloaded ones)."""
        return self.recorded

    def record(self, *, experiment: str, params: dict, key: str,
               engine, worker: str, wall_ms: float,
               digest: str, transport: str) -> dict:
        """Append one receipt; returns it with ``seq``/``ts`` filled."""
        with self._lock:
            self._seq += 1
            receipt = {
                "seq": self._seq,
                "ts": time.time(),
                "experiment": experiment,
                "params": params,
                "request_sha": request_sha(experiment, params),
                "key": key,
                "engine": engine,
                "worker": worker,
                "wall_ms": round(float(wall_ms), 3),
                "result_sha": digest,
                "transport": transport,
            }
            self._recent.append(receipt)
            self.recorded += 1
            if self.path is not None:
                self._append_line(receipt)
        return receipt

    def _append_line(self, receipt: dict) -> None:
        """Durable append: the receipt is on disk before we return."""
        line = _canonical(receipt) + b"\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            os.write(fd, line)
            os.fsync(fd)
        finally:
            os.close(fd)

    def recent(self, n: int = 50) -> list:
        """The last ``n`` receipts, newest last."""
        with self._lock:
            receipts = list(self._recent)
        return receipts[-n:]

    def find(self, *, request_sha: str | None = None,
             seq: int | None = None) -> dict | None:
        """Latest receipt matching ``request_sha`` or exact ``seq``."""
        if (request_sha is None) == (seq is None):
            raise ConfigurationError(
                "find() wants exactly one of request_sha / seq")
        with self._lock:
            receipts = list(self._recent)
        for receipt in reversed(receipts):
            if seq is not None and receipt.get("seq") == seq:
                return receipt
            if request_sha is not None \
                    and receipt.get("request_sha") == request_sha:
                return receipt
        if self.path is not None:
            return self._scan_file(request_sha=request_sha, seq=seq)
        return None

    def _scan_file(self, *, request_sha, seq) -> dict | None:
        """Fallback for receipts older than the in-memory window."""
        try:
            lines = self.path.read_text().splitlines()
        except FileNotFoundError:
            return None
        for line in reversed(lines):
            try:
                receipt = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(receipt, dict):
                continue
            if seq is not None and receipt.get("seq") == seq:
                return receipt
            if request_sha is not None \
                    and receipt.get("request_sha") == request_sha:
                return receipt
        return None
