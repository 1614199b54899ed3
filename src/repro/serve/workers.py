"""Sharded process-pool worker tier: the serve front-end's compute tier.

:class:`WorkerPool` runs N long-lived worker *processes*, each owning a
shard of the key space:

* **Consistent-hash sharding.**  Requests are routed by their
  engine-fingerprinted cache key (:func:`repro.exec.cache.cache_key`)
  over a :class:`HashRing` with virtual nodes, so one key always lands
  on one worker (per-shard warm caches, no duplicated cold work across
  workers) and removing a worker only reassigns *its* keys — the other
  shards keep their assignments, which is what makes rolling restarts
  cheap.
* **Shared result cache.**  Every worker writes the content-addressed
  on-disk :class:`~repro.exec.cache.ResultCache` directly (the same
  directory the front-end reads its hot path from), so a result
  computed by any worker is a cache hit for every future request no
  matter which process serves it.
* **Pickle-free transport.**  A worker serializes its result to
  canonical JSON exactly once; payloads of at least
  :data:`SHM_MIN_BYTES` travel as a :class:`~repro.ipc.SegmentRef`
  (name + size + digest) through the queue while the bytes move
  through a :mod:`repro.ipc` shared-memory segment — the front-end
  reads, verifies and unlinks it, then splices the bytes into the
  response envelope without re-serializing.
* **Lifecycle.**  A monitor thread detects crashed workers, requeues
  their in-flight jobs onto live shards, and respawns replacements
  (sweeping the dead worker's orphaned segments first);
  :meth:`WorkerPool.restart_worker` drains one worker gracefully
  (pending jobs finish, then the process exits) and
  :meth:`WorkerPool.rolling_restart` walks the whole pool one worker
  at a time — under load, with no client-visible failures.  Per-worker
  counters roll up into ``/metricz`` via :meth:`WorkerPool.stats`.

Workers start with the platform's default ``multiprocessing`` context
(fork on Linux), the one :class:`concurrent.futures.ProcessPoolExecutor`
uses: a forked worker inherits the already-imported compute stack
instead of re-importing it, which keeps server start-up and respawns
cheap.  Forking this threaded, event-loop-owning process is safe for
the same reason it is for a process pool: the child runs only
:func:`_worker_main`, which touches none of the parent's threads or
locks, and ``repro serve`` gives forked children SIGTERM's default
action (an at-fork hook in :mod:`repro.cli`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, MeshConfigError, ReproError
from repro.ipc import SegmentError, read_segment, share_segment, sweep_orphans
from repro.serve.metrics import StreamingDigest
from repro.units import KIB

#: Virtual nodes per worker on the hash ring: smooths the key-space
#: split to within a few percent of even for small pools.
VNODES = 64

#: How long to wait for a worker to finish its queue during a graceful
#: drain before escalating to termination.
DRAIN_TIMEOUT_S = 60.0

_READY_TIMEOUT_S = 120.0

#: Payloads at or above this size move through shared memory; smaller
#: ones ride the queue inline (the segment setup costs ~2 syscalls and
#: a page fault, which only pays off past a few pages).
SHM_MIN_BYTES = 32 * KIB

#: Name prefix of every segment a worker creates (owner-scoped by worker
#: id): lets a respawning pool sweep what a crashed worker left behind.
SHM_PREFIX = "repro-serve"


class NoLiveWorkersError(ReproError):
    """Every shard is draining or dead; the caller should retry."""


#: Errors a computation raises over bad model parameters: the request is
#: at fault, not the server, so the front end answers them with a 400.
REQUEST_ERRORS = (ConfigurationError, MeshConfigError)


class WorkerJobError(ReproError):
    """The worker's computation raised; message carries the cause."""


class WorkerRequestError(WorkerJobError):
    """The worker's computation raised one of :data:`REQUEST_ERRORS`."""


class PoolClosedError(ReproError):
    """The pool was shut down while the job was pending."""


# --------------------------------------------------------------------------
# consistent hashing
# --------------------------------------------------------------------------

class HashRing:
    """Consistent-hash ring over worker ids with virtual nodes."""

    def __init__(self, members, vnodes: int = VNODES):
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: list = []       # sorted (hash, worker_id)
        self._hashes: list = []       # parallel list of hashes for bisect
        for member in members:
            for replica in range(vnodes):
                digest = hashlib.sha256(
                    f"worker:{member}:{replica}".encode()).hexdigest()
                self._points.append((int(digest, 16), member))
        self._points.sort()
        self._hashes = [p[0] for p in self._points]

    def __len__(self) -> int:
        return len({member for _, member in self._points})

    def shard_for(self, key: str) -> int:
        """The worker id owning ``key`` (first point clockwise)."""
        if not self._points:
            raise NoLiveWorkersError("hash ring is empty")
        point = int(hashlib.sha256(key.encode()).hexdigest(), 16)
        index = bisect.bisect_right(self._hashes, point)
        if index == len(self._points):
            index = 0
        return self._points[index][1]


# --------------------------------------------------------------------------
# worker process
# --------------------------------------------------------------------------

def warm_imports() -> None:
    """Pre-import the heavy compute stack inside a fresh worker.

    Keeps the first request's latency at compute cost rather than
    import cost; a no-op for whatever a forked worker already inherited.
    The noise bank is built here too, so its self-checks and ziggurat
    table probe run at worker start, not inside the first cold request.
    """
    import numpy                                            # noqa: F401

    import repro.core.bandwidth_bench                       # noqa: F401
    import repro.core.latency_bench                         # noqa: F401
    import repro.noc.mesh.fastmesh                          # noqa: F401
    import repro.sidechannel.probe                          # noqa: F401
    from repro.core.fastpath import noise
    from repro.serve import experiments                     # noqa: F401

    noise.get_bank()


def _worker_main(worker_id: int, inbox, outbox, cache_dir,
                 shm_min_bytes: int) -> None:
    """Worker process body: compute jobs from ``inbox`` until drained.

    One message per job: ``(job_id, name, params, key)``.  ``None`` is
    the drain sentinel — because the inbox is FIFO, every job enqueued
    before the drain finishes first.  Results go back on the shared
    ``outbox`` as small tuples; payload bytes above ``shm_min_bytes``
    travel through shared memory.
    """
    warm_imports()
    from repro.exec.cache import ResultCache
    from repro.serve.experiments import run_experiment
    from repro.serve.server import canonical_json

    cache = ResultCache(cache_dir) if cache_dir else None
    outbox.put(("ready", worker_id, os.getpid()))
    while True:
        message = inbox.get()
        if message is None:
            break
        job_id, name, params, key = message
        started = time.perf_counter()
        try:
            value = run_experiment((name, params))
            value_bytes = canonical_json(value)
            if cache is not None:
                cache.put_bytes(key, value_bytes)
            wall_ms = (time.perf_counter() - started) * 1e3
            if len(value_bytes) >= shm_min_bytes:
                ref = share_segment(value_bytes, prefix=SHM_PREFIX,
                                    owner=worker_id)
                outbox.put(("done", worker_id, job_id, "shm", ref,
                            ref.sha256, wall_ms))
            else:
                digest = hashlib.sha256(value_bytes).hexdigest()
                outbox.put(("done", worker_id, job_id, "inline",
                            value_bytes, digest, wall_ms))
        except REQUEST_ERRORS as exc:
            outbox.put(("rejected", worker_id, job_id, str(exc)))
        except Exception as exc:
            outbox.put(("error", worker_id, job_id,
                        f"{type(exc).__name__}: {exc}"))
    outbox.put(("bye", worker_id, os.getpid()))


# --------------------------------------------------------------------------
# parent-side pool
# --------------------------------------------------------------------------

@dataclass
class WorkerResult:
    """A completed computation, in wire form.

    ``value_bytes`` is the canonical JSON of the result value — exactly
    what the front-end splices into its response envelope, and what
    ``digest`` hashes.
    """
    value_bytes: bytes
    digest: str
    worker: str
    wall_ms: float
    transport: str


@dataclass
class _Job:
    future: Future
    name: str
    params: dict
    key: str
    worker_id: int = -1
    requeues: int = 0


@dataclass
class _Worker:
    worker_id: int
    process: object = None
    inbox: object = None
    pid: int = 0
    state: str = "starting"       # starting|ready|draining|dead|stopped
    ready: threading.Event = field(default_factory=threading.Event)
    completed: int = 0
    errors: int = 0
    shm_results: int = 0
    inline_results: int = 0
    restarts: int = 0
    # per-worker compute-latency digest; merged for the pool rollup
    wall_digest: StreamingDigest = field(default_factory=StreamingDigest)


class WorkerPool:
    """N sharded worker processes with crash recovery and drains."""

    def __init__(self, workers: int, cache_dir=None,
                 shm_min_bytes: int = SHM_MIN_BYTES,
                 vnodes: int = VNODES):
        if workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {workers}")
        self.size = workers
        self.cache_dir = str(cache_dir) if cache_dir else None
        self.shm_min_bytes = shm_min_bytes
        self.vnodes = vnodes
        self._ctx = multiprocessing.get_context()
        self._outbox = self._ctx.Queue()
        self._workers: dict[int, _Worker] = {}
        self._jobs: dict[int, _Job] = {}
        self._pending: dict[int, set] = {}
        self._held: list = []            # jobs waiting for a live shard
        self._job_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._ring = HashRing([], vnodes)
        self._closing = False
        self._started = False
        self._collector: threading.Thread | None = None
        self._monitor: threading.Thread | None = None
        # pool-level counters (crash/requeue/restart accounting)
        self.crashes = 0
        self.requeued = 0
        self.restarts = 0

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Spawn every worker and wait until all report ready."""
        if self._started:
            return
        self._started = True
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-collector", daemon=True)
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._watch, name="repro-pool-monitor", daemon=True)
        self._monitor.start()
        for worker_id in range(self.size):
            self._spawn(worker_id)
        for worker_id in range(self.size):
            self._await_ready(worker_id)

    def _spawn(self, worker_id: int) -> None:
        sweep_orphans(SHM_PREFIX, worker_id)
        worker = _Worker(worker_id=worker_id)
        worker.inbox = self._ctx.Queue()
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, worker.inbox, self._outbox, self.cache_dir,
                  self.shm_min_bytes),
            name=f"repro-serve-worker-{worker_id}", daemon=True)
        with self._lock:
            previous = self._workers.get(worker_id)
            if previous is not None:
                worker.completed = previous.completed
                worker.errors = previous.errors
                worker.shm_results = previous.shm_results
                worker.inline_results = previous.inline_results
                worker.restarts = previous.restarts
                worker.wall_digest = previous.wall_digest
            self._workers[worker_id] = worker
            self._pending.setdefault(worker_id, set())
        worker.process.start()

    def _await_ready(self, worker_id: int) -> None:
        worker = self._workers[worker_id]
        if not worker.ready.wait(timeout=_READY_TIMEOUT_S):
            raise ConfigurationError(
                f"worker {worker_id} did not become ready within "
                f"{_READY_TIMEOUT_S:.0f}s")

    def close(self) -> None:
        """Drain every worker, stop the threads, fail leftover jobs."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
            self._ring = HashRing([], self.vnodes)
        for worker in workers:
            if worker.state in ("ready", "starting"):
                worker.state = "draining"
                worker.inbox.put(None)
        for worker in workers:
            if worker.process is not None:
                worker.process.join(timeout=DRAIN_TIMEOUT_S)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5)
            worker.state = "stopped"
        self._outbox.put(("stop",))
        if self._collector is not None:
            self._collector.join(timeout=10)
        if self._monitor is not None:
            self._monitor.join(timeout=10)
        with self._lock:
            # held jobs were never popped from _jobs, so this covers them
            leftovers = list(self._jobs.values())
            self._jobs.clear()
            self._held.clear()
        for job in leftovers:
            if not job.future.done():
                job.future.set_exception(
                    PoolClosedError("worker pool closed"))

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- routing

    def submit(self, name: str, params: dict, key: str) -> Future:
        """Route ``(name, params)`` to ``key``'s shard; a Future."""
        future: Future = Future()
        job = _Job(future=future, name=name, params=params, key=key)
        with self._lock:
            if self._closing:
                raise PoolClosedError("worker pool closed")
            worker_id = self._ring.shard_for(key)     # NoLiveWorkersError
            job_id = next(self._job_ids)
            job.worker_id = worker_id
            self._jobs[job_id] = job
            self._pending[worker_id].add(job_id)
            worker = self._workers[worker_id]
        worker.inbox.put((job_id, name, params, key))
        return future

    def _reassign(self, job_ids: list) -> None:
        """Requeue jobs of a dead/draining worker onto live shards."""
        for job_id in job_ids:
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None:
                    continue
                job.requeues += 1
                self.requeued += 1
                try:
                    worker_id = self._ring.shard_for(job.key)
                except NoLiveWorkersError:
                    self._held.append((job_id, job))
                    continue
                job.worker_id = worker_id
                self._pending[worker_id].add(job_id)
                worker = self._workers[worker_id]
            worker.inbox.put((job_id, job.name, job.params, job.key))

    def _flush_held(self) -> None:
        """Re-route jobs parked while no shard was live."""
        with self._lock:
            held, self._held = self._held, []
        for job_id, job in held:
            with self._lock:
                if job_id not in self._jobs:
                    continue
                try:
                    worker_id = self._ring.shard_for(job.key)
                except NoLiveWorkersError:
                    self._held.append((job_id, job))
                    continue
                job.worker_id = worker_id
                self._pending[worker_id].add(job_id)
                worker = self._workers[worker_id]
            worker.inbox.put((job_id, job.name, job.params, job.key))

    # ----------------------------------------------------- drain / restart

    def restart_worker(self, worker_id: int) -> None:
        """Graceful single-worker restart: drain, respawn, rejoin ring.

        New work for the shard flows to the other workers the moment
        the drain starts (consistent hashing moves *only* this shard's
        keys); jobs already queued on the worker finish before it
        exits, so nothing is dropped.
        """
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                raise ConfigurationError(f"no worker {worker_id}")
            if self._closing:
                raise PoolClosedError("worker pool closed")
            worker.state = "draining"
            self._rebuild_ring_locked()
        worker.inbox.put(None)
        worker.process.join(timeout=DRAIN_TIMEOUT_S)
        if worker.process.is_alive():               # stuck: escalate
            worker.process.terminate()
            worker.process.join(timeout=5)
        # the exited worker flushed its result queue before dying; give
        # the collector a moment to resolve those futures so only jobs
        # it truly never answered (crash mid-drain) get requeued
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self._lock:
                if not self._pending.get(worker_id):
                    break
            time.sleep(0.01)  # repro: noqa[REP002] -- drain bookkeeping
        with self._lock:
            leftovers = sorted(self._pending.get(worker_id, set()))
        if leftovers:                               # only if it crashed
            self._reassign(leftovers)
            with self._lock:
                self._pending[worker_id].clear()
        self._spawn(worker_id)
        self._await_ready(worker_id)
        with self._lock:
            restarted = self._workers[worker_id]
            restarted.restarts += 1
            self.restarts += 1
            self._rebuild_ring_locked()
        self._flush_held()

    def rolling_restart(self) -> None:
        """Restart every worker, one at a time, under load."""
        for worker_id in sorted(self._workers):
            self.restart_worker(worker_id)

    def _rebuild_ring_locked(self) -> None:
        live = [w.worker_id for w in self._workers.values()
                if w.state == "ready"]
        self._ring = HashRing(live, self.vnodes)

    # ----------------------------------------------------- result plumbing

    def _collect(self) -> None:
        """Collector thread: resolve futures from worker messages."""
        while True:
            message = self._outbox.get()
            kind = message[0]
            if kind == "stop":
                return
            if kind == "ready":
                _, worker_id, pid = message
                with self._lock:
                    worker = self._workers.get(worker_id)
                    if worker is not None:
                        worker.pid = pid
                        worker.state = "ready"
                        self._rebuild_ring_locked()
                        worker.ready.set()
                continue
            if kind == "bye":
                continue                      # drain acknowledged
            if kind == "done":
                _, worker_id, job_id, transport, payload, digest, wall = \
                    message
                self._finish(worker_id, job_id, transport, payload,
                             digest, wall)
            elif kind in ("error", "rejected"):
                _, worker_id, job_id, text = message
                with self._lock:
                    job = self._jobs.pop(job_id, None)
                    self._pending.get(worker_id, set()).discard(job_id)
                    worker = self._workers.get(worker_id)
                    if worker is not None and kind == "error":
                        worker.errors += 1
                error = WorkerJobError if kind == "error" \
                    else WorkerRequestError
                if job is not None and not job.future.done():
                    job.future.set_exception(error(text))

    def _finish(self, worker_id: int, job_id: int, transport: str,
                payload, digest: str, wall_ms: float) -> None:
        try:
            if transport == "shm":
                value_bytes = read_segment(payload)
            else:
                value_bytes = payload
        except SegmentError as exc:
            with self._lock:
                job = self._jobs.pop(job_id, None)
                self._pending.get(worker_id, set()).discard(job_id)
            if job is not None and not job.future.done():
                job.future.set_exception(WorkerJobError(str(exc)))
            return
        with self._lock:
            job = self._jobs.pop(job_id, None)
            self._pending.get(worker_id, set()).discard(job_id)
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.completed += 1
                worker.wall_digest.add(wall_ms / 1e3)
                if transport == "shm":
                    worker.shm_results += 1
                else:
                    worker.inline_results += 1
        if job is not None and not job.future.done():
            job.future.set_result(WorkerResult(
                value_bytes=value_bytes, digest=digest,
                worker=f"worker-{worker_id}", wall_ms=wall_ms,
                transport=transport))

    # ------------------------------------------------------ crash recovery

    def _watch(self) -> None:
        """Monitor thread: requeue + respawn after a worker crash."""
        while not self._closing:
            time.sleep(0.05)  # repro: noqa[REP002] -- watchdog thread
            with self._lock:
                if self._closing:
                    return
                dead = [w for w in self._workers.values()
                        if w.state == "ready" and w.process is not None
                        and not w.process.is_alive()]
                for worker in dead:
                    worker.state = "dead"
                    self.crashes += 1
                    self._rebuild_ring_locked()
            for worker in dead:
                with self._lock:
                    orphans = sorted(
                        self._pending.get(worker.worker_id, set()))
                    self._pending[worker.worker_id] = set()
                self._reassign(orphans)
                self._spawn(worker.worker_id)
                try:
                    self._await_ready(worker.worker_id)
                except ConfigurationError:
                    continue             # next sweep retries the respawn
                with self._lock:
                    respawned = self._workers[worker.worker_id]
                    respawned.restarts += 1
                self._flush_held()

    # ------------------------------------------------------------- metrics

    @property
    def live_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values()
                       if w.state == "ready")

    def stats(self) -> dict:
        """Per-worker counters rolled up for ``/metricz``."""
        with self._lock:
            per_worker = {
                str(w.worker_id): {
                    "pid": w.pid,
                    "state": w.state,
                    "completed": w.completed,
                    "errors": w.errors,
                    "pending": len(self._pending.get(w.worker_id, ())),
                    "shm_results": w.shm_results,
                    "inline_results": w.inline_results,
                    "restarts": w.restarts,
                    "wall_ms": w.wall_digest.summary_ms(),
                } for w in self._workers.values()}
            # exact pool-wide latency rollup: merging the per-worker
            # digests equals digesting every completion centrally
            rollup = StreamingDigest()
            for w in self._workers.values():
                rollup.merge(w.wall_digest)
            return {
                "size": self.size,
                "live": sum(1 for w in self._workers.values()
                            if w.state == "ready"),
                "crashes": self.crashes,
                "requeued": self.requeued,
                "restarts": self.restarts,
                "shm_min_bytes": self.shm_min_bytes,
                "wall_ms_all": rollup.summary_ms(),
                "per_worker": per_worker,
            }
