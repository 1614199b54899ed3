"""Deterministic sharded sweep execution.

The paper's heavy artifacts — the SM x slice measurement sweeps
(Algorithms 1 and 2) and the cycle-level mesh experiments — are
embarrassingly parallel: every (SM, slice, config) cell is independent
once the device it runs against is rebuilt from scratch.
:class:`SweepRunner` exploits exactly that structure.

Two invariants make parallel results trustworthy:

* **Fixed shard granularity.**  A sweep is decomposed into shards
  *before* the worker count is chosen, so ``jobs=1`` and ``jobs=8``
  execute byte-identical shard lists.  The one exception is
  :func:`~repro.noc.mesh.vc.sweep_vc_grid`, which cuts its grid into
  ``jobs`` contiguous lockstep blocks: its shard list depends on
  ``jobs``, but its results do not, because every lane replays its own
  traffic stream and so computes the same bytes in any batch.
* **Self-contained shards.**  A shard's arguments carry everything
  needed to rebuild its world — the GPU spec as a plain dict, the device
  seed, the parameter slice — and the worker reconstructs a fresh
  :class:`~repro.gpu.device.SimulatedGPU` (or mesh) from them.  No state
  leaks between shards, so a shard computes the same bytes no matter
  which process, or which position in the schedule, runs it.

``jobs <= 1`` runs shards in-process (no pool, no pickling); ``jobs > 1``
fans out over a :class:`concurrent.futures.ProcessPoolExecutor`.  Results
always come back in shard order.

A runner constructed with ``persistent=True`` keeps one process pool
alive across calls instead of building a fresh pool per :meth:`~SweepRunner.map`.
That mode adds :meth:`~SweepRunner.submit` — fire one worker invocation
and get a :class:`concurrent.futures.Future` back — which is what a
long-lived caller (the :mod:`repro.serve` event loop) needs to run
computations off its own thread without paying pool start-up per
request.  Persistent runners must be closed (or used as context
managers).
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor

from repro.errors import ConfigurationError
from repro.exec.shm import (ZEROCOPY_MIN_BYTES, decode_result, run_token,
                            shm_available, sweep_run, zerocopy_shard)

#: SMs measured per latency/bandwidth shard.  Small enough to balance
#: load across a handful of workers, large enough to amortise the fresh
#: device build (~10 ms) over many ~8 ms measurements.
DEFAULT_SHARD_SMS = 8

#: Target chunks handed to each pool worker by :func:`pool_chunksize`.
#: More than one so a slow chunk doesn't straggle the whole map; few
#: enough that hundreds of shards don't dispatch one IPC round trip
#: each.
_CHUNKS_PER_WORKER = 4


def pool_chunksize(n_shards: int, workers: int) -> int:
    """Executor ``chunksize`` for ``n_shards`` over ``workers`` procs.

    ``ProcessPoolExecutor.map`` defaults to chunksize 1 — one dispatch
    and one result message per shard, which dominates wall time once a
    sweep has hundreds of cheap shards.  Aim for
    :data:`_CHUNKS_PER_WORKER` chunks per worker; short shard lists
    still get chunksize 1 (identical to the old behaviour).
    """
    return max(1, n_shards // (max(1, workers) * _CHUNKS_PER_WORKER))


def chunk(items, size: int = DEFAULT_SHARD_SMS) -> list:
    """Split ``items`` into fixed-size tuples (the shard payloads)."""
    items = list(items)
    if size <= 0:
        raise ConfigurationError("shard size must be positive")
    return [tuple(items[i:i + size]) for i in range(0, len(items), size)]


class SweepRunner:
    """Maps a picklable worker over shard arguments, serially or not."""

    def __init__(self, jobs: int | None = None, persistent: bool = False,
                 initializer=None, zerocopy: bool | None = None):
        if jobs is None:
            jobs = 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.persistent = persistent
        #: Module-level callable run once in each pool worker as it
        #: starts (e.g. :func:`repro.serve.workers.warm_imports`, so a
        #: long-lived service pays import cost at spawn, not on the
        #: first request).  Only the persistent pool uses it: per-call
        #: pools are short-lived and would pay the warm-up per map().
        self.initializer = initializer
        #: ``None`` (default) auto-detects: shard results above
        #: :data:`repro.exec.shm.ZEROCOPY_MIN_BYTES` come back through
        #: shared-memory segments when the platform supports them,
        #: through the pool's pickle pipe otherwise.  ``False`` forces
        #: the pickle path (bit-identical by construction — the bench
        #: and the identity tests compare the two).
        self.zerocopy = shm_available() if zerocopy is None else zerocopy
        self._pool: ProcessPoolExecutor | None = None
        self._tokens: list = []

    def _persistent_pool(self) -> ProcessPoolExecutor:
        if not self.persistent:
            raise ConfigurationError(
                "this SweepRunner is per-call; construct it with "
                "persistent=True to keep a pool alive")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=self.initializer)
        return self._pool

    def map(self, worker, shard_args) -> list:
        """Run ``worker`` over every shard; results in shard order.

        ``worker`` must be a module-level function and every element of
        ``shard_args`` picklable when ``jobs > 1``.  With zero-copy
        enabled, workers park large results in shared-memory segments
        and only a small descriptor crosses the pool pipe; the parent
        decodes each descriptor back into NumPy views.  Both pool paths
        cap the effective worker count at ``min(jobs, len(shard_args))``
        and hand the executor a computed chunksize so hundreds of cheap
        shards don't dispatch one at a time.
        """
        shard_args = list(shard_args)
        if self.jobs == 1 or len(shard_args) <= 1:
            return [worker(args) for args in shard_args]
        workers = min(self.jobs, len(shard_args))
        chunksize = pool_chunksize(len(shard_args), workers)
        if not self.zerocopy:
            if self.persistent:
                return list(self._persistent_pool().map(
                    worker, shard_args, chunksize=chunksize))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(worker, shard_args,
                                     chunksize=chunksize))
        token = run_token()
        packed = [(worker, args, token, ZEROCOPY_MIN_BYTES)
                  for args in shard_args]
        try:
            if self.persistent:
                encoded = list(self._persistent_pool().map(
                    zerocopy_shard, packed, chunksize=chunksize))
            else:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    encoded = list(pool.map(zerocopy_shard, packed,
                                            chunksize=chunksize))
            return [decode_result(item) for item in encoded]
        except BaseException:
            # a failed or interrupted run may have parked segments whose
            # descriptors were never decoded — unlink them before
            # re-raising so /dev/shm doesn't accumulate orphans
            sweep_run(token)
            raise

    def submit(self, worker, args) -> Future:
        """Run ``worker(args)`` once on the persistent pool (a Future).

        Unlike :meth:`map` there is no in-process shortcut: even with
        ``jobs=1`` the invocation runs in a pool worker, because the
        point of :meth:`submit` is keeping the *calling* thread (an
        event loop) free.  With zero-copy enabled the worker's result
        comes back through a shared-memory segment and is decoded on
        the pool's callback thread before the returned future resolves.
        """
        pool = self._persistent_pool()
        if not self.zerocopy:
            return pool.submit(worker, args)
        token = run_token()
        self._tokens.append(token)
        inner = pool.submit(zerocopy_shard,
                            (worker, args, token, ZEROCOPY_MIN_BYTES))
        outer: Future = Future()

        def _resolve(done: Future) -> None:
            try:
                self._tokens.remove(token)
            except ValueError:      # close() already swept this token
                pass
            exc = done.exception()
            if exc is not None:
                sweep_run(token)
                outer.set_exception(exc)
                return
            try:
                outer.set_result(decode_result(done.result()))
            except BaseException as err:  # segment vanished/corrupt
                sweep_run(token)
                outer.set_exception(err)

        inner.add_done_callback(_resolve)
        return outer

    def close(self) -> None:
        """Shut the persistent pool down (idempotent, waits for work).

        Also sweeps shared-memory segments of any in-flight zero-copy
        submissions whose descriptors will now never be decoded.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        while self._tokens:
            sweep_run(self._tokens.pop())

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def device_payload(gpu) -> tuple:
    """(spec dict, seed): what a worker needs to rebuild ``gpu``."""
    from repro.gpu.serialization import spec_to_dict
    return spec_to_dict(gpu.spec), gpu.seed


def rebuild_device(spec_data: dict, seed: int):
    """Worker-side inverse of :func:`device_payload` (fresh state)."""
    from repro.gpu.device import SimulatedGPU
    from repro.gpu.serialization import spec_from_dict
    return SimulatedGPU(spec_from_dict(spec_data), seed=seed)
