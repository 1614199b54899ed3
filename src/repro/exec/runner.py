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
fans out over a :class:`concurrent.futures.ProcessPoolExecutor` that
lives for one :meth:`~SweepRunner.map` call.  Results always come back
in shard order.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

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

    def __init__(self, jobs: int | None = None,
                 zerocopy: bool | None = None):
        if jobs is None:
            jobs = 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: ``None`` (default) auto-detects: shard results above
        #: :data:`repro.exec.shm.ZEROCOPY_MIN_BYTES` come back through
        #: shared-memory segments when the platform supports them,
        #: through the pool's pickle pipe otherwise.  ``False`` forces
        #: the pickle path (bit-identical by construction — the bench
        #: and the identity tests compare the two).
        self.zerocopy = shm_available() if zerocopy is None else zerocopy

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
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(worker, shard_args,
                                     chunksize=chunksize))
        token = run_token()
        packed = [(worker, args, token, ZEROCOPY_MIN_BYTES)
                  for args in shard_args]
        try:
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


def device_payload(gpu) -> tuple:
    """(spec dict, seed): what a worker needs to rebuild ``gpu``."""
    from repro.gpu.serialization import spec_to_dict
    return spec_to_dict(gpu.spec), gpu.seed


def rebuild_device(spec_data: dict, seed: int):
    """Worker-side inverse of :func:`device_payload` (fresh state)."""
    from repro.gpu.device import SimulatedGPU
    from repro.gpu.serialization import spec_from_dict
    return SimulatedGPU(spec_from_dict(spec_data), seed=seed)
