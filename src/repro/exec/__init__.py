"""Fast-path execution layer: parallel sweeps + persistent result cache.

``runner`` shards the paper's embarrassingly parallel sweeps across a
process pool with deterministic per-shard device rebuilds (bit-identical
to serial execution); ``cache`` memoizes the results on disk under
content-addressed keys.  Together they back ``python -m repro report
--jobs N --cache DIR``; the cache's digest-verified
``put_bytes``/``get_bytes`` entries also back the hot/cold paths of the
:mod:`repro.serve` measurement service.
"""

from repro.exec.cache import CACHE_VERSION, ResultCache, cache_key
from repro.exec.runner import (DEFAULT_SHARD_SMS, SweepRunner, chunk,
                               device_payload, pool_chunksize,
                               rebuild_device)
from repro.exec.shm import (ZEROCOPY_MIN_BYTES, ShardSegment,
                            decode_result, encode_result)

__all__ = [
    "CACHE_VERSION", "ResultCache", "cache_key",
    "DEFAULT_SHARD_SMS", "SweepRunner", "chunk",
    "device_payload", "pool_chunksize", "rebuild_device",
    "ZEROCOPY_MIN_BYTES", "ShardSegment",
    "decode_result", "encode_result",
]
