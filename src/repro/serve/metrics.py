"""Live service metrics: counters, gauges, streaming latency quantiles.

Everything here is mutated from the server's single event-loop thread,
so no locking is needed; readers (``GET /metricz``) see a consistent
snapshot because the snapshot is assembled between awaits.

Latency percentiles come from :class:`StreamingDigest`, a fixed-memory
log-bucketed histogram: observations land in geometrically spaced
buckets (4 % wide), so any quantile is answered in O(buckets) with a
worst-case relative error of half a bucket (~2 %) regardless of how many
millions of observations streamed through — the standard trick for
service latencies, where absolute error must scale with the value
(1 ms resolution at 25 ms, not at 10 s).
"""

from __future__ import annotations

import math
import time

#: Bucket boundaries grow by this factor: relative quantile error ~2 %.
_GROWTH = 1.04

#: Smallest distinguishable latency (seconds); everything below lands in
#: bucket 0.
_FLOOR = 1e-5


class StreamingDigest:
    """Fixed-memory quantile digest over a stream of positive values."""

    def __init__(self):
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def _bucket(self, value: float) -> int:
        if value <= _FLOOR:
            return 0
        return 1 + int(math.log(value / _FLOOR) / math.log(_GROWTH))

    def _midpoint(self, bucket: int) -> float:
        if bucket == 0:
            return _FLOOR / 2
        low = _FLOOR * _GROWTH ** (bucket - 1)
        return low * (1 + _GROWTH) / 2

    def add(self, value: float) -> None:
        value = max(0.0, float(value))
        bucket = self._bucket(value)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    def quantile(self, q: float, *, empty: float = 0.0) -> float:
        """Approximate ``q``-quantile (0..1).

        An empty digest has no quantiles: rather than letting the bucket
        walk fall through to whatever ``maximum`` happens to hold, the
        empty case returns ``empty`` explicitly — ``0.0`` by default, or
        pass ``empty=float("nan")`` when "no data" must stay
        distinguishable from "all-zero latencies" (window rollups do).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0, 1], got {q}")
        if self.count == 0:
            return empty
        rank = min(self.count - 1, int(q * self.count))
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen > rank:
                return min(self._midpoint(bucket), self.maximum)
        return self.maximum

    def merge(self, other: "StreamingDigest") -> "StreamingDigest":
        """Fold ``other``'s observations into this digest, in place.

        Bucket counts add exactly, so merging per-worker (or per-window)
        digests yields the same digest as streaming every observation
        through one instance — the property rollups rely on.  Returns
        ``self`` so rollup loops can chain.
        """
        for bucket, n in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + n
        self.count += other.count
        self.total += other.total
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    def to_state(self) -> dict:
        """JSON-serializable state; ``from_state`` round-trips exactly.

        Bucket indices become string keys (JSON objects have string
        keys), counts stay exact integers.
        """
        return {"counts": {str(b): n for b, n in sorted(self._counts.items())},
                "count": self.count,
                "total": self.total,
                "maximum": self.maximum}

    @classmethod
    def from_state(cls, state: dict) -> "StreamingDigest":
        """Rebuild a digest from :meth:`to_state` output (validated)."""
        try:
            counts = {int(b): int(n) for b, n in state["counts"].items()}
            count = int(state["count"])
            total = float(state["total"])
            maximum = float(state["maximum"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"malformed digest state: {exc}") from None
        if any(b < 0 or n < 0 for b, n in counts.items()):
            raise ValueError("digest state has negative bucket/count")
        if count != sum(counts.values()) or total < 0 or maximum < 0:
            raise ValueError("digest state counts are inconsistent")
        digest = cls()
        digest._counts = counts
        digest.count = count
        digest.total = total
        digest.maximum = maximum
        return digest

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary_ms(self) -> dict:
        """Count plus mean/p50/p90/p99/max in milliseconds."""
        return {"count": self.count,
                "mean_ms": self.mean * 1e3,
                "p50_ms": self.quantile(0.50) * 1e3,
                "p90_ms": self.quantile(0.90) * 1e3,
                "p99_ms": self.quantile(0.99) * 1e3,
                "max_ms": self.maximum * 1e3}


class ServeMetrics:
    """The server's live counters/gauges/digests, one instance per server.

    Counter semantics (asserted by the end-to-end tests, documented here
    so they stay stable):

    * ``connections`` — accepted TCP connections.  Connections persist,
      so ``requests_total / connections`` is requests per connection.
    * ``requests[<experiment>]`` / ``requests[<endpoint>]`` — every
      request that reached routing, keyed by experiment name or bare
      endpoint (``healthz``/``metricz``/``experiments``).
    * ``computations`` — underlying experiment computations actually
      dispatched to the pool.  N coalesced identical requests bump this
      exactly once.
    * ``coalesced`` — requests that joined another request's in-flight
      computation instead of starting their own.
    * ``cache_hits`` / ``cache_misses`` — result-cache lookups on the
      hot path (followers of a flight never consult the cache).
    * ``rejected`` — fast 429 responses from admission control.
    * ``shm_results`` / ``inline_results`` — how each computation's
      result bytes travelled back from the worker pool: a shared-memory
      segment (large payloads) or in-band on the result queue (small
      payloads).
    * ``replays`` — completed ``POST /v1/replay`` recomputations.
    * For any experiment:  requests == computations + coalesced +
      cache_hits + rejected + errors (each request takes exactly one of
      those paths).
    """

    def __init__(self):
        self.started_at = time.monotonic()
        self.connections = 0
        self.requests: dict[str, int] = {}
        self.responses: dict[int, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.computations = 0
        self.rejected = 0
        self.errors = 0
        self.shm_results = 0
        self.inline_results = 0
        self.replays = 0
        self.inflight_requests = 0
        self.inflight_computations = 0
        self.request_latency = StreamingDigest()
        self.compute_latency = StreamingDigest()

    def note_request(self, route: str) -> None:
        self.requests[route] = self.requests.get(route, 0) + 1

    def note_response(self, status: int, seconds: float) -> None:
        self.responses[status] = self.responses.get(status, 0) + 1
        self.request_latency.add(seconds)

    def snapshot(self) -> dict:
        """The ``/metricz`` JSON document."""
        return {
            "uptime_s": time.monotonic() - self.started_at,
            "counters": {
                "connections": self.connections,
                "requests_total": sum(self.requests.values()),
                "requests": dict(sorted(self.requests.items())),
                "responses": {str(code): n for code, n
                              in sorted(self.responses.items())},
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "coalesced": self.coalesced,
                "computations": self.computations,
                "rejected": self.rejected,
                "errors": self.errors,
                "shm_results": self.shm_results,
                "inline_results": self.inline_results,
                "replays": self.replays,
            },
            "gauges": {
                "inflight_requests": self.inflight_requests,
                "inflight_computations": self.inflight_computations,
            },
            "latency": {
                "request": self.request_latency.summary_ms(),
                "compute": self.compute_latency.summary_ms(),
            },
        }
