"""Measurement-as-a-service layer: async HTTP serving of experiments.

Turns the repository from a library+CLI into a long-lived service: a
stdlib-only asyncio JSON-over-HTTP server (:mod:`~repro.serve.server`)
exposes the paper's headline experiments as typed endpoints
(:mod:`~repro.serve.experiments`), with singleflight request coalescing
and bounded-admission backpressure (:mod:`~repro.serve.coalesce`), live
counters and streaming latency quantiles (:mod:`~repro.serve.metrics`),
and a blocking stdlib client (:mod:`~repro.serve.client`).

Computations run on the sharded worker tier (:mod:`~repro.serve.workers`,
``workers=1`` by default): N forked worker processes, each owning a
consistent-hash shard of the cache-key space, sharing the
content-addressed on-disk cache, shipping large results back through
POSIX shared memory (:mod:`repro.ipc`), and surviving crashes and
rolling restarts without dropping requests.  Every computation leaves
a durable receipt (:mod:`~repro.serve.registry`) that
``POST /v1/replay`` can recompute and digest-check.

Start one from a shell::

    python -m repro serve --port 8737 --workers 4 --cache ~/.cache/repro

or embed one in-process::

    from repro.serve import ServeClient, serve_in_thread

    with serve_in_thread(workers=2, cache_dir="/tmp/repro-cache") as server:
        client = ServeClient(port=server.port)
        reply = client.experiment("latency-matrix", gpu="V100", seed=0)
        matrix = reply.value()["matrix"]
"""

from repro.serve.client import (AsyncServeClient, Backoff, ServeClient,
                                ServeClientError, ServeDeadlineError,
                                ServeReply)
from repro.serve.coalesce import AdmissionController, Singleflight
from repro.serve.experiments import (EXPERIMENTS, Experiment,
                                     ExperimentRequestError, Param,
                                     cache_payload, describe_experiments,
                                     engine_param, normalize,
                                     run_experiment)
from repro.serve.metrics import ServeMetrics, StreamingDigest
from repro.serve.registry import RunRegistry, request_sha, result_sha
from repro.serve.server import (DEFAULT_MAX_INFLIGHT, ExperimentServer,
                                canonical_json, serve_in_thread,
                                splice_envelope)
from repro.serve.streams import StreamBook, StreamError, TraceStream
from repro.serve.workers import (SHM_MIN_BYTES, HashRing,
                                 NoLiveWorkersError, WorkerPool,
                                 WorkerResult, warm_imports)

__all__ = [
    "AsyncServeClient", "Backoff", "ServeClient", "ServeClientError",
    "ServeDeadlineError", "ServeReply",
    "AdmissionController", "Singleflight",
    "EXPERIMENTS", "Experiment", "ExperimentRequestError", "Param",
    "cache_payload", "describe_experiments", "engine_param", "normalize",
    "run_experiment",
    "ServeMetrics", "StreamingDigest",
    "RunRegistry", "request_sha", "result_sha",
    "DEFAULT_MAX_INFLIGHT", "ExperimentServer", "canonical_json",
    "serve_in_thread", "splice_envelope",
    "StreamBook", "StreamError", "TraceStream",
    "SHM_MIN_BYTES", "HashRing", "NoLiveWorkersError", "WorkerPool",
    "WorkerResult", "warm_imports",
]
