"""The suite's five workloads; every run is one fresh interpreter.

``run.py`` starts this file once per set-up sample and once per
measured run; it is not meant to be started by hand::

    python -u workloads.py --workload NAME --seed S --seconds N --t0 T
        --out DIR [--expected FILE] [--short] [--trace] [--setup-only]

The process sets its workload up, stamps ``setup_s`` (from ``--t0``,
the parent's monotonic clock just before the spawn, to the first timed
operation), measures for ``--seconds``, checks every output, and
prints one JSON object as the last line of its standard output.

While it measures, the reference clock (``refclock.py``) samples how
fast the host runs; every bounded timing is read in refs against it,
and the raw times are kept beside them as diagnostics.

``--short`` is the short form that smoke runs and traces use: the same
operations with the same inputs, fewer repetitions, and the serve
workloads on an in-thread server.  ``--trace`` wraps the public
callables of each layer (``spans.py``) before set-up and writes
``<out>/trace.<workload>.json``.  ``--setup-only`` stops at the first
timed operation: one more ``setup_s`` sample.

Outputs are checked three ways: every repetition must reproduce the
first byte for byte; at seed 0 the first output's sha256 must match
``expected.json``; and, at any seed, held-out inputs are recomputed on
the golden (scalar) engine and compared.  Each check is one attempted
operation, and a mismatch is one failed operation.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import functools
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Fig 23 offered loads (packets/cycle/compute node), both arbiters,
#: two traffic seeds: 24 lanes of one lockstep kernel per sweep set.
FIG23_RATES = (0.03, 0.08, 0.13, 0.18, 0.25, 0.4)
FIG23_ARBITERS = ("rr", "age")
FIG23_RUN = {"cycles": 3000, "warmup": 500}

#: 2 VC counts x 2 depths x 2 credit latencies x 2 seeds = 16 lanes.
VC_GRID = {"vc_counts": (1, 2), "buffer_depths": (2, 4),
           "credit_latencies": (1, 2), "cycles": 2000}
VC_JOBS = 2
#: The held-out scalar lane is shorter than the grid's: the scalar
#: model runs ~1 ms per cycle.
VC_CHECK_CYCLES = 600

#: CPUs the serve workloads run on.  On a 2-vCPU VM a request crossing
#: between vCPUs waits for the host to run the idle one, which took
#: from nothing to several milliseconds depending on the host's load:
#: unpinned, hot p50 ranged 4.9-11.4 ms over six runs in which the
#: pinned runs between them read 5.0-6.5 ms.
SERVE_CPUS = 1
#: Connections of both load shapes (at most ``os.cpu_count()``): with
#: two, the server has the next request while the client reads a reply.
CONNECTIONS = 2
#: Hot keys of serve-hot, drawn Zipf(1.1) by the traffic compiler.
HOT_KEYS = 16
HOT_ZIPF_S = 1.1
#: Open-loop rates; the first is the bounded one.  Hot capacity on one
#: CPU is 300-350 rps, so 100 rps measures the read path and 200 rps
#: already the queue in front of it.
HOT_RATES = (100.0, 200.0)
#: serve-cold: one unique key per request (an 8-SM matrix).  Capacity
#: on one CPU is 65-75 rps, so 20 rps keeps the server a quarter busy
#: and the phase measures the write path, not a backlog: at 40 rps its
#: p50 spread by a fifth between runs.
COLD_RATE = 20.0
COLD_SMS = list(range(8))
#: Held-out scalar recomputation of every 10th cold key, first 80 only.
COLD_CHECK_EVERY = 10
COLD_CHECK_KEYS = 80
#: Bodies of the first cold keys are what expected.json pins.
COLD_GOLDEN_KEYS = 8


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _tail(values) -> tuple:
    """(percentile, value): the highest of p99/p95/p90 with at least ten
    samples beyond it (p90 when even that has fewer)."""
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            break
    return pct, _quantile(values, pct / 100)


#: Closed-loop capacity is the median of completions per window this
#: long, which a stall or a slow spell in part of a phase does not move.
WINDOW_S = 0.5


def _windows(start: float, done_at, elapsed_s: float) -> list:
    """``(start, seconds, completions)`` of each whole ``WINDOW_S`` window
    of a phase that began at ``start`` (monotonic times); a phase
    shorter than one window is one window."""
    whole = int(elapsed_s // WINDOW_S)
    if not whole:
        return [(start, elapsed_s, len(done_at))]
    counts = [0] * whole
    for done in done_at:
        index = int((done - start) // WINDOW_S)
        if index < whole:
            counts[index] += 1
    return [(start + i * WINDOW_S, WINDOW_S, count)
            for i, count in enumerate(counts)]


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _span(table: dict, name: str, field: str = "self_s"):
    """One field of a span-table row; 0 for a span that never ran."""
    return table.get(name, {}).get(field, 0)


class Run:
    """One workload process's settings, outcome tally and metrics."""

    def __init__(self, args):
        from refclock import RefClock
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.short = args.short
        self.clock = RefClock()
        self.tracer = None
        self.t0 = args.t0
        self.out = Path(args.out)
        self.scratch = self.out / f"scratch.{args.workload}.{os.getpid()}"
        self.expected, skipped = _load_expected(args.expected)
        #: why the seed-0 digests went unchecked; None when they ran
        self.golden_skipped = skipped if self.seed == 0 else None
        self.setup_s = None
        self.attempted = 0
        self.failures: dict = {}
        self.mismatches: list = []
        self.metrics: dict = {}
        self.layers: dict = {}
        self.digests: dict = {}
        #: the run's typical operation in refs (what the trace overhead
        #: is measured on)
        self.work = 0.0
        self._dirs = itertools.count()

    def begin(self) -> None:
        """Mark the first timed operation (ends set-up)."""
        if self.setup_s is None:
            self.setup_s = time.monotonic() - self.t0

    def timed(self, fn) -> tuple:
        """``fn()`` and its timing ``(start, end, seconds)``: monotonic
        start and end, and the seconds between without the reference
        clock's samples."""
        spent = self.clock.spent
        start = time.monotonic()
        value = fn()
        end = time.monotonic()
        return value, (start, end, end - start - (self.clock.spent - spent))

    def refs(self, timings) -> list:
        """Each ``(start, end, seconds)`` timing in refs."""
        return [seconds / self.clock.ref(start, end)
                for start, end, seconds in timings]

    def op(self, what: str, ok: bool = True, reason: str = "wrong-bytes",
           count: int = 1) -> None:
        """Count ``count`` attempted operations; ``ok=False`` fails them."""
        self.attempted += count
        if not ok:
            self.failures[reason] = self.failures.get(reason, 0) + count
            if reason == "wrong-bytes":
                self.mismatches.append(what)

    def golden(self, name: str, data: bytes) -> None:
        """Digest an output; at seed 0 check it against expected.json."""
        digest = hashlib.sha256(data).hexdigest()
        self.digests[name] = digest
        want = (self.expected or {}).get("digests", {}).get(name)
        if self.seed == 0 and want is not None:
            self.op(f"golden {name}", digest == want)

    def metric(self, name: str, value: float, unit: str, n: int) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def fresh_dir(self, label: str) -> Path:
        path = self.scratch / f"{label}-{next(self._dirs)}"
        path.mkdir(parents=True)
        return path

    def result(self) -> dict:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {"workload": self.workload, "seed": self.seed,
                "setup_s": self.setup_s,
                "attempted": self.attempted,
                "failed": sum(self.failures.values()),
                "failures": self.failures,
                "correct": not self.mismatches,
                "mismatches": self.mismatches,
                "golden_skipped": self.golden_skipped,
                "metrics": self.metrics, "layers": self.layers,
                "digests": self.digests, "work": self.work,
                # ru_maxrss is KiB on Linux: this process plus its
                # largest reaped descendant (pool workers, the server)
                "peak_rss_mb": (own + reaped) / 1024.0}


def _load_expected(path) -> tuple:
    """``(expected.json, None)``, or ``(None, why)`` when it is missing
    or stamped for other versions (outputs may legitimately differ
    across Python or NumPy releases)."""
    if not path or not Path(path).is_file():
        return None, f"no {path}"
    with open(path) as handle:
        expected = json.load(handle)
    import numpy
    if expected.get("python") != platform.python_version() or \
            expected.get("numpy") != numpy.__version__:
        return None, (f"stamped for Python {expected.get('python')} / "
                      f"NumPy {expected.get('numpy')}")
    return expected, None


class Workload:
    """Set up in ``__init__``; then ``measure``, ``close`` and, untraced,
    ``cross_check``.  ``wrap`` installs the workload's spans before
    set-up and ``layer_metrics`` reads them back."""

    def __init__(self, run: Run):
        self.run = run

    @staticmethod
    def wrap(tracer) -> None:
        pass

    def measure(self) -> None:
        raise NotImplementedError

    def cross_check(self) -> None:
        pass

    def close(self) -> None:
        pass

    def layer_metrics(self, table: dict) -> dict:
        return {}


def _repeat(run: Run, operations: list, name: str, encode) -> bytes:
    """Run rounds of ``operations``, one after the other and each timed
    as one operation, for the run's seconds (at least one round); the
    outputs of every round must encode to the first round's bytes,
    which are digested as ``name``.  Returns those bytes."""
    start = time.monotonic()
    first = None
    timings, rounds = [], []
    while not rounds or time.monotonic() - start < run.seconds:
        outputs = []
        for operation in operations:
            output, timing = run.timed(operation)
            timings.append(timing)
            outputs.append(output)
        rounds.append(sum(t[2] for t in timings[-len(operations):]))
        data = encode(outputs)
        if first is None:
            first = data
            run.golden(name, data)
        run.op(f"{name} output", data == first)
    n, refs = len(timings), _median(run.refs(timings))
    run.work = refs
    run.metric("op_p50_ref", refs, "ref", n)
    # back to back, one at a time: the rate is one over the op time
    run.metric("ops_per_ref", 1 / refs, "1/ref", n)
    run.metric("op_p50_ms", _median([t[2] for t in timings]) * 1e3, "ms", n)
    run.metric(f"{name.replace('-', '_')}_s", _median(rounds), "s",
               len(rounds))
    return first


# --------------------------------------------------------------------------
# report: the command users run, cold then warm
# --------------------------------------------------------------------------

class Report(Workload):
    """``generate_report(seed, cache=<fresh dir>)`` with default engines:
    rounds of one cold report on an empty cache, then a burst of warm
    ones on the cache it filled, until the run's seconds are up (at
    least two rounds; one in the short form).  A cold report takes
    6-8 s, so a run holds two or three; the warm ones (~1 ms each) come
    after every cold one, so their median spans the whole run."""

    def __init__(self, run: Run):
        super().__init__(run)
        from repro import report
        from repro.exec import ResultCache
        self.report = report
        self.cache_cls = ResultCache
        self.caches: list = []
        self.rounds, self.warm = (1, 20) if run.short else (2, 250)

    @staticmethod
    def wrap(tracer) -> None:
        from repro import report
        from repro.core import bandwidth_bench
        from repro.exec.cache import ResultCache
        from repro.gpu.device import SimulatedGPU
        from repro.noc import latency
        from repro.noc.mesh import fastmesh
        tracer.wrap(SimulatedGPU, "__init__", "gpu.build")
        tracer.wrap(latency.LatencyModel, "__init__", "gpu.build")
        tracer.wrap(latency.LatencyModel, "latency_matrix", "core.latency")
        tracer.wrap(latency.LatencyModel, "miss_penalty", "core.latency")
        for name in ("single_sm_slice_bandwidth", "group_to_slice_bandwidth",
                     "aggregate_l2_bandwidth", "aggregate_memory_bandwidth"):
            tracer.wrap(bandwidth_bench, name, "core.bandwidth")
        for name in ("batched_reply_bottleneck",
                     "batched_fairness_experiment"):
            tracer.wrap(fastmesh, name, "mesh.kernel")
        tracer.wrap(ResultCache, "get", "exec.cache.get")
        tracer.wrap(ResultCache, "put", "exec.cache.put")
        tracer.wrap(report, "generate_report", "report.generate")

    def _generate(self, cache) -> str:
        return self.report.generate_report(self.run.seed, cache=cache)

    def measure(self) -> None:
        run = self.run
        first = None
        cold, warm = [], []
        start = time.monotonic()
        while len(cold) < self.rounds or \
                time.monotonic() - start < run.seconds:
            cache = self.cache_cls(run.fresh_dir("report-cache"))
            self.caches.append(cache)
            markdown, timing = run.timed(lambda: self._generate(cache))
            cold.append(timing)
            if first is None:
                first = markdown
                run.golden("report", markdown.encode())
                run.op("report 11/11 checks",
                       "**11/11 checks within tolerance.**" in markdown)
            run.op("cold report bytes", markdown == first)
            for _ in range(self.warm):
                markdown, timing = run.timed(lambda: self._generate(cache))
                warm.append(timing)
                run.op("warm report bytes", markdown == first)
        run.work = _median(run.refs(cold))
        run.metric("op_p50_ref", run.work, "ref", len(cold))
        # back to back, one at a time: the rate is one over the op time
        run.metric("ops_per_ref", 1 / run.work, "1/ref", len(cold))
        run.metric("report_cold_s", _median([t[2] for t in cold]), "s",
                   len(cold))
        # diagnostics only: a warm report's speed also depends on the
        # process (see README.md), which no reference cancels
        run.metric("report_warm_ref", _median(run.refs(warm)), "ref",
                   len(warm))
        run.metric("report_warm_ms", _median([t[2] for t in warm]) * 1e3,
                   "ms", len(warm))

    def close(self) -> None:
        stats = [cache.stats() for cache in self.caches]
        hits = sum(s["hits"] for s in stats)
        lookups = hits + sum(s["misses"] for s in stats)
        self.run.layers["exec.cache.hit_ratio"] = hits / max(1, lookups)
        self.run.layers["exec.cache.binary_blobs"] = sum(
            s["binary_blobs"] for s in stats)

    def layer_metrics(self, table: dict) -> dict:
        return {
            "gpu.build_s": _span(table, "gpu.build"),
            "core.latency_s": _span(table, "core.latency"),
            "core.bandwidth_s": _span(table, "core.bandwidth"),
            "mesh.kernel_s": _span(table, "mesh.kernel"),
            "exec.cache.put_calls": _span(table, "exec.cache.put", "count"),
            "exec.cache.put_ms": _span(table, "exec.cache.put") * 1e3,
            "exec.cache.get_calls": _span(table, "exec.cache.get", "count"),
            "exec.cache.get_ms": _span(table, "exec.cache.get") * 1e3,
            "report.render_ms":
                _span(table, "report.generate", "self_p50_s") * 1e3,
        }


# --------------------------------------------------------------------------
# fig23-sweep: the batched mesh kernel alone
# --------------------------------------------------------------------------

class Fig23Sweep(Workload):
    """``sweep_load`` over the Fig 23 rates x {rr, age} x {S, S+1}."""

    def __init__(self, run: Run):
        super().__init__(run)
        from repro.noc.mesh import loadcurve
        self.loadcurve = loadcurve
        self.seeds = (run.seed, run.seed + 1)

    @staticmethod
    def wrap(tracer) -> None:
        from repro.noc.mesh import fastmesh, loadcurve
        tracer.wrap(loadcurve, "sweep_load", "mesh.sweep_load")
        tracer.wrap(fastmesh, "batched_sweep_load", "mesh.kernel")

    def measure(self) -> None:
        """Each ``sweep_load`` call (one curve, 6 lanes) is one operation,
        so a run holds some thirty samples, not a handful of sets."""
        sweeps = [functools.partial(self.loadcurve.sweep_load, FIG23_RATES,
                                    arbiter=arbiter, seed=seed, **FIG23_RUN)
                  for arbiter in FIG23_ARBITERS for seed in self.seeds]
        _repeat(self.run, sweeps, "fig23-sweep",
                lambda curves: _canonical(
                    [[c.arbiter, [[p.offered_rate, p.accepted_rate,
                                   p.avg_latency] for p in c.points]]
                     for c in curves]))

    def cross_check(self) -> None:
        """One held-out point (seed S+2) per arbiter on the scalar mesh."""
        rate = FIG23_RATES[self.run.seed % len(FIG23_RATES)]
        for arbiter in FIG23_ARBITERS:
            kwargs = dict(arbiter=arbiter, seed=self.run.seed + 2,
                          **FIG23_RUN)
            scalar = self.loadcurve.sweep_load([rate], engine="scalar",
                                               **kwargs)
            fast = self.loadcurve.sweep_load([rate], **kwargs)
            self.run.op(f"fig23 scalar point {arbiter}", scalar == fast)

    def layer_metrics(self, table: dict) -> dict:
        """Per sweep set (the short form may run more than one)."""
        calls = len(FIG23_ARBITERS) * len(self.seeds)
        sets = max(1, _span(table, "mesh.sweep_load", "count") // calls)
        lane_cycles = len(FIG23_RATES) * calls * FIG23_RUN["cycles"]
        kernel_s = _span(table, "mesh.kernel") / sets
        return {"mesh.sweep_load_s":
                _span(table, "mesh.sweep_load", "total_s") / sets,
                "mesh.kernel_s": kernel_s,
                "mesh.lane_cycles_per_s": lane_cycles / kernel_s
                if kernel_s else 0.0}


# --------------------------------------------------------------------------
# vc-grid: the pooled sweep runner and its shard transport
# --------------------------------------------------------------------------

class VCGrid(Workload):
    """``sweep_vc_grid(jobs=2)`` over the 16-lane VC grid."""

    def __init__(self, run: Run):
        super().__init__(run)
        from repro.noc.mesh import vc
        self.vc = vc
        self.seeds = (run.seed, run.seed + 1)

    @staticmethod
    def wrap(tracer) -> None:
        from repro.exec import runner
        from repro.exec.shm import ShardSegment
        from repro.noc.mesh import vcmesh_batched
        tracer.wrap(runner.SweepRunner, "map", "exec.runner.map")
        tracer.wrap(runner, "decode_result", "exec.shm.decode",
                    size=lambda obj: sum(obj.sizes)
                    if isinstance(obj, ShardSegment) else 0)
        tracer.wrap(vcmesh_batched, "batched_vc_points", "vcmesh.kernel")

    def _grid(self, jobs) -> list:
        return self.vc.sweep_vc_grid(jobs=jobs, seeds=self.seeds, **VC_GRID)

    @staticmethod
    def _encode(results) -> bytes:
        return _canonical([r.to_json() for r in results])

    def measure(self) -> None:
        run = self.run
        first = _repeat(run, [lambda: self._grid(VC_JOBS)], "vc-grid",
                        lambda outputs: self._encode(outputs[0]))
        if run.tracer is not None:
            # the same grid in-process, once: what sharding costs
            with run.tracer.span("vcmesh.inproc"):
                inproc = self._grid(None)
            run.op("vc-grid in-process output", self._encode(inproc) == first)

    def cross_check(self) -> None:
        """One held-out lane (seed S+2) on the scalar VC model."""
        seed = self.run.seed + 2
        num_vcs = VC_GRID["vc_counts"][seed % 2]
        depth = VC_GRID["buffer_depths"][(seed // 2) % 2]
        latency = VC_GRID["credit_latencies"][(seed // 4) % 2]
        scalar = self.vc.run_shared_network_experiment(
            num_vcs, cycles=VC_CHECK_CYCLES, seed=seed, buffer_flits=depth,
            credit_latency=latency, engine="scalar")
        fast = self.vc.sweep_vc_grid(
            vc_counts=(num_vcs,), buffer_depths=(depth,),
            credit_latencies=(latency,), seeds=(seed,),
            cycles=VC_CHECK_CYCLES)[0]
        self.run.op("vc scalar lane", scalar.to_json() == fast.to_json())

    def layer_metrics(self, table: dict) -> dict:
        """Per ``jobs=2`` grid (the short form may run more than one)."""
        from repro.units import MIB
        grids = max(1, _span(table, "exec.runner.map", "count"))
        map_s = _span(table, "exec.runner.map", "total_s") / grids
        inproc_s = _span(table, "vcmesh.inproc", "total_s")
        return {"exec.runner.map_s": map_s,
                "exec.shm.decode_calls":
                _span(table, "exec.shm.decode", "count") / grids,
                "exec.shm.decode_ms":
                _span(table, "exec.shm.decode") * 1e3 / grids,
                "exec.shm.decode_mb":
                _span(table, "exec.shm.decode", "size") / MIB / grids,
                "vcmesh.inproc_s": inproc_s,
                "exec.shard_overhead_s": map_s - inproc_s}


# --------------------------------------------------------------------------
# serve-hot / serve-cold: the service's read and write paths
# --------------------------------------------------------------------------

class _Serve(Workload):
    """A server on a fresh cache: a ``repro serve`` process when
    measuring, an in-thread server in the short form (and traces).
    ``warm`` runs last in set-up; the server stops if set-up fails.

    The load phases take turns in ``ROUNDS`` rounds, each phase getting
    its share of every round, so each metric samples the whole run:
    the host's speed changes in spells of a few seconds, and one
    contiguous phase can fall inside a single spell."""

    ROUNDS = 3

    def __init__(self, run: Run):
        super().__init__(run)
        import loadgen
        from repro.serve import server
        from repro.traffic import (ArrivalSpec, TenantSpec, TrafficSpec,
                                   compile_schedule)
        self.loadgen = loadgen
        self.spec_types = (ArrivalSpec, TenantSpec, TrafficSpec)
        self.compile_schedule = compile_schedule
        self.connections = min(CONNECTIONS, os.cpu_count() or 1)
        self.cache_dir = run.fresh_dir("serve-cache")
        self.rounds = 1 if run.short else self.ROUNDS
        # load generator, server and pool worker share one CPU (children
        # inherit it), so that no hand-off between them waits for the
        # host to run another vCPU: see SERVE_CPUS
        os.sched_setaffinity(0, set(sorted(os.sched_getaffinity(0))
                                    [:SERVE_CPUS]))
        self.service: list = []
        self.lateness: list = []
        # open-loop rate -> timings (due, done, seconds from due)
        self.latencies: dict = {}
        self.windows: list = []     # closed loop: see _windows
        self.closed_completed = 0
        self._stack = contextlib.ExitStack()
        if run.short:
            self.port = self._stack.enter_context(server.serve_in_thread(
                cache_dir=str(self.cache_dir))).port
        else:
            process = loadgen.ServerProcess(
                SRC, self.cache_dir, run.out / f"serve.{run.workload}.log")
            self._stack.callback(process.close)
            self.port = process.port
        try:
            self.warm()
        except BaseException:
            self._stack.close()
            raise

    def warm(self) -> None:
        pass

    @staticmethod
    def wrap(tracer) -> None:
        from repro.exec.cache import ResultCache
        from repro.serve import server
        tracer.wrap(server.ExperimentServer, "_handle_connection",
                    "serve.request")
        tracer.wrap(server, "normalize", "serve.normalize")
        tracer.wrap(server, "cache_key", "serve.key")
        tracer.wrap(server, "canonical_json", "serve.encode")
        tracer.wrap(server, "splice_envelope", "serve.splice")
        tracer.wrap(server.ExperimentServer, "_dispatch", "serve.dispatch")
        tracer.wrap(server.ExperimentServer, "_record_receipt",
                    "serve.receipt")
        tracer.wrap(ResultCache, "get", "exec.cache.get")
        tracer.wrap(ResultCache, "put_bytes", "exec.cache.put_bytes")

    def schedule(self, rate: float, duration_s: float, name: str):
        """Due times and params of a compiled Poisson schedule of
        Zipf-hot ``latency-matrix`` requests (params carry the key
        index as ``seed``)."""
        arrival, tenant, traffic = self.spec_types
        spec = traffic(
            name=name, arrival=arrival(rate_rps=rate),
            tenants=(tenant("suite", "latency-matrix",
                            params_base={"gpu": "V100"}, hot_keys=HOT_KEYS,
                            zipf_s=HOT_ZIPF_S),),
            seed=self.run.seed, duration_s=duration_s, window_s=duration_s)
        requests = self.compile_schedule(spec).requests
        return [r.t_s for r in requests], [r.params for r in requests]

    def _load(self, coroutine):
        result = asyncio.run(coroutine)
        run = self.run
        run.op("requests", count=result.completed)
        for reason, count in result.failures.items():
            run.op(f"{count} responses: {reason}", False, reason, count)
        self.service += result.service_s
        self.lateness += result.lateness_s
        return result

    def open_loop(self, rate: float, times, requests, on_body) -> None:
        """One slice of the open loop at ``rate``."""
        result = self._load(self.loadgen.open_loop(
            self.port, times, requests, on_body, self.connections))
        self.latencies.setdefault(rate, []).extend(
            (done - took, done, took)
            for done, took in zip(result.done_at, result.latencies_s))

    def closed_loop(self, requests, on_body, duration_s: float) -> int:
        """One slice of the closed loop; the requests it used up."""
        result = self._load(self.loadgen.closed_loop(
            self.port, requests, on_body, self.connections, duration_s))
        self.windows += _windows(result.start, result.done_at,
                                 result.elapsed_s)
        self.closed_completed += result.completed
        return result.attempted

    def finish(self, prefix: str, bounded_rate: float) -> None:
        """The open-loop latency at ``bounded_rate`` in refs as
        ``op_p50_ref``, and the closed loop's capacity as ``ops_per_ref``
        (median over windows of completions per ref); raw, each rate's
        p50 and tail as ``<prefix>_p50_ms.<rate>`` and the capacity as
        ``<prefix>_capacity_rps``.  The closed loop's refs per request
        are the work the trace overhead is measured on."""
        run = self.run
        for rate, timings in self.latencies.items():
            label = f"{rate:g}rps"
            latencies = [t[2] for t in timings]
            run.metric(f"{prefix}_p50_ms.{label}", _median(latencies) * 1e3,
                       "ms", len(latencies))
            if rate == bounded_rate:
                run.metric("op_p50_ref", _median(run.refs(timings)), "ref",
                           len(timings))
            pct, value = _tail(latencies)
            run.metric(f"{prefix}_p{pct}_ms.{label}", value * 1e3, "ms",
                       len(latencies))
        capacity = _median([count / seconds
                            * run.clock.ref(start, start + seconds)
                            for start, seconds, count in self.windows])
        run.metric("ops_per_ref", capacity, "1/ref", self.closed_completed)
        run.metric(f"{prefix}_capacity_rps",
                   _median([count / seconds
                            for _, seconds, count in self.windows]),
                   "1/s", self.closed_completed)
        run.work = 1 / capacity

    def expected_body(self, params: dict) -> bytes:
        """The response body, recomputed on the scalar engine and
        encoded here: canonical JSON of ``{experiment, params, value}``."""
        from repro.serve.experiments import normalize, run_experiment
        name = "latency-matrix"
        normalized = normalize(name, params)
        value = run_experiment((name, dict(normalized, engine="scalar")))
        return _canonical({"experiment": name, "params": normalized,
                           "value": value})

    def close(self) -> None:
        from repro.exec import ResultCache
        with self._stack:
            metricz = self.loadgen.metricz(self.port)
        counters = metricz["counters"]
        latency = metricz["latency"]
        lookups = counters["cache_hits"] + counters["cache_misses"]
        stats = ResultCache(self.cache_dir).stats()
        self.run.layers.update({
            "serve.cache_hit_ratio": counters["cache_hits"] / max(1, lookups),
            "serve.coalesced": counters["coalesced"],
            "serve.computations": counters["computations"],
            "serve.rejected": counters["rejected"],
            "serve.server_p50_ms": latency["request"]["p50_ms"],
            "serve.compute_p50_ms": latency["compute"]["p50_ms"],
            "serve.outside_ms": _median(self.service) * 1e3
            - latency["request"]["p50_ms"],
            "traffic.lateness_p99_ms": _quantile(self.lateness, 0.99) * 1e3,
            "exec.cache.binary_blobs": stats["binary_blobs"],
        })
        if counters["errors"]:
            self.run.op("server errors", False, reason="server-error")

    @staticmethod
    def per_request(table: dict, name: str) -> float:
        """Self seconds in one layer per served request."""
        requests = _span(table, "serve.request", "count")
        return _span(table, name) / max(1, requests)


class ServeHot(_Serve):
    """16 warmed Zipf-hot keys; each round: open loop at 100 then 200
    rps, then a closed loop over ``CONNECTIONS`` connections."""

    SHARES = (0.35, 0.35, 0.3)

    def __init__(self, run: Run):
        self.base = HOT_KEYS * run.seed
        self.bodies: list = []
        super().__init__(run)

    def warm(self) -> None:
        from repro.serve.client import ServeClient
        client = ServeClient(port=self.port)
        for key in range(HOT_KEYS):
            reply = client.experiment("latency-matrix", **self._params(key))
            if not reply.ok:
                raise RuntimeError(f"warming hot key {key}: "
                                   f"HTTP {reply.status}")
            self.bodies.append(reply.body)

    def _params(self, key: int) -> dict:
        return {"gpu": "V100", "seed": self.base + key}

    def _traffic(self, keys) -> tuple:
        """Requests for hot key indices, and the check of their bodies."""
        requests = [("latency-matrix", self._params(int(key)))
                    for key in keys]

        def check(index: int, body: bytes) -> bool:
            return body == self.bodies[int(keys[index])]
        return requests, check

    def measure(self) -> None:
        from repro.traffic import zipf_keys
        run = self.run
        open_share, _, closed_share = self.SHARES
        run.golden("serve-hot", b"\n".join(self.bodies))
        closed = self._traffic(zipf_keys(HOT_KEYS, HOT_ZIPF_S, 50_000,
                                         run.seed, "suite-closed"))
        seconds = run.seconds / self.rounds
        for index in range(self.rounds):
            for rate in HOT_RATES:
                times, params = self.schedule(
                    rate, open_share * seconds, f"serve-hot-{rate:g}-{index}")
                self.open_loop(rate, times,
                               *self._traffic([p["seed"] for p in params]))
            self.closed_loop(*closed, closed_share * seconds)
        self.finish("hot", HOT_RATES[0])

    def cross_check(self) -> None:
        """One hot key recomputed on the scalar engine."""
        key = self.run.seed % HOT_KEYS
        self.run.op("hot key on scalar engine",
                    self.expected_body(self._params(key)) == self.bodies[key])

    def layer_metrics(self, table: dict) -> dict:
        from repro.units import MEGA
        return {f"serve.{layer}_us": self.per_request(table, span) * MEGA
                for layer, span in (("normalize", "serve.normalize"),
                                    ("key", "serve.key"),
                                    ("cache_get", "exec.cache.get"),
                                    ("encode", "serve.encode"),
                                    ("splice", "serve.splice"))}


class ServeCold(_Serve):
    """Unique ``latency-matrix`` keys; each round: open loop at 20 rps,
    then a closed loop over ``CONNECTIONS`` connections.  The open loop
    gets most of the round: at 20 rps it is what gathers samples."""

    SHARES = (0.7, 0.3)

    def __init__(self, run: Run):
        self.base = 10_000_000 * (run.seed + 1)
        self.kept: dict = {}
        super().__init__(run)

    def _traffic(self, first: int, count: int) -> tuple:
        """Requests for cold keys ``first..``, and a body callback that
        keeps the bodies the golden digest and cross-check need."""
        requests = [("latency-matrix",
                     {"gpu": "V100", "seed": self.base + key,
                      "sms": COLD_SMS})
                    for key in range(first, first + count)]

        def keep(index: int, body: bytes) -> bool:
            key = first + index
            if key < COLD_GOLDEN_KEYS or (key < COLD_CHECK_KEYS
                                          and key % COLD_CHECK_EVERY == 0):
                self.kept[key] = body
            return True
        return requests, keep

    def measure(self) -> None:
        run = self.run
        open_share, closed_share = self.SHARES
        seconds = run.seconds / self.rounds
        key = 0
        for index in range(self.rounds):
            times, _ = self.schedule(COLD_RATE, open_share * seconds,
                                     f"serve-cold-{index}")
            self.open_loop(COLD_RATE, times, *self._traffic(key, len(times)))
            key += len(times)
            key += self.closed_loop(*self._traffic(key, 20_000),
                                    closed_share * seconds)
        self.finish("cold", COLD_RATE)
        run.golden("serve-cold", b"\n".join(
            self.kept.get(key, b"") for key in range(COLD_GOLDEN_KEYS)))

    def cross_check(self) -> None:
        """Every 10th of the first 80 cold keys on the scalar engine."""
        for key in range(0, COLD_CHECK_KEYS, COLD_CHECK_EVERY):
            if key in self.kept:
                requests, _ = self._traffic(key, 1)
                self.run.op(f"cold key {key} on scalar engine",
                            self.expected_body(requests[0][1])
                            == self.kept[key])

    def layer_metrics(self, table: dict) -> dict:
        from repro.units import MEGA
        return {"serve.dispatch_ms":
                self.per_request(table, "serve.dispatch") * 1e3,
                "serve.cache_put_us":
                self.per_request(table, "exec.cache.put_bytes") * MEGA,
                "serve.receipt_us":
                self.per_request(table, "serve.receipt") * MEGA}


WORKLOADS = {"report": Report, "fig23-sweep": Fig23Sweep, "vc-grid": VCGrid,
             "serve-hot": ServeHot, "serve-cold": ServeCold}


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")


def _terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--expected", default=None)
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still closes its server and pools (finally below)
    signal.signal(signal.SIGTERM, _terminate)
    _import_repro()
    run = Run(args)
    run.scratch.mkdir(parents=True, exist_ok=True)
    kind = WORKLOADS[args.workload]
    try:
        if args.trace:
            # wrapped before set-up: the server binds its handlers then
            from spans import Tracer
            run.tracer = Tracer()
            kind.wrap(run.tracer)
        try:
            workload = kind(run)
            try:
                run.begin()
                if not args.setup_only:
                    run.clock.start()
                    try:
                        workload.measure()
                    finally:
                        run.clock.stop()
                    run.metric("ref_ms", run.clock.median_ms(), "ms",
                               len(run.clock.cpu_s))
            finally:
                workload.close()
        finally:
            if run.tracer is not None:
                run.tracer.restore()
        if run.tracer is not None:
            from spans import summarize
            run.tracer.write(run.out / f"trace.{args.workload}.json")
            table = summarize(run.tracer.spans)
            run.layers.update(workload.layer_metrics(table))
            run.layers["spans"] = table
        elif not args.setup_only:
            workload.cross_check()
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
