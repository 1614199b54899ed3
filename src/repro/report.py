"""Reproduction report generator.

Builds a markdown paper-vs-measured report by running the headline
experiments (a fast subset of the benchmark suite) on freshly seeded
devices.  Exposed as ``python -m repro report`` so a user can regenerate
the core of EXPERIMENTS.md in one command.

The report is split into independent *tasks* (latency, bandwidth, and
the three mesh experiments).  Each task is a pure function of
(spec dicts, seed, parameters) returning plain-JSON metrics, which makes
two fast paths possible:

* ``jobs=N`` runs the tasks across a process pool via
  :class:`repro.exec.SweepRunner`, one task per unit — results are
  bit-identical to the serial run because every task builds its own
  devices or its own mesh (the Fig 21 request/reply pair, or one Fig 23
  fairness lane), and every mesh lane replays its own traffic streams;
* ``cache=DIR`` memoizes each task's metrics on disk under a
  content-addressed key (:mod:`repro.exec.cache`), so a re-run with the
  same seed and specs only re-renders markdown.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.gpu.device import SimulatedGPU


@dataclass(frozen=True)
class ReportRow:
    """One paper-vs-measured comparison."""
    experiment: str
    quantity: str
    paper: str
    measured: str
    ok: bool

    def markdown(self) -> str:
        mark = "ok" if self.ok else "DEVIATES"
        return (f"| {self.experiment} | {self.quantity} | {self.paper} "
                f"| {self.measured} | {mark} |")


# --------------------------------------------------------------------------
# task metrics: pure (seed -> JSON-able dict) functions, one per section
# --------------------------------------------------------------------------

def _latency_metrics(seed: int, engine: str) -> dict:
    v100 = SimulatedGPU("V100", seed=seed)
    a100 = SimulatedGPU("A100", seed=seed)
    h100 = SimulatedGPU("H100", seed=seed)
    lat = v100.latency.latency_matrix(engine=engine)
    sigmas = [float(lat[v100.hier.sms_in_gpc(g)].std()) for g in range(6)]
    a_lat = a100.latency.latency_matrix(engine=engine)
    sm0 = a100.hier.sms_in_partition(0)[0]
    pens = [h100.latency.miss_penalty(0, s) for s in range(h100.num_slices)]
    return {
        "v100_min": float(lat.min()),
        "v100_mean": float(lat.mean()),
        "v100_max": float(lat.max()),
        "v100_sigma_max": max(sigmas),
        "v100_sigma_min": min(sigmas),
        "a100_near": float(a_lat[sm0, a100.hier.slices_in_partition(0)]
                           .mean()),
        "a100_far": float(a_lat[sm0, a100.hier.slices_in_partition(1)]
                          .mean()),
        "h100_pen_min": float(min(pens)),
        "h100_pen_max": float(max(pens)),
    }


def _bandwidth_metrics(seed: int, engine: str) -> dict:
    from repro.core.bandwidth_bench import (aggregate_l2_bandwidth,
                                            aggregate_memory_bandwidth,
                                            group_to_slice_bandwidth,
                                            single_sm_slice_bandwidth)
    v100 = SimulatedGPU("V100", seed=seed)
    a100 = SimulatedGPU("A100", seed=seed)
    sm0 = a100.hier.sms_in_partition(0)[0]
    return {
        "v100_sm": single_sm_slice_bandwidth(v100, 0, 0, engine),
        "v100_gpc": group_to_slice_bandwidth(v100,
                                             v100.hier.sms_in_gpc(0), 0,
                                             engine),
        "v100_l2": aggregate_l2_bandwidth(v100, engine),
        "v100_mem": aggregate_memory_bandwidth(v100, engine),
        "a100_near": single_sm_slice_bandwidth(a100, sm0, 0, engine),
        "a100_far": single_sm_slice_bandwidth(
            a100, sm0, a100.hier.slices_in_partition(1)[0], engine),
    }


#: fixed run parameters of the mesh sections
_BOTTLENECK = {"cycles": 6000, "window": 100}
_FAIRNESS = {"cycles": 10000, "warmup": 2000}
_MESH_TASKS = ("mesh-bottleneck", "mesh-fairness-rr", "mesh-fairness-age")
_DEVICE_TASKS = ("latency", "bandwidth")


def _bottleneck_metrics(seed: int, engine: str) -> dict:
    from repro.noc.mesh.interfaces import run_reply_bottleneck
    reply = run_reply_bottleneck(**_BOTTLENECK, seed=seed, engine=engine)
    return {"mean_utilization": float(reply.mean_utilization)}


def _fairness_metrics(arbiter: str, seed: int, engine: str) -> dict:
    from repro.noc.mesh.traffic import run_fairness_experiment
    vals = run_fairness_experiment(arbiter, **_FAIRNESS, seed=seed,
                                   engine=engine).values
    return {"max": float(vals.max()), "mean": float(vals.mean()),
            "std": float(vals.std())}


_TASK_FUNCS = {
    "latency": _latency_metrics,
    "bandwidth": _bandwidth_metrics,
    "mesh-bottleneck": _bottleneck_metrics,
    "mesh-fairness-rr": partial(_fairness_metrics, "rr"),
    "mesh-fairness-age": partial(_fairness_metrics, "age"),
}


def _report_task(args) -> dict:
    """Sweep-runner worker: one task's metrics.

    ``engine`` is the task's own axis: scalar/vectorized for the device
    tasks, scalar/batched for the mesh tasks.
    """
    task, seed, engine = args
    return _TASK_FUNCS[task](seed, engine)


def _task_payload(task: str, seed: int) -> dict:
    """Cache payload: everything a task's metrics depend on.

    Device tasks fold in the full spec dicts, so editing a spec (or a
    spec .json shipping a different device) invalidates their entries;
    mesh tasks depend only on the seed and their hard-coded parameters.
    Deliberately excludes ``jobs`` — results are identical either way.
    """
    payload = {"task": task, "seed": seed}
    if task in _DEVICE_TASKS:
        from repro.gpu.serialization import spec_dict
        payload["specs"] = {name: spec_dict(name)
                            for name in ("V100", "A100", "H100")}
    return payload


def _collect_metrics(tasks, seed: int, jobs, cache,
                     engine: str | None = None,
                     mesh_engine: str | None = None) -> dict:
    """Metrics for every task, via cache where possible, pool if asked.

    Device tasks run on ``engine`` (scalar/vectorized); mesh tasks run on
    ``mesh_engine`` (scalar/batched); ``None`` is the registry default.
    The per-task engine is folded into each task's cache key, so entries
    never alias across engines.  Each missing task is one pool unit.
    """
    from repro import engines as engine_registry
    from repro.exec import cache_key
    engine = engine_registry.resolve("device", engine)
    mesh_engine = engine_registry.resolve("mesh", mesh_engine)

    def _task_engine(task: str) -> str:
        return mesh_engine if task in _MESH_TASKS else engine

    def _key(task: str) -> str:
        domain = "mesh" if task in _MESH_TASKS else "device"
        return cache_key("report-task", _task_payload(task, seed),
                         f"{domain}:{_task_engine(task)}")

    metrics = {}
    missing = []
    for task in tasks:
        cached = cache.get(_key(task)) if cache is not None else None
        if cached is not None:
            metrics[task] = cached
        else:
            missing.append(task)
    if missing:
        from repro.exec import SweepRunner
        computed = SweepRunner(jobs).map(
            _report_task,
            [(task, seed, _task_engine(task)) for task in missing])
        for task, value in zip(missing, computed):
            metrics[task] = value
            if cache is not None:
                cache.put(_key(task), value)
    return metrics


# --------------------------------------------------------------------------
# row assembly: pure formatting of the metric dicts
# --------------------------------------------------------------------------

def _latency_rows(m: dict) -> list:
    rows = [ReportRow(
        "Fig 1", "V100 hit latency min/mean/max (cycles)",
        "175 / 212 / 248",
        f"{m['v100_min']:.0f} / {m['v100_mean']:.0f} / {m['v100_max']:.0f}",
        150 <= m["v100_min"] <= 195 and 200 <= m["v100_mean"] <= 225
        and 235 <= m["v100_max"] <= 270)]
    rows.append(ReportRow(
        "Fig 2", "GPC sigma contrast (widest/narrowest)",
        "13.9 / 7.5 cycles",
        f"{m['v100_sigma_max']:.1f} / {m['v100_sigma_min']:.1f}",
        m["v100_sigma_max"] / m["v100_sigma_min"] > 1.5))
    rows.append(ReportRow(
        "Fig 8b", "A100 near / far hit latency", "~212 / ~400 cycles",
        f"{m['a100_near']:.0f} / {m['a100_far']:.0f}",
        m["a100_far"] / m["a100_near"] > 1.6))
    rows.append(ReportRow(
        "Fig 8f", "H100 miss-penalty spread", "varies",
        f"{m['h100_pen_min']:.0f}-{m['h100_pen_max']:.0f} cycles",
        m["h100_pen_max"] - m["h100_pen_min"] > 100))
    return rows


def _bandwidth_rows(m: dict) -> list:
    rows = [ReportRow("Fig 9b", "V100 1 SM -> 1 slice", "34 GB/s",
                      f"{m['v100_sm']:.1f} GB/s",
                      abs(m["v100_sm"] - 34) < 2)]
    rows.append(ReportRow("Fig 9c", "V100 1 GPC -> 1 slice", "85 GB/s",
                          f"{m['v100_gpc']:.1f} GB/s",
                          abs(m["v100_gpc"] - 85) < 3))
    ratio = m["v100_l2"] / m["v100_mem"]
    rows.append(ReportRow("Fig 9a", "V100 L2 fabric / DRAM", "2.4-3.5x",
                          f"{ratio:.2f}x", 2.0 <= ratio <= 4.0))
    rows.append(ReportRow("Fig 12", "A100 near / far per-SM bandwidth",
                          "39.5 / 26 GB/s",
                          f"{m['a100_near']:.1f} / {m['a100_far']:.1f}",
                          abs(m["a100_near"] - 39.5) < 2
                          and abs(m["a100_far"] - 26) < 3))
    return rows


def _mesh_rows(bottleneck: dict, rr: dict, age: dict) -> list:
    rows = [ReportRow(
        "Fig 21", "mesh memory utilisation (mean)", "~20%",
        f"{bottleneck['mean_utilization'] * 100:.0f}%",
        0.1 <= bottleneck["mean_utilization"] <= 0.3)]
    rows.append(ReportRow(
        "Fig 23", "mesh RR max/mean throughput", "up to 2.4x",
        f"{rr['max'] / rr['mean']:.2f}x", rr["max"] / rr["mean"] > 1.5))
    rows.append(ReportRow(
        "Fig 23", "age-based cv vs RR cv", "fairer",
        f"{age['std'] / age['mean']:.2f} vs {rr['std'] / rr['mean']:.2f}",
        age["std"] / age["mean"] < rr["std"] / rr["mean"]))
    return rows


def generate_report(seed: int = 0, include_mesh: bool = True,
                    jobs: int | None = None, cache=None,
                    engine: str | None = None,
                    mesh_engine: str | None = None) -> str:
    """Markdown paper-vs-measured report (fast benchmark subset).

    ``jobs`` fans the report's independent tasks out over a process pool
    (``None`` = in-process, same results).  ``cache`` is a
    :class:`repro.exec.ResultCache` (or a directory path) memoizing task
    metrics across invocations.  ``engine`` selects the measurement
    engine for the device-bound tasks (default: the vectorized fast
    path; ``"scalar"`` is the golden oracle) and ``mesh_engine`` the
    kernel for the mesh tasks (default: the batched fastmesh engine);
    the report is bit-identical either way, but cache entries never
    alias across engines.
    """
    if isinstance(cache, str):
        from repro.exec import ResultCache
        cache = ResultCache(cache)
    tasks = list(_DEVICE_TASKS)
    if include_mesh:
        tasks += list(_MESH_TASKS)
    metrics = _collect_metrics(tasks, seed, jobs, cache, engine, mesh_engine)
    rows = _latency_rows(metrics["latency"])
    rows += _bandwidth_rows(metrics["bandwidth"])
    if include_mesh:
        rows += _mesh_rows(metrics["mesh-bottleneck"],
                           metrics["mesh-fairness-rr"],
                           metrics["mesh-fairness-age"])
    lines = [
        "# Reproduction report",
        "",
        f"Devices seeded with {seed}; full details in EXPERIMENTS.md.",
        "",
        "| experiment | quantity | paper | measured | verdict |",
        "|---|---|---|---|---|",
    ]
    lines += [row.markdown() for row in rows]
    passed = sum(row.ok for row in rows)
    lines += ["", f"**{passed}/{len(rows)} checks within tolerance.**"]
    return "\n".join(lines)
