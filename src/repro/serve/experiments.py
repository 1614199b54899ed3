"""Typed registry of the experiments ``repro.serve`` exposes.

Each entry pairs a declarative parameter schema with a module-level
compute function, which buys three properties the server needs:

* **Validation at the edge.**  :func:`normalize` rejects unknown
  experiments/parameters and wrong types with a
  :class:`ExperimentRequestError` *before* anything is queued, so a bad
  request costs microseconds, not a pool slot.
* **Canonical parameters.**  Normalization fills every default and
  coerces types, so two requests that mean the same computation produce
  the same params dict — the requirement for request coalescing and
  cache addressing to work ("sms omitted" and "sms: null" must hash
  identically).
* **Plain-data dispatch.**  :func:`run_experiment` is a plain
  module-level function of ``(name, params)``; the server queues only
  the name and the normalized params to a
  :class:`~repro.serve.workers.WorkerPool` process, which calls it.

Results are plain JSON values (lists/dicts/floats); the cache payload of
gpu-bound experiments folds in the full spec dict so editing a spec
invalidates served entries exactly like it invalidates report sections.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import engines as engine_registry
from repro.errors import ReproError

#: Report sections servable via the ``report-section`` experiment.
REPORT_SECTIONS = ("latency", "bandwidth", "mesh-bottleneck",
                   "mesh-fairness-rr", "mesh-fairness-age")

_GPU_NAMES = ("V100", "A100", "H100")


class ExperimentRequestError(ReproError):
    """A request named an unknown experiment or carried bad parameters."""


@dataclass(frozen=True)
class Param:
    """One declared request parameter."""
    name: str
    kind: str                 # "gpu" | "int" | "bool" | "str" | "int-list"
    default: object = None
    choices: tuple = ()
    doc: str = ""


@dataclass(frozen=True)
class Experiment:
    """A servable experiment: schema + picklable compute function."""
    name: str
    summary: str
    fn: object                # module-level callable(params) -> JSON value
    params: tuple = field(default_factory=tuple)

    def describe(self) -> dict:
        return {"name": self.name, "summary": self.summary,
                "params": [{"name": p.name, "kind": p.kind,
                            "default": p.default,
                            **({"choices": list(p.choices)}
                               if p.choices else {})}
                           for p in self.params]}


def _coerce(experiment: str, param: Param, value):
    """Validate/coerce one raw value against its declaration."""
    where = f"{experiment}.{param.name}"
    if value is None:
        return None
    if param.kind == "gpu":
        if not isinstance(value, str) or value.upper() not in _GPU_NAMES:
            raise ExperimentRequestError(
                f"{where} must be one of {', '.join(_GPU_NAMES)}")
        return value.upper()
    if param.kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ExperimentRequestError(f"{where} must be an integer")
        return value
    if param.kind == "bool":
        if not isinstance(value, bool):
            raise ExperimentRequestError(f"{where} must be true/false")
        return value
    if param.kind == "str":
        if not isinstance(value, str):
            raise ExperimentRequestError(f"{where} must be a string")
        if param.choices and value not in param.choices:
            raise ExperimentRequestError(
                f"{where} must be one of {', '.join(param.choices)}")
        return value
    if param.kind == "int-list":
        if not isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, int)
                for v in value):
            raise ExperimentRequestError(
                f"{where} must be a list of integers")
        return list(value)
    if param.kind == "float-list":
        if not isinstance(value, list) or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in value):
            raise ExperimentRequestError(
                f"{where} must be a list of numbers")
        return [float(v) for v in value]
    raise ExperimentRequestError(f"{where}: undeclared kind {param.kind!r}")


def normalize(name: str, raw: dict) -> dict:
    """Canonical params for ``name`` (defaults filled, types checked)."""
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        raise ExperimentRequestError(
            f"unknown experiment {name!r}; serve knows "
            f"{', '.join(sorted(EXPERIMENTS))}")
    if not isinstance(raw, dict):
        raise ExperimentRequestError(
            f"{name}: parameters must be a JSON object")
    declared = {p.name: p for p in experiment.params}
    unknown = sorted(set(raw) - set(declared))
    if unknown:
        raise ExperimentRequestError(
            f"{name}: unknown parameter(s) {', '.join(unknown)}; "
            f"declared: {', '.join(declared) or '(none)'}")
    params = {}
    for param in experiment.params:
        value = raw.get(param.name, param.default)
        params[param.name] = _coerce(name, param, value)
    return params


# --------------------------------------------------------------------------
# compute functions — module-level, picklable, JSON in / JSON out
# --------------------------------------------------------------------------

def _device(params):
    from repro.gpu.device import SimulatedGPU
    return SimulatedGPU(params["gpu"], seed=params["seed"])


def _latency_matrix(params) -> dict:
    """The paper's SM x slice hit-latency matrix (Fig 1/2/3 input)."""
    from repro.core.latency_bench import measured_latency_matrix
    gpu = _device(params)
    sms = params["sms"] if params["sms"] is not None else gpu.hier.all_sms
    matrix = measured_latency_matrix(gpu, sms=params["sms"],
                                     samples=params["samples"],
                                     engine=params["engine"])
    return {"gpu": gpu.name, "sms": list(sms),
            "num_slices": gpu.num_slices,
            "matrix": matrix.tolist(),
            "min": float(matrix.min()), "mean": float(matrix.mean()),
            "max": float(matrix.max())}


def _bandwidth_distribution(params) -> dict:
    """Per-SM solo bandwidth to one slice (Fig 9b/13 distribution)."""
    from repro.core.bandwidth_bench import slice_bandwidth_distribution
    gpu = _device(params)
    sms = params["sms"] if params["sms"] is not None else gpu.hier.all_sms
    values = slice_bandwidth_distribution(gpu, params["slice"],
                                          sms=params["sms"],
                                          engine=params["engine"])
    return {"gpu": gpu.name, "slice": params["slice"], "sms": list(sms),
            "gbps": values.tolist(),
            "min": float(values.min()), "mean": float(values.mean()),
            "max": float(values.max())}


def _speedup_table(params) -> dict:
    """Input-speedup rows per hierarchy level and access kind (Fig 10)."""
    from repro.core.speedup_bench import measure_speedups
    gpu = _device(params)
    rows = [{"level": m.level, "kind": m.kind.value,
             "sms_used": m.sms_used, "required": m.required,
             "bandwidth_gbps": m.bandwidth_gbps,
             "speedup": m.speedup,
             "fraction_of_full": m.fraction_of_full}
            for m in measure_speedups(gpu, gpc=params["gpc"],
                                      engine=params["engine"])]
    return {"gpu": gpu.name, "gpc": params["gpc"], "rows": rows}


def _observations(params) -> dict:
    """All twelve paper observations checked on the Table I devices."""
    from repro.core.observations import check_all_observations
    results = check_all_observations(seed=params["seed"])
    import json

    from repro.exec.cache import _jsonify

    # evidence values mix floats, numpy scalars, lists and sub-dicts;
    # round-trip through the cache's JSON fallback to plain types
    evidence = [json.loads(json.dumps(r.evidence, default=_jsonify))
                for r in results]
    return {"passed": sum(r.holds for r in results),
            "total": len(results),
            "observations": [{"number": r.number,
                              "statement": r.statement,
                              "holds": bool(r.holds),
                              "evidence": ev}
                             for r, ev in zip(results, evidence)]}


def _mesh_load_sweep(params) -> dict:
    """Load-latency curve of the 2-D mesh (Fig 22/23 input).

    The default ``mesh_engine="batched"`` runs every injection rate as
    one lockstep fastmesh simulation; results are bit-identical to the
    per-rate scalar one-VC ``VCMesh`` runs.  Infinite latency (a point that
    delivered nothing) is encoded as JSON ``null``.
    """
    from repro.noc.mesh.loadcurve import sweep_load
    curve = sweep_load(params["rates"], arbiter=params["arbiter"],
                       cycles=params["cycles"], warmup=params["warmup"],
                       seed=params["seed"], engine=params["mesh_engine"])
    inf = float("inf")
    saturation = curve.saturation_rate()
    return {"arbiter": curve.arbiter,
            "points": [{"offered_rate": p.offered_rate,
                        "accepted_rate": p.accepted_rate,
                        "avg_latency": (p.avg_latency
                                        if p.avg_latency != inf else None)}
                       for p in curve.points],
            "saturation_rate": saturation if saturation != inf else None}


def _mesh_vc_sweep(params) -> dict:
    """Shared request/reply VC grid on the credit-based wormhole mesh.

    The default ``mesh_engine="batched"`` runs the full VC-count x
    buffer-depth x credit-latency x seed grid as ONE lockstep
    :class:`~repro.noc.mesh.vcmesh_batched.BatchedVCMesh` simulation,
    bit-identical to looping the scalar golden model.  An empty
    ``rates`` list means greedy backlog-limited sources.
    """
    from repro.noc.mesh.vc import sweep_vc_grid
    rates = tuple(params["rates"]) if params["rates"] else (None,)
    results = sweep_vc_grid(
        vc_counts=tuple(params["vc_counts"]),
        buffer_depths=tuple(params["buffer_depths"]),
        credit_latencies=tuple(params["credit_latencies"]),
        injection_rates=rates, seeds=tuple(params["seeds"]),
        cycles=params["cycles"], reply_flits=params["reply_flits"],
        window=params["window"], engine=params["mesh_engine"])
    return {"grid": [r.to_json() for r in results]}


def _sidechannel_probe(params) -> dict:
    """One attacker probe batch under a chosen CTA scheduler.

    The unit of attacker work for the multi-tenant defence-under-load
    scenarios (:mod:`repro.traffic.scenarios`): the ``batch`` index
    makes successive probes distinct computations, so each one pays the
    full admission + compute path like any other tenant's request —
    probes lost to 429s or deadlines cost the attacker samples.
    """
    if params["attack"] == "rsa":
        from repro.sidechannel.probe import rsa_probe_batch
        return rsa_probe_batch(params["gpu"], params["seed"],
                               params["scheduler"], params["batch"],
                               samples_per_point=params["samples_per_point"],
                               ladder_width=params["ladder_width"])
    from repro.sidechannel.probe import aes_probe_batch
    return aes_probe_batch(params["gpu"], params["seed"],
                           params["scheduler"], params["batch"],
                           samples=params["samples"])


def _report_section(params) -> dict:
    """One report task's raw metrics (the report's cacheable unit).

    Mesh sections run on ``mesh_engine`` (scalar/batched); device
    sections run on ``engine`` (scalar/vectorized).
    """
    from repro.report import _MESH_TASKS, _TASK_FUNCS
    section = params["section"]
    engine = (params["mesh_engine"] if section in _MESH_TASKS
              else params["engine"])
    return {"section": section,
            "metrics": _TASK_FUNCS[section](params["seed"], engine)}


def _report(params) -> dict:
    """The full markdown paper-vs-measured report."""
    from repro.report import generate_report
    return {"markdown": generate_report(seed=params["seed"],
                                        include_mesh=params["mesh"],
                                        engine=params["engine"],
                                        mesh_engine=params["mesh_engine"])}


_SEED = Param("seed", "int", 0, doc="device seed")
_GPU = Param("gpu", "gpu", "V100", doc="V100/A100/H100")
#: Every device endpoint defaults to the registry's device default, the
#: vectorized fast path (bit-identical to the scalar golden model).
#: Choices come from the engine registry, so registering a kernel there
#: is what makes it servable — no per-endpoint lists to update.
_ENGINE_FAST = Param("engine", "str", engine_registry.default_name("device"),
                     choices=tuple(engine_registry.names("device")),
                     doc="measurement engine (results bit-identical)")
#: Mesh sections default to the batched fastmesh kernel (bit-identical
#: to the scalar golden model, a one-VC VCMesh).
_MESH_ENGINE = Param("mesh_engine", "str",
                     engine_registry.default_name("mesh"),
                     choices=tuple(engine_registry.names("mesh")),
                     doc="mesh kernel (results bit-identical)")
_VC_ENGINE = Param("mesh_engine", "str",
                   engine_registry.default_name("vcmesh"),
                   choices=tuple(engine_registry.names("vcmesh")),
                   doc="VC-mesh kernel (results bit-identical)")

#: Registry domain each experiment's engine parameter resolves in;
#: experiments absent here use the ``device`` measurement engine.
ENGINE_DOMAINS = {"mesh-load-sweep": "mesh", "mesh-vc-sweep": "vcmesh"}

EXPERIMENTS = {e.name: e for e in (
    Experiment(
        "latency-matrix",
        "SM x slice L2 hit-latency matrix (Fig 1/2/3)",
        _latency_matrix,
        (_GPU, _SEED,
         Param("sms", "int-list", None, doc="SM subset (default: all)"),
         Param("samples", "int", 2, doc="timed trials per cell"),
         _ENGINE_FAST)),
    Experiment(
        "bandwidth-distribution",
        "per-SM solo bandwidth to one L2 slice (Fig 9b/13)",
        _bandwidth_distribution,
        (_GPU, _SEED,
         Param("slice", "int", 0, doc="destination L2 slice"),
         Param("sms", "int-list", None, doc="SM subset (default: all)"),
         _ENGINE_FAST)),
    Experiment(
        "speedup-table",
        "input speedups per hierarchy level (Fig 10)",
        _speedup_table,
        (_GPU, _SEED, Param("gpc", "int", 0, doc="GPC to scale within"),
         _ENGINE_FAST)),
    Experiment(
        "observations",
        "the paper's twelve observations, checked",
        _observations,
        (_SEED,)),
    Experiment(
        "mesh-load-sweep",
        "mesh load-latency curve as one batched run (Fig 22/23)",
        _mesh_load_sweep,
        (_SEED,
         Param("rates", "float-list", [0.05, 0.1, 0.2, 0.3],
               doc="injection rates (packets/cycle/compute-node)"),
         Param("arbiter", "str", "rr", choices=("rr", "age"),
               doc="router arbitration policy"),
         Param("cycles", "int", 2000, doc="cycles simulated per point"),
         Param("warmup", "int", 500, doc="cycles excluded from the stats"),
         _MESH_ENGINE)),
    Experiment(
        "mesh-vc-sweep",
        "credit-based wormhole VC grid as one batched run (Fig 21-class)",
        _mesh_vc_sweep,
        (Param("vc_counts", "int-list", [1, 2], doc="VCs per port"),
         Param("buffer_depths", "int-list", [4],
               doc="flit buffer depth per (port, VC)"),
         Param("credit_latencies", "int-list", [1],
               doc="credit return latency in cycles"),
         Param("rates", "float-list", [],
               doc="injection rates; empty = greedy sources"),
         Param("seeds", "int-list", [0], doc="traffic seeds"),
         Param("cycles", "int", 2000, doc="cycles simulated per lane"),
         Param("reply_flits", "int", 5, doc="flits per MC reply packet"),
         Param("window", "int", 100, doc="utilization sampling window"),
         _VC_ENGINE)),
    Experiment(
        "sidechannel-probe",
        "one AES/RSA timing-probe batch under static/random scheduling",
        _sidechannel_probe,
        (_GPU, _SEED,
         Param("attack", "str", "rsa", choices=("rsa", "aes"),
               doc="which oracle the probe batch drives"),
         Param("scheduler", "str", "static", choices=("static", "random"),
               doc="CTA scheduler: static (hardware) or random (defence)"),
         Param("batch", "int", 0,
               doc="probe batch index; distinct batches are distinct "
                   "computations"),
         Param("samples_per_point", "int", 2,
               doc="rsa: decryptions per 1-bit count"),
         Param("ladder_width", "int", 8,
               doc="rsa: adjacent 1-bit counts probed"),
         Param("samples", "int", 24, doc="aes: timed encryptions"))),
    Experiment(
        "report-section",
        "raw metrics of one report section",
        _report_section,
        (_SEED, Param("section", "str", "latency",
                      choices=REPORT_SECTIONS), _ENGINE_FAST,
         _MESH_ENGINE)),
    Experiment(
        "report",
        "full markdown paper-vs-measured report",
        _report,
        (_SEED, Param("mesh", "bool", True,
                      doc="include the slower mesh sections"),
         _ENGINE_FAST, _MESH_ENGINE)),
)}


def describe_experiments() -> dict:
    """JSON catalogue served under ``GET /v1/experiments``."""
    return {"experiments": [EXPERIMENTS[name].describe()
                            for name in sorted(EXPERIMENTS)]}


def cache_payload(name: str, params: dict) -> dict:
    """Everything the result depends on, for content addressing.

    GPU-bound experiments fold in the full spec dict (editing a spec
    invalidates their entries); ``observations``/``report*`` run all
    three Table I devices, so they fold in all three specs.  Pure mesh
    experiments depend only on their parameters — no device specs.
    """
    from repro.gpu.serialization import spec_dict
    payload = {"experiment": name, "params": params}
    if "gpu" in params:
        payload["spec"] = spec_dict(params["gpu"])
    elif not name.startswith("mesh-"):
        payload["specs"] = {n: spec_dict(n) for n in _GPU_NAMES}
    return payload


def engine_param(name: str, params: dict):
    """The engine ref whose fingerprint addresses this experiment's cache.

    Returns a registry-qualified ``"domain:name"`` reference — VC-mesh
    experiments key on the ``vcmesh`` kernel, other mesh experiments on
    the ``mesh`` kernel (a ``*_VERSION`` bump invalidates exactly that
    kernel's entries), everything else on the ``device`` measurement
    engine.  ``None`` for experiments with no engine parameter
    (``observations``).
    """
    domain = ENGINE_DOMAINS.get(name, "device")
    engine = params.get("mesh_engine" if domain in ("mesh", "vcmesh")
                        else "engine")
    return None if engine is None else f"{domain}:{engine}"


def run_experiment(args) -> dict:
    """Pool worker: compute ``(name, params)`` — params pre-normalized."""
    name, params = args
    return EXPERIMENTS[name].fn(params)
