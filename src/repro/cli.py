"""Command-line interface: ``python -m repro <command>``.

Small wrappers around the library so the paper's headline experiments
run from a shell:

* ``specs``                      — Table I
* ``floorplan <gpu>``            — Fig 4 text rendering
* ``latency <gpu> [--sm N]``     — Algorithm 1 profile + summary
* ``bandwidth <gpu>``            — Fig 9 headline numbers
* ``speedup <gpu>``              — Fig 10 table
* ``observations``               — all twelve observation checks
* ``serve``                      — measurement-as-a-service HTTP server
* ``traffic``                    — open-loop traffic replay + scenarios
* ``lint``                       — AST + dataflow linter (REP001–REP009)
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from repro.gpu.specs import get_spec, known_specs
from repro.viz import bar_chart, render_table


def _cmd_specs(_args) -> int:
    rows = [get_spec(name).table1_row() for name in known_specs()]
    print(render_table(rows, title="Table I: GPU microarchitecture"))
    return 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def _gpu_argument(value: str):
    """Argparse type: a built-in name (V100/A100/H100) or a spec JSON."""
    if value.lower().endswith(".json"):
        from repro.gpu.serialization import load_spec
        try:
            return load_spec(value)
        except Exception as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        return get_spec(value)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"unknown GPU {value!r}; use one of {', '.join(known_specs())} "
            "or a spec .json file") from None


def _device(spec, seed: int):
    from repro.gpu.device import SimulatedGPU
    return SimulatedGPU(spec, seed=seed)


def _cmd_floorplan(args) -> int:
    print(_device(args.gpu, args.seed).floorplan.render())
    return 0


def _cmd_latency(args) -> int:
    from repro.analysis.stats import summarize
    from repro.core.latency_bench import latency_profile
    gpu = _device(args.gpu, args.seed)
    profile = latency_profile(gpu, sm=args.sm, engine=args.engine)
    print(bar_chart([f"slice {s}" for s in range(len(profile))], profile,
                    width=40,
                    title=f"{gpu.name} SM{args.sm} L2 hit latency (cycles)"))
    s = summarize(profile)
    print(f"\nmean {s.mean:.0f}  min {s.minimum:.0f}  max {s.maximum:.0f}  "
          f"spread {s.spread / s.mean * 100:.0f}%")
    return 0


def _cmd_bandwidth(args) -> int:
    from repro.core.bandwidth_bench import (aggregate_l2_bandwidth,
                                            aggregate_memory_bandwidth,
                                            group_to_slice_bandwidth,
                                            single_sm_slice_bandwidth)
    gpu = _device(args.gpu, args.seed)
    sm_bw = single_sm_slice_bandwidth(gpu, 0, 0, args.engine)
    gpc_bw = group_to_slice_bandwidth(gpu, gpu.hier.sms_in_gpc(0), 0,
                                      args.engine)
    l2 = aggregate_l2_bandwidth(gpu, args.engine)
    mem = aggregate_memory_bandwidth(gpu, args.engine)
    print(render_table([
        {"quantity": "1 SM -> 1 slice", "GB/s": round(sm_bw, 1)},
        {"quantity": "1 GPC -> 1 slice", "GB/s": round(gpc_bw, 1)},
        {"quantity": "aggregate L2 fabric", "GB/s": round(l2, 0)},
        {"quantity": "aggregate DRAM", "GB/s": round(mem, 0)},
        {"quantity": "L2 / DRAM ratio", "GB/s": round(l2 / mem, 2)},
    ], title=f"{gpu.name} bandwidth (paper Fig 9)"))
    return 0


def _cmd_speedup(args) -> int:
    from repro.core.speedup_bench import measure_speedups
    gpu = _device(args.gpu, args.seed)
    rows = [{"level": m.level, "kind": m.kind.value,
             "speedup": round(m.speedup, 2), "needed": m.required,
             "fraction": round(m.fraction_of_full, 2)}
            for m in measure_speedups(gpu, engine=args.engine)]
    print(render_table(rows, title=f"{gpu.name} input speedups (Fig 10)"))
    return 0


def _cmd_report(args) -> int:
    from repro.report import generate_report
    print(generate_report(seed=args.seed, include_mesh=not args.no_mesh,
                          jobs=args.jobs, cache=args.cache,
                          engine=args.engine,
                          mesh_engine=args.mesh_engine))
    return 0


def _default_sigterm() -> None:
    """Give a forked child of ``repro serve`` SIGTERM's default action."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _cmd_serve(args) -> int:
    """Run the measurement service until interrupted; drain on exit."""
    import asyncio
    import contextlib

    from repro.serve.server import ExperimentServer

    async def _run() -> None:
        server = ExperimentServer(host=args.host, port=args.port,
                                  cache_dir=args.cache,
                                  max_inflight=args.max_inflight,
                                  workers=args.workers,
                                  registry_path=args.registry)
        await server.start()
        serving = asyncio.ensure_future(server.serve_forever())
        # SIGTERM drains like Ctrl-C: a background process started by a
        # non-interactive shell ignores SIGINT; installed before the
        # listening line, so whoever reads the line can stop the server
        with contextlib.suppress(NotImplementedError):
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, serving.cancel)
            # a forked pool worker inherits the handler and the loop's
            # wakeup fd, and would relay its own SIGTERM to this loop:
            # a worker takes the default action instead
            os.register_at_fork(after_in_child=_default_sigterm)
        # an empty ResultCache is falsy (__len__), so test for None
        print(f"repro.serve listening on http://{server.host}:{server.port}"
              f"  (workers={server.pool.size}, "
              f"max_inflight={server.admission.limit}, "
              f"cache={'off' if server.cache is None else 'on'}, "
              f"receipts={'on' if server.registry.path else 'memory'})",
              flush=True)
        try:
            await serving
        except asyncio.CancelledError:
            pass
        finally:
            print("draining ...", file=sys.stderr)
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _traffic_spec(path: str):
    import json
    from pathlib import Path

    from repro.traffic import TrafficSpec
    return TrafficSpec.from_dict(json.loads(Path(path).read_text()))


def _cmd_traffic(args) -> int:
    """Compile, replay, or scenario-run open-loop traffic."""
    import json
    from pathlib import Path

    from repro.errors import ReproError

    try:
        if args.traffic_command == "example":
            from repro.traffic import background_spec
            spec = background_spec("example", rate_rps=args.rate,
                                   duration_s=args.duration)
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            return 0

        if args.traffic_command == "compile":
            from repro.traffic import compile_schedule, deterministic_summary
            cache = None
            if args.cache:
                from repro.exec.cache import ResultCache
                cache = ResultCache(args.cache)
            schedule = compile_schedule(_traffic_spec(args.spec),
                                        cache=cache)
            if args.out:
                Path(args.out).write_bytes(schedule.canonical_bytes())
            print(json.dumps(deterministic_summary(schedule),
                             indent=2, sort_keys=True))
            return 0

        if args.traffic_command == "run":
            from repro.traffic import (compile_schedule,
                                       deterministic_summary,
                                       OpenLoopDriver)
            schedule = compile_schedule(_traffic_spec(args.spec))
            driver = OpenLoopDriver(schedule, args.host, args.port,
                                    deadline_s=args.deadline,
                                    stream=args.stream)
            report = driver.run()
            doc = {"deterministic": deterministic_summary(schedule),
                   "measured": report.to_jsonable()}
            if args.out:
                Path(args.out).write_text(json.dumps(doc, indent=2,
                                                     sort_keys=True))
            totals = report.totals
            print(f"replayed {totals['sent']} of "
                  f"{len(schedule.requests)} scheduled requests: "
                  f"{totals['ok']} ok, {totals['rejected']} rejected, "
                  f"{totals['deadline_missed']} past deadline, "
                  f"{totals['failed']} failed, {totals['shed']} shed")
            print(f"offered {report.offered_rps:.1f} rps, achieved "
                  f"{report.achieved_rps:.1f} rps; p50 "
                  f"{report.latency_digest().quantile(0.5) * 1e3:.1f} ms, "
                  f"p99 "
                  f"{report.latency_digest().quantile(0.99) * 1e3:.1f} ms")
            return 0 if totals["ok"] > 0 else 1

        # scenario
        from repro.traffic import run_defense_under_load
        loads = tuple(float(chunk) for chunk in args.loads.split(",")
                      if chunk)
        result = run_defense_under_load(
            args.host, args.port, loads_rps=loads, attack=args.attack,
            seed=args.seed, batches=args.batches,
            duration_s=args.duration, deadline_s=args.deadline)
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=2,
                                                 sort_keys=True))
        for point in result["points"]:
            print(f"load {point['offered_rps']:6.1f} rps  "
                  f"{point['scheduler']:7s}  "
                  f"{result['metric']}="
                  f"{point['leakage'][result['metric']]:.3f}  "
                  f"probes {point['batches_landed']}"
                  f"/{point['batches_sent']}")
        verdict = "holds" if result["defended"] else "FAILS"
        print(f"random-scheduler defence {verdict} under load "
              f"({result['attack']}, loads {args.loads} rps)")
        return 0 if result["defended"] else 1
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"repro traffic: {exc}", file=sys.stderr)
        return 2


def _cmd_lint(args) -> int:
    from repro.analysis.lint import (BaselineError, DEFAULT_BASELINE,
                                     load_baseline, prune_baseline,
                                     render_json, render_sarif,
                                     render_text, run_lint, write_baseline)
    from pathlib import Path

    select = None
    if args.select:
        select = tuple(part for chunk in args.select
                       for part in chunk.split(",") if part)
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        candidate = Path(DEFAULT_BASELINE)
        baseline_path = str(candidate) if candidate.is_file() else None
    fingerprints: set = set()
    if baseline_path is not None and not args.no_baseline \
            and not args.write_baseline:
        try:
            fingerprints = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_lint(args.paths, select=select, baseline=fingerprints,
                          jobs=args.jobs, cache_dir=args.cache)
    except ValueError as exc:        # unknown --select rule id
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        target = baseline_path or DEFAULT_BASELINE
        count = write_baseline(target, result.findings)
        print(f"wrote {count} baselined finding(s) to {target}")
        return 0
    if args.prune_baseline:
        if baseline_path is None:
            print("repro lint: --prune-baseline needs a baseline file",
                  file=sys.stderr)
            return 2
        stale = prune_baseline(baseline_path, result.live_fingerprints)
        if stale:
            print(f"pruned {len(stale)} stale fingerprint(s) from "
                  f"{baseline_path}:")
            for fingerprint in stale:
                print(f"  {fingerprint}")
            return 1        # CI treats a dirty baseline as a failure
        print(f"baseline {baseline_path} is tight (nothing to prune)")
        return result.exit_code
    renderers = {"text": render_text, "json": render_json,
                 "sarif": render_sarif}
    rendered = renderers[args.format](result)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"wrote {args.format} report to {args.output}")
    else:
        print(rendered)
    return result.exit_code


def _cmd_observations(_args) -> int:
    from repro.core.observations import check_all_observations
    results = check_all_observations()
    rows = [{"#": r.number, "holds": "PASS" if r.holds else "FAIL",
             "observation": r.statement} for r in results]
    print(render_table(rows, title="Paper observations 1-12"))
    return 0 if all(r.holds for r in results) else 1


def _cmd_engines(args) -> int:
    import json

    from repro import engines as engine_registry
    if args.json:
        print(json.dumps(engine_registry.describe(), indent=2))
        return 0
    rows = []
    for domain in engine_registry.domains():
        for name in engine_registry.names(domain):
            engine = engine_registry.get(domain, name)
            rows.append({
                "domain": domain, "engine": name,
                "role": ("golden" if engine.golden else
                         f"{engine.version_field}={engine.version}"),
                "default": "*" if engine.default else "",
                "summary": engine.summary})
    print(render_table(rows, title="Engine registry"))
    for entry in engine_registry.describe():
        if "step" in entry:
            print(f"{entry['domain']}:{entry['name']} step on this host: "
                  f"{entry['step']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GPU NoC characterisation on simulated devices "
                    "(MICRO 2024 reproduction)")
    from repro import __version__
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--seed", type=int, default=0,
                        help="device seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    from repro import engines as engine_registry

    def _engine_argument(p) -> None:
        p.add_argument("--engine",
                       choices=tuple(engine_registry.names("device")),
                       default=engine_registry.default_name("device"),
                       help="measurement engine (default vectorized, "
                            "the batched fast path); scalar is the "
                            "golden oracle it is bit-identical to")

    sub.add_parser("specs", help="Table I")
    for name, needs_sm in (("floorplan", False), ("latency", True),
                           ("bandwidth", False), ("speedup", False)):
        p = sub.add_parser(name)
        p.add_argument("gpu", type=_gpu_argument,
                       help="V100/A100/H100 or a spec .json file")
        if needs_sm:
            p.add_argument("--sm", type=int, default=0)
        if name != "floorplan":
            _engine_argument(p)
    sub.add_parser("observations", help="check all twelve observations")
    report = sub.add_parser("report",
                            help="markdown paper-vs-measured report")
    report.add_argument("--no-mesh", action="store_true",
                        help="skip the (slower) mesh experiments")
    _engine_argument(report)
    report.add_argument("--mesh-engine",
                        choices=tuple(engine_registry.names("mesh")),
                        default=engine_registry.default_name("mesh"),
                        help="mesh kernel; batched is the lockstep "
                             "fastmesh engine, bit-identical to scalar")
    report.add_argument("--jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="run report sections on N worker processes "
                             "(same results as serial)")
    report.add_argument("--cache", default=None, metavar="DIR",
                        help="directory for the persistent result cache; "
                             "repeat runs reuse stored section metrics")
    serve = sub.add_parser(
        "serve", help="serve experiments over HTTP (coalescing + cache)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8737,
                       help="bind port; 0 picks an ephemeral one")
    serve.add_argument("--cache", default=None, metavar="DIR",
                       help="result-cache directory (hot-path hits)")
    serve.add_argument("--max-inflight", type=_positive_int, default=8,
                       metavar="N",
                       help="admitted cold computations before 429s")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       metavar="N",
                       help="sharded worker processes for cold "
                            "computations (default 1)")
    serve.add_argument("--registry", default=None, metavar="FILE",
                       help="durable receipts JSONL (default: "
                            "<cache>/receipts.jsonl when --cache is set, "
                            "else in-memory)")
    traffic = sub.add_parser(
        "traffic", help="open-loop traffic replay against a serve "
                        "instance (compile / run / scenario)")
    tsub = traffic.add_subparsers(dest="traffic_command", required=True)
    example = tsub.add_parser(
        "example", help="print an example traffic spec JSON to stdout")
    example.add_argument("--rate", type=float, default=20.0,
                         help="mean offered rate (rps, default 20)")
    example.add_argument("--duration", type=float, default=5.0,
                         help="replay length (seconds, default 5)")
    compile_p = tsub.add_parser(
        "compile", help="compile a spec; print its deterministic summary")
    compile_p.add_argument("spec", help="traffic spec JSON file")
    compile_p.add_argument("--out", default=None, metavar="FILE",
                           help="also write the canonical schedule bytes")
    compile_p.add_argument("--cache", default=None, metavar="DIR",
                           help="memoize compiled schedules here")
    run_p = tsub.add_parser(
        "run", help="replay a spec open-loop against a running server")
    run_p.add_argument("spec", help="traffic spec JSON file")
    run_p.add_argument("--host", default="127.0.0.1")
    run_p.add_argument("--port", type=int, default=8737)
    run_p.add_argument("--deadline", type=float, default=10.0,
                       help="per-request deadline (seconds, default 10)")
    run_p.add_argument("--stream", default=None, metavar="NAME",
                       help="publish per-window digests to this "
                            "server-side trace stream")
    run_p.add_argument("--out", default=None, metavar="FILE",
                       help="write the full JSON report here")
    scenario_p = tsub.add_parser(
        "scenario", help="side-channel defence re-evaluated under load")
    scenario_p.add_argument("--host", default="127.0.0.1")
    scenario_p.add_argument("--port", type=int, default=8737)
    scenario_p.add_argument("--loads", default="4,24", metavar="RPS,RPS",
                            help="comma-separated offered loads "
                                 "(default 4,24)")
    scenario_p.add_argument("--attack", choices=("rsa", "aes"),
                            default="rsa")
    scenario_p.add_argument("--batches", type=int, default=6,
                            help="probe batches per point (default 6)")
    scenario_p.add_argument("--duration", type=float, default=3.0,
                            help="background replay length per point")
    scenario_p.add_argument("--deadline", type=float, default=20.0,
                            help="per-request deadline (seconds)")
    scenario_p.add_argument("--out", default=None, metavar="FILE",
                            help="write the full JSON result here")
    lint = sub.add_parser(
        "lint", help="AST + dataflow invariant linter (REP001-REP009)")
    lint.add_argument("paths", nargs="*", default=["src", "benchmarks"],
                      help="files/directories to lint "
                           "(default: src benchmarks)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="report format (default text)")
    lint.add_argument("--output", default=None, metavar="FILE",
                      help="write the report here instead of stdout")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline JSON of grandfathered findings "
                           "(default: ./lint-baseline.json if present)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline file")
    lint.add_argument("--select", action="append", default=None,
                      metavar="RULES",
                      help="comma-separated rule ids to run "
                           "(default: all); repeatable")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write current findings to the baseline file "
                           "and exit 0")
    lint.add_argument("--prune-baseline", action="store_true",
                      help="drop baseline fingerprints the tree no longer "
                           "produces; exit 1 if any were stale")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="lint files across N worker processes")
    lint.add_argument("--cache", default=None, metavar="DIR",
                      help="incremental result cache directory "
                           "(keyed on content + ruleset version)")
    engines_p = sub.add_parser(
        "engines", help="list the registered compute engines")
    engines_p.add_argument("--json", action="store_true",
                           help="emit the registry catalogue as JSON")
    return parser


_COMMANDS = {
    "specs": _cmd_specs,
    "floorplan": _cmd_floorplan,
    "latency": _cmd_latency,
    "bandwidth": _cmd_bandwidth,
    "speedup": _cmd_speedup,
    "observations": _cmd_observations,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "traffic": _cmd_traffic,
    "lint": _cmd_lint,
    "engines": _cmd_engines,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:
        # a subparser exists but is not wired up — exit 2 with usage,
        # matching argparse's own unknown-subcommand behaviour
        parser.print_usage(sys.stderr)
        print(f"repro: unknown command {args.command!r}", file=sys.stderr)
        return 2
    return handler(args)


if __name__ == "__main__":          # pragma: no cover
    sys.exit(main())
