"""The repository's benchmark: five workloads, measured end to end and
layer by layer, with every output checked.

    python benchmarks/suite/run.py [--workload NAME] [--seed S]
        [--trace [0|1]] [--out DIR] [--smoke] [--append FILE]
        [--expected FILE] [--write-expected FILE] [--seconds N]

Each workload runs in fresh interpreters (``workloads.py``), so no warm
state crosses workloads.  Without ``--trace`` a workload is set up
three times (two set-up-only processes, then the measured one) and
measured for ``run_seconds`` from ``BENCHMARK.json`` (2 s under
``--smoke``); the end-to-end metrics ``BENCHMARK.json`` declares are
printed with their unit and sample count.  ``--seconds``, if given,
must equal ``run_seconds``: the run length is the benchmark's, so two
runs being compared always measured for equally long.  With
``--trace`` (or ``--trace 1``) it runs once in its short form with
every layer wrapped, once more untraced for the overhead, and the
per-layer metrics are printed with the span table.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (keyed by metric for one
workload, by workload then metric for several).  ``--out`` (default
``.bench_suite``) receives ``results.json`` and the span files;
``--append`` adds this run to a run-set file for ``compare.py``.

The exit code is 0 when every workload ran, whether or not its outputs
were correct (that is in the JSON), 1 when a workload process failed,
and 2 when the checkout has no ``src/repro`` to measure or ``--seconds``
is not ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("report", "fig23-sweep", "vc-grid", "serve-hot", "serve-cold")

#: Set-up samples per measured run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: ``--seconds`` of the short form (smoke runs and traces).
SHORT_SECONDS = 2.0
#: One invocation must end within this, whatever it runs.
DEADLINE_S = 170.0


class SuiteError(Exception):
    """A workload process failed or overran; no result is printed."""


def _stop(proc) -> None:
    """Terminate a workload process (it closes its server and pools on
    SIGTERM), then kill its process group, and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(15)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def spawn(workload: str, args, *, seconds: float, short: bool = False,
          trace: bool = False, setup_only: bool = False,
          deadline: float) -> dict:
    """Run ``workloads.py`` once; its JSON result."""
    t0 = time.monotonic()
    command = [sys.executable, "-u", str(HERE / "workloads.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--t0", repr(t0),
               "--out", str(args.out), "--expected", str(args.expected)]
    command += ["--short"] * short + ["--trace"] * trace
    command += ["--setup-only"] * setup_only
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timeout = (None if deadline == float("inf")
               else max(1.0, deadline - time.monotonic()))
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:
        _stop(proc)
        raise
    finally:
        if proc.stdout is not None:
            proc.stdout.close()
    if proc.returncode != 0 or not stdout.strip():
        raise SuiteError(f"{workload}: workload process exited with "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure(workload: str, args, deadline: float) -> dict:
    """The untraced run: set-up samples, then the measured process."""
    samples = [spawn(workload, args, seconds=args.seconds, setup_only=True,
                     deadline=deadline)["setup_s"]
               for _ in range(args.setup_samples - 1)]
    result = spawn(workload, args, seconds=args.seconds, short=args.smoke,
                   deadline=deadline)
    samples.append(result["setup_s"])
    metrics = {"setup_s": {"value": statistics.median(samples), "unit": "s",
                           "n": len(samples)},
               "peak_rss_mb": {"value": result["peak_rss_mb"],
                               "unit": "MiB", "n": 1},
               **result["metrics"]}
    return {**result, "metrics": metrics, "setup_samples": samples}


def traced(workload: str, args, deadline: float) -> dict:
    """The traced short form, plus the untraced one for the overhead."""
    spans = spawn(workload, args, seconds=SHORT_SECONDS, short=True,
                  trace=True, deadline=deadline)
    plain = spawn(workload, args, seconds=SHORT_SECONDS, short=True,
                  deadline=deadline)
    layers = {**spans["layers"], **plain["layers"]}
    layers["trace_overhead_pct"] = (
        (spans["work"] - plain["work"]) / plain["work"] * 100.0
        if plain["work"] else 0.0)
    return {"workload": workload,
            "attempted": spans["attempted"] + plain["attempted"],
            "failed": spans["failed"] + plain["failed"],
            "failures": _merge(spans["failures"], plain["failures"]),
            "correct": spans["correct"] and plain["correct"],
            "mismatches": spans["mismatches"] + plain["mismatches"],
            "golden_skipped": plain["golden_skipped"],
            "digests": spans["digests"], "layers": layers}


def _merge(left: dict, right: dict) -> dict:
    merged = dict(left)
    for key, value in right.items():
        merged[key] = merged.get(key, 0) + value
    return merged


def reported_metrics(result: dict, bench: dict, trace: bool) -> dict:
    """Exactly the declared metrics, value and unit; a per-layer metric
    a workload does not exercise reads 0."""
    source = result["layers"] if trace else result["metrics"]
    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        raw = source.get(spec["name"], 0)
        value = raw["value"] if isinstance(raw, dict) else raw
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return metrics


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_result(result: dict, bench: dict, trace: bool) -> None:
    ratio = result["failed"] / max(1, result["attempted"])
    print(f"\n== {result['workload']}  ops_failed_ratio {ratio:.4g} "
          f"({result['failed']}/{result['attempted']})"
          + ("" if result["correct"] else "  OUTPUTS WRONG: "
             + "; ".join(result["mismatches"])))
    if result["failures"]:
        print(f"   failures: {result['failures']}")
    if result["golden_skipped"]:
        print(f"   golden: skipped ({result['golden_skipped']})")
    if not trace:
        declared_names = {m["name"] for m in bench["end_to_end"]}
        for name, metric in result["metrics"].items():
            mark = "*" if name in declared_names else " "
            print(f" {mark} {name:<22} {_fmt(metric['value']):>12} "
                  f"{metric['unit']:<4} n={metric['n']}")
        return
    spans = result["layers"].get("spans", {})
    if spans:
        print(f"   {'span':<22} {'count':>7} {'total_s':>10} {'self_s':>10} "
              f"{'p50_ms':>9}")
        for name, row in spans.items():
            print(f"   {name:<22} {row['count']:>7} {row['total_s']:>10.4f} "
                  f"{row['self_s']:>10.4f} {row['p50_s'] * 1e3:>9.3f}")
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, unit in units.items():
        if name in result["layers"]:
            print(f"   {name:<26} {_fmt(result['layers'][name]):>12} {unit}")


def stamp() -> dict:
    import numpy
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def append_run(path: Path, record: dict) -> None:
    """Add one run to a run-set file (``{"stamp", "runs": [...]}``)."""
    runs = {"stamp": stamp(), "runs": []}
    if path.is_file():
        with open(path) as handle:
            runs = json.load(handle)
    runs["runs"].append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1)
        handle.write("\n")


def write_expected(path: Path, results: dict) -> None:
    """Pin the seed-0 output digests, stamped with the versions."""
    digests = {}
    for result in results.values():
        digests.update(result["digests"])
    current = stamp()
    with open(path, "w") as handle:
        json.dump({"python": current["python"], "numpy": current["numpy"],
                   "seed": 0, "digests": dict(sorted(digests.items()))},
                  handle, indent=2)
        handle.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    # ``--trace`` alone means ``--trace 1``; callers that always pass a
    # value write ``--trace 0`` for the untraced run
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced short form and per-layer metrics")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_suite")
    parser.add_argument("--smoke", action="store_true",
                        help="short form, one set-up sample: a quick "
                             "check that every workload runs")
    parser.add_argument("--append", type=Path, default=None,
                        metavar="FILE", help="add this run to a run set")
    parser.add_argument("--expected", type=Path, default=EXPECTED)
    parser.add_argument("--write-expected", type=Path, default=None,
                        metavar="FILE",
                        help="write the seed-0 output digests to FILE")
    parser.add_argument("--seconds", type=float, default=None,
                        help="checked against run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_expected is not None and args.seed != 0:
        parser.error("--write-expected pins seed 0 outputs; use --seed 0")
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    return args


def _terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv=None) -> int:
    start = time.monotonic()
    args = parse_args(argv)
    # a terminated run still stops its workload process (see spawn)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    with open(BENCHMARK) as handle:
        bench = json.load(handle)
    if args.seconds not in (None, bench["run_seconds"]):
        print(f"run.py: --seconds {args.seconds:g} is not run_seconds "
              f"({bench['run_seconds']}) in {BENCHMARK.name}", file=sys.stderr)
        return 2
    args.seconds = SHORT_SECONDS if args.smoke else bench["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    deadline = start + DEADLINE_S if args.workload else float("inf")
    results = {}
    try:
        for name in names:
            results[name] = (traced if trace else measure)(name, args,
                                                           deadline)
            print_result(results[name], bench, trace)
    except (SuiteError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    record = {"seed": args.seed, "seconds": args.seconds, "trace": trace,
              "smoke": args.smoke, "workloads": results}
    with open(args.out / "results.json", "w") as handle:
        json.dump({"stamp": stamp(), **record}, handle, indent=1)
        handle.write("\n")
    if args.append is not None:
        append_run(args.append, record)
    if args.write_expected is not None:
        write_expected(args.write_expected, results)
    per_workload = {name: reported_metrics(result, bench, trace)
                    for name, result in results.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (per_workload[names[0]] if args.workload
                    else per_workload)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
