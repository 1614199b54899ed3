"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest benchmarks/suite

(``benchmarks/conftest.py`` imports ``repro``, hence ``PYTHONPATH``.)
Runs ``run.py --smoke``, the short form of all five workloads, and
checks its output against ``BENCHMARK.json``; then checks that a wrong
golden digest is counted as a failure, that ``--trace`` writes span
files whose self times are never negative, and that ``compare.py``
reports a clear regression even on noisy runs.
"""

from __future__ import annotations

import json
import math
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

import compare
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("report", "fig23-sweep", "vc-grid", "serve-hot", "serve-cold")


def _run(out: Path, *extra) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *extra], capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    return _run(tmp_path_factory.mktemp("smoke"))


def test_declared_metrics_are_well_formed(bench):
    end_to_end, layers = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in end_to_end + layers]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)


def test_smoke_emits_every_metric_with_its_unit(bench, smoke):
    assert smoke["correct"] and smoke["failed"] == 0, smoke
    assert smoke["attempted"] > 0
    for workload in WORKLOADS:
        metrics = smoke["metrics"][workload]
        assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
        for spec in bench["end_to_end"]:
            metric = metrics[spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_wrong_golden_digest_is_a_failed_operation(tmp_path):
    with open(HERE / "expected.json") as handle:
        expected = json.load(handle)
    # stamped for the running versions, so the digest check runs here
    expected.update(python=platform.python_version(),
                    numpy=numpy.__version__)
    expected["digests"]["fig23-sweep"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    result = _run(tmp_path, "--workload", "fig23-sweep", "--seed", "0",
                  "--expected", str(path))
    assert result["failed"] > 0 and not result["correct"]


def test_trace_writes_spans_with_nonnegative_self_times(bench, tmp_path):
    result = _run(tmp_path, "--trace")
    for workload in WORKLOADS:
        rows = spans.load(tmp_path / f"trace.{workload}.json")
        assert rows, workload
        assert all(value >= 0 for value in spans.self_times(rows).values())
        metrics = result["metrics"][workload]
        for spec in bench["per_layer"]:
            assert metrics[spec["name"]]["unit"] == spec["unit"]


def test_compare_flags_a_regression_on_noisy_runs():
    spec = {"better": "lower", "bound": 0.1}
    parent = [10.0, 11.0, 12.0, 13.0, 14.0] * 2
    assert compare.spread(parent) > spec["bound"]
    slower = [value * 2 for value in parent]
    assert compare.verdict(parent, slower, spec)[0] == "REGRESSED"
    # a slowdown the noise could hide is not called either way
    overlapping = [value + 2 for value in parent]
    assert compare.verdict(parent, overlapping, spec)[0] == "unresolved"
