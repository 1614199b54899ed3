"""Report generator + its CLI command."""

from types import SimpleNamespace

import pytest

from repro import report as report_mod
from repro.cli import main
from repro.exec import ResultCache, cache_key
from repro.report import ReportRow, generate_report


def test_report_row_markdown():
    row = ReportRow("Fig 1", "latency", "212", "210", True)
    text = row.markdown()
    assert text.startswith("| Fig 1 |")
    assert "ok" in text
    assert "DEVIATES" in ReportRow("x", "y", "1", "9", False).markdown()


def test_generate_report_fast():
    report = generate_report(include_mesh=False)
    assert report.startswith("# Reproduction report")
    assert "Fig 9b" in report and "Fig 12" in report
    assert "DEVIATES" not in report        # all fast checks pass
    assert "checks within tolerance" in report


def test_report_cli(capsys):
    assert main(["report", "--no-mesh"]) == 0
    out = capsys.readouterr().out
    assert "| experiment |" in out


# ------------------------------------------------- engines and sections

@pytest.mark.parametrize("seed", (0, 1))
def test_device_sections_equal_across_engines(seed):
    """The vectorized default and the scalar oracle give equal metrics."""
    for section in (report_mod._latency_metrics,
                    report_mod._bandwidth_metrics):
        assert section(seed, "vectorized") == section(seed, "scalar")


@pytest.mark.parametrize("task, seed, expected", [
    ("latency", 0,
     "99438e256f56d5088f0908504664046fb0e07bf9896cc7b46a0cae90a7ddf624"),
    ("bandwidth", 7,
     "f5ef0c9dc1760dbf4e6a2be670f9a02e6108da96e0ce81e6c574d7024ad88c2a"),
])
def test_device_task_keys_are_stable(task, seed, expected):
    """Memoizing the spec payload must not move a report cache key."""
    for _ in range(2):                  # cold, then from the spec memo
        assert cache_key("report-task", report_mod._task_payload(task, seed),
                         "device:vectorized") == expected


def _mesh_key(task: str, seed: int = 0) -> str:
    return cache_key("report-task", report_mod._task_payload(task, seed),
                     "mesh:batched")


def _count_meshes(patch) -> list:
    """The arbiter kinds of every ``BatchedMesh`` built from now on, one
    tuple (one kind per lane) per mesh."""
    from repro.noc.mesh import fastmesh, onevc_step
    onevc_step.kernel()         # a fresh build's self-check builds meshes
    meshes: list = []
    real_mesh = fastmesh.BatchedMesh

    class CountedMesh(real_mesh):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            meshes.append(self.arbiter_kinds)

    patch.setattr(fastmesh, "BatchedMesh", CountedMesh)
    return meshes


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    """A fully cold seed-0 report and its cache."""
    cache = ResultCache(str(tmp_path_factory.mktemp("cold-report")))
    return generate_report(seed=0, cache=cache), cache


@pytest.mark.parametrize("jobs", [None, 1])
def test_cold_report_runs_one_mesh_per_section(cold_report, tmp_path,
                                               monkeypatch, jobs):
    """Each mesh section is its own run, whatever ``jobs`` is: the
    bottleneck's request/reply pair (2 lanes), then one lane for each
    fairness arbiter."""
    markdown, _ = cold_report
    meshes = _count_meshes(monkeypatch)
    assert generate_report(seed=0, jobs=jobs,
                           cache=ResultCache(str(tmp_path))) == markdown
    assert meshes == [("rr", "rr"), ("rr",), ("age",)]


def test_partial_cache_computes_only_missing_section(cold_report, tmp_path,
                                                     monkeypatch):
    markdown, full = cold_report
    cache = ResultCache(str(tmp_path))
    for task in ("mesh-bottleneck", "mesh-fairness-rr"):
        key = _mesh_key(task)
        cache.put(key, full.get(key))
    meshes = _count_meshes(monkeypatch)
    assert generate_report(seed=0, cache=cache) == markdown
    assert meshes == [("age",)]
