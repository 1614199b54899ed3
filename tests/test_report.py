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


# ------------------------------------------------- engines and fusion

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


def _fairness_key(task: str, seed: int = 0) -> str:
    return cache_key("report-task", report_mod._task_payload(task, seed),
                     "mesh:batched")


def _count_fairness_runs(patch, calls: list, sections: list | None = None,
                         meshes: list | None = None) -> None:
    """Record the fairness arbiter tuple of every lockstep mesh run
    started; optionally each run's report sections in ``sections`` and
    the lane count of every ``BatchedMesh`` built in ``meshes``."""
    from repro.noc.mesh import fastmesh
    real_run = fastmesh.batched_mesh_sections
    real_mesh = fastmesh.BatchedMesh

    def counting(reply=None, fairness=(), **kwargs):
        arbiters = tuple(lane.arbiter for lane in fairness)
        calls.append(arbiters)
        if sections is not None:
            sections.append(("mesh-bottleneck",) * (reply is not None)
                            + tuple(f"mesh-fairness-{a}" for a in arbiters))
        return real_run(reply, fairness, **kwargs)

    class CountedMesh(real_mesh):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if meshes is not None:
                meshes.append(self.batch)

    patch.setattr(fastmesh, "batched_mesh_sections", counting)
    patch.setattr(fastmesh, "BatchedMesh", CountedMesh)


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    """A fully cold seed-0 report, its cache and its mesh runs."""
    runs = SimpleNamespace(calls=[], sections=[], meshes=[])
    cache = ResultCache(str(tmp_path_factory.mktemp("cold-report")))
    with pytest.MonkeyPatch.context() as patch:
        _count_fairness_runs(patch, runs.calls, runs.sections, runs.meshes)
        markdown = generate_report(seed=0, cache=cache)
    return markdown, cache, runs


def test_cold_report_runs_one_lockstep_mesh(cold_report):
    """In-process, the bottleneck pair and both fairness lanes share one
    4-lane ``BatchedMesh``."""
    _, _, runs = cold_report
    assert runs.sections == [report_mod._MESH_TASKS]
    assert runs.meshes == [4]


def test_cached_rr_runs_bottleneck_and_age_together(cold_report, tmp_path,
                                                    monkeypatch):
    _, full, _ = cold_report
    cache = ResultCache(str(tmp_path))
    key = _fairness_key("mesh-fairness-rr")
    cache.put(key, full.get(key))
    calls: list = []
    sections: list = []
    meshes: list = []
    _count_fairness_runs(monkeypatch, calls, sections, meshes)
    metrics = report_mod._collect_metrics(list(report_mod._MESH_TASKS), 0,
                                          None, cache)
    assert sections == [("mesh-bottleneck", "mesh-fairness-age")]
    assert meshes == [3]
    for task in report_mod._MESH_TASKS:
        assert metrics[task] == full.get(_fairness_key(task))


def test_pool_plan_keeps_bottleneck_and_fairness_pair_apart():
    plan = report_mod._plan_units
    tasks = list(report_mod._DEVICE_TASKS) + list(report_mod._MESH_TASKS)
    device = [("latency",), ("bandwidth",)]
    for jobs in (None, 1):
        assert plan(tasks, jobs) == device + [report_mod._MESH_TASKS]
    for jobs in (2, 4):
        assert plan(tasks, jobs) == device + [("mesh-bottleneck",),
                                              report_mod._FAIRNESS_PAIR]
    assert plan(["mesh-bottleneck", "mesh-fairness-age"], 2) \
        == [("mesh-bottleneck",), ("mesh-fairness-age",)]
    assert plan(["mesh-fairness-rr", "mesh-fairness-age"], None) \
        == [report_mod._FAIRNESS_PAIR]
    assert plan([], 2) == []


def test_fused_fairness_equals_per_section(cold_report):
    _, cache, _ = cold_report
    for task in report_mod._FAIRNESS_PAIR:
        assert cache.get(_fairness_key(task)) \
            == report_mod._TASK_FUNCS[task](0, "batched")


def test_partial_cache_computes_only_missing_section(cold_report, tmp_path,
                                                     monkeypatch):
    markdown, full, _ = cold_report
    cache = ResultCache(str(tmp_path))
    key = _fairness_key("mesh-fairness-rr")
    cache.put(key, full.get(key))
    calls: list = []
    _count_fairness_runs(monkeypatch, calls)
    assert generate_report(seed=0, cache=cache) == markdown
    assert calls == [("age",)]
