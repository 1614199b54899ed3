"""Report generator + its CLI command."""

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


def _fairness_key(task: str, seed: int = 0) -> str:
    return cache_key("report-task", report_mod._task_payload(task, seed),
                     "mesh:batched")


def _count_fairness_runs(patch, calls: list) -> None:
    """Record the arbiter tuple of every fairness run started."""
    from repro.noc.mesh import traffic
    real = traffic.run_fairness_experiments

    def counting(arbiters, **kwargs):
        calls.append(tuple(arbiters))
        return real(arbiters, **kwargs)
    patch.setattr(traffic, "run_fairness_experiments", counting)


@pytest.fixture(scope="module")
def cold_report(tmp_path_factory):
    """A fully cold seed-0 report, its cache and its fairness runs."""
    calls: list = []
    cache = ResultCache(str(tmp_path_factory.mktemp("cold-report")))
    with pytest.MonkeyPatch.context() as patch:
        _count_fairness_runs(patch, calls)
        markdown = generate_report(seed=0, cache=cache)
    return markdown, cache, calls


def test_cold_report_runs_fairness_pair_once(cold_report):
    _, _, calls = cold_report
    assert calls == [("rr", "age")]


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
