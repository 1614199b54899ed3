"""repro.analysis.lint: every rule's positives and negatives, noqa,
baseline filtering, fingerprints, and the CLI JSON round-trip."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (load_baseline, render_json, render_text,
                                 rule_table, run_lint, write_baseline)
from repro.analysis.lint.baseline import BaselineError
from repro.analysis.lint.engine import module_name_for, noqa_map
from repro.analysis.lint.rules.units_discipline import (const_value,
                                                        unit_family)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
TREE = REPO_ROOT / "tests" / "fixtures" / "lint" / "tree"


def lint_fixture(relpath: str, select: tuple[str, ...]):
    return run_lint([relpath], root=TREE, select=select)


def rules_found(result) -> set[str]:
    return {f.rule for f in result.findings}


# ------------------------------------------------------------------ REP001

def test_rep001_positive():
    result = lint_fixture("src/repro/noc/rep001_bad.py", ("REP001",))
    assert rules_found(result) == {"REP001"}
    assert len(result.findings) == 7
    messages = " ".join(f.message for f in result.findings)
    assert "wall-clock" in messages
    assert "repro.rng.generator_for" in messages
    assert "unseeded" in messages


def test_rep001_clean():
    result = lint_fixture("src/repro/noc/rep001_ok.py", ("REP001",))
    assert result.findings == []


def test_rep001_out_of_scope_module():
    # the same patterns outside simulation packages are not REP001's business
    result = lint_fixture("src/repro/serve/rep002_bad.py", ("REP001",))
    assert result.findings == []


# ------------------------------------------------------------------ REP002

def test_rep002_positive():
    result = lint_fixture("src/repro/serve/rep002_bad.py", ("REP002",))
    assert rules_found(result) == {"REP002"}
    assert len(result.findings) == 6
    messages = " ".join(f.message for f in result.findings)
    assert "blocking call" in messages
    assert "noqa[REP002]" in messages        # the sync-sleep allowance hint
    assert "pickle.dumps" in messages        # coroutine serialization
    assert "SharedMemory creation" in messages
    # the lock-across-await shape is REP007's job now
    assert "held across" not in messages


def test_rep007_catches_rep002s_old_lock_case():
    result = lint_fixture("src/repro/serve/rep002_bad.py", ("REP007",))
    assert rules_found(result) == {"REP007"}
    assert len(result.findings) == 1
    assert "held across `await`" in result.findings[0].message
    assert result.findings[0].line == 27


def test_rep002_clean():
    result = lint_fixture("src/repro/serve/rep002_ok.py", ("REP002",))
    assert result.findings == []
    assert result.suppressed_noqa == 1       # the sanctioned sync sleep


# ------------------------------------------------------------------ REP003

def test_rep003_positive():
    result = lint_fixture("src/repro/core/rep003_bad.py", ("REP003",))
    assert rules_found(result) == {"REP003"}
    magic = [f for f in result.findings if "magic unit constant" in f.message]
    mixed = [f for f in result.findings if "mixed-unit" in f.message]
    assert len(magic) == 4
    assert len(mixed) == 2
    assert any("`cycles` + `ns`" in f.message for f in mixed)


def test_rep003_clean():
    result = lint_fixture("src/repro/core/rep003_ok.py", ("REP003",))
    assert result.findings == []


def test_rep003_const_eval_helpers():
    import ast

    def value_of(expr: str):
        return const_value(ast.parse(expr, mode="eval").body)

    assert value_of("1024 * 1024") == 1024 ** 2
    assert value_of("1 << 30") == 1024 ** 3
    assert value_of("10 ** 9") == 10 ** 9
    assert value_of("x * 1024") is None
    assert value_of("2 ** 10000") is None    # guarded, no huge pow

    name = ast.parse("total_latency_cycles", mode="eval").body
    assert unit_family(name) == "cycles"
    ns = ast.parse("spec.jitter_ns", mode="eval").body
    assert unit_family(ns) == "ns"
    plain = ast.parse("counter", mode="eval").body
    assert unit_family(plain) is None


# ------------------------------------------------------------------ REP004

def test_rep004_positive():
    # the fixture mesh tree carries 3 mesh function-pair drifts (see
    # test_rep004_mesh_function_pairs_positive) and 5 VC-pair drifts
    # (see test_rep004_vc_pair_positive)
    result = run_lint(["src/repro/noc/mesh"], root=TREE, select=("REP004",))
    assert rules_found(result) == {"REP004"}
    messages = [f.message for f in result.findings]
    assert len(messages) == 8
    assert any("missing public method `credit_snapshot`" in m
               for m in messages)
    assert any("`delivered_count` is a method on BatchedVCMesh but a "
               "property on VCMesh" in m for m in messages)
    assert any("`step` required parameters differ" in m for m in messages)


def test_rep004_vc_pair_positive():
    # the scalar VC mesh vs its lane-batched twin: the leading `lane`
    # parameter and the batched-only `last_ejected` extra are allowed,
    # the other drifts report
    result = run_lint(["src/repro/noc/mesh/vc.py",
                       "src/repro/noc/mesh/vcmesh_batched.py"],
                      root=TREE, select=("REP004",))
    assert rules_found(result) == {"REP004"}
    messages = [f.message for f in result.findings]
    assert len(messages) == 5
    assert any("missing public method `credit_snapshot`" in m
               for m in messages)
    assert any("`delivered_count` is a method on BatchedVCMesh but a "
               "property on VCMesh" in m for m in messages)
    assert any("`step` required parameters differ" in m for m in messages)
    assert any("`batched_shared_network_experiment` required parameters "
               "differ" in m for m in messages)
    assert any("`sweep_vc_grid` has no vectorized twin" in m
               for m in messages)
    # lane-stripped inject and the allowlisted last_ejected are silent
    assert not any("`inject`" in m for m in messages)
    assert not any("last_ejected" in m for m in messages)


def test_rep004_clean_on_real_tree():
    result = run_lint(["src/repro/noc/mesh"], root=REPO_ROOT,
                      select=("REP004",))
    assert result.findings == []


def test_rep004_needs_both_sides():
    # linting only the batched side of the VC pair cannot diff: no
    # findings (function pairs skip without their scalar side too)
    result = run_lint(["src/repro/noc/mesh/vcmesh_batched.py"], root=TREE,
                      select=("REP004",))
    assert result.findings == []


def test_rep004_function_pairs_positive():
    result = run_lint(
        ["src/repro/core/latency_bench.py",
         "src/repro/core/bandwidth_bench.py",
         "src/repro/core/fastpath"], root=TREE, select=("REP004",))
    assert rules_found(result) == {"REP004"}
    messages = [f.message for f in result.findings]
    assert len(messages) == 3
    assert any("`measured_latency_matrix` lacks the `engine=` selector"
               in m for m in messages)
    assert any("`vectorized_bandwidth_distribution` required parameters "
               "differ" in m for m in messages)
    assert any("`slice_saturation_curve` has no vectorized twin"
               in m for m in messages)


def test_rep004_function_pairs_clean_on_real_tree():
    result = run_lint(["src/repro/core"], root=REPO_ROOT,
                      select=("REP004",))
    assert result.findings == []


def test_rep004_function_pairs_skip_without_scalar_side():
    # only the fastpath side linted: nothing to diff against
    result = run_lint(["src/repro/core/fastpath"], root=TREE,
                      select=("REP004",))
    assert result.findings == []


def test_rep004_mesh_function_pairs_positive():
    # mesh entry points vs their fastmesh twins, isolated from the
    # class-pair fixtures by linting the function files only
    result = run_lint(
        ["src/repro/noc/mesh/loadcurve.py",
         "src/repro/noc/mesh/traffic.py",
         "src/repro/noc/mesh/interfaces.py",
         "src/repro/noc/mesh/fastmesh.py"], root=TREE, select=("REP004",))
    assert rules_found(result) == {"REP004"}
    messages = [f.message for f in result.findings]
    assert len(messages) == 3
    assert any("`sweep_load` lacks the `engine=` selector"
               in m for m in messages)
    assert any("`batched_fairness_experiment` required parameters differ"
               in m for m in messages)
    assert any("`run_reply_bottleneck` has no vectorized twin"
               in m for m in messages)
    # the agreeing pair (run_fairness_experiments) reports nothing
    assert not any("batched_fairness_experiments" in m for m in messages)


def test_rep004_mesh_function_pairs_skip_without_scalar_side():
    result = run_lint(["src/repro/noc/mesh/fastmesh.py"], root=TREE,
                      select=("REP004",))
    assert result.findings == []


# ------------------------------------------------------------------ REP005

def test_rep005_positive():
    result = lint_fixture("src/repro/core/rep005_bad.py", ("REP005",))
    assert rules_found(result) == {"REP005"}
    messages = " ".join(f.message for f in result.findings)
    assert len(result.findings) == 4
    assert "bare `except:`" in messages
    assert "swallows the failure" in messages
    assert "mutable default" in messages


def test_rep005_clean():
    result = lint_fixture("src/repro/core/rep005_ok.py", ("REP005",))
    assert result.findings == []


# ------------------------------------------------------------------ REP006

def test_rep006_positive():
    result = lint_fixture("src/repro/noc/rep006_bad.py", ("REP006",))
    assert rules_found(result) == {"REP006"}
    assert len(result.findings) == 8
    messages = " ".join(f.message for f in result.findings)
    assert "forked ambiently via `.spawn()`" in messages
    assert "`.jumped()`" in messages         # through the alias binding
    assert "reseeded by assigning `.state`" in messages
    assert "reseeded via `.seed()`" in messages
    assert "escapes into a spawned worker" in messages
    assert "captured by closure `draw`" in messages


def test_rep006_flow_sensitivity_across_branches():
    # `g` is the stream only on one branch; the fork still fires
    result = lint_fixture("src/repro/noc/rep006_bad.py", ("REP006",))
    branch = [f for f in result.findings if f.line == 59]
    assert len(branch) == 1
    assert "`g` forked ambiently" in branch[0].message


def test_rep006_clean():
    result = lint_fixture("src/repro/noc/rep006_ok.py", ("REP006",))
    assert result.findings == []


def test_rep006_out_of_scope_module():
    # repro.rng itself is excluded from the stream rule's scope
    result = run_lint(["src/repro/rng"], root=REPO_ROOT, select=("REP006",))
    assert result.findings == []


# ------------------------------------------------------------------ REP007

def test_rep007_positive():
    result = lint_fixture("src/repro/serve/rep007_bad.py", ("REP007",))
    assert rules_found(result) == {"REP007"}
    assert len(result.findings) == 4
    messages = " ".join(f.message for f in result.findings)
    assert "held across `await`" in messages
    assert "SharedMemory buffer" in messages
    assert "blocking call `time.sleep()` on a path holding" in messages


def test_rep007_clean():
    result = lint_fixture("src/repro/serve/rep007_ok.py", ("REP007",))
    assert result.findings == []


def test_rep007_branch_sensitivity():
    # held only when `flag` is true — the await is still flagged because
    # a path exists where the lock is live
    result = lint_fixture("src/repro/serve/rep007_bad.py", ("REP007",))
    assert any(f.line == 24 for f in result.findings)


# ------------------------------------------------------------------ REP008

def test_rep008_positive():
    result = lint_fixture("src/repro/serve/rep008_bad.py", ("REP008",))
    assert rules_found(result) == {"REP008"}
    assert len(result.findings) == 5
    messages = " ".join(f.message for f in result.findings)
    assert "SharedMemory segment" in messages
    assert "os.open descriptor" in messages
    # one finding per leaked creation site, reported at the creation
    assert sorted(f.line for f in result.findings) == [8, 13, 25, 33, 40]


def test_rep008_clean():
    result = lint_fixture("src/repro/serve/rep008_ok.py", ("REP008",))
    assert result.findings == []


def test_rep008_swallowed_exception_path():
    # the except ValueError handler rejoins normal flow with `buf` open:
    # caught only because the solver walks exception edges
    result = lint_fixture("src/repro/serve/rep008_bad.py", ("REP008",))
    assert any(f.line == 13 and "swallowed_close" in f.message
               for f in result.findings)


def test_rep008_exec_segment_positive():
    # the exec/ipc segment idioms (header write, consumer unlink, lock
    # fd) leak in their own shapes; one finding per creation site
    result = lint_fixture("src/repro/exec/rep008_bad.py", ("REP008",))
    assert rules_found(result) == {"REP008"}
    assert sorted(f.line for f in result.findings) == [10, 16, 28, 37]
    messages = " ".join(f.message for f in result.findings)
    assert "SharedMemory segment" in messages
    assert "os.open descriptor" in messages


def test_rep008_exec_segment_clean():
    # close-in-finally producers, consumer-unlinks readers, lock fds
    # closed in finally, and explicit ownership handoffs are all clean
    result = lint_fixture("src/repro/exec/rep008_ok.py", ("REP008",))
    assert result.findings == []


def test_rep008_scope_covers_exec_and_ipc():
    # the segment/digest core and the zero-copy transport are inside
    # REP008's policed surface — the scope must keep covering them
    from repro.analysis.lint.config import load_config
    config = load_config(REPO_ROOT)
    for module in ("repro.ipc", "repro.exec.shm", "repro.exec.cache",
                   "repro.serve.workers"):
        assert config.in_scope("REP008", module), module


# ------------------------------------------------------------------ REP009

def test_rep009_register_call_positive():
    # a versionless register() call reports, file-locally
    result = run_lint(["src/repro/core/rep009_register_bad.py"],
                      root=TREE, select=("REP009",))
    assert [f.rule for f in result.findings] == ["REP009"]
    finding = result.findings[0]
    assert "engine 'turbo' registered without a version" in finding.message
    # scalar and the versioned warp engine are exempt
    assert len(result.findings) == 1


def test_rep009_register_call_clean():
    result = run_lint(["src/repro/core/rep009_register_ok.py"],
                      root=TREE, select=("REP009",))
    assert result.findings == []


# ------------------------------------------------------- suppression layers

def test_noqa_suppression():
    result = lint_fixture("src/repro/noc/rep_noqa.py", ("REP001",))
    assert len(result.findings) == 1         # wrong-rule noqa still reports
    assert result.suppressed_noqa == 3       # incl. the comma-separated list


def test_unused_noqa_reported_as_rep010():
    # full-rule run: the noqa[REP003] on a REP001 line suppresses nothing
    result = run_lint(["src/repro/noc/rep_noqa.py"], root=TREE)
    notes = [f for f in result.findings if f.rule == "REP010"]
    assert len(notes) == 1
    assert notes[0].level == "note"
    assert "suppresses no REP003 finding" in notes[0].message
    # the comma-separated noqa[REP001,REP003] matched REP001: not unused
    assert notes[0].line == 19


def test_unused_noqa_not_judged_on_partial_runs():
    # under --select REP001 the REP003-only directive cannot be judged
    result = lint_fixture("src/repro/noc/rep_noqa.py", ("REP001",))
    assert not any(f.rule == "REP010" for f in result.findings)


def test_noqa_in_docstring_is_not_a_directive(tmp_path):
    target = tmp_path / "src" / "repro" / "noc"
    target.mkdir(parents=True)
    (target / "mod.py").write_text(
        '"""Mentions # repro: noqa in prose only."""\n'
        "import time\n\ndef f():\n    return time.time()\n")
    result = run_lint([target / "mod.py"], root=tmp_path)
    assert [f.rule for f in result.findings] == ["REP001"]
    assert result.suppressed_noqa == 0


def test_noqa_map_parsing():
    lines = ["x = 1  # repro: noqa",
             "y = 2  # repro: noqa[REP001, REP003]",
             "z = 3"]
    mapping = noqa_map(lines)
    assert mapping[1] is None
    assert mapping[2] == {"REP001", "REP003"}
    assert 3 not in mapping


def test_baseline_round_trip(tmp_path):
    dirty = lint_fixture("src/repro/core/rep003_bad.py", ("REP003",))
    assert dirty.findings
    baseline_file = tmp_path / "baseline.json"
    count = write_baseline(baseline_file, dirty.findings)
    assert count == len(dirty.findings)
    fingerprints = load_baseline(baseline_file)
    filtered = run_lint(["src/repro/core/rep003_bad.py"], root=TREE,
                        select=("REP003",), baseline=fingerprints)
    assert filtered.findings == []
    assert filtered.suppressed_baseline == count
    assert filtered.exit_code == 0


def test_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(BaselineError):
        load_baseline(bad)
    with pytest.raises(BaselineError):
        load_baseline(tmp_path / "missing.json")


def test_fingerprints_stable_under_line_motion(tmp_path):
    # REP001 is scoped to simulation modules: use the package layout
    target = tmp_path / "src" / "repro" / "noc"
    target.mkdir(parents=True)
    module = target / "mod.py"
    module.write_text("import time\n\ndef f():\n    return time.time()\n")
    first = run_lint([module], root=tmp_path, select=("REP001",))
    assert len(first.findings) == 1
    module.write_text("import time\n# pushed down\n\n\ndef f():\n"
                      "    return time.time()\n")
    second = run_lint([module], root=tmp_path, select=("REP001",))
    assert [f.fingerprint for f in first.findings] == \
        [f.fingerprint for f in second.findings]
    assert first.findings[0].line != second.findings[0].line


def test_syntax_error_is_a_finding(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    result = run_lint([tmp_path], root=tmp_path)
    assert [f.rule for f in result.findings] == ["REP000"]
    assert result.parse_errors == 1
    assert result.exit_code == 1


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="REP999"):
        run_lint([TREE], root=TREE, select=("REP999",))


# --------------------------------------------------------------------- CLI

def test_cli_json_round_trip(capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    code = main(["lint", "src/repro/core/rep003_bad.py",
                 "--format", "json", "--no-baseline"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["counts"] == {"REP003": 6}
    assert document["exit_code"] == 1
    finding = document["findings"][0]
    assert set(finding) == {"rule", "path", "line", "col", "message",
                            "snippet", "level", "fingerprint"}
    assert finding["path"] == "src/repro/core/rep003_bad.py"


def test_cli_text_clean(capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    code = main(["lint", "src/repro/core/rep003_ok.py", "--no-baseline"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_cli_select_and_bad_rule(capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    assert main(["lint", "src/repro/noc/rep001_bad.py",
                 "--select", "REP005", "--no-baseline"]) == 0
    assert main(["lint", "src", "--select", "NOPE"]) == 2


def test_cli_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    baseline = tmp_path / "base.json"
    assert main(["lint", "src/repro/core/rep005_bad.py",
                 "--baseline", str(baseline), "--write-baseline"]) == 0
    assert main(["lint", "src/repro/core/rep005_bad.py",
                 "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "4 baselined" in out


def test_repo_tree_is_lint_clean():
    """The acceptance gate: src + benchmarks lint clean with the
    shipped baseline."""
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    result = run_lint(["src", "benchmarks"], root=REPO_ROOT,
                      baseline=baseline)
    assert result.findings == [], render_text(result)


def test_rule_table_lists_all_rules():
    ids = [row["id"] for row in rule_table()]
    assert ids == ["REP001", "REP002", "REP003", "REP004", "REP005",
                   "REP006", "REP007", "REP008", "REP009", "REP010"]


def test_renderers_disagree_only_in_format():
    result = lint_fixture("src/repro/core/rep005_bad.py", ("REP005",))
    text = render_text(result)
    document = json.loads(render_json(result))
    assert str(len(result.findings)) in text
    assert len(document["findings"]) == len(result.findings)


# ------------------------------------------------------------ config scopes

def test_pyproject_scope_override(tmp_path):
    target = tmp_path / "src" / "repro" / "noc"
    target.mkdir(parents=True)
    module = target / "mod.py"
    module.write_text("import time\n\ndef f():\n    return time.time()\n")
    default = run_lint([module], root=tmp_path, select=("REP001",))
    assert len(default.findings) == 1
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint.scopes.REP001]\n"
        'include = ["repro.gpu"]\n'
        "exclude = []\n")
    scoped = run_lint([module], root=tmp_path, select=("REP001",))
    assert scoped.findings == []         # repro.noc no longer in scope


def test_scope_exclude_beats_include(tmp_path):
    target = tmp_path / "src" / "repro" / "noc" / "sub"
    target.mkdir(parents=True)
    module = target / "mod.py"
    module.write_text("import time\n\ndef f():\n    return time.time()\n")
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint.scopes.REP001]\n"
        'include = ["repro.noc"]\n'
        'exclude = ["repro.noc.sub"]\n')
    result = run_lint([module], root=tmp_path, select=("REP001",))
    assert result.findings == []


def test_config_digest_changes_with_scopes(tmp_path):
    from repro.analysis.lint import load_config
    defaults = load_config(None)
    (tmp_path / "pyproject.toml").write_text(
        "[tool.repro.lint.scopes.REP003]\n"
        'include = ["repro.core"]\n')
    overridden = load_config(tmp_path)
    assert defaults.digest() != overridden.digest()


# ----------------------------------------------------------- prune-baseline

def test_prune_baseline_drops_stale_entries(tmp_path):
    from repro.analysis.lint import prune_baseline
    dirty = lint_fixture("src/repro/core/rep003_bad.py", ("REP003",))
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, dirty.findings)
    # simulate a fixed violation: one entry no longer produced
    live = frozenset(f.fingerprint for f in dirty.findings[1:])
    stale = prune_baseline(baseline_file, live)
    assert stale == [dirty.findings[0].fingerprint]
    assert load_baseline(baseline_file) == set(live)
    assert prune_baseline(baseline_file, live) == []     # now tight


def test_cli_prune_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    baseline = tmp_path / "base.json"
    assert main(["lint", "src/repro/core/rep005_bad.py",
                 "--baseline", str(baseline), "--write-baseline"]) == 0
    # everything in the baseline is still produced: nothing pruned
    assert main(["lint", "src/repro/core/rep005_bad.py",
                 "--baseline", str(baseline), "--prune-baseline"]) == 0
    assert "nothing to prune" in capsys.readouterr().out
    # narrow the run so the baselined REP005 findings go stale
    assert main(["lint", "src/repro/core/rep003_ok.py",
                 "--baseline", str(baseline), "--prune-baseline"]) == 1
    out = capsys.readouterr().out
    assert "pruned 4 stale fingerprint(s)" in out
    assert load_baseline(baseline) == set()


# -------------------------------------------------------------------- SARIF

def test_sarif_document_shape():
    from repro.analysis.lint import render_sarif
    result = lint_fixture("src/repro/core/rep005_bad.py", ("REP005",))
    document = json.loads(render_sarif(result))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    ids = [rule["id"] for rule in driver["rules"]]
    assert ids[0] == "REP000" and "REP008" in ids and "REP010" in ids
    assert len(run["results"]) == len(result.findings)
    entry = run["results"][0]
    assert entry["ruleId"] == "REP005"
    assert entry["level"] == "warning"
    assert entry["partialFingerprints"]["reproLint/v1"]
    location = entry["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
    lines = sorted(e["locations"][0]["physicalLocation"]["region"]
                   ["startLine"] for e in run["results"])
    assert lines == sorted(f.line for f in result.findings)
    assert driver["rules"][entry["ruleIndex"]]["id"] == "REP005"


def test_cli_sarif_output_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(TREE)
    out_file = tmp_path / "lint.sarif"
    code = main(["lint", "src/repro/core/rep005_bad.py",
                 "--format", "sarif", "--output", str(out_file),
                 "--no-baseline"])
    assert code == 1                     # findings still set the exit code
    document = json.loads(out_file.read_text())
    assert document["runs"][0]["results"]
    assert "wrote sarif report" in capsys.readouterr().out


# ------------------------------------------------- parallel + incremental

def _result_key(result):
    return sorted((f.rule, f.path, f.line, f.col, f.message, f.fingerprint)
                  for f in result.findings)


def test_parallel_run_matches_serial():
    serial = run_lint(["src"], root=TREE)
    parallel = run_lint(["src"], root=TREE, jobs=2)
    assert _result_key(serial) == _result_key(parallel)
    assert serial.files_scanned == parallel.files_scanned
    assert serial.suppressed_noqa == parallel.suppressed_noqa


def test_incremental_cache_round_trip(tmp_path):
    cache = tmp_path / "cache"
    cold = run_lint(["src"], root=TREE, cache_dir=cache)
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.files_scanned
    warm = run_lint(["src"], root=TREE, cache_dir=cache)
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.files_scanned
    assert _result_key(cold) == _result_key(warm)


def test_cache_invalidated_by_edit(tmp_path):
    root = tmp_path / "proj"
    target = root / "src" / "repro" / "noc"
    target.mkdir(parents=True)
    module = target / "mod.py"
    module.write_text("import time\n\ndef f():\n    return time.time()\n")
    cache = tmp_path / "cache"
    first = run_lint([module], root=root, cache_dir=cache)
    assert first.cache_misses == 1
    edited = run_lint([module], root=root, cache_dir=cache)
    assert edited.cache_hits == 1
    module.write_text("import time\n\ndef g():\n    return time.time()\n")
    third = run_lint([module], root=root, cache_dir=cache)
    assert third.cache_misses == 1       # content hash changed
    assert len(third.findings) == 1


def test_cache_respects_select_and_config(tmp_path):
    root = tmp_path / "proj"
    target = root / "src" / "repro" / "noc"
    target.mkdir(parents=True)
    module = target / "mod.py"
    module.write_text("import time\n\ndef f():\n    return time.time()\n")
    cache = tmp_path / "cache"
    run_lint([module], root=root, cache_dir=cache)
    narrowed = run_lint([module], root=root, cache_dir=cache,
                        select=("REP003",))
    assert narrowed.cache_misses == 1    # different enabled-rule key
    assert narrowed.findings == []


# --------------------------------------------------- seeded mutation gate

def test_seeded_mutations_are_caught(tmp_path):
    """Inject the two archetypal serve-tier bugs into a fixture copy and
    assert the flow rules catch both (the PR's acceptance mutation)."""
    import shutil
    root = tmp_path / "proj"
    serve_src = REPO_ROOT / "src" / "repro" / "serve"
    serve_dst = root / "src" / "repro" / "serve"
    shutil.copytree(serve_src, serve_dst)
    (serve_dst / "mutated.py").write_text(
        "import threading\n"
        "from multiprocessing import shared_memory\n\n"
        "_lock = threading.Lock()\n\n\n"
        "async def respond(payload, send):\n"
        "    _lock.acquire()\n"
        "    await send(payload)\n"
        "    _lock.release()\n\n\n"
        "def publish(frame):\n"
        "    seg = shared_memory.SharedMemory(create=True, size=len(frame))\n"
        "    seg.buf[:len(frame)] = frame\n"
        "    return seg.name\n")
    result = run_lint([serve_dst], root=root,
                      select=("REP007", "REP008"))
    mutated = [f for f in result.findings
               if f.path.endswith("mutated.py")]
    assert {f.rule for f in mutated} == {"REP007", "REP008"}
    lock_finding = next(f for f in mutated if f.rule == "REP007")
    assert "held across `await`" in lock_finding.message
    leak_finding = next(f for f in mutated if f.rule == "REP008")
    assert "SharedMemory segment" in leak_finding.message
    # the untouched serve sources stay clean
    assert all(f.path.endswith("mutated.py") for f in result.findings)


def test_module_name_for(tmp_path):
    path = tmp_path / "src" / "repro" / "noc" / "latency.py"
    assert module_name_for(path, tmp_path) == "repro.noc.latency"
    init = tmp_path / "src" / "repro" / "noc" / "__init__.py"
    assert module_name_for(init, tmp_path) == "repro.noc"
    outside = Path("/somewhere/else/tool.py")
    assert module_name_for(outside, tmp_path) == "tool"
