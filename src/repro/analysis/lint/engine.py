"""The lint engine: per-file analysis, fan-out, cache, cross-file merge.

One analysis pass per file produces a serializable *file report*: the
raw findings, the ``# repro: noqa`` map, and every cross-file fact the
rules collected.  That shape is what enables the two performance
features:

* **parallel fan-out** (``jobs=N``): file reports are computed in
  worker processes and merged in the parent;
* **incremental cache** (``cache_dir=``): a file report is memoized on
  disk keyed by the file's content hash, the enabled rule set,
  :data:`RULESET_VERSION`, and the config digest — a warm run re-parses
  nothing and recomputes only edited files (the ResultCache idiom from
  :mod:`repro.exec.cache`, which also supplies the store).

Cross-file work (REP004 parity) always runs in the parent over the
*merged* facts, so cached and fresh files compose exactly.  Syntactic rules see one AST walk; ``mode = "flow"``
rules additionally get every function's CFG
(:mod:`repro.analysis.flow`), built once and shared.  Findings then
flow through noqa suppression (with unused-noqa reported as REP010),
fingerprinting, and baseline filtering.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.lint.config import LintConfig, load_config
from repro.analysis.lint.context import FileContext
from repro.analysis.lint.findings import Finding, assign_fingerprints
from repro.analysis.lint.rules import Rule, build_rules

#: Bump when any rule's behaviour changes: invalidates every cached
#: per-file report at once (the lint analogue of CACHE_VERSION).
RULESET_VERSION = 3

#: the suppression directive: bare, or rule-listed as "noqa[REP001,REP003]"
_NOQA = re.compile(r"#\s*repro:\s*noqa"
                   r"(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist",
              ".pytest_cache", ".venv", "node_modules"}


def iter_python_files(paths: list[str | Path],
                      root: Path) -> list[Path]:
    """All ``.py`` files under ``paths`` (deduplicated, sorted)."""
    found: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if not path.is_absolute():
            path = root / path
        if path.is_file() and path.suffix == ".py":
            found.add(path.resolve())
        elif path.is_dir():
            for sub in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in sub.parts):
                    found.add(sub.resolve())
    return sorted(found)


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module guess: ``src/repro/noc/latency.py`` -> ``repro.noc
    .latency``; files outside a package root keep their stem."""
    try:
        relative = path.resolve().relative_to(root.resolve())
    except ValueError:
        return path.stem
    parts = list(relative.with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def noqa_map(source_lines: list[str]) -> dict[int, set[str] | None]:
    """line (1-based) -> suppressed rule ids, or None for 'all rules'."""
    out: dict[int, set[str] | None] = {}
    for number, text in enumerate(source_lines, start=1):
        match = _NOQA.search(text)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            out[number] = None
        else:
            out[number] = {r.strip().upper() for r in rules.split(",")
                           if r.strip()}
    return out


def _comment_lines(source: str) -> set[int] | None:
    """Lines carrying a real ``#`` comment token, or None if the file
    does not tokenize.

    The noqa regex alone would honour (and REP010 would flag) mere
    *mentions* of ``# repro: noqa`` inside docstrings and message
    strings — this linter's own sources are full of those.
    """
    import io
    import tokenize
    lines: set[int] = set()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                lines.add(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return None
    return lines


class _Dispatcher(ast.NodeVisitor):
    """Walks once, keeps scope stacks current, dispatches to rules."""

    def __init__(self, ctx: FileContext, interests: dict[str, list[Rule]]):
        self.ctx = ctx
        self.interests = interests

    def visit(self, node: ast.AST) -> None:
        ctx = self.ctx
        for rule in self.interests.get(type(node).__name__, ()):
            rule.check(node, ctx)
        is_function = isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
        is_class = isinstance(node, ast.ClassDef)
        if is_function:
            ctx.function_stack.append(node)
        elif is_class:
            ctx.class_stack.append(node)
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node
            self.visit(child)
        if is_function:
            ctx.function_stack.pop()
        elif is_class:
            ctx.class_stack.pop()


# --------------------------------------------------------------------------
# per-file analysis (runs in-process or in a pool worker)
# --------------------------------------------------------------------------

def analyze_source(*, relative: str, module: str, source: str,
                   select: tuple[str, ...] | None,
                   config: LintConfig | None) -> dict:
    """One file's full analysis as a JSON-serializable report.

    ``{"findings": [...], "noqa": {...}, "facts": {...},
    "parse_errors": int}`` — exactly what the incremental cache stores
    and the pool workers return.
    """
    report: dict = {"findings": [], "noqa": {}, "facts": {},
                    "parse_errors": 0}
    try:
        tree = ast.parse(source, filename=relative)
    except SyntaxError as exc:
        report["parse_errors"] = 1
        report["findings"].append(Finding(
            rule="REP000", path=relative, line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}").to_json())
        return report
    ctx = FileContext(path=relative, module=module, tree=tree,
                      source=source, config=config)
    mapping = noqa_map(ctx.source_lines)
    comments = _comment_lines(source)
    if comments is not None:
        mapping = {line: rules for line, rules in mapping.items()
                   if line in comments}
    report["noqa"] = {
        str(line): (None if rules is None else sorted(rules))
        for line, rules in mapping.items()}

    rules = build_rules(select)
    interests: dict[str, list[Rule]] = {}
    for rule in rules:
        for interest in rule.interests:
            interests.setdefault(interest, []).append(rule)
    _Dispatcher(ctx, interests).visit(tree)

    flow_rules = [rule for rule in rules if rule.mode == "flow"]
    if flow_rules:
        from repro.analysis.flow import iter_functions
        for func in iter_functions(tree):
            cfg = None
            for rule in flow_rules:
                if not ctx.in_rule_scope(rule.id):
                    continue
                if cfg is None:
                    cfg = ctx.cfg_for(func)
                rule.check_function(func, cfg, ctx)

    report["findings"] = [f.to_json() for f in ctx.findings]
    report["facts"] = ctx.facts
    return report


def _analyze_task(task: tuple) -> tuple[str, dict]:
    """Pool-worker entry: read + analyze one file."""
    path_str, relative, module, select, config = task
    source = Path(path_str).read_text(encoding="utf-8", errors="replace")
    return relative, analyze_source(relative=relative, module=module,
                                    source=source, select=select,
                                    config=config)


def _report_key(source: str, enabled: tuple[str, ...],
                config: LintConfig | None) -> str:
    """Incremental-cache key: content x rule set x engine x config."""
    text = "|".join((
        hashlib.sha256(source.encode()).hexdigest(),
        f"ruleset={RULESET_VERSION}",
        ",".join(enabled),
        config.digest() if config is not None else "noconfig",
    ))
    return "lint-" + hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

@dataclass
class LintResult:
    """Outcome of one lint run (post-suppression, post-baseline)."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed_noqa: int = 0
    suppressed_baseline: int = 0
    parse_errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: every fingerprint seen before baseline filtering — what
    #: ``--prune-baseline`` diffs the baseline file against
    live_fingerprints: frozenset[str] = frozenset()

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

def run_lint(paths: list[str | Path], *, root: str | Path | None = None,
             select: tuple[str, ...] | None = None,
             baseline: set[str] | frozenset[str] = frozenset(),
             jobs: int = 1, cache_dir: str | Path | None = None,
             config: LintConfig | None = None) -> LintResult:
    """Lint ``paths`` and return the filtered result.

    ``root`` anchors repo-relative paths in findings (default: cwd) and
    is where ``pyproject.toml`` scopes are read from unless an explicit
    ``config`` is given.  ``baseline`` is a set of fingerprints to keep
    quiet.  ``jobs > 1`` fans per-file analysis out to worker
    processes; ``cache_dir`` memoizes per-file reports across runs.
    """
    root = Path(root) if root is not None else Path.cwd()
    if config is None:
        config = load_config(root)
    rules = build_rules(select)          # validates select early
    enabled = tuple(sorted(rule.id for rule in rules))
    select_t = tuple(select) if select else None

    cache = None
    if cache_dir is not None:
        from repro.exec.cache import ResultCache
        cache = ResultCache(cache_dir)

    result = LintResult()
    sources: dict[str, str] = {}
    reports: dict[str, dict] = {}
    pending: list[tuple] = []            # cache misses to analyze
    keys: dict[str, str] = {}

    for path in iter_python_files(paths, root):
        result.files_scanned += 1
        try:
            relative = path.relative_to(root.resolve()).as_posix()
        except ValueError:
            relative = path.as_posix()
        source = path.read_text(encoding="utf-8", errors="replace")
        sources[relative] = source
        if cache is not None:
            key = keys[relative] = _report_key(source, enabled, config)
            hit = cache.get(key)
            if hit is not None:
                result.cache_hits += 1
                reports[relative] = hit
                continue
            result.cache_misses += 1
        pending.append((str(path), relative,
                        module_name_for(path, root), select_t, config))

    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(pending) // (jobs * 4))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            computed = list(pool.map(_analyze_task, pending,
                                     chunksize=chunk))
    else:
        computed = [_analyze_task(task) for task in pending]
    for relative, report in computed:
        reports[relative] = report
        if cache is not None:
            cache.put(keys[relative], report)

    # ------------------------------------------------------------- merge
    raw: list[Finding] = []
    suppressions: dict[str, dict[int, set[str] | None]] = {}
    merged_facts: dict[str, list[dict]] = {}
    for relative in sorted(reports):
        report = reports[relative]
        result.parse_errors += report.get("parse_errors", 0)
        raw.extend(Finding.from_json(doc) for doc in report["findings"])
        suppressions[relative] = {
            int(line): (None if rules_ is None else set(rules_))
            for line, rules_ in report.get("noqa", {}).items()}
        for rule_id, facts in report.get("facts", {}).items():
            merged_facts.setdefault(rule_id, []).extend(facts)

    def report_finding(rule_id, path, line, col, message, snippet=""):
        raw.append(Finding(rule=rule_id, path=path, line=line, col=col,
                           message=message, snippet=snippet))

    for rule in rules:
        rule.finalize(merged_facts.get(rule.id, []), report_finding)

    # ------------------------------------------- suppression + unused-noqa
    used: dict[tuple[str, int], int] = {}
    survivors = []
    for finding in raw:
        allowed = suppressions.get(finding.path, {}).get(finding.line, ...)
        if allowed is None or (allowed is not ... and
                               finding.rule in allowed):
            result.suppressed_noqa += 1
            used[(finding.path, finding.line)] = \
                used.get((finding.path, finding.line), 0) + 1
            continue
        survivors.append(finding)

    enabled_set = set(enabled)
    for relative in sorted(suppressions):
        lines = sources.get(relative, "").splitlines()
        for line, allowed in sorted(suppressions[relative].items()):
            if used.get((relative, line)):
                continue
            if allowed is None:
                if select_t is not None:
                    continue            # partial run: can't judge a bare noqa
                what = "suppresses no finding"
            else:
                if not allowed <= enabled_set:
                    continue            # a listed rule didn't run
                what = (f"suppresses no {'/'.join(sorted(allowed))} "
                        "finding")
            snippet = lines[line - 1].strip() if \
                1 <= line <= len(lines) else ""
            survivors.append(Finding(
                rule="REP010", path=relative, line=line, col=0,
                message=f"unused `# repro: noqa` comment: {what}; "
                        "remove it so real suppressions stay auditable",
                snippet=snippet, level="note"))

    # ------------------------------------------- fingerprints + baseline
    fingerprinted = assign_fingerprints(survivors)
    result.live_fingerprints = frozenset(
        finding.fingerprint for finding in fingerprinted)
    for finding in fingerprinted:
        if finding.fingerprint in baseline:
            result.suppressed_baseline += 1
        else:
            result.findings.append(finding)
    return result
