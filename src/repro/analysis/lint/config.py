"""Lint configuration: per-rule module scopes from ``pyproject.toml``.

Rules used to hardcode the packages they police (``SIMULATION_PACKAGES``
in the determinism rule, ``ASYNC_PACKAGES`` in async-safety), which
meant editing rule source every time a subsystem landed.  The scopes now
live in a ``[tool.repro.lint.scopes.<RULE>]`` section::

    [tool.repro.lint.scopes.REP001]
    include = ["repro.noc", "repro.gpu", "repro.traffic"]
    exclude = ["repro.rng"]

Patterns are dotted-module globs: a pattern without wildcards matches
the module itself and everything under it (``repro.noc`` covers
``repro.noc.mesh.vc``); ``fnmatch`` wildcards are honoured
(``repro.*.fastpath``).  An absent/empty ``include`` means *every*
module; ``exclude`` always wins over ``include``.

:data:`DEFAULT_SCOPES` carries the shipped defaults so the linter works
on trees without a ``pyproject.toml``; a pyproject section *replaces*
that rule's default wholesale (no merging — what you read in the file
is what runs).  The loaded config serializes to a stable digest that is
folded into the incremental cache key, so editing scopes invalidates
exactly the cached per-file reports they could change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path

try:
    import tomllib
except ImportError:                      # Python 3.10: stdlib tomllib is 3.11+
    tomllib = None

__all__ = ["LintConfig", "RuleScope", "DEFAULT_SCOPES", "load_config"]

#: Shipped defaults, used when pyproject.toml has no [tool.repro.lint]
#: section (and mirrored there for this repo).
DEFAULT_SCOPES: dict[str, dict] = {
    # bit-reproducible simulation packages (REP001 determinism and
    # REP006 rng-stream discipline police the same surface)
    "REP001": {
        "include": ["repro.noc", "repro.gpu", "repro.memory",
                    "repro.core", "repro.runtime", "repro.sidechannel",
                    "repro.workloads", "repro.traffic"],
        "exclude": ["repro.rng"],
    },
    "REP006": {
        "include": ["repro.noc", "repro.gpu", "repro.memory",
                    "repro.core", "repro.runtime", "repro.sidechannel",
                    "repro.workloads", "repro.traffic", "repro.exec",
                    "repro.serve"],
        "exclude": ["repro.rng"],
    },
    # event-loop packages (REP002 syntactic + REP007 flow-sensitive)
    "REP002": {"include": ["repro.serve", "repro.traffic"],
               "exclude": []},
    "REP007": {"include": ["repro.serve", "repro.traffic"],
               "exclude": []},
    # unit discipline: everywhere except the unit table itself and the
    # linter's own fixtures/engine
    "REP003": {"include": [],
               "exclude": ["repro.units", "repro.analysis.lint"]},
    # resource lifecycle: every repro package — notably the shared
    # segment core (repro.ipc), both transports riding it (repro.serve
    # .shm, repro.exec.shm) and the cache's lock descriptors
    "REP008": {"include": ["repro"], "exclude": []},
}


def module_matches(module: str, pattern: str) -> bool:
    """Dotted-module glob match (prefix semantics for literal patterns)."""
    if not pattern:
        return False
    if fnmatchcase(module, pattern):
        return True
    if any(ch in pattern for ch in "*?["):
        return False
    return module == pattern or module.startswith(pattern + ".")


@dataclass(frozen=True)
class RuleScope:
    """include/exclude module globs for one rule."""

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def covers(self, module: str) -> bool:
        if any(module_matches(module, pat) for pat in self.exclude):
            return False
        if not self.include:
            return True
        return any(module_matches(module, pat) for pat in self.include)


@dataclass(frozen=True)
class LintConfig:
    """Per-rule scopes (plus room for future lint settings)."""

    scopes: tuple[tuple[str, RuleScope], ...] = ()
    source: str = "defaults"             # where the scopes came from

    def _scope(self, rule_id: str) -> RuleScope | None:
        for known, scope in self.scopes:
            if known == rule_id:
                return scope
        return None

    def in_scope(self, rule_id: str, module: str) -> bool:
        """Is ``module`` policed by ``rule_id``?  Unconfigured rules run
        everywhere."""
        scope = self._scope(rule_id)
        return True if scope is None else scope.covers(module)

    # -------------------------------------------------------- (de)serialize
    def to_dict(self) -> dict:
        return {"source": self.source,
                "scopes": {rule: {"include": list(scope.include),
                                  "exclude": list(scope.exclude)}
                           for rule, scope in self.scopes}}

    @classmethod
    def from_dict(cls, doc: dict) -> "LintConfig":
        scopes = tuple(sorted(
            (rule, RuleScope(include=tuple(entry.get("include", ())),
                             exclude=tuple(entry.get("exclude", ()))))
            for rule, entry in doc.get("scopes", {}).items()))
        return cls(scopes=scopes, source=doc.get("source", "defaults"))

    def digest(self) -> str:
        """Stable hash folded into incremental cache keys."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _default_config() -> LintConfig:
    return LintConfig.from_dict({"scopes": DEFAULT_SCOPES,
                                 "source": "defaults"})


def load_config(root: str | Path | None = None) -> LintConfig:
    """Config from ``<root>/pyproject.toml``, defaults when absent.

    Per-rule override is wholesale: a ``[tool.repro.lint.scopes.REPnnn]``
    table replaces that rule's default scope; rules without a table keep
    theirs.
    """
    if root is None:
        return _default_config()
    pyproject = Path(root) / "pyproject.toml"
    if tomllib is None or not pyproject.is_file():
        return _default_config()
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except (OSError, tomllib.TOMLDecodeError):
        return _default_config()
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    configured = section.get("scopes")
    if not isinstance(configured, dict):
        return _default_config()
    merged = dict(DEFAULT_SCOPES)
    for rule, entry in configured.items():
        if not isinstance(entry, dict):
            continue
        merged[rule.upper()] = {
            "include": [str(p) for p in entry.get("include", [])],
            "exclude": [str(p) for p in entry.get("exclude", [])],
        }
    return LintConfig.from_dict({"scopes": merged,
                                 "source": str(pyproject)})
