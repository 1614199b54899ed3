"""REP009 — fingerprint completeness.

``ResultCache`` keys fold in the engine fingerprint
(:func:`repro.engines.fingerprint_for`) so a cached result is
invalidated when the engine that produced it changes.  The registry
derives that fingerprint from the ``version=`` given to
:func:`repro.engines.register`, so every ``register()`` call naming a
non-golden engine must pass one: a registration without it produces an
engine whose cached results silently survive kernel changes — the exact
staleness bug the fingerprint exists to prevent.  The golden
``"scalar"`` engines are version-free by design: their results *define*
correctness.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.context import FileContext
from repro.analysis.lint.rules import Rule

#: The golden engine is version-free by design.
_EXEMPT = frozenset({"scalar"})

_REGISTER_FN = "repro.engines.register"


def _register_call(node: ast.Call) -> tuple[str, bool] | None:
    """``(engine_name, has_version)`` for a registry register() call.

    ``None`` when the engine name is not a string literal (dynamic
    registration is out of scope for a static check).
    """
    name = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
            and isinstance(node.args[1].value, str):
        name = node.args[1].value
    has_version = False
    for kw in node.keywords:
        if kw.arg == "name" and isinstance(kw.value, ast.Constant) \
                and isinstance(kw.value.value, str):
            name = kw.value.value
        if kw.arg == "version" and not (
                isinstance(kw.value, ast.Constant)
                and kw.value.value is None):
            has_version = True
    if name is None:
        return None
    return name, has_version


class FingerprintCompletenessRule(Rule):
    id = "REP009"
    name = "fingerprint-completeness"
    summary = ("every non-golden engine registered with "
               "repro.engines.register() must carry a version (scalar "
               "exempt), or ResultCache serves stale entries")
    interests = ("Call",)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        resolved = ctx.resolve_call(node)
        if resolved != _REGISTER_FN and not (
                resolved == "register" and ctx.module == "repro.engines"):
            return
        info = _register_call(node)
        if info is None:
            return
        engine, has_version = info
        if engine in _EXEMPT or has_version:
            return
        ctx.report(self.id, node,
                   f"engine '{engine}' registered without a version; "
                   "cached results for it survive kernel changes — "
                   "pass version=<MODULE>_VERSION (the registry "
                   "derives the fingerprint from it)")
