"""REP008 — SHM / file-descriptor lifecycle (flow-sensitive).

A ``SharedMemory`` segment that is opened and never closed leaks a file
descriptor *and* (if created) a ``/dev/shm`` segment that outlives the
process; an ``os.open`` descriptor held for a file lock leaks the same
way.  The serve tier's whole transport rides on shm segments, so a
single leaky path under load exhausts descriptors.

The rule runs a may-be-open analysis over each function's CFG: a
resource created on a path must reach ``close()``/``unlink()``
(``os.close`` for raw descriptors) on **every** path that reaches the
function's normal exit.  Exception paths that *propagate* are exempt
(the caller cannot close what the callee never returned and the crash
is the finding's cause, not the leak) — but a swallowed exception path
that rejoins normal flow with the resource still open is flagged, which
is exactly the ``except: pass`` + leak shape.

Ownership transfers are exempt: a handle that is returned, yielded,
stored on an object/container, or passed to another call has an owner
responsible for it elsewhere.  ``with`` blocks close on all paths by
construction and are never flagged.  Module-level factories are
resolved (``cls = _shared_memory(); buf = cls(...)`` still counts as a
creation) via the module call graph.
"""

from __future__ import annotations

import ast

from repro.analysis.flow import (DataflowAnalysis, ENTER_WITH, Env, STMT,
                                 Tag, step_assigned_names,
                                 step_expressions)
from repro.analysis.lint.context import FileContext
from repro.analysis.lint.rules import Rule

_SHM = "SharedMemory"
_CLOSERS = frozenset({"close", "unlink", "release", "shutdown"})

#: synthetic env key for the open-resource set
_OPEN = "@open"


def _creator_kind(call: ast.Call, ctx: FileContext) -> str | None:
    """``"shm"`` / ``"fd"`` when ``call`` opens a tracked resource."""
    target = ctx.resolve_call(call)
    if target is None:
        # `buf = cls(...)` where `cls = _shared_memory()` came from a
        # module-level factory: resolved through the call graph below
        return None
    if target == _SHM or target.endswith("." + _SHM):
        return "shm"
    if target == "os.open":
        return "fd"
    if "." not in target:
        # a local factory that returns the SharedMemory *class* makes
        # direct calls of it constructions too (rare, but cheap to hold)
        for returned in ctx.factory_returns.get(target, ()):
            if returned == _SHM or returned.endswith("." + _SHM):
                return "shm"
    return None


class _LifecycleAnalysis(DataflowAnalysis):
    """Env: resource names -> tags, plus ``@open`` -> may-open tag set."""

    def __init__(self, cfg, ctx: FileContext, rule_id: str):
        super().__init__(cfg)
        self.ctx = ctx
        self.rule_id = rule_id
        self.escaped: set[Tag] = set()
        self.sites: dict[Tag, ast.AST] = {}

    def entry_state(self) -> Env:
        return Env()

    def initial_state(self) -> Env:
        return Env()

    def join(self, a: Env, b: Env) -> Env:
        return a.join(b)

    # ------------------------------------------------------------ helpers
    def _creator_tag(self, value: ast.AST, env: Env) -> Tag | None:
        if not isinstance(value, ast.Call):
            return None
        kind = _creator_kind(value, self.ctx)
        if kind is None and isinstance(value.func, ast.Name) and \
                env.get(f"@cls:{value.func.id}"):
            kind = "shm"
        if kind is None:
            return None
        return Tag(kind, value.lineno, value.col_offset)

    @staticmethod
    def _is_factory_class(value: ast.AST, ctx: FileContext) -> bool:
        """``_shared_memory()`` — a local factory returning the class."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)):
            return False
        for returned in ctx.factory_returns.get(value.func.id, ()):
            if returned == _SHM or returned.endswith("." + _SHM):
                return True
        return False

    # ------------------------------------------------------------ transfer
    def transfer_step(self, step, env: Env) -> Env:
        node = step.node
        if step.kind == ENTER_WITH:
            return env      # context managers close themselves
        if step.kind == STMT and isinstance(node, ast.Assign):
            value = node.value
            if self._is_factory_class(value, self.ctx):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env = env.bind(f"@cls:{target.id}",
                                       {Tag("shmcls", value.lineno)})
                return env
            tag = self._creator_tag(value, env)
            if tag is not None:
                self.sites.setdefault(tag, value)
                env = env.bind(_OPEN, env.get(_OPEN) | {tag})
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        env = env.bind(target.id, {tag})
                    else:
                        # self.buf = SharedMemory(...): the object owns it
                        self.escaped.add(tag)
                return env
            if isinstance(value, ast.Name):     # alias: b2 = buf
                alias = env.get(value.id)
                if alias:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            env = env.bind(target.id, alias)
                    return env
        closed: set[Tag] = set()
        for call in (sub for sub in step_expressions(step)
                     if isinstance(sub, ast.Call)):
            func = call.func
            if self.ctx.resolve_call(call) == "os.close":
                for arg in call.args[:1]:
                    if isinstance(arg, ast.Name):
                        closed |= env.get(arg.id)
            elif isinstance(func, ast.Attribute) and \
                    func.attr in _CLOSERS and \
                    isinstance(func.value, ast.Name):
                closed |= env.get(func.value.id)
        if closed:
            env = env.bind(_OPEN, env.get(_OPEN) - closed)
        for name in step_assigned_names(step):
            env = env.bind(name, frozenset())
        return env

    # ------------------------------------------------------------- escapes
    def visit_step(self, step, env: Env) -> None:
        node = step.node
        if step.kind != STMT:
            return
        if isinstance(node, ast.Return) and node.value is not None:
            self._escape_names(node.value, env)
        elif isinstance(node, ast.Assign) and any(
                not isinstance(t, ast.Name) for t in node.targets):
            self._escape_names(node.value, env)   # self.buf = buf, d[k] = buf
        for sub in step_expressions(step):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)) and \
                    sub.value is not None:
                self._escape_names(sub.value, env)
            elif isinstance(sub, ast.Call):
                self._escape_call_args(sub, env)

    def _escape_names(self, expr: ast.AST, env: Env) -> None:
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Attribute):
                continue    # `return buf.name` reads a field; the handle
            if isinstance(node, ast.Call):      # itself does not escape
                continue    # calls go through _escape_call_args, which
            if isinstance(node, ast.Name):      # knows the os.*
                self.escaped |= env.get(node.id)        # use-not-transfer
                continue                                # exemption
            stack.extend(ast.iter_child_nodes(node))

    def _escape_call_args(self, call: ast.Call, env: Env) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _CLOSERS:
            return                              # buf.close() is not an escape
        target = self.ctx.resolve_call(call)
        if target is not None and target.startswith("os."):
            return      # os.read(fd)/os.fstat(fd) use the descriptor; the
        # caller still owns it — anything else may take ownership
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            self._escape_names(arg, env)


class ResourceLifecycleRule(Rule):
    id = "REP008"
    name = "resource-lifecycle"
    summary = ("every SharedMemory / os.open create must reach close/"
               "unlink on all paths to the normal exit (ownership "
               "transfers exempt)")
    mode = "flow"

    def check_function(self, func, cfg, ctx: FileContext) -> None:
        analysis = _LifecycleAnalysis(cfg, ctx, self.id)
        states = analysis.run()
        still_open = analysis.exit_state(states).get(_OPEN)
        for tag in sorted(still_open - frozenset(analysis.escaped)):
            site = analysis.sites.get(tag)
            if site is None:
                continue
            what = ("SharedMemory segment" if tag.kind == "shm"
                    else "os.open descriptor")
            ctx.report(self.id, site,
                       f"{what} opened here may reach `{func.name}`'s "
                       "return without close/unlink on some path; close "
                       "in a finally (or hand ownership off explicitly)")
