"""REP004 — golden-model parity: optimized twins must track their golden.

The batched VC mesh is validated flit-for-flit against the scalar
:class:`~repro.noc.mesh.vc.VCMesh` (``tests/test_vcmesh_equivalence.py``),
but that suite only covers API surface *both* classes expose.  This rule
compares the public API of each watched class pair across files during
:meth:`finalize`:

* a public method/property on one side and not the other;
* property-vs-method kind drift (callers would need ``()`` on one side);
* required (default-less) parameter drift in name or order.

Extra *defaulted* parameters on either side are allowed — that is how
an optimized twin grows opt-in features without forking the golden
model's contract.

The same discipline covers the vectorized measurement engine and the
batched mesh kernel (:data:`WATCHED_FUNCTION_PAIRS`): each scalar
measurement API and its ``repro.core.fastpath`` twin — and each mesh
entry point and its ``repro.noc.mesh.fastmesh`` twin — must agree on
required parameters, and the scalar side must keep its ``engine=``
selector — otherwise the fast path exists but the equivalence suite and
callers cannot reach it.
"""

from __future__ import annotations

import ast

from repro.analysis.lint.context import FileContext
from repro.analysis.lint.rules import Rule

#: (module_a, class_a, module_b, class_b) pairs kept in lockstep.
WATCHED_PAIRS = (
    ("repro.noc.mesh.vc", "VCMesh",
     "repro.noc.mesh.vcmesh_batched", "BatchedVCMesh"),
)

#: (scalar_module, scalar_fn, fast_module, fast_fn) pairs: the scalar
#: golden APIs and their vectorized (fastpath) / batched (fastmesh)
#: twins.
WATCHED_FUNCTION_PAIRS = (
    ("repro.core.latency_bench", "measured_latency_matrix",
     "repro.core.fastpath.latency", "vectorized_latency_matrix"),
    ("repro.core.bandwidth_bench", "slice_bandwidth_distribution",
     "repro.core.fastpath.bandwidth", "vectorized_bandwidth_distribution"),
    ("repro.core.bandwidth_bench", "slice_saturation_curve",
     "repro.core.fastpath.bandwidth", "vectorized_saturation_curve"),
    ("repro.noc.mesh.loadcurve", "sweep_load",
     "repro.noc.mesh.fastmesh", "batched_sweep_load"),
    ("repro.noc.mesh.traffic", "run_fairness_experiment",
     "repro.noc.mesh.fastmesh", "batched_fairness_experiment"),
    ("repro.noc.mesh.traffic", "run_fairness_experiments",
     "repro.noc.mesh.fastmesh", "batched_fairness_experiments"),
    ("repro.noc.mesh.interfaces", "run_reply_bottleneck",
     "repro.noc.mesh.fastmesh", "batched_reply_bottleneck"),
    ("repro.noc.mesh.vc", "run_shared_network_experiment",
     "repro.noc.mesh.vcmesh_batched", "batched_shared_network_experiment"),
    ("repro.noc.mesh.vc", "sweep_vc_grid",
     "repro.noc.mesh.vcmesh_batched", "batched_vc_grid"),
)

#: Defaulted parameters the scalar side owns (execution knobs the
#: vectorized twin does not mirror).
_SCALAR_ONLY_PARAMS = frozenset({"jobs", "engine"})

#: The leading batch-selector parameter of lane-batched twins
#: (``BatchedVCMesh.inject(lane, packet)`` mirrors
#: ``VCMesh.inject(packet)``): stripped before required-param
#: comparison.
_LANE_PARAM = "lane"

#: Public members a batched twin may carry beyond the scalar model:
#: lane-batch accessors with no scalar counterpart by design.
_BATCHED_ONLY_MEMBERS = frozenset({"last_ejected"})


def _strip_lane(required: list) -> list:
    return required[1:] if required[:1] == [_LANE_PARAM] else required


def _required_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple:
    """Names of default-less positional parameters, ``self`` excluded."""
    args = fn.args
    positional = args.posonlyargs + args.args
    required = positional[:len(positional) - len(args.defaults)]
    names = [a.arg for a in required]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _class_fact(path: str, node: ast.ClassDef) -> dict:
    """JSON-serializable public-API descriptor of a watched class."""
    members: dict[str, dict] = {}
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name.startswith("_") and stmt.name != "__init__":
            continue
        decorators = {d.id for d in stmt.decorator_list
                      if isinstance(d, ast.Name)}
        members[stmt.name] = {
            "kind": "property" if "property" in decorators else "method",
            "required": list(_required_params(stmt)),
            "line": stmt.lineno,
            "snippet": f"def {stmt.name}",
        }
    return {"path": path, "line": node.lineno, "members": members}


def _function_fact(path: str, node) -> dict:
    args = node.args
    return {"path": path, "line": node.lineno,
            "required": list(_required_params(node)),
            "params": [a.arg for a in
                       args.posonlyargs + args.args + args.kwonlyargs],
            "snippet": f"def {node.name}"}


class GoldenModelParityRule(Rule):
    id = "REP004"
    name = "golden-model-parity"
    summary = ("golden-model APIs must not drift: VCMesh vs BatchedVCMesh "
               "(methods, kinds, required params) and scalar measurement "
               "functions vs their repro.core.fastpath twins")
    interests = ("ClassDef", "FunctionDef")

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.ClassDef):
            for pair in WATCHED_PAIRS:
                for module, cls in (pair[:2], pair[2:]):
                    if ctx.module == module and node.name == cls:
                        ctx.add_fact(self.id, {
                            "module": module, "name": cls,
                            "api": _class_fact(ctx.path, node)})
            return
        if node.col_offset != 0:        # only module-level functions
            return
        for pair in WATCHED_FUNCTION_PAIRS:
            for module, fn in (pair[:2], pair[2:]):
                if ctx.module == module and node.name == fn:
                    ctx.add_fact(self.id, {
                        "module": module, "name": fn,
                        "fn": _function_fact(ctx.path, node)})

    def finalize(self, facts: list[dict], report) -> None:
        classes: dict[tuple[str, str], dict] = {}
        functions: dict[tuple[str, str], dict] = {}
        for fact in facts:
            key = (fact["module"], fact["name"])
            if "api" in fact:
                classes[key] = fact["api"]
            else:
                functions[key] = fact["fn"]
        for mod_a, cls_a, mod_b, cls_b in WATCHED_PAIRS:
            api_a = classes.get((mod_a, cls_a))
            api_b = classes.get((mod_b, cls_b))
            if api_a is None or api_b is None:
                continue        # pair not in the linted path set
            self._diff(report, cls_a, api_a, cls_b, api_b,
                       check_common=True)
            # reverse direction only hunts members missing on the first
            # side; common-member mismatches were reported above
            self._diff(report, cls_b, api_b, cls_a, api_a,
                       check_common=False)
        for mod_s, fn_s, mod_v, fn_v in WATCHED_FUNCTION_PAIRS:
            scalar = functions.get((mod_s, fn_s))
            if scalar is None:
                continue        # scalar module not in the linted path set
            fast = functions.get((mod_v, fn_v))
            if fast is None:
                report(self.id, scalar["path"], scalar["line"], 0,
                       f"`{fn_s}` has no vectorized twin `{mod_v}.{fn_v}`; "
                       "the fastpath equivalence suite cannot cover it",
                       scalar["snippet"])
                continue
            scalar_req = tuple(p for p in scalar["required"]
                               if p not in _SCALAR_ONLY_PARAMS)
            fast_req = tuple(fast["required"])
            if scalar_req != fast_req:
                report(self.id, fast["path"], fast["line"], 0,
                       f"`{fn_v}` required parameters differ from the "
                       f"scalar golden model: {fn_v}{fast_req} vs "
                       f"{fn_s}{scalar_req}", fast["snippet"])
            if "engine" not in scalar["params"]:
                report(self.id, scalar["path"], scalar["line"], 0,
                       f"`{fn_s}` lacks the `engine=` selector; the "
                       f"vectorized twin `{fn_v}` is unreachable from the "
                       "measurement API", scalar["snippet"])

    def _diff(self, report, name_a: str, api_a: dict,
              name_b: str, api_b: dict, *, check_common: bool) -> None:
        """Findings for members of ``a`` that ``b`` lacks or mismatches.

        Anchored at the lagging side (``b``'s class line for missing
        members) so the finding points where the fix goes.
        """
        for member, info in sorted(api_a["members"].items()):
            if member in _BATCHED_ONLY_MEMBERS:
                continue
            other = api_b["members"].get(member)
            if other is None:
                report(self.id, api_b["path"], api_b["line"], 0,
                       f"{name_b} is missing public {info['kind']} "
                       f"`{member}` present on {name_a} "
                       f"({api_a['path']}:{info['line']}); the equivalence "
                       "suite cannot cover it",
                       f"class {name_b}")
                continue
            if not check_common:
                continue
            if other["kind"] != info["kind"]:
                report(self.id, api_b["path"], other["line"], 0,
                       f"`{member}` is a {other['kind']} on {name_b} but a "
                       f"{info['kind']} on {name_a}; callers cannot treat "
                       "the models interchangeably", other["snippet"])
            elif _strip_lane(other["required"]) != _strip_lane(
                    info["required"]):
                report(self.id, api_b["path"], other["line"], 0,
                       f"`{member}` required parameters differ: "
                       f"{name_b}{tuple(other['required'])} vs "
                       f"{name_a}{tuple(info['required'])}",
                       other["snippet"])
