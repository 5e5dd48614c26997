"""PERF rule family: hot-path allocation and copy discipline.

SpotFi's serving cost is per-packet 2-D MUSIC; speed work hinges on
the hot path staying allocation- and copy-clean.  These rules flag
the regressions that erode it:

* **REP011** — per-packet allocation reachable from a hot root: numpy
  allocators inside loops, index/identity arrays (``np.arange`` /
  ``np.eye``) rebuilt on every call, and ``np.concatenate``-of-
  comprehension list building.
* **REP012** — implicit complex→real downcasts (``.real``,
  ``astype(float)``) on complex-tainted values, and avoidable
  ``np.copy`` / ``.copy()`` of complex arrays in hot code.
* **REP013** — complex128 arrays crossing a pickling boundary
  (executor ``map_ordered``/``submit``, ``Process(target=...)``)
  without a shared-memory or raw-bytes path: each CSI matrix is
  serialized element-wise per task, the copy a shared-memory path
  would remove.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.findings import Finding
from repro.analysis.flow.dataflow import LocalFacts, compute_local_facts
from repro.analysis.flow.engine_types import FlowContext, FlowRule
from repro.analysis.flow.graph import FunctionInfo, PicklingBoundary
from repro.analysis.rules import _dotted_name

_NUMPY_MODULES = {"np", "numpy"}
_LOOP_ALLOCATORS = {
    "zeros", "empty", "ones", "full", "arange", "eye", "identity", "linspace",
}
_REBUILT_EVERY_CALL = {"arange", "eye", "identity"}
_LIST_BUILDERS = {"concatenate", "stack", "vstack", "hstack", "column_stack"}
_FLOAT_DTYPES = {
    "float", "float32", "float64", "f4", "f8", "<f4", "<f8", "double", "single",
}


def _numpy_call_name(call: ast.Call) -> str:
    """``zeros`` for ``np.zeros(...)`` / ``numpy.zeros(...)``, else ''."""
    dotted = _dotted_name(call.func)
    parts = dotted.split(".")
    if len(parts) == 2 and parts[0] in _NUMPY_MODULES:
        return parts[1]
    return ""


def _loops_containing(fn_node: ast.AST) -> List[ast.AST]:
    return [n for n in ast.walk(fn_node) if isinstance(n, (ast.For, ast.While))]


def _nodes_in(loop: ast.AST) -> Set[int]:
    return {id(n) for n in ast.walk(loop)}


class PerPacketAllocationRule(FlowRule):
    """REP011 — per-packet allocation in hot-path-reachable code.

    An allocation inside a function reachable from ``SpotFi.locate`` /
    ``estimate_ap`` / a pool task runs once per packet (or worse, once
    per loop iteration per packet).  Index vectors and identity
    matrices are loop-invariant by construction — rebuild them once and
    cache them.  Allocation behind the declared cache boundaries
    (``SteeringCache.grids_for``) is amortized and not flagged.
    """

    rule_id = "REP011"
    title = "per-packet allocation reachable from the hot path"
    hint = "hoist the allocation out of the hot path or cache it (see repro.runtime.cache)"

    def check(self, ctx: FlowContext) -> Iterator[Finding]:
        for qualname in sorted(ctx.taints.hot):
            if ctx.manifest.is_cache_boundary(qualname):
                continue  # allocation here happens only on cache miss
            fn = ctx.graph.functions[qualname]
            loop_nodes: Set[int] = set()
            for loop in _loops_containing(fn.node):
                loop_nodes |= _nodes_in(loop) - {id(loop)}
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                name = _numpy_call_name(node)
                if not name:
                    continue
                if name in _LOOP_ALLOCATORS and id(node) in loop_nodes:
                    yield self.finding(
                        fn.path,
                        node.lineno,
                        f"`np.{name}` allocates inside a loop in hot "
                        f"function `{fn.simple_name}`",
                    )
                elif name in _REBUILT_EVERY_CALL:
                    yield self.finding(
                        fn.path,
                        node.lineno,
                        f"`np.{name}` rebuilds a loop-invariant array on "
                        f"every call of hot function `{fn.simple_name}`",
                    )
                elif name in _LIST_BUILDERS and any(
                    isinstance(arg, (ast.ListComp, ast.GeneratorExp))
                    for arg in node.args
                ):
                    yield self.finding(
                        fn.path,
                        node.lineno,
                        f"`np.{name}` over a comprehension builds a "
                        f"per-call list of arrays in hot function "
                        f"`{fn.simple_name}`",
                    )


class ComplexDowncastRule(FlowRule):
    """REP012 — implicit complex→real downcast or avoidable copy.

    ``.real`` and ``astype(float)`` on a complex-tainted value silently
    discard the imaginary half of the CSI (NumPy emits at most a
    ComplexWarning); phase information *is* the signal in SpotFi, so a
    downcast is a correctness bug until proven intentional.  Copies of
    complex arrays on the hot path double the largest allocations in
    the pipeline.
    """

    rule_id = "REP012"
    title = "complex→real downcast or avoidable complex copy"
    hint = "keep complex128 end-to-end; take np.abs/np.angle explicitly, avoid .copy() on the hot path"

    def check(self, ctx: FlowContext) -> Iterator[Finding]:
        for qualname, fn in sorted(ctx.graph.functions.items()):
            facts = compute_local_facts(fn, ctx.graph, ctx.manifest, ctx.contracts)
            hot = qualname in ctx.taints.hot
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Attribute) and node.attr == "real":
                    if self._tainted(facts, node.value, ctx):
                        yield self.finding(
                            fn.path,
                            node.lineno,
                            f"`.real` discards the imaginary part of a "
                            f"complex value in `{fn.simple_name}`",
                        )
                elif isinstance(node, ast.Call):
                    yield from self._check_call(ctx, fn, facts, node, hot)

    def _check_call(
        self,
        ctx: FlowContext,
        fn: FunctionInfo,
        facts: LocalFacts,
        node: ast.Call,
        hot: bool,
    ) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if self._tainted(facts, func.value, ctx) and node.args:
                dtype = self._dtype_name(node.args[0])
                if dtype in _FLOAT_DTYPES:
                    yield self.finding(
                        fn.path,
                        node.lineno,
                        f"`astype({dtype})` downcasts a complex value to "
                        f"real in `{fn.simple_name}`",
                    )
        if not hot:
            return
        if isinstance(func, ast.Attribute) and func.attr == "copy" and not node.args:
            if self._tainted(facts, func.value, ctx):
                yield self.finding(
                    fn.path,
                    node.lineno,
                    f"`.copy()` duplicates a complex array in hot "
                    f"function `{fn.simple_name}`",
                )
        elif _numpy_call_name(node) == "copy" and node.args:
            if self._tainted(facts, node.args[0], ctx):
                yield self.finding(
                    fn.path,
                    node.lineno,
                    f"`np.copy` duplicates a complex array in hot "
                    f"function `{fn.simple_name}`",
                )
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            keywords = {kw.arg: kw.value for kw in node.keywords}
            copy_kw = keywords.get("copy")
            if (
                isinstance(copy_kw, ast.Constant)
                and copy_kw.value is True
                and self._tainted(facts, func.value, ctx)
            ):
                yield self.finding(
                    fn.path,
                    node.lineno,
                    f"`astype(..., copy=True)` duplicates a complex array "
                    f"in hot function `{fn.simple_name}`",
                )

    @staticmethod
    def _dtype_name(arg: ast.expr) -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        dotted = _dotted_name(arg)
        return dotted.split(".")[-1] if dotted else ""

    @staticmethod
    def _tainted(facts: LocalFacts, expr: ast.expr, ctx: FlowContext) -> bool:
        from repro.analysis.flow.dataflow import _expr_is_complex

        return _expr_is_complex(facts, expr, ctx.manifest)


class PickledComplexRule(FlowRule):
    """REP013 — complex128 arrays crossing a pickling boundary.

    ``map_ordered``/``submit``/``Process(target=...)`` pickle their
    arguments into the worker process.  A complex128 CSI matrix pickled
    per task is serialized, copied, and deserialized on every packet —
    the dominant distribution overhead measured in BENCH_dist.json.
    Approved crossings are the raw-bytes wire encoders
    (``repro.dist.protocol``) and, once one exists, shared memory;
    anything else needs an explicit suppression.
    """

    rule_id = "REP013"
    title = "complex array pickled across a process boundary"
    hint = "ship raw bytes (repro.dist.protocol) or shared memory instead of pickling complex arrays"

    def check(self, ctx: FlowContext) -> Iterator[Finding]:
        for boundary in ctx.graph.pickling_boundaries:
            caller = ctx.graph.functions.get(boundary.caller)
            if caller is None or ctx.manifest.is_raw_bytes_ok(boundary.caller):
                continue
            facts = compute_local_facts(caller, ctx.graph, ctx.manifest, ctx.contracts)
            payload_args: List[ast.expr] = []
            if boundary.kind == "task":
                payload_args = list(boundary.call.args[1:])
            else:  # Process(target=..., args=(...))
                payload_args = [
                    kw.value for kw in boundary.call.keywords if kw.arg == "args"
                ]
            for arg in payload_args:
                if ComplexDowncastRule._tainted(facts, arg, ctx):
                    yield self.finding(
                        boundary.path,
                        boundary.lineno,
                        f"complex-tainted argument pickled through "
                        f"`{self._seam_name(boundary)}` in "
                        f"`{caller.simple_name}`",
                    )
                    break

    @staticmethod
    def _seam_name(boundary: PicklingBoundary) -> str:
        func = boundary.call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        return _dotted_name(func) or "fan-out"
