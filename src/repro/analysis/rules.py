"""Repo-specific AST lint rules.

Each rule has a stable ID (``REP00x``), a one-line title, a rationale
docstring, and an autofix hint.  Rules are deliberately narrow: they
encode *this* repository's conventions (seeded RNG everywhere, typed
error accounting, tracer-owned clocks, picklable process-pool tasks)
rather than generic style.

Suppression: append ``# repro: noqa REP00x`` (comma-separate several
IDs, or omit the IDs to silence every rule) to the offending line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.obs.stages import is_canonical_stage

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\s+(?P<ids>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*))?")

#: Sentinel meaning "every rule is suppressed on this line".
_ALL_RULES = frozenset({"*"})


def parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-indexed line number -> suppressed rule IDs for a source file."""
    suppressed: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        ids = match.group("ids")
        if ids is None:
            suppressed[lineno] = _ALL_RULES
        else:
            suppressed[lineno] = frozenset(part.strip() for part in ids.split(","))
    return suppressed


@dataclass
class SourceFile:
    """A parsed module handed to every rule: path, AST, noqa map."""

    path: str
    tree: ast.Module
    source: str
    noqa: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @staticmethod
    def parse(path: str) -> "SourceFile":
        source = Path(path).read_text()
        tree = ast.parse(source, filename=path)
        return SourceFile(path=path, tree=tree, source=source, noqa=parse_noqa(source))

    def suppressed(self, rule_id: str, line: int) -> bool:
        ids = self.noqa.get(line)
        return ids is not None and (ids is _ALL_RULES or "*" in ids or rule_id in ids)


class Rule:
    """Base class: subclasses set ``rule_id``/``title``/``hint`` and
    implement :meth:`check` yielding :class:`Finding` objects.

    ``check`` should *not* filter noqa suppression — the
    :class:`Linter` applies it uniformly afterwards.
    """

    rule_id: str = "REP000"
    title: str = ""
    hint: str = ""

    def check(self, module: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 0),
            rule_id=self.rule_id,
            message=message,
            hint=self.hint,
        )


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.seed``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


class GlobalNumpyRandomRule(Rule):
    """REP001 — no global ``np.random.*`` calls.

    The legacy ``np.random`` module draws from hidden process-global
    state, which destroys reproducibility (a different import order
    reorders every simulated channel) and is not fork-safe across the
    ``repro.runtime`` process pool.  Every random draw must come from a
    ``numpy.random.Generator`` passed in by the caller.
    """

    rule_id = "REP001"
    title = "global np.random.* call (hidden process-wide RNG state)"
    hint = "accept a seeded numpy.random.Generator parameter and draw from it"

    _ALLOWED = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            if len(parts) >= 3 and parts[0] in {"np", "numpy"} and parts[1] == "random":
                if parts[2] not in self._ALLOWED:
                    yield self.finding(
                        module, node, f"call to global RNG `{name}()`"
                    )


class BroadExceptRule(Rule):
    """REP002 — no bare/broad ``except`` that swallows the error.

    Catching ``Exception`` (or everything) is allowed only when the
    handler either re-raises or records a *typed* error-kind counter
    (the ``record_*`` metrics idiom), so failures stay observable and
    programming errors are never silently eaten.
    """

    rule_id = "REP002"
    title = "bare/broad except without re-raise or typed error accounting"
    hint = "narrow the exception type, re-raise, or call metrics.record_error(kind=...)"

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types: Sequence[ast.expr]
        if isinstance(handler.type, ast.Tuple):
            types = handler.type.elts
        else:
            types = [handler.type]
        for item in types:
            name = _dotted_name(item)
            if name.split(".")[-1] in self._BROAD:
                return True
        return False

    def _is_accounted(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(ast.Module(body=handler.body, type_ignores=[])):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = _dotted_name(node.func).split(".")[-1]
                if name.startswith("record_"):
                    return True
        return False

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_broad(node) and not self._is_accounted(node):
                what = "bare except" if node.type is None else "broad except"
                yield self.finding(
                    module,
                    node,
                    f"{what} neither re-raises nor records a typed error kind",
                )


class MutableDefaultRule(Rule):
    """REP003 — no mutable default arguments.

    A ``def f(x, acc=[])`` default is created once and shared across
    every call (and across every worker that unpickles the function),
    which turns per-call state into cross-call — and cross-process —
    aliasing bugs.
    """

    rule_id = "REP003"
    title = "mutable default argument"
    hint = "default to None and create the object inside the function body"

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "Counter"}

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _dotted_name(node.func).split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in `{node.name}()`",
                    )


class WallClockRule(Rule):
    """REP004 — no wall-clock reads in numeric paths.

    ``repro.core`` and ``repro.channel`` are pure numeric code: results
    must be a function of their inputs alone.  Timing belongs to the
    tracer/metrics layer (``repro.obs``), which owns the clock; a
    ``time.time()`` buried in a numeric path makes outputs
    irreproducible and breaks the runtime's result-caching assumptions.
    """

    rule_id = "REP004"
    title = "wall-clock read inside a numeric path"
    hint = "time the enclosing stage via repro.obs.trace.Tracer / RuntimeMetrics instead"

    _CLOCKS = {
        "time.time",
        "time.monotonic",
        "time.perf_counter",
        "time.process_time",
        "time.time_ns",
        "time.monotonic_ns",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
    _SCOPED_TO = ("repro/core/", "repro/channel/", "repro\\core\\", "repro\\channel\\")

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if not any(part in module.path for part in self._SCOPED_TO):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted_name(node.func)
            if name in self._CLOCKS:
                yield self.finding(module, node, f"wall-clock call `{name}()`")


class FloatEqualityRule(Rule):
    """REP005 — no ``==`` / ``!=`` against float literals in numeric code.

    Exact float comparison silently breaks under rounding: a sanitized
    phase that should be "zero" is ``1e-17``, and an ``x == 0.0`` branch
    flips.  Compare with a tolerance (``math.isclose`` /
    ``np.isclose``), or — for genuine exact-sentinel semantics — state
    the intent with a ``# repro: noqa REP005`` suppression.
    """

    rule_id = "REP005"
    title = "float-literal equality comparison"
    hint = "use math.isclose/np.isclose with an explicit tolerance"

    def _is_float_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self._is_float_literal(node.operand)
        return False

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module, node, f"float literal compared with `{symbol}`"
                    )


class UnpicklableTaskRule(Rule):
    """REP006 — no unpicklable task arguments to executor fan-out calls.

    ``ParallelExecutor.map_ordered`` / ``pool.submit`` ship their task
    function to worker processes by pickling.  Lambdas, locally defined
    closures, and open file handles pickle by *reference* and fail (or
    worse, capture parent-process state that is stale in the worker).
    Task functions must be module-level callables.
    """

    rule_id = "REP006"
    title = "unpicklable task argument handed to a process pool"
    hint = "hoist the task to a module-level function (see estimator.estimate_ap_packets)"

    _FANOUT_METHODS = {"map_ordered", "submit", "apply_async", "imap", "imap_unordered"}

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_defs = {
                child.name
                for stmt in func.body
                for child in ast.walk(stmt)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            lambda_names = {
                stmt.targets[0].id
                for stmt in func.body
                if isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Lambda)
            }
            for node in ast.walk(ast.Module(body=func.body, type_ignores=[])):
                if not isinstance(node, ast.Call):
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in self._FANOUT_METHODS:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    problem = self._unpicklable(arg, local_defs, lambda_names)
                    if problem:
                        yield self.finding(
                            module,
                            arg,
                            f"{problem} passed to `{node.func.attr}()`",
                        )

    def _unpicklable(
        self, arg: ast.expr, local_defs: Set[str], lambda_names: Set[str]
    ) -> str:
        if isinstance(arg, ast.Lambda):
            return "lambda"
        if isinstance(arg, ast.Name):
            if arg.id in local_defs:
                return f"locally defined closure `{arg.id}`"
            if arg.id in lambda_names:
                return f"lambda-valued local `{arg.id}`"
        if isinstance(arg, ast.Call) and _dotted_name(arg.func) == "open":
            return "open file handle"
        return ""


class DunderAllRule(Rule):
    """REP007 — ``__all__`` must match the public surface of each
    ``repro.*`` ``__init__``.

    The API-surface tests, the docs generator, and ``from repro.x
    import *`` all read ``__all__``; a name imported into a package
    ``__init__`` but missing from ``__all__`` (or listed but no longer
    imported) is silent API drift.
    """

    rule_id = "REP007"
    title = "__all__ out of sync with public names"
    hint = "add/remove the listed names so __all__ matches the imports/defs"

    def check(self, module: SourceFile) -> Iterator[Finding]:
        if not module.path.replace("\\", "/").endswith("__init__.py"):
            return
        public: Set[str] = set()
        private: Set[str] = set()
        declared: Optional[Set[str]] = None
        fully_literal = True
        all_node: ast.AST = module.tree
        for stmt in module.tree.body:
            if isinstance(stmt, ast.ImportFrom):
                if stmt.module == "__future__":
                    continue
                for alias in stmt.names:
                    name = alias.asname or alias.name
                    if not name.startswith("_") and name != "*":
                        public.add(name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not stmt.name.startswith("_"):
                    public.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__all__":
                            declared, fully_literal = self._literal_names(stmt)
                            all_node = stmt
                        elif not target.id.startswith("_"):
                            public.add(target.id)
                        else:
                            private.add(target.id)
        if declared is None:
            yield self.finding(module, module.tree, "package __init__ has no __all__")
            return
        missing = sorted(public - declared)
        # Underscore-prefixed assignments (e.g. __version__) may be
        # exported deliberately; they are just never *required*.
        stale = sorted(declared - public - private)
        if missing:
            yield self.finding(
                module, all_node, f"public names missing from __all__: {', '.join(missing)}"
            )
        # A partially dynamic __all__ (e.g. ``[...] + list(LAZY)``) may
        # export names the AST cannot see, so only a fully literal list
        # can be accused of listing undefined names.
        if stale and fully_literal:
            yield self.finding(
                module, all_node, f"__all__ lists undefined names: {', '.join(stale)}"
            )

    def _literal_names(self, stmt: ast.stmt) -> Tuple[Set[str], bool]:
        """(string constants in the __all__ expression, fully-literal?)."""
        value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
        names: Set[str] = set()
        fully_literal = isinstance(value, (ast.List, ast.Tuple))
        for node in ast.walk(value) if value is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        return names, fully_literal


class NonCanonicalStageRule(Rule):
    """REP010 — tracer span names must come from the stage registry.

    Dashboards, the SLO tracker and the cross-process trace collector
    key on span names; a typo'd ``tracer.span("sanitise")`` silently
    creates a stage no alert or rollup will ever see.  Every string
    literal handed to a ``*.tracer.span(...)`` call must therefore be
    one of :data:`repro.obs.stages.CANONICAL_STAGES` (or match a
    registered pattern like ``ap[3]``).  Dynamic names (f-strings,
    variables) are the caller's responsibility and are not flagged.
    """

    rule_id = "REP010"
    title = "tracer span opened with a non-canonical stage name"
    hint = "use a name from repro.obs.stages.CANONICAL_STAGES or register the new stage there"

    def check(self, module: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "span":
                continue
            receiver = _dotted_name(func.value).split(".")[-1]
            if not receiver.lower().endswith("tracer"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if not is_canonical_stage(first.value):
                yield self.finding(
                    module,
                    first,
                    f"span name {first.value!r} is not in the canonical stage registry",
                )


#: Every AST lint rule, in ID order.  The contract cross-check pass adds
#: REP008/REP009 (see :mod:`repro.analysis.contracts_static`).
DEFAULT_RULES: Tuple[Rule, ...] = (
    GlobalNumpyRandomRule(),
    BroadExceptRule(),
    MutableDefaultRule(),
    WallClockRule(),
    FloatEqualityRule(),
    UnpicklableTaskRule(),
    DunderAllRule(),
    NonCanonicalStageRule(),
)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen: Set[str] = set()
    for raw in paths:
        p = Path(raw)
        candidates = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                yield key


class Linter:
    """Runs a rule set over source files, applying noqa suppression."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules) if rules is not None else DEFAULT_RULES

    def lint_file(self, path: str) -> List[Finding]:
        try:
            module = SourceFile.parse(path)
        except SyntaxError as exc:
            return [
                Finding(
                    path=path,
                    line=exc.lineno or 0,
                    rule_id="REP000",
                    message=f"syntax error: {exc.msg}",
                )
            ]
        findings: List[Finding] = []
        for rule in self.rules:
            for finding in rule.check(module):
                if not module.suppressed(finding.rule_id, finding.line):
                    findings.append(finding)
        return findings

    def lint_paths(self, paths: Iterable[str]) -> List[Finding]:
        findings: List[Finding] = []
        for path in iter_python_files(paths):
            findings.extend(self.lint_file(path))
        return sorted(findings)
