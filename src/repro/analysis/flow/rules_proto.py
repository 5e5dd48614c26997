"""PROTO rule family: wire-protocol and telemetry-name integrity.

* **REP017** — message-type exhaustiveness.  Every ``MessageType``
  member must be *produced* somewhere (encoded/sent/returned) and
  *dispatched* somewhere (compared or used as a dispatch key) in the
  dist layer; a one-sided member is either dead wire surface or an
  unhandled message that the v1-tolerant decode path will silently
  drop.  When the protocol module declares a ``REQUEST_REPLY`` pairing
  map, every member must additionally be accounted for as a request, a
  reply, or an explicitly ``UNPAIRED_MESSAGES`` entry.
* **REP018** — counter-name drift.  Every literal handed to
  ``metrics.increment`` / ``record_*`` must come from the canonical
  registry :mod:`repro.obs.counters` (mirroring what REP010 does for
  span names): a typo'd counter silently splits the series and zeroes
  every dashboard built on the canonical name.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow.engine_types import FlowContext, FlowRule
from repro.analysis.flow.graph import ModuleInfo
from repro.analysis.rules import _dotted_name
from repro.obs.counters import (
    CANONICAL_STAGE_COUNTERS,
    STAGE_COUNTER_PATTERNS,
    is_canonical_counter,
    is_canonical_counter_prefix,
    is_canonical_stage_counter,
)

_RECORD_STAGE_METHODS = {
    "record_submit",
    "record_complete",
    "record_error",
    "record_retry",
    "record_timeout",
}


class MessageExhaustivenessRule(FlowRule):
    """REP017 — wire message types must be produced AND dispatched."""

    rule_id = "REP017"
    title = "wire message type without paired produce/dispatch handling"
    hint = "handle the type in the shard dispatch and produce it via encode_message, or remove it"

    def check(self, ctx: FlowContext) -> Iterator[Finding]:
        proto = self._protocol_module(ctx)
        if proto is None:
            return
        members = self._enum_members(proto, ctx.manifest.message_enum)
        if not members:
            return
        produced: Set[str] = set()
        dispatched: Set[str] = set()
        for info in self._scope_modules(ctx, proto):
            file_produced, file_dispatched = self._classify_refs(
                info, ctx.manifest.message_enum
            )
            produced |= file_produced
            dispatched |= file_dispatched
        for name, lineno in sorted(members.items()):
            if name not in produced:
                yield self.finding(
                    proto.path,
                    lineno,
                    f"message type `{ctx.manifest.message_enum}.{name}` is "
                    f"never produced (encoded/sent) anywhere in the dist layer",
                )
            if name not in dispatched:
                yield self.finding(
                    proto.path,
                    lineno,
                    f"message type `{ctx.manifest.message_enum}.{name}` is "
                    f"never dispatched on (compared/matched) anywhere in the dist layer",
                )
        yield from self._check_pairing(ctx, proto, members)

    # -- discovery -----------------------------------------------------
    def _protocol_module(self, ctx: FlowContext) -> Optional[ModuleInfo]:
        for name, info in sorted(ctx.graph.modules.items()):
            if name.endswith(ctx.manifest.protocol_module_suffix):
                if ctx.manifest.message_enum in info.classes:
                    return info
        return None

    def _scope_modules(
        self, ctx: FlowContext, proto: ModuleInfo
    ) -> List[ModuleInfo]:
        package = proto.name.rsplit(".", 1)[0] if "." in proto.name else ""
        modules = []
        for name, info in sorted(ctx.graph.modules.items()):
            if package and (name == package or name.startswith(package + ".")):
                modules.append(info)
            elif not package:
                modules.append(info)
        return modules

    @staticmethod
    def _enum_members(proto: ModuleInfo, enum_name: str) -> Dict[str, int]:
        members: Dict[str, int] = {}
        for stmt in proto.source.tree.body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == enum_name:
                for child in stmt.body:
                    if (
                        isinstance(child, ast.Assign)
                        and len(child.targets) == 1
                        and isinstance(child.targets[0], ast.Name)
                    ):
                        members[child.targets[0].id] = child.lineno
        return members

    # -- reference classification --------------------------------------
    def _classify_refs(
        self, info: ModuleInfo, enum_name: str
    ) -> Tuple[Set[str], Set[str]]:
        """(produced, dispatched) member names referenced in a module.

        A reference inside a comparison, a dict key, or a ``match`` case
        counts as *dispatch*; any other reference (call argument, tuple
        element, return value) counts as *produce*.
        """
        produced: Set[str] = set()
        dispatched: Set[str] = set()
        dispatch_nodes: Set[int] = set()
        for node in ast.walk(info.source.tree):
            if isinstance(node, ast.Compare):
                for sub in ast.walk(node):
                    dispatch_nodes.add(id(sub))
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None:
                        for sub in ast.walk(key):
                            dispatch_nodes.add(id(sub))
            elif node.__class__.__name__ == "Match":  # py>=3.10 only
                for case in node.cases:  # type: ignore[attr-defined]
                    for sub in ast.walk(case.pattern):
                        dispatch_nodes.add(id(sub))
        for node in ast.walk(info.source.tree):
            member = self._enum_ref(node, info, enum_name)
            if member is None:
                continue
            if id(node) in dispatch_nodes:
                dispatched.add(member)
            else:
                produced.add(member)
        return produced, dispatched

    @staticmethod
    def _enum_ref(node: ast.AST, info: ModuleInfo, enum_name: str) -> Optional[str]:
        if not isinstance(node, ast.Attribute):
            return None
        dotted = _dotted_name(node)
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-2] == enum_name:
            return parts[-1]
        return None

    # -- pairing map ----------------------------------------------------
    def _check_pairing(
        self, ctx: FlowContext, proto: ModuleInfo, members: Dict[str, int]
    ) -> Iterator[Finding]:
        pairing = self._module_dict(proto, ctx.manifest.request_reply_name)
        if pairing is None:
            return
        unpaired = self._module_set(proto, ctx.manifest.unpaired_name) or set()
        accounted: Set[str] = set(unpaired)
        for request, reply in pairing:
            accounted.add(request)
            accounted.add(reply)
        for name in sorted(set(pairing_member for pair in pairing for pairing_member in pair) | unpaired):
            if name not in members:
                yield self.finding(
                    proto.path,
                    members.get(name, 0),
                    f"`{ctx.manifest.request_reply_name}`/"
                    f"`{ctx.manifest.unpaired_name}` names unknown message "
                    f"type `{name}`",
                )
        for name, lineno in sorted(members.items()):
            if name not in accounted:
                yield self.finding(
                    proto.path,
                    lineno,
                    f"message type `{ctx.manifest.message_enum}.{name}` is "
                    f"missing from `{ctx.manifest.request_reply_name}` "
                    f"(declare its reply or list it in "
                    f"`{ctx.manifest.unpaired_name}`)",
                )

    def _module_dict(
        self, proto: ModuleInfo, name: str
    ) -> Optional[List[Tuple[str, str]]]:
        node = self._module_assign(proto, name)
        if node is None or not isinstance(node, ast.Dict):
            return None
        pairs: List[Tuple[str, str]] = []
        for key, value in zip(node.keys, node.values):
            key_name = self._member_name(key)
            value_name = self._member_name(value)
            if key_name and value_name:
                pairs.append((key_name, value_name))
        return pairs

    def _module_set(self, proto: ModuleInfo, name: str) -> Optional[Set[str]]:
        node = self._module_assign(proto, name)
        if node is None:
            return None
        names: Set[str] = set()
        for sub in ast.walk(node):
            member = self._member_name(sub)
            if member:
                names.add(member)
        return names

    @staticmethod
    def _module_assign(proto: ModuleInfo, name: str) -> Optional[ast.expr]:
        for stmt in proto.source.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        value = stmt.value
                        # unwrap frozenset({...}) / dict(...) wrappers
                        if isinstance(value, ast.Call) and value.args:
                            return value.args[0]
                        return value
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.target.id == name:
                    value = stmt.value
                    if isinstance(value, ast.Call) and value.args:
                        return value.args[0]
                    return value
        return None

    @staticmethod
    def _member_name(node: Optional[ast.AST]) -> str:
        if isinstance(node, ast.Attribute):
            return node.attr
        return ""


class CounterDriftRule(FlowRule):
    """REP018 — metric counter literals must come from the registry."""

    rule_id = "REP018"
    title = "metric counter emitted with a non-canonical name"
    hint = "use a name from repro.obs.counters.CANONICAL_COUNTERS or register the new counter there"

    def check(self, ctx: FlowContext) -> Iterator[Finding]:
        for name, info in sorted(ctx.graph.modules.items()):
            for node in ast.walk(info.source.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = _dotted_name(func.value).split(".")[-1]
                if func.attr == "increment" and receiver.endswith("metrics"):
                    yield from self._check_name(
                        info, node, is_canonical_counter, is_canonical_counter_prefix,
                        what="counter",
                    )
                elif func.attr == "record_drop" and receiver.endswith("metrics"):
                    yield from self._check_name(
                        info,
                        node,
                        lambda reason: is_canonical_counter(f"drop.{reason}"),
                        lambda prefix: is_canonical_counter_prefix(f"drop.{prefix}"),
                        what="drop reason",
                    )
                elif func.attr in _RECORD_STAGE_METHODS and receiver.endswith(
                    "metrics"
                ):
                    yield from self._check_name(
                        info,
                        node,
                        is_canonical_stage_counter,
                        lambda prefix: self._stage_prefix_ok(
                            prefix, CANONICAL_STAGE_COUNTERS, STAGE_COUNTER_PATTERNS
                        ),
                        what="stage",
                    )
                elif func.attr in ctx.manifest.task_methods:
                    yield from self._check_stage_kwarg(
                        info, node, is_canonical_stage_counter
                    )

    def _check_name(
        self,
        info: ModuleInfo,
        call: ast.Call,
        ok: Callable[[str], bool],
        prefix_ok: Callable[[str], bool],
        what: str,
    ) -> Iterator[Finding]:
        if not call.args:
            return
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if not ok(first.value):
                yield self.finding(
                    info.path,
                    first.lineno,
                    f"{what} {first.value!r} is not in the canonical counter registry",
                )
        elif isinstance(first, ast.JoinedStr):
            prefix = self._literal_prefix(first)
            if prefix and not prefix_ok(prefix):
                yield self.finding(
                    info.path,
                    first.lineno,
                    f"{what} f-string prefix {prefix!r} matches no canonical "
                    f"counter family",
                )

    def _check_stage_kwarg(
        self, info: ModuleInfo, call: ast.Call, ok: Callable[[str], bool]
    ) -> Iterator[Finding]:
        for kw in call.keywords:
            if kw.arg != "stage":
                continue
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                if not ok(kw.value.value):
                    yield self.finding(
                        info.path,
                        kw.value.lineno,
                        f"stage {kw.value.value!r} is not a canonical stage counter",
                    )

    @staticmethod
    def _literal_prefix(joined: ast.JoinedStr) -> str:
        prefix = ""
        for value in joined.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                prefix += value.value
            else:
                break
        return prefix

    @staticmethod
    def _stage_prefix_ok(
        prefix: str,
        canonical: FrozenSet[str],
        patterns: Tuple["re.Pattern[str]", ...],
    ) -> bool:
        if any(stage.startswith(prefix) for stage in canonical):
            return True
        return any(
            pattern.pattern.startswith(re.escape(prefix))
            or re.match(pattern.pattern, prefix) is not None
            for pattern in patterns
        )
