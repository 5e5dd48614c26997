"""Hierarchical tracing: spans, exporters, sampling, and propagation.

A :class:`Tracer` produces one :class:`Span` tree per top-level
operation — for SpotFi, ``locate > ap[k] > sanitize|smooth|music|cluster
> solve`` — with wall-clock timing and free-form attributes (packet
counts, cluster likelihoods, the chosen direct-path AoA, solver
iterations/residuals).  Finished root spans land in an in-memory ring
buffer and are handed to every registered exporter, e.g. a
:class:`JsonlSpanExporter` writing one JSON object per line.

The default tracer everywhere is :data:`NOOP_TRACER`: its ``span()``
returns a shared inert handle whose ``__enter__``/``__exit__``/``set``
do nothing, so instrumented code paths cost a single attribute lookup
when tracing is off.  ``benchmarks/bench_obs_overhead.py`` asserts that
this stays below the regression budget.

Two features make traces usable across a sharded cluster:

* **Head-based sampling** — ``ObsConfig(sample_rate=)`` keeps that
  fraction of root spans.  The decision is made once, when the root
  opens, by a stratified counter (root *i* is kept iff
  ``floor(i * rate)`` advances — no RNG, so replays sample the same
  roots), and applies to the whole tree: children of an unsampled root
  are discarded without becoming accidental new roots.
* **Trace-context propagation** — :meth:`Tracer.current_context`
  captures the innermost open span as a :class:`TraceContext`
  (trace_id, parent span_id, sampled flag) that travels over the
  :mod:`repro.dist` wire protocol; :meth:`Tracer.span` accepts it via
  ``trace_context=`` so a shard-side root adopts the router's trace_id
  and parent.  Give each process a distinct ``service`` name
  (``Tracer(service="shard0")``) and span ids become cluster-unique.

Span identity is deterministic (a per-tracer counter, no RNG, no
global clock dependency beyond ``time.time`` for the start stamp), so
replaying a dataset produces byte-comparable traces modulo timing.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from types import TracebackType
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Type, Union

from repro.errors import ConfigurationError
from repro.obs.config import ObsConfig


@dataclass
class Span:
    """One timed operation in a trace tree.

    Attributes
    ----------
    name:
        Operation name (``locate``, ``ap[0]``, ``music``...).
    span_id:
        Identifier unique within the tracer (``s1``, ``s2``..., or
        ``shard0-s1``... when the tracer has a ``service`` name).
    parent_id:
        Enclosing span's id, or None for a root span.  A root opened
        with a remote :class:`TraceContext` keeps the remote span's id
        here, so the collector can stitch trees across processes.
    trace_id:
        Root span's id, shared by the whole tree (and, under
        propagation, by every tree in the distributed trace).
    start_time_s:
        Wall-clock start (``time.time`` epoch seconds).
    duration_s:
        Elapsed monotonic time (``time.perf_counter`` based).
    status:
        ``"ok"``, or ``"error"`` when the body raised.
    attributes:
        Free-form JSON-serializable key/value pairs.
    children:
        Child spans in start order.
    """

    name: str
    span_id: str
    parent_id: Optional[str]
    trace_id: str
    start_time_s: float
    duration_s: float = 0.0
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    # -- recording -----------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def set_many(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    # -- reading -------------------------------------------------------
    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> List["Span"]:
        """Every span in the tree (including self) with the given name."""
        return [s for s in self.iter_spans() if s.name == name]

    @property
    def end_time_s(self) -> float:
        """Wall-clock end estimate: start plus the measured duration."""
        return self.start_time_s + self.duration_s

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form; inverse of :func:`span_from_dict`."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_time_s": self.start_time_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
            "children": [c.to_dict() for c in self.children],
        }


def span_from_dict(data: Dict[str, Any]) -> Span:
    """Rebuild a :class:`Span` tree from :meth:`Span.to_dict` output."""
    return Span(
        name=data["name"],
        span_id=data["span_id"],
        parent_id=data.get("parent_id"),
        trace_id=data["trace_id"],
        start_time_s=float(data["start_time_s"]),
        duration_s=float(data["duration_s"]),
        status=data.get("status", "ok"),
        attributes=dict(data.get("attributes", {})),
        children=[span_from_dict(c) for c in data.get("children", [])],
    )


def clamp_span_tree(span: Span) -> Span:
    """Clamp every descendant to its parent's ``[start, end]`` window.

    ``start_time_s`` comes from ``time.time`` while ``duration_s`` is
    ``time.perf_counter``-based, so under wall-clock adjustment (NTP
    step, VM resume) a child's reconstructed interval can poke outside
    its parent's.  Consumers that sort or plot by timestamp then see
    impossible trees, so exporters and the finished-span ring clamp at
    export time: a child's start is raised to its parent's start and
    its end lowered to its parent's end (duration floors at zero).
    Mutates ``span`` in place and returns it.
    """
    for child in span.children:
        start = max(child.start_time_s, span.start_time_s)
        end = min(child.end_time_s, span.end_time_s)
        child.start_time_s = start
        child.duration_s = max(0.0, end - start)
        clamp_span_tree(child)
    return span


@dataclass(frozen=True)
class TraceContext:
    """Portable trace coordinates: what crosses a process boundary.

    ``sampled=False`` contexts deliberately carry empty ids — the
    decision *not* to record still has to propagate, otherwise a
    downstream tracer would start a fresh (sampled) trace for work the
    head already voted to drop.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form for the wire's JSON control plane."""
        return {"trace_id": self.trace_id, "span_id": self.span_id, "sampled": self.sampled}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceContext":
        """Tolerant inverse of :meth:`to_dict` (unknown keys ignored)."""
        return cls(
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            sampled=bool(data.get("sampled", True)),
        )


class SpanExporter:
    """Interface: receives every finished *root* span."""

    def export(self, span: Span) -> None:
        """Persist or forward one finished root span (subclasses override)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (default: nothing to do)."""


class JsonlSpanExporter(SpanExporter):
    """Write each finished root span as one JSON line.

    Accepts a path (opened lazily, append mode) or an open text stream.
    Lines round-trip through :func:`load_spans`.
    """

    def __init__(self, path_or_stream: Union[str, "os.PathLike[str]", IO[str]]) -> None:
        if hasattr(path_or_stream, "write"):
            self._stream: Optional[IO[str]] = path_or_stream  # type: ignore[assignment]
            self._path: Optional[str] = None
            self._owns_stream = False
        else:
            self._stream = None
            self._path = str(path_or_stream)
            self._owns_stream = True

    def export(self, span: Span) -> None:
        """Append ``span`` (with its whole subtree) as one JSONL record."""
        if self._stream is None:
            assert self._path is not None
            self._stream = open(self._path, "a", encoding="utf-8")
        json.dump(span.to_dict(), self._stream, separators=(",", ":"))
        self._stream.write("\n")
        self._stream.flush()

    def close(self) -> None:
        """Close the underlying file if this exporter opened it."""
        if self._owns_stream and self._stream is not None:
            self._stream.close()
            self._stream = None


def load_spans(path: Union[str, "os.PathLike[str]"]) -> List[Span]:
    """Read every root span from a :class:`JsonlSpanExporter` file."""
    spans = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


class _ActiveSpan:
    """Context-manager handle for one live span of a real tracer."""

    __slots__ = ("_tracer", "span")

    #: This handle records: attributes and children are kept.
    recording = True

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the underlying span."""
        self.span.set(key, value)

    def set_many(self, **attributes: Any) -> None:
        """Attach several attributes to the underlying span."""
        self.span.set_many(**attributes)

    def fail(self, error: str) -> None:
        """Mark the span failed without raising (e.g. a failed packet).

        Sets status ``"error"`` and, unless already set, the ``error``
        attribute to ``error`` (an exception type name).
        """
        self.span.status = "error"
        self.span.attributes.setdefault("error", error)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is not None:
            self.fail(exc_type.__name__)
        self._tracer._finish(self.span)


class _NoopSpan:
    """Shared inert span handle: every operation is a no-op."""

    __slots__ = ()

    #: Nothing is recorded; call sites may skip attribute building.
    recording = False

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute (tracing is off)."""

    def set_many(self, **attributes: Any) -> None:
        """Discard the attributes (tracing is off)."""

    def fail(self, error: str) -> None:
        """Discard the failure mark (tracing is off)."""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class _UnsampledSpan:
    """Handle for a span inside a sampled-out trace.

    Behaves like :class:`_NoopSpan` (nothing recorded) but keeps the
    tracer's per-thread unsampled depth balanced, so nested ``span()``
    calls under an unsampled root are also discarded instead of opening
    fresh roots, and sampling resumes once the tree unwinds.
    """

    __slots__ = ("_tracer",)

    recording = False

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def set(self, key: str, value: Any) -> None:
        """Discard the attribute (this trace was sampled out)."""

    def set_many(self, **attributes: Any) -> None:
        """Discard the attributes (this trace was sampled out)."""

    def fail(self, error: str) -> None:
        """Discard the failure mark (this trace was sampled out)."""

    def __enter__(self) -> "_UnsampledSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self._tracer._exit_unsampled()


#: Union of every handle ``Tracer.span`` may return.
SpanHandle = Union[_ActiveSpan, _UnsampledSpan, _NoopSpan]


class Tracer:
    """Produces hierarchical spans with an in-memory ring of finished roots.

    Thread-safe: each thread keeps its own span stack (a ``locate`` on
    thread A never adopts thread B's spans as children), while the
    finished-span ring and exporters are shared under a lock.

    Parameters
    ----------
    config:
        :class:`~repro.obs.config.ObsConfig`; controls the ring size,
        the head sampling rate, and whether the pipeline captures stage
        artifacts.
    exporters:
        :class:`SpanExporter` instances receiving every finished root.
    service:
        Optional process identity prefixed onto span ids
        (``shard0-s1``) so traces merged from several processes never
        collide.  Empty (the default) keeps the compact ``s1`` ids.
    """

    enabled = True

    def __init__(
        self,
        config: Optional[ObsConfig] = None,
        exporters: Sequence[SpanExporter] = (),
        service: str = "",
    ) -> None:
        self.config = config or ObsConfig()
        self.exporters = list(exporters)
        self.service = service
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: "deque[Span]" = deque(maxlen=self.config.max_finished_spans)
        self._next_id = 0
        self._root_count = 0

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        trace_context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> SpanHandle:
        """Open a span; use as a context manager.

        The span nests under the innermost span currently open on this
        thread; closing it appends it to its parent (or, for a root, to
        the ring buffer and every exporter).  A root opened while the
        head sampler votes "drop" returns an inert handle instead —
        check ``.recording`` to skip expensive attribute capture.

        ``trace_context`` (roots only; ignored when a parent span is
        open) adopts a remote trace: the new root joins the context's
        trace_id under its span_id, and inherits its sampling decision.
        """
        if self._unsampled_depth() > 0:
            self._enter_unsampled()
            return _UnsampledSpan(self)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and not self._sample_root(trace_context):
            self._enter_unsampled()
            return _UnsampledSpan(self)
        remote = trace_context if parent is None else None
        if remote is not None and not remote.trace_id:
            remote = None
        with self._lock:
            self._next_id += 1
            span_id = f"{self.service}-s{self._next_id}" if self.service else f"s{self._next_id}"
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
            trace_id = parent.trace_id
        elif remote is not None:
            parent_id = remote.span_id or None
            trace_id = remote.trace_id
        else:
            parent_id = None
            trace_id = span_id
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            trace_id=trace_id,
            start_time_s=time.time(),
            attributes=dict(attributes),
        )
        span._started_perf = time.perf_counter()  # type: ignore[attr-defined]
        stack.append(span)
        return _ActiveSpan(self, span)

    @property
    def recording(self) -> bool:
        """Would work done now on this thread be captured?

        False only while the thread is inside a sampled-out trace.
        Instrumented hot paths use this (and the matching attribute on
        span handles) to skip diagnostic-only work — e.g. the pipeline
        falls back to the fast executor fan-out for unsampled fixes.
        """
        return self._unsampled_depth() == 0

    def current_context(self) -> Optional[TraceContext]:
        """Trace coordinates of this thread's innermost open span.

        Returns a ``sampled=False`` context (empty ids) when the thread
        is inside a sampled-out trace — callers should still propagate
        it so downstream tracers honor the head's decision — and None
        when no span is open at all.
        """
        if self._unsampled_depth() > 0:
            return TraceContext(trace_id="", span_id="", sampled=False)
        stack = self._stack()
        if not stack:
            return None
        top = stack[-1]
        return TraceContext(trace_id=top.trace_id, span_id=top.span_id, sampled=True)

    # -- sampling ------------------------------------------------------
    def _sample_root(self, trace_context: Optional[TraceContext]) -> bool:
        """Head decision for a new root: remote verdict, else the counter."""
        if trace_context is not None:
            return trace_context.sampled
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        with self._lock:
            self._root_count += 1
            count = self._root_count
        # Stratified counter sampling: keep root i iff floor(i * rate)
        # advanced past floor((i - 1) * rate).  Deterministic (replays
        # sample identical roots) and evenly spread — exactly
        # round(n * rate) of the first n roots are kept.
        return math.floor(count * rate) > math.floor((count - 1) * rate)

    def _unsampled_depth(self) -> int:
        return int(getattr(self._local, "unsampled_depth", 0))

    def _enter_unsampled(self) -> None:
        self._local.unsampled_depth = self._unsampled_depth() + 1

    def _exit_unsampled(self) -> None:
        self._local.unsampled_depth = max(0, self._unsampled_depth() - 1)

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ConfigurationError(
                f"span {span.name!r} closed out of order; open stack: "
                f"{[s.name for s in stack]}"
            )
        span.duration_s = time.perf_counter() - span._started_perf  # type: ignore[attr-defined]
        del span._started_perf  # type: ignore[attr-defined]
        stack.pop()
        if stack:
            stack[-1].children.append(span)
            return
        clamp_span_tree(span)
        with self._lock:
            self._finished.append(span)
            exporters = list(self.exporters)
        for exporter in exporters:
            exporter.export(span)

    # ------------------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Finished root spans, oldest first (bounded by the ring size)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop every buffered finished span."""
        with self._lock:
            self._finished.clear()

    def close(self) -> None:
        """Close every exporter."""
        for exporter in self.exporters:
            exporter.close()


class NoopTracer:
    """The zero-cost default: ``span()`` returns a shared inert handle.

    ``enabled`` is False so instrumented call sites can skip building
    attribute dicts entirely (``if tracer.enabled: ...``); even without
    that guard, entering a no-op span is a few attribute lookups.
    """

    enabled = False
    config = ObsConfig()
    service = ""
    recording = False

    def span(
        self,
        name: str,
        trace_context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> _NoopSpan:
        """Return the shared no-op span handle."""
        return _NOOP_SPAN

    def current_context(self) -> Optional[TraceContext]:
        """No spans, no context."""
        return None

    def finished_spans(self) -> List[Span]:
        """Always empty: nothing is recorded."""
        return []

    def clear(self) -> None:
        """Nothing to clear."""

    def close(self) -> None:
        """Nothing to close."""


#: Shared no-op tracer; the default for every instrumented component.
NOOP_TRACER = NoopTracer()


def format_span_tree(span: Span, indent: int = 0, _lines: Optional[List[str]] = None) -> str:
    """Render a span tree as an indented text outline.

    Durations are shown in milliseconds; attributes inline, arrays
    elided to their shapes so artifact-laden spans stay readable.
    """
    lines: List[str] = [] if _lines is None else _lines
    attrs = []
    for key, value in span.attributes.items():
        if isinstance(value, dict):
            attrs.append(f"{key}=<{len(value)}-key artifact>")
        elif isinstance(value, (list, tuple)) and len(value) > 6:
            attrs.append(f"{key}=<{len(value)} items>")
        elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
            attrs.append(f"{key}=<{len(value)} records>")
        elif isinstance(value, float):
            attrs.append(f"{key}={value:.4g}")
        else:
            attrs.append(f"{key}={value}")
    suffix = f"  [{', '.join(attrs)}]" if attrs else ""
    marker = "" if span.status == "ok" else f"  !{span.status}"
    lines.append(
        f"{'  ' * indent}{span.name:<{max(1, 24 - 2 * indent)}} "
        f"{span.duration_s * 1e3:9.2f} ms{marker}{suffix}"
    )
    for child in span.children:
        format_span_tree(child, indent + 1, lines)
    return "\n".join(lines)
