"""Shared pieces of the benchmark: spans, the speed probe, statistics, stamp.

The ledger keeps spans in memory (name, start, end, parent) while a
traced run drives the program's layers, and writes them out as JSON
lines when the run ends.  A layer's reported time is its *self* time:
its span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

#: Seed of every fixed (seed-independent) input: the target subset and the
#: accuracy pass, so the error metrics repeat exactly across runs.
ACCURACY_SEED = 20150817

#: BLAS/OpenMP thread pins; ``run.py`` sets them before numpy is imported
#: and shards, forked from the benchmark process, inherit them.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Median length of one :class:`SpeedProbe` sample on the reference host
#: (the 2-core Xeon the benchmark was tuned on, BLAS on one thread).
#: End-to-end timings are reported at that host's speed.
PROBE_REFERENCE_S = 1.5e-3

#: Probe samples taken within this many seconds of a timing set its scale.
PROBE_WINDOW_S = 2.0

T = TypeVar("T")


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    parent: int = -1
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class _Open:
    """Context manager for one span; closes it and credits the parent."""

    __slots__ = ("ledger", "span")

    def __init__(self, ledger: "Ledger", span: Span) -> None:
        self.ledger = ledger
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        span = self.span
        span.end = time.perf_counter()
        stack = self.ledger._stack
        stack.pop()
        if stack:
            stack[-1].child_s += span.duration_s


class Ledger:
    """In-memory span recorder; nothing is written until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: object) -> _Open:
        parent = self._stack[-1].span_id if self._stack else -1
        span = Span(len(self.spans), name, time.perf_counter(), parent, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return _Open(self, span)

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_ms(self, name: str) -> List[float]:
        return [1e3 * s.self_s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.span_id,
                            "name": s.name,
                            "parent": s.parent,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "attrs": s.attrs,
                        }
                    )
                    + "\n"
                )


class SpeedProbe:
    """A fixed reference kernel, timed beside the program's own work.

    On a shared host the CPU's speed moves by up to a third within a
    minute -- neighbours change clock speed and cache pressure while no
    CPU steal shows -- and every timing moves with it, so runs of the same
    code disagree by more than a useful regression bound.  A sample does
    identical work each time (a 30x30 complex eigendecomposition, a grid
    contraction shaped like the MUSIC scan's, a short Python loop: the mix
    fixes spend their time in), so its length follows the host's speed
    alone.  :meth:`scale` converts a timing to a host on which a sample
    lasts :data:`PROBE_REFERENCE_S`.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        self._hermitian = a @ a.conj().T
        self._phi = np.exp(2j * np.pi * rng.random((60, 2)))
        self._omega = np.exp(2j * np.pi * rng.random((70, 15)))
        self._basis = rng.standard_normal((2, 15, 4)) + 1j * rng.standard_normal(
            (2, 15, 4)
        )
        self.taken_at: List[float] = []
        self.durations: List[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        np.linalg.eigh(self._hermitian)
        partial = np.einsum("am,mnk->ank", self._phi, self._basis)
        np.abs(np.einsum("ank,tn->atk", partial, self._omega)) ** 2
        sum(i * i for i in range(300))
        end = time.perf_counter()
        self.taken_at.append(end)
        self.durations.append(end - start)

    def scale(self, at: float) -> float:
        """Factor to the reference host for a timing that ended at ``at``.

        Uses the median sample within :data:`PROBE_WINDOW_S` of ``at``, or
        the nearest sample when none is that close.
        """
        gaps = np.abs(np.asarray(self.taken_at) - at)
        near = gaps <= PROBE_WINDOW_S
        if not near.any():
            near = gaps == gaps.min()
        return PROBE_REFERENCE_S / float(np.median(np.asarray(self.durations)[near]))

    def timed(self, build: Callable[[], T]) -> Tuple[T, float, float]:
        """``build()``'s result, its time, and that time at reference speed."""
        start = time.perf_counter()
        result = build()
        end = time.perf_counter()
        for _ in range(3):
            self.sample()
        took = end - start
        return result, took, took * self.scale(end)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no samples."""
    return float(np.quantile(values, q)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


class Metrics:
    """Named metrics: value, unit, sample count, and the unscaled value."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str, int]] = {}
        self.raw: Dict[str, float] = {}

    def put(
        self,
        name: str,
        value: float,
        unit: str,
        samples: int,
        raw: Optional[float] = None,
    ) -> None:
        self.values[name] = (float(value), unit, int(samples))
        if raw is not None:
            self.raw[name] = float(raw)

    def put_quantile(
        self, name: str, values: Sequence[float], q: float, unit: str
    ) -> None:
        self.put(name, quantile(values, q), unit, len(values))


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given live children, in MB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD's sha read from ``.git`` inside the checkout, else "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(root: Path, seed: int) -> Dict[str, object]:
    """Where and with what a result was measured."""
    import scipy

    blas: Dict[str, object] = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": {name: os.environ.get(name, "") for name in THREAD_ENV},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(root),
        "seed": seed,
        "argv": sys.argv[1:],
    }


def stage_shares(
    ledger: Ledger, stages: Sequence[str], root: str = "fix"
) -> Dict[str, float]:
    """Each stage's summed self time as a share of the root spans' time."""
    total = sum(s.duration_s for s in ledger.named(root))
    if total <= 0.0:
        return {stage: 0.0 for stage in stages}
    return {
        stage: sum(s.self_s for s in ledger.named(stage)) / total for stage in stages
    }
