"""In-memory spans and counters, recorded from the benchmark's own code.

Spans are opened around calls into the package's layers: directly in the
workload code for the entry points it calls, and through
:func:`wrap_attr`, which swaps a module-level function for a timed
wrapper while a traced batch runs. Nothing inside ``src/`` is edited.
A span's *self time* is its duration minus the time its direct children
cover, so a phase that calls another traced phase (GoGraph's combine
calls ``reorder_subgraph``) is not counted twice.

Durations are *calibrated seconds* (:class:`HostSpeed`): on a shared host
the same Python code runs up to ~1.8x slower for tens of seconds at a
time, which no median over one run removes. A short fixed probe, timed
between cells, measures that speed; each interval is scaled by the probe
times around it, so a change in the program moves the figure and a
change in the host's load mostly does not.

Spark work runs in the JVM while the driver thread waits, so in-line
probes would sample only the gaps between Spark calls. There
:class:`ChildProbe` runs the same probe in a child process, every
``PERIOD_S``, for as long as the workload runs.
"""
from __future__ import annotations

import bisect
import contextlib
import functools
import os
import subprocess
import sys
import time
from collections import defaultdict
from typing import Callable, Iterator


def _probe_work() -> None:
    """Fixed dict-heavy Python work (~7 ms on a 2020s x86 core): the kind
    of code the workloads spend their time in."""
    d: dict[int, int] = {}
    for i in range(40_000):
        k = i & 4095
        d[k] = d.get(k, 0) + 1


class HostSpeed:
    """Converts wall-clock intervals into calibrated seconds.

    ``probe()`` times :func:`_probe_work`; between two probes the host
    is taken to run at the mean of their speeds. An interval's calibrated
    length is its length times ``NOMINAL_S / probe time``, with the time
    spent in probes left out. Every interval measured must lie between
    a first and a last probe.
    """

    #: probe time that defines one calibrated second per wall second.
    NOMINAL_S = 0.007

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable[[], None] = _probe_work,
    ):
        self.clock = clock
        self.work = work
        self.marks: list[tuple[float, float, float]] = []  # (start, end, speed factor)

    def probe(self) -> None:
        t0 = self.clock()
        self.work()
        t1 = self.clock()
        self.marks.append((t0, t1, self.NOMINAL_S / (t1 - t0)))

    def mark(self) -> None:
        """Put a mark at or after the current time (here: probe now)."""
        self.probe()

    def seconds(self, a: float, b: float) -> float:
        starts = [m[0] for m in self.marks]
        total = 0.0
        # gaps between probe i and i + 1 that can overlap [a, b]
        for i in range(max(0, bisect.bisect_right(starts, a) - 1), len(self.marks) - 1):
            (_, e0, f0), (s1, _, f1) = self.marks[i], self.marks[i + 1]
            if e0 >= b:
                break
            lo, hi = max(a, e0), min(b, s1)
            if hi > lo:
                total += (hi - lo) * (f0 + f1) / 2
        return total


class ChildProbe(HostSpeed):
    """A :class:`HostSpeed` whose probes run in a child process.

    The child (``python perfbench/spans.py FILE PERIOD``) times the probe
    every ``PERIOD_S`` and appends its start and end to ``path``. Each
    sample becomes a zero-length mark at its midpoint, so no time is
    left out of an interval. :meth:`mark` waits for the child's next
    sample, so that a mark follows every interval closed before it;
    :meth:`probe` only reads the samples so far, so spans do not wait.
    ``time.perf_counter`` is a system-wide clock, so the child's stamps
    and the parent's intervals are on one time line. The child exits
    with :meth:`close` or when its parent is gone.
    """

    PERIOD_S = 0.05

    def __init__(self, path):
        super().__init__()
        self.path = path
        open(path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(path), str(self.PERIOD_S)],
            stdin=subprocess.DEVNULL,
        )
        self._read = 0  # bytes of ``path`` already parsed

    def _refresh(self) -> None:
        with open(self.path) as f:
            f.seek(self._read)
            chunk = f.read()
        done = chunk.rfind("\n") + 1  # a line still being written waits
        self._read += done
        for line in chunk[:done].splitlines():
            t0, t1 = map(float, line.split())
            mid = (t0 + t1) / 2
            self.marks.append((mid, mid, self.NOMINAL_S / (t1 - t0)))

    def probe(self) -> None:
        self._refresh()

    def mark(self) -> None:
        now = self.clock()
        self._refresh()
        while not self.marks or self.marks[-1][0] <= now:
            if self.proc.poll() is not None:
                raise RuntimeError(f"host-speed probe process exited with {self.proc.returncode}")
            time.sleep(self.PERIOD_S / 5)
            self._refresh()

    def seconds(self, a: float, b: float) -> float:
        self._refresh()
        return super().seconds(a, b)

    def close(self) -> None:
        self.proc.terminate()
        self.proc.wait()


def _child_probe(path: str, period: float) -> None:
    parent = os.getppid()
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            t0 = time.perf_counter()
            _probe_work()
            t1 = time.perf_counter()
            out.write(f"{t0!r} {t1!r}\n")
            time.sleep(period)


class Tracer:
    """Span tree plus named counters for one benchmark batch.

    Opening a span first probes the host speed when ``PROBE_EVERY_S`` has
    passed since the last probe, so probes are spread evenly over a batch
    whatever its cells are. Close a batch with :meth:`probe`.
    """

    PROBE_EVERY_S = 0.25

    def __init__(self, speed: HostSpeed | None = None):
        self.speed = speed or HostSpeed()
        self.clock = self.speed.clock
        # [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        """Time the enclosed block; yields the span record."""
        marks = self.speed.marks
        if not marks or self.clock() - marks[-1][1] >= self.PROBE_EVERY_S:
            self.speed.probe()
        rec = [name, self.clock(), None, self._stack[-1] if self._stack else None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def probe(self) -> None:
        self.speed.mark()

    def length(self, rec: list) -> float:
        """Calibrated duration of one span record."""
        return self.speed.seconds(rec[1], rec[2])

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.length(s) for s in self.spans if s[0] == name)

    def self_time(self, name: str, within: str = "") -> float:
        """Summed self time of ``name``: its duration minus that of its
        direct children whose names start with ``within`` (all by default)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] is not None and s[0].startswith(within):
                child[s[3]] += self.length(s)
        return sum(
            self.length(s) - child[i] for i, s in enumerate(self.spans) if s[0] == name
        )

    def dump(self) -> dict:
        """Spans and counters as plain JSON-serialisable data."""
        return {
            "probes": self.speed.marks,
            "spans": [
                {"name": n, "start": a, "end": b, "parent": p}
                for n, a, b, p in self.spans
            ],
            "counts": dict(self.counts),
        }


@contextlib.contextmanager
def wrap_attr(obj, attr: str, make: Callable[[Callable], Callable]):
    """Replace ``obj.attr`` with ``make(original)`` until the context exits."""
    orig = getattr(obj, attr)
    setattr(obj, attr, functools.wraps(orig)(make(orig)))
    try:
        yield orig
    finally:
        setattr(obj, attr, orig)


def spanned(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """Wrapper factory: every call runs inside ``tracer.span(name)``."""

    def make(fn):
        def wrapper(*a, **kw):
            with tracer.span(name):
                return fn(*a, **kw)

        return wrapper

    return make


if __name__ == "__main__":
    _child_probe(sys.argv[1], float(sys.argv[2]))
