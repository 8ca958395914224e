"""Wall-clock self-profiler for the simulator's own hot paths.

Everything else in the observability stack measures the *simulated*
system in virtual time; this package measures the *simulator* in wall
time.  The simulator's inner loops (ready-index scan, ``_deliver``,
fault injection) carry ``enter``/``exit`` instrumentation guarded by
the usual ``is not None`` no-op check; the workload engine's control
paths (the wave barrier, admission, the fold pass) open
:meth:`EngineProfiler.section` blocks through one helper that is a
no-op without a profiler.  The :class:`EngineProfiler`
aggregates the timings into a call tree keyed by section *path* — so
"deliver under sim under run" and "deliver under a regrant callback"
stay distinct, exactly what a flame graph wants.

Attribution is double-count-free by construction: each node tracks
*self* time (elapsed minus time spent in child sections), so the sum
of every node's ``self_ns`` never exceeds the profiled wall window.
The CI ``profile-smoke`` gate holds that sum to at least 90 % of
measured wall time at MPL 4 — if the engine grows a hot path outside
any section, the gate catches the blind spot.

Output formats:

* :meth:`EngineProfiler.folded` — classic folded-stack lines
  (``run;sim;deliver 1234567``) directly renderable by any flame-graph
  tool;
* :meth:`EngineProfiler.render` — a self-time-sorted table for the
  CLI;
* :meth:`EngineProfiler.to_json` / :meth:`from_json` — the schema-4
  JSONL record, replayable by ``--diagnose --from-events``.

The module-level :func:`profile` context manager installs a profiler
as the process-wide active one (:func:`active_profiler`), which the
executor layers pick up at run start — so profiling a run is::

    with profile() as prof:
        session.run()
    print(prof.render())
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.errors import ReproError


class EngineProfiler:
    """Aggregating enter/exit wall-clock profiler.

    Sections nest: ``enter("sim")``, then ``enter("deliver")`` inside
    it, attributes the inner elapsed to path ``("sim", "deliver")``
    and *subtracts* it from the parent's self time.  The per-call cost
    is two ``perf_counter_ns`` reads and a dict update — cheap enough
    to leave compiled in behind the ``is not None`` guard.
    """

    __slots__ = ("nodes", "_stack", "_started_ns", "_stopped_ns")

    def __init__(self) -> None:
        #: path tuple -> [calls, self_ns, total_ns]
        self.nodes: dict[tuple[str, ...], list[int]] = {}
        #: open frames: [name, entered_ns, child_ns]
        self._stack: list[list] = []
        self._started_ns: int | None = None
        self._stopped_ns: int | None = None

    def __repr__(self) -> str:
        return (f"EngineProfiler(sections={len(self.nodes)}, "
                f"wall_ms={self.wall_ns / 1e6:.1f})")

    # -- lifecycle ----------------------------------------------------

    def start(self) -> None:
        """Open the wall window (idempotent — the first start wins, so
        an outer ``profile()`` block and an engine both calling it
        measure the outermost window)."""
        if self._started_ns is None:
            self._started_ns = time.perf_counter_ns()

    def stop(self) -> None:
        """Close the wall window (last stop wins)."""
        self._stopped_ns = time.perf_counter_ns()

    @property
    def wall_ns(self) -> int:
        """Profiled wall window in nanoseconds (0 before start)."""
        if self._started_ns is None:
            return 0
        end = (self._stopped_ns if self._stopped_ns is not None
               else time.perf_counter_ns())
        return max(end - self._started_ns, 0)

    # -- instrumentation ----------------------------------------------

    def enter(self, name: str) -> None:
        """Open section *name* (nested under any open section)."""
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> None:
        """Close the innermost open section."""
        name, entered, child_ns = self._stack.pop()
        elapsed = time.perf_counter_ns() - entered
        path = tuple(frame[0] for frame in self._stack) + (name,)
        node = self.nodes.get(path)
        if node is None:
            node = self.nodes[path] = [0, 0, 0]
        node[0] += 1
        node[1] += elapsed - child_ns
        node[2] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def section(self, name: str):
        """``with prof.section("admission"): ...``"""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # -- attribution --------------------------------------------------

    def attributed_ns(self) -> int:
        """Total self time across every section — double-count-free,
        so directly comparable against :attr:`wall_ns`."""
        return sum(node[1] for node in self.nodes.values())

    def coverage(self) -> float:
        """Fraction of the wall window attributed to sections."""
        wall = self.wall_ns
        if wall <= 0:
            return 0.0
        return self.attributed_ns() / wall

    # -- output -------------------------------------------------------

    def folded(self) -> str:
        """Folded-stack lines (``a;b;c self_ns``), flame-graph ready."""
        lines = []
        for path in sorted(self.nodes):
            self_ns = self.nodes[path][1]
            if self_ns > 0:
                lines.append(f"{';'.join(path)} {self_ns}")
        return "\n".join(lines)

    def render(self) -> str:
        """Self-time-sorted attribution table for the CLI."""
        wall = self.wall_ns
        if not self.nodes:
            return "profiler: no sections recorded"
        header = (f"{'section':<32} {'calls':>9} {'self_ms':>10} "
                  f"{'total_ms':>10} {'self%':>7}")
        lines = [header, "-" * len(header)]
        ordered = sorted(self.nodes.items(),
                         key=lambda item: item[1][1], reverse=True)
        for path, (calls, self_ns, total_ns) in ordered:
            share = self_ns / wall if wall > 0 else 0.0
            name = ";".join(path)
            if len(name) > 32:
                name = "…" + name[-31:]
            lines.append(f"{name:<32} {calls:>9} {self_ns / 1e6:>10.2f} "
                         f"{total_ns / 1e6:>10.2f} {share:>6.1%}")
        lines.append(f"{'attributed':<32} {'':>9} "
                     f"{self.attributed_ns() / 1e6:>10.2f} "
                     f"{wall / 1e6:>10.2f} {self.coverage():>6.1%}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Plain-dict form (the schema-4 JSONL profile record)."""
        return {
            "wall_ns": self.wall_ns,
            "nodes": [[list(path), calls, self_ns, total_ns]
                      for path, (calls, self_ns, total_ns)
                      in sorted(self.nodes.items())],
        }

    @classmethod
    def from_json(cls, data: dict) -> "EngineProfiler":
        prof = cls()
        prof._started_ns = 0
        prof._stopped_ns = int(data.get("wall_ns", 0))
        for path, calls, self_ns, total_ns in data.get("nodes", ()):
            prof.nodes[tuple(path)] = [calls, self_ns, total_ns]
        return prof


#: The process-wide active profiler (installed by :func:`profile`).
_ACTIVE: EngineProfiler | None = None


def active_profiler() -> EngineProfiler | None:
    """The profiler installed by an enclosing :func:`profile` block,
    or ``None`` — what the executor layers pick up at run start."""
    return _ACTIVE


@contextmanager
def profile():
    """Install a fresh :class:`EngineProfiler` as the active one for
    the duration of the block and yield it (started/stopped around
    the block, so ``coverage()`` is relative to the block's wall)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ReproError("profile() blocks do not nest")
    prof = EngineProfiler()
    _ACTIVE = prof
    prof.start()
    try:
        yield prof
    finally:
        prof.stop()
        _ACTIVE = None
