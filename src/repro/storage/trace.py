"""Per-query I/O tracing and access-pattern analysis.

Disk-access *counts* (the paper's metric) treat every page read alike,
but real disks reward sequential access.  The tracer records the exact
sequence of ``(segment, page)`` physical reads during a query so the
benchmark suite can characterise each method's access pattern —
e.g. HDoV's long sequential version scans versus PM's scattered
B+-tree chasing — adding texture the paper's single number hides.

Usage::

    tracer = IOTracer.attach(database.stats)
    run_query()
    trace = tracer.detach()
    print(trace.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.stats import DiskStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry

__all__ = ["IOTracer", "IOTrace"]


@dataclass
class IOTrace:
    """A recorded sequence of physical page reads."""

    reads: list[tuple[str, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reads)

    def runs(self) -> list[int]:
        """Lengths of maximal sequential runs (same segment,
        consecutive ascending page numbers)."""
        if not self.reads:
            return []
        lengths = []
        run = 1
        for (seg_a, page_a), (seg_b, page_b) in zip(
            self.reads, self.reads[1:]
        ):
            if seg_b == seg_a and page_b == page_a + 1:
                run += 1
            else:
                lengths.append(run)
                run = 1
        lengths.append(run)
        return lengths

    @property
    def sequentiality(self) -> float:
        """Fraction of reads that continue a sequential run (0..1)."""
        if len(self.reads) <= 1:
            return 0.0
        sequential = len(self.reads) - len(self.runs())
        return sequential / (len(self.reads) - 1)

    def by_segment(self) -> dict[str, int]:
        """Read counts per segment."""
        counts: dict[str, int] = {}
        for segment, _ in self.reads:
            counts[segment] = counts.get(segment, 0) + 1
        return counts


class IOTracer:
    """Records the pager's physical-read sequence via
    :attr:`DiskStats.trace_hook`.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is supplied,
    every read also increments the per-segment counter
    ``io.reads.<segment>`` there, so traces and engine metrics land in
    one report.
    """

    def __init__(
        self, stats: DiskStats, registry: "MetricsRegistry | None" = None
    ) -> None:
        self._stats = stats
        self._registry = registry
        self._attached = False
        self.trace = IOTrace()

    @classmethod
    def attach(
        cls, stats: DiskStats, registry: "MetricsRegistry | None" = None
    ) -> "IOTracer":
        """Start recording physical reads on ``stats``.

        Only one tracer may be attached at a time.
        """
        if stats.trace_hook is not None:
            raise StorageError("a tracer is already attached")
        tracer = cls(stats, registry)
        # Bind once: bound-method expressions create fresh objects per
        # access, which would defeat identity checks at detach time.
        tracer._hook = tracer._on_read
        stats.trace_hook = tracer._hook
        tracer._attached = True
        return tracer

    def _on_read(self, segment: str, page_no: int) -> None:
        self.trace.reads.append((segment, page_no))
        if self._registry is not None:
            self._registry.counter(f"io.reads.{segment}").inc()

    def detach(self) -> IOTrace:
        """Stop recording and return the trace."""
        if not self._attached:
            raise StorageError("tracer was not attached")
        if self._stats.trace_hook is self._hook:
            self._stats.trace_hook = None
        self._attached = False
        return self.trace

    def __enter__(self) -> "IOTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        if self._attached:
            self.detach()
