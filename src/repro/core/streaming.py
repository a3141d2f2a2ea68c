"""Progressive terrain streaming over the query engine.

The paper's introduction motivates MTMs with interactive walkthroughs
on "ordinary desktops or wireless devices and Internet applications":
a client keeps a terrain mesh for its current view and, as the view
moves, wants *deltas* — which points entered the approximation, which
left — rather than full result sets.

:class:`EngineSession` is that stream.  Updates are routed through
:meth:`~repro.core.engine.QueryEngine.submit`, so sessions compose
with the semantic cache, fault retries, deadlines, and
:class:`~repro.core.admission.CostGovernor` admission (tenant-tagged —
session queries drain the same token buckets as everything else).
Each update is diffed against the session's active set
(:func:`diff_active`) and encoded as a versioned delta frame
(:mod:`repro.core.wire`) a stateless
:class:`~repro.core.wire.ClientMesh` splices without any server-side
topology bookkeeping — the property that makes DM suit thin clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.query import DMQueryResult
from repro.core.wire import (
    FLAG_DEGRADED,
    FLAG_KEYFRAME,
    DeltaFrame,
    encode_frame,
)
from repro.errors import QueryError
from repro.geometry.primitives import Rect
from repro.storage.record import DMNodeRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import EngineRequest, QueryEngine, QueryOutcome

__all__ = [
    "SessionDelta",
    "FrameResult",
    "EngineSession",
]


@dataclass
class SessionDelta:
    """The outcome of one view update.

    Attributes:
        added: records newly entering the approximation (what a server
            would transmit).
        removed: ids leaving the approximation (clients drop these).
        kept: number of records carried over unchanged.
    """

    added: list[DMNodeRecord] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    kept: int = 0

    @property
    def churn(self) -> float:
        """Fraction of the new view that had to be transmitted."""
        total = len(self.added) + self.kept
        return len(self.added) / total if total else 0.0


def diff_active(
    active: dict[int, DMNodeRecord], result: DMQueryResult
) -> SessionDelta:
    """Diff a fresh query result against a session's active set."""
    new_ids = set(result.nodes)
    old_ids = set(active)
    return SessionDelta(
        added=[result.nodes[node_id] for node_id in sorted(new_ids - old_ids)],
        removed=sorted(old_ids - new_ids),
        kept=len(new_ids & old_ids),
    )


@dataclass
class FrameResult:
    """One engine-session update: the wire frame plus its provenance.

    ``payload`` is what goes on the wire; ``frame`` is its decoded
    form (identical to what the client will see); ``delta`` carries
    the diff accounting; ``outcome`` is the engine's verdict with
    per-query metrics, degraded/shed flags, and attempt counts.
    """

    payload: bytes
    frame: DeltaFrame
    delta: SessionDelta
    outcome: "QueryOutcome"


class EngineSession:
    """One client's delta-transmission stream over a query engine.

    Every :meth:`update` submits the request through
    :meth:`QueryEngine.submit` under the session's tenant — admission
    control, retries, deadline degradation, and the semantic cache all
    apply — then diffs the result against the session's active set and
    encodes the delta as a wire frame.  The first frame (and any
    :meth:`resync`) is a keyframe; degraded or shed answers produce
    valid frames flagged ``FLAG_DEGRADED``.

    A failed update (the outcome carries an error) raises it and
    leaves the session state untouched, so the client's mesh and the
    server's view of it cannot drift.

    A frame is a delta only when no patch overlapping the active
    set's view has committed since the epoch of the answer the active
    set came from; otherwise it is a keyframe: the client's spliced
    mesh would mix pre-patch records with a post-patch answer, and no
    incremental delta can reconcile node ids across epochs.  The
    session keeps that epoch and that view and nothing else: the
    patch history is the engine's
    (:meth:`QueryEngine.patched_since`), so a session is told of
    every commit without registering anywhere: construct one with
    ``EngineSession(engine, session_id)``.

    Not thread-safe: a session is one client's ordered stream.  Use
    one :class:`EngineSession` per client; the engine underneath is
    the concurrency layer.
    """

    def __init__(
        self,
        engine: "QueryEngine",
        session_id: str,
        tenant: str = "default",
    ) -> None:
        self._engine = engine
        self._session_id = session_id
        self._tenant = tenant
        self._active: dict[int, DMNodeRecord] = {}
        self._seq = 0
        # The epoch of the answer the active set came from (until the
        # first update: the epoch the session was opened at) and that
        # answer's view — what patched_since is asked about.
        self._epoch = engine.epoch
        self._last_roi: "Rect | None" = None

    # -- state ------------------------------------------------------------

    @property
    def session_id(self) -> str:
        """The caller-chosen session identifier."""
        return self._session_id

    @property
    def tenant(self) -> str:
        """The tenant whose token bucket this session drains."""
        return self._tenant

    @property
    def active_ids(self) -> set[int]:
        """Ids in the server's view of the client mesh."""
        return set(self._active)

    @property
    def next_seq(self) -> int:
        """Sequence number the next frame will carry."""
        return self._seq

    @property
    def stale(self) -> bool:
        """Whether a patch has committed over the active set's view
        since the epoch of the answer it came from — the next update
        is then a keyframe.  An unknown view overlaps everything, and
        so does a session idle for longer than the engine's patch
        history reaches: staleness must over-approximate."""
        return self._engine.patched_since(self._epoch, self._last_roi)

    # -- updates ----------------------------------------------------------

    @staticmethod
    def _request_roi(request: "EngineRequest") -> "Rect | None":
        """The request's ground-plane footprint, if it exposes one."""
        roi = getattr(request, "roi", None)
        if isinstance(roi, Rect):
            return roi
        plane = getattr(request, "plane", None)
        roi = getattr(plane, "roi", None)
        return roi if isinstance(roi, Rect) else None

    def update(self, request: "EngineRequest") -> FrameResult:
        """Serve one view update as a wire frame.

        Raises the outcome's error (deadline, shed-unservable, I/O)
        without touching session state; the caller can retry or
        :meth:`resync`.
        """
        registry = self._engine.registry
        outcome = self._engine.submit(request, tenant=self._tenant).result()
        if outcome.error is not None or outcome.result is None:
            registry.counter("session.errors").inc()
            error = outcome.error or QueryError("engine returned no result")
            raise error
        delta = diff_active(self._active, outcome.result)
        stale = self.stale
        keyframe = self._seq == 0 or stale
        flags = FLAG_KEYFRAME if keyframe else 0
        if outcome.degraded:
            flags |= FLAG_DEGRADED
        if keyframe:
            # Post-patch node ids are a different epoch's namespace: a
            # delta spliced over pre-patch records would silently mix
            # snapshots, so ship the whole new view instead.
            nodes = outcome.result.nodes
            frame = DeltaFrame(
                self._seq,
                tuple(nodes[node_id] for node_id in sorted(nodes)),
                (),
                flags,
            )
        else:
            frame = DeltaFrame(
                self._seq, tuple(delta.added), tuple(delta.removed), flags
            )
        payload = encode_frame(frame)
        self._active = dict(outcome.result.nodes)
        self._last_roi = self._request_roi(request)
        # The active set is now the answer's epoch: a patch that
        # committed while the answer was in flight is later than it,
        # and the next update asks again.
        self._epoch = outcome.metrics.epoch
        if stale:
            registry.counter("session.patch_resyncs").inc()
        self._seq += 1
        registry.counter("session.updates").inc()
        registry.counter("session.added").inc(len(delta.added))
        registry.counter("session.removed").inc(len(delta.removed))
        registry.counter("session.bytes_wire").inc(len(payload))
        registry.histogram("session.frame_bytes").observe(len(payload))
        registry.histogram("session.churn").observe(delta.churn)
        return FrameResult(payload, frame, delta, outcome)

    def resync(self) -> bytes:
        """A keyframe of the current active set (no query).

        For clients that lost frames: a keyframe is accepted by
        :class:`~repro.core.wire.ClientMesh` at any sequence number
        and replaces its mesh outright.
        """
        frame = DeltaFrame(
            self._seq,
            tuple(
                self._active[node_id] for node_id in sorted(self._active)
            ),
            (),
            FLAG_KEYFRAME,
        )
        payload = encode_frame(frame)
        self._seq += 1
        registry = self._engine.registry
        registry.counter("session.resyncs").inc()
        registry.counter("session.bytes_wire").inc(len(payload))
        return payload
