"""Exception hierarchy for the Direct Mesh reproduction.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch library failures with a single ``except`` clause
while still distinguishing subsystems when they need to.

Errors carry structured **context fields**: keyword arguments beyond
the message are stored on :attr:`ReproError.context` and rendered into
``str(err)``, so a failure deep in the storage engine can surface
*which* page, segment, or node it was about without string parsing.
Every error class round-trips through :mod:`pickle` (message and
context intact) — a requirement for future multiprocess workers, whose
failures cross process boundaries inside futures.

Production invariants must raise :class:`InvariantError` (or another
typed error) instead of using ``assert``: assert statements are
stripped under ``python -O``, silently disabling the check.  The
``reprolint`` rule R4 (:mod:`repro.analysis`) enforces this over
``src/``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    Args:
        message: human-readable description of the failure.
        **context: structured context fields (page numbers, segment
            names, node ids, ...), kept on :attr:`context` and shown
            in ``str(err)``.
    """

    def __init__(self, message: str = "", **context: object) -> None:
        super().__init__(message)
        self.context: dict[str, object] = dict(context)

    @property
    def message(self) -> str:
        """The human-readable message (without context fields)."""
        return str(self.args[0]) if self.args else ""

    def __str__(self) -> str:
        base = self.message
        if self.context:
            rendered = ", ".join(
                f"{key}={value!r}" for key, value in sorted(self.context.items())
            )
            return f"{base} [{rendered}]" if base else f"[{rendered}]"
        return base

    def __reduce__(
        self,
    ) -> tuple[type, tuple[object, ...], dict[str, object]]:
        # BaseException's default reduce already carries args + __dict__,
        # but being explicit keeps subclasses with extra positional
        # parameters honest: reconstruction is always cls(*args) followed
        # by a __dict__ restore.
        return (type(self), self.args, self.__dict__)


class InvariantError(ReproError):
    """An internal invariant of the library was violated.

    Raised where an ``assert`` would otherwise live: seeing one of
    these always indicates a bug in :mod:`repro` itself (or memory
    corruption), never bad user input.  Unlike ``assert``, the check
    survives ``python -O``.
    """


class GeometryError(ReproError):
    """A geometric operation received degenerate or inconsistent input."""


class TriangulationError(GeometryError):
    """Delaunay triangulation could not be completed."""


class MeshError(ReproError):
    """A triangle-mesh operation violated mesh invariants."""


class SimplificationError(MeshError):
    """Edge-collapse simplification could not make progress."""


class StorageError(ReproError):
    """A failure in the page/buffer/heap-file storage substrate."""


class TransientIOError(StorageError):
    """A read failed in a way that is expected to succeed on retry.

    Raised by :class:`repro.storage.faults.FaultInjector` (and usable
    by any future real device backend for EINTR/EAGAIN-shaped
    failures).  The serving layer treats this class — and only this
    class — as retryable.
    """


class PageError(StorageError):
    """A page-level failure (bad page id, overflow, corrupt header)."""


class PageCorruptionError(StorageError):
    """A page failed checksum verification on read.

    Raised by :meth:`repro.storage.pager.Pager.read_page` when a v2
    (checksummed) page's CRC trailer does not match its contents —
    bit rot, a torn write, or zeroed sectors.  Context carries
    ``segment``, ``page``, ``expected`` and ``actual`` checksums.

    Deliberately **not** a :class:`TransientIOError`: re-reading a
    rotten page returns the same bytes, so the query engine must not
    retry it — it quarantines the page and degrades instead (see
    :class:`repro.core.engine.QueryEngine`).  Repair goes through
    ``python -m repro fsck --repair``.
    """


class BufferPoolError(StorageError):
    """The buffer pool was used inconsistently (e.g. over-pinning)."""


class RecordError(StorageError):
    """A record failed to encode or decode."""


class IndexError_(ReproError):
    """A failure in an index structure (B+-tree, R*-tree, quadtree).

    Named with a trailing underscore to avoid shadowing the built-in
    :class:`IndexError`, which has unrelated semantics.
    """


class QueryError(ReproError):
    """A terrain query was malformed or could not be evaluated."""


class DeadlineExceededError(QueryError):
    """A request's deadline expired before a result could be produced.

    Surfaced as a per-request :attr:`QueryOutcome.error` by the query
    engine; it never aborts sibling requests in a batch.
    """


class OverloadShedError(QueryError):
    """A request was shed by admission control and could not be
    answered even by the degraded base-mesh path.

    The :class:`~repro.core.admission.CostGovernor` sheds requests whose
    estimated cost does not fit the in-flight budget.  Shed *uniform*
    requests are normally answered from the engine's base-mesh
    snapshot (a well-formed degraded result, not an error); this error
    surfaces only for non-degradable requests or when no snapshot can
    be built (e.g. an empty store).
    """


class SessionError(QueryError):
    """A progressive-transmission session is in an unusable state.

    Raised by the delta-session layer (:mod:`repro.core.streaming`,
    :mod:`repro.core.wire`) for protocol — not codec — failures: a
    client applying frames out of order, a splice that references ids
    the client mesh does not hold, or a duplicate/unknown session id.
    Malformed *bytes* raise :class:`RecordError` instead; a
    ``SessionError`` means both peers decoded fine but their states
    disagree, and the client should request a keyframe resync.
    """


class DatasetError(ReproError):
    """A dataset could not be generated, loaded, or cached."""


class PatchError(DatasetError):
    """A DEM patch was malformed and could not be applied.

    Raised by :meth:`repro.terrain.dem.DEM.apply_patch` for off-grid,
    out-of-bounds, zero-area, mis-shaped, or non-numeric patches —
    *before* any height is touched, so a rejected patch never leaves
    the grid half-updated.  Context carries the offending region,
    expected and actual shapes, and the grid geometry, instead of the
    numpy broadcasting error the raw assignment would raise.
    """


class MutationError(StorageError):
    """A live-mutation transaction could not be staged or committed.

    Raised by :mod:`repro.core.mutate` for protocol failures: patching
    through a store handle whose previous patch aborted mid-flight,
    staging over segments that cannot be cleared, or opening a mutable
    store whose tile sidecar is missing or inconsistent.  A crash
    *during* a patch is not an error — recovery lands the store on the
    pre- or post-patch snapshot — but the in-process handle that threw
    must be reopened before it may patch again.
    """
