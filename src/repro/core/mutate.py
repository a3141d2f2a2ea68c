"""Live terrain mutation: WAL-backed patches over epoch snapshots.

A Direct Mesh store is built once and read many times; this module
adds the missing third verb — *patch* — without ever making a reader
wait or showing it a half-updated store.  The design rests on three
ideas:

**Tile-deterministic builds.**  :class:`MutableStore` splits the DEM's
vertex grid into a fixed lattice of tiles (adjacent tiles share their
boundary vertex row/column) and runs the full Section-2/Section-4
pipeline — triangulate, greedy edge collapse, LOD normalisation,
similar-LOD connection lists — *per tile*, in global coordinates and
with the global union-jack diagonal parity.  Tile trees never span a
tile boundary, and Section 4's normalisation is a per-tree recurrence,
so per-tile normalisation *is* global normalisation of the merged
forest.  Node ids are ``tile_index * id_stride + local_id`` with a
stride fixed by the layout alone, so a tile whose heights did not
change produces byte-identical nodes whether it is rebuilt from
scratch or carried over — the property the parity suite checks
(patched store ≡ rebuild-from-scratch, node-id-identical).

**Epoch shadow staging.**  A patch never rewrites the pages a reader
may be walking.  Epoch ``N`` of store ``dm`` lives in segments named
``dm@N_*`` (epoch 0 keeps the plain prefix); :meth:`apply_patch`
stages the *next* epoch's segments beside the current ones and flips
the committed epoch in ``storage_meta.json`` only at commit.  Readers
pin ``(store, epoch)`` once per request (see
:meth:`repro.core.engine.QueryEngine.pinned_snapshot`), so a reader
that started on epoch ``N`` finishes on epoch ``N`` even if ``N+1``
commits mid-query.  Old epochs stay on disk; nothing is unlinked
under a pinned reader.

**One WAL transaction.**  The staging happens inside
:meth:`repro.storage.database.Database.patch`: every staged page is
logged (kind-3/kind-4 typed patch records) before it hits a segment,
the commit marker is fsynced, and only then does the epoch flip.  A
crash anywhere leaves the directory on exactly the pre- or post-patch
snapshot — an uncommitted log is discarded (its staged segments become
orphans ``fsck`` quarantines), a committed one is replayed *and the
flip re-applied* on the next open.  The kill-anywhere crash matrix in
``tests/test_mutate.py`` drives every WAL record boundary plus the
flip itself.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass

from repro.core.connectivity import build_connection_lists
from repro.core.direct_mesh import DirectMeshStore, epoch_files
from repro.errors import MutationError
from repro.geometry.primitives import Rect, union_all_rects
from repro.mesh.progressive import NULL_ID, PMNode
from repro.mesh.simplify import simplify_to_pm
from repro.mesh.trimesh import TriMesh
from repro.storage.database import Database, epoch_prefix
from repro.terrain.dem import DEM

__all__ = ["MutableStore", "PatchReport", "TileLayout", "plan_tiles"]

_MUTATE_SIDECAR = "mutate.json"

#: Default target tile side, in grid vertices.
DEFAULT_TILE_VERTS = 33


@dataclass(frozen=True)
class TileLayout:
    """The fixed tile lattice over a DEM's vertex grid.

    ``row_edges``/``col_edges`` are vertex indices: tile ``(i, j)``
    covers vertex rows ``row_edges[i] .. row_edges[i+1]`` and columns
    ``col_edges[j] .. col_edges[j+1]`` *inclusive* — adjacent tiles
    share their boundary vertices (each materialises its own copy).
    ``id_stride`` is the global-id stride per tile, derived from the
    layout alone (2x the largest tile's vertex count bounds any binary
    forest over it), so ids are stable across patches by construction.
    """

    n_rows: int
    n_cols: int
    cell_size: float
    origin: tuple[float, float]
    row_edges: tuple[int, ...]
    col_edges: tuple[int, ...]
    id_stride: int

    @property
    def tiles_y(self) -> int:
        """Tile count in the row (y) direction."""
        return len(self.row_edges) - 1

    @property
    def tiles_x(self) -> int:
        """Tile count in the column (x) direction."""
        return len(self.col_edges) - 1

    @property
    def n_tiles(self) -> int:
        """Total tile count."""
        return self.tiles_y * self.tiles_x

    def tile_window(self, index: int) -> tuple[int, int, int, int]:
        """Inclusive vertex window ``(r0, c0, r1, c1)`` of a tile."""
        i, j = divmod(index, self.tiles_x)
        return (
            self.row_edges[i],
            self.col_edges[j],
            self.row_edges[i + 1],
            self.col_edges[j + 1],
        )

    def tile_rect(self, index: int) -> Rect:
        """The tile's ``(x, y)`` extent."""
        r0, c0, r1, c1 = self.tile_window(index)
        ox, oy = self.origin
        return Rect(
            ox + c0 * self.cell_size,
            oy + r0 * self.cell_size,
            ox + c1 * self.cell_size,
            oy + r1 * self.cell_size,
        )

    def tiles_overlapping(self, region: Rect) -> list[int]:
        """Indices of tiles whose extent intersects ``region``.

        A vertex on a tile boundary belongs to every adjacent tile, so
        a patch touching it correctly selects them all.
        """
        return [
            index
            for index in range(self.n_tiles)
            if self.tile_rect(index).intersects(region)
        ]

    def to_json(self) -> dict:
        """A JSON-serialisable form (sidecar payload)."""
        return {
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "cell_size": self.cell_size,
            "origin": list(self.origin),
            "row_edges": list(self.row_edges),
            "col_edges": list(self.col_edges),
            "id_stride": self.id_stride,
        }

    @classmethod
    def from_json(cls, data: dict) -> "TileLayout":
        """Inverse of :meth:`to_json`."""
        return cls(
            n_rows=int(data["n_rows"]),
            n_cols=int(data["n_cols"]),
            cell_size=float(data["cell_size"]),
            origin=(float(data["origin"][0]), float(data["origin"][1])),
            row_edges=tuple(int(v) for v in data["row_edges"]),
            col_edges=tuple(int(v) for v in data["col_edges"]),
            id_stride=int(data["id_stride"]),
        )


def plan_tiles(dem: DEM, tile_verts: int = DEFAULT_TILE_VERTS) -> TileLayout:
    """Split ``dem``'s vertex grid into a near-uniform tile lattice.

    ``tile_verts`` is the target tile side in vertices; the actual
    edges are rounded so every cell row/column lands in exactly one
    tile.  The layout — and with it the global id assignment — is a
    pure function of the grid shape and ``tile_verts``, never of the
    heights, which is what keeps ids stable under patches.
    """
    field = dem.field
    if tile_verts < 2:
        raise MutationError(f"tile_verts must be >= 2, got {tile_verts}")

    def edges(n_verts: int) -> tuple[int, ...]:
        cells = n_verts - 1
        n_tiles = max(1, round(cells / (tile_verts - 1)))
        return tuple(
            round(k * cells / n_tiles) for k in range(n_tiles + 1)
        )

    row_edges = edges(field.n_rows)
    col_edges = edges(field.n_cols)
    max_rows = max(
        row_edges[i + 1] - row_edges[i] + 1
        for i in range(len(row_edges) - 1)
    )
    max_cols = max(
        col_edges[j + 1] - col_edges[j] + 1
        for j in range(len(col_edges) - 1)
    )
    # A binary collapse forest over V leaves has at most 2V - 1 nodes;
    # stride 2V keeps every tile's id block disjoint with headroom.
    id_stride = 2 * max_rows * max_cols
    return TileLayout(
        n_rows=field.n_rows,
        n_cols=field.n_cols,
        cell_size=field.cell_size,
        origin=field.origin,
        row_edges=row_edges,
        col_edges=col_edges,
        id_stride=id_stride,
    )


@dataclass(frozen=True)
class PatchReport:
    """What one committed patch did."""

    region: Rect
    from_epoch: int
    to_epoch: int
    tiles_rebuilt: tuple[int, ...]
    n_nodes: int


@dataclass
class _TileBuild:
    """Cached per-tile pipeline output (global ids, normalised e)."""

    index: int
    nodes: list[PMNode]
    connections: dict[int, list[int]]
    max_lod: float


def _build_tile(dem: DEM, layout: TileLayout, index: int) -> _TileBuild:
    """Run the full PM pipeline over one tile, ids remapped globally.

    The tile mesh is built in *global* coordinates with the *global*
    union-jack parity ``(r + c) % 2``, so the geometry (and therefore
    the collapse sequence, which is deterministic) depends only on the
    tile's heights — not on where the tile sits in the lattice.
    """
    r0, c0, r1, c1 = layout.tile_window(index)
    field = dem.field
    ox, oy = field.origin
    cell = field.cell_size
    heights = field.heights[r0 : r1 + 1, c0 : c1 + 1]
    n_cols = c1 - c0 + 1
    verts = [
        (ox + c * cell, oy + r * cell, float(heights[r - r0, c - c0]))
        for r in range(r0, r1 + 1)
        for c in range(c0, c1 + 1)
    ]
    tris: list[tuple[int, int, int]] = []
    for r in range(r0, r1):
        for c in range(c0, c1):
            v00 = (r - r0) * n_cols + (c - c0)
            v01 = v00 + 1
            v10 = v00 + n_cols
            v11 = v10 + 1
            if (r + c) % 2 == 0:
                tris.append((v00, v01, v11))
                tris.append((v00, v11, v10))
            else:
                tris.append((v00, v01, v10))
                tris.append((v01, v11, v10))
    mesh = TriMesh(verts, tris, validate=False)
    pm = simplify_to_pm(mesh)
    pm.normalize_lod()
    connections = build_connection_lists(pm)

    base = index * layout.id_stride
    if len(pm.nodes) > layout.id_stride:
        raise MutationError(
            "tile forest exceeds its id block",
            tile=index,
            nodes=len(pm.nodes),
            id_stride=layout.id_stride,
        )

    def remap(node_id: int) -> int:
        return node_id if node_id == NULL_ID else base + node_id

    nodes = [
        PMNode(
            id=base + node.id,
            x=node.x,
            y=node.y,
            z=node.z,
            error=node.error,
            parent=remap(node.parent),
            child1=remap(node.child1),
            child2=remap(node.child2),
            wing1=remap(node.wing1),
            wing2=remap(node.wing2),
            e=node.e,
            e_high=node.e_high,
            footprint=node.footprint,
        )
        for node in pm.nodes
    ]
    remapped_conn = {
        base + node_id: [base + other for other in others]
        for node_id, others in connections.items()
    }
    return _TileBuild(index, nodes, remapped_conn, pm.max_lod())


class MutableStore:
    """A Direct Mesh store that supports live, crash-safe patches.

    Single-writer: one in-process handle applies patches (guarded by a
    lock); any number of epoch-pinned readers proceed concurrently
    through the query engine.  After a simulated crash mid-patch the
    handle is *poisoned* — further patches raise
    :class:`~repro.errors.MutationError` until the database is
    reopened (recovery then lands it on a clean snapshot).
    """

    #: The logical store prefix: epoch ``N`` lives under
    #: ``epoch_prefix(prefix, N)``, its layout in ``dm_mutate.json``.
    prefix = "dm"

    def __init__(
        self,
        database: Database,
        dem: DEM,
        layout: TileLayout,
        tiles: list[_TileBuild],
        store: DirectMeshStore,
        epoch: int,
    ) -> None:
        self.database = database
        self.dem = dem
        self.layout = layout
        self.epoch = epoch
        self.store = store
        self._tiles = tiles
        self._listeners: list = []
        self._broken = False
        self._write_lock = threading.Lock()

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        dem: DEM,
        database: Database,
        tile_verts: int = DEFAULT_TILE_VERTS,
    ) -> "MutableStore":
        """Build epoch 0 of a mutable store from a DEM.

        Uses the tile-deterministic pipeline even for the initial
        build, so a later rebuild-from-scratch of a patched DEM is
        node-id-identical to the patched store (the parity property).
        """
        layout = plan_tiles(dem, tile_verts)
        tiles = [
            _build_tile(dem, layout, index) for index in range(layout.n_tiles)
        ]
        epoch = database.store_epoch(cls.prefix)
        store = cls._materialize(database, tiles, epoch_prefix(cls.prefix, epoch))
        sidecar = database.path / f"{cls.prefix}_{_MUTATE_SIDECAR}"
        sidecar.write_text(
            json.dumps(layout.to_json(), sort_keys=True), encoding="ascii"
        )
        return cls(database, dem, layout, tiles, store, epoch)

    @classmethod
    def open(cls, database: Database, dem: DEM) -> "MutableStore":
        """Reopen a mutable store at its committed epoch.

        ``dem`` must hold the terrain as of the committed epoch (the
        DEM itself is the caller's to persist); the tile caches are
        recomputed from it, which the parity property guarantees
        reproduces the committed store's nodes exactly.
        """
        sidecar = database.path / f"{cls.prefix}_{_MUTATE_SIDECAR}"
        if not sidecar.exists():
            raise MutationError(
                f"no mutable store at {sidecar}", prefix=cls.prefix
            )
        layout = TileLayout.from_json(
            json.loads(sidecar.read_text(encoding="ascii"))
        )
        if (layout.n_rows, layout.n_cols) != (
            dem.field.n_rows,
            dem.field.n_cols,
        ):
            raise MutationError(
                "DEM shape does not match the store's tile layout",
                layout=(layout.n_rows, layout.n_cols),
                dem=(dem.field.n_rows, dem.field.n_cols),
            )
        store, epoch = DirectMeshStore.open_committed(database, cls.prefix)
        tiles = [
            _build_tile(dem, layout, index) for index in range(layout.n_tiles)
        ]
        return cls(database, dem, layout, tiles, store, epoch)

    @classmethod
    def _materialize(
        cls, database: Database, tiles: list[_TileBuild], eprefix: str
    ) -> DirectMeshStore:
        nodes: list[PMNode] = []
        connections: dict[int, list[int]] = {}
        for tile in tiles:
            nodes.extend(tile.nodes)
            connections.update(tile.connections)
        max_lod = max(tile.max_lod for tile in tiles)
        return DirectMeshStore.materialize(
            database, nodes, connections, max_lod, prefix=eprefix
        )

    # -- snapshots & listeners ------------------------------------------------

    def snapshot(self) -> tuple[DirectMeshStore, int]:
        """The current committed ``(store, epoch)`` pair."""
        return self.store, self.epoch

    def add_listener(self, listener) -> None:
        """Register ``listener(store, epoch, region)`` for commits."""
        self._listeners.append(listener)

    def attach(self, engine) -> None:
        """Wire committed patches into a query engine.

        Every commit calls
        :meth:`~repro.core.engine.QueryEngine.install_store`, which
        logs the patch in the engine's history (streaming sessions
        whose view it overlaps keyframe at their next update), drops
        the semantic-cache cubes over the patched region, keeps in the
        cluster cache only the clusters the commit left byte-identical
        and swaps the engine's pinned snapshot.
        """
        self.add_listener(
            lambda store, epoch, region: engine.install_store(
                store, epoch, region=region
            )
        )

    # -- patching -------------------------------------------------------------

    def apply_patch(self, region: Rect, heights, kill_hook=None) -> PatchReport:
        """Apply one DEM patch as a crash-safe store transaction.

        Validates and applies the patch to the in-memory DEM
        (:meth:`repro.terrain.dem.DEM.apply_patch` — a rejected patch
        touches nothing), rebuilds exactly the tiles the region
        overlaps, and stages the next epoch's full segment set inside
        one WAL patch transaction.  Readers pinned to the old epoch
        are untouched; the commit flips ``storage_meta.json`` and
        notifies listeners (engine cache invalidation + session
        resync) with the union of the rebuilt tiles' extents.

        ``kill_hook`` is forwarded to the WAL for the crash matrix;
        production code leaves it ``None``.
        """
        with self._write_lock:
            if self._broken:
                raise MutationError(
                    "mutable store handle is poisoned by an aborted "
                    "patch; reopen the database to recover",
                    prefix=self.prefix,
                )
            region = self.dem.apply_patch(region, heights)
            affected = self.layout.tiles_overlapping(region)
            from_epoch = self.epoch
            to_epoch = from_epoch + 1
            eprefix = epoch_prefix(self.prefix, to_epoch)
            self._clear_stale_epoch(eprefix)

            rebuilt = {
                index: _build_tile(self.dem, self.layout, index)
                for index in affected
            }
            tiles = [
                rebuilt.get(tile.index, tile) for tile in self._tiles
            ]
            invalid_region = union_all_rects(
                [self.layout.tile_rect(index) for index in affected]
            )
            header = {
                "prefix": self.prefix,
                "from_epoch": from_epoch,
                "to_epoch": to_epoch,
                "region": list(invalid_region.as_tuple()),
                "segments": list(epoch_files(eprefix).segments),
            }
            try:
                # reprolint: disable=R10 single-writer by design: _write_lock exists to serialise mutators across the patch I/O
                with self.database.patch(header, kill_hook=kill_hook):
                    store = self._materialize(self.database, tiles, eprefix)
            except BaseException:
                self._broken = True
                raise
            self._tiles = tiles
            self.epoch = to_epoch
            self.store = store
            report = PatchReport(
                region=invalid_region,
                from_epoch=from_epoch,
                to_epoch=to_epoch,
                tiles_rebuilt=tuple(sorted(affected)),
                n_nodes=sum(len(tile.nodes) for tile in tiles),
            )
        for listener in self._listeners:
            listener(store, to_epoch, invalid_region)
        return report

    def _clear_stale_epoch(self, eprefix: str) -> None:
        """Remove leftovers of an aborted patch that staged ``eprefix``.

        A previous crash-before-commit leaves orphaned staged segments
        (recovery discarded the log, so nothing references them);
        restaging the same epoch must start from nothing or the runs
        would land after the orphaned pages.  Every segment under
        ``eprefix`` goes, not only the named set: an older build's
        patch may have staged others.
        """
        for name in self.database.segment_names():
            if name.startswith(f"{eprefix}_"):
                self.database.remove_segment(name)
