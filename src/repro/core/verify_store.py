"""The store pass of ``fsck``: a store epoch's checks, formats first.

Each on-disk format is checked by the module that owns it
(:meth:`~repro.index.rstar.RStarTree.problems`,
:meth:`~repro.core.clusters.ClusterSet.problems`).  This module adds
what no single format can check: that the record heap (the reference
copy), the R*-tree over it and the cluster runs (the serving copy the
engine reads) say the same thing, and the semantic invariants of the
Direct Mesh encoding (intervals, links, connection symmetry).
:func:`epoch_problems` is what ``python -m repro fsck`` runs on every
committed epoch; :func:`verify_store` runs every check on an open
store.  Both report rather than raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING

from repro.core.clusters import ClusterDirectory, ClusterSet, decode_cluster_blob
from repro.core.direct_mesh import DirectMeshStore, epoch_files
from repro.errors import IndexError_, ReproError, StorageError
from repro.index.rstar import RStarTree
from repro.storage.record import decode_dm_node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database

__all__ = ["SAMPLE_CONNECTIONS", "StoreReport", "epoch_problems", "verify_store"]

#: Nodes whose connection lists are checked for symmetry (every node of
#: a smaller store).
SAMPLE_CONNECTIONS = 2000


@dataclass
class StoreReport:
    """The problems a verification pass found (none when healthy)."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no problems were found."""
        return not self.problems


def verify_store(store: DirectMeshStore) -> StoreReport:
    """Every check of an open store: both structure walks, then the
    cross-copy and semantic passes of :func:`_copy_problems`."""
    return StoreReport([
        *(f"R*-tree {p}" for p in store.rtree.problems()),
        *store.clusters.problems(),
        *_copy_problems(store),
    ])


def epoch_problems(
    database: "Database", prefix: str, corrupt: set[tuple[str, int]]
) -> list[str]:
    """fsck's store pass over the epoch with physical prefix ``prefix``.

    Both structure walks step around the ``(segment, page)`` pairs in
    ``corrupt`` (the crc scan's findings); the cross-copy and semantic
    passes run only when the epoch's pages and both walks are clean.
    Reads only: an R*-tree is opened only on an existing, non-empty
    segment whose page 0 carries its magic, the store only when all of
    its segments exist, and no segment is created or written.
    """
    files = epoch_files(prefix)
    present = set(database.segment_names())
    problems = [f"segment {n} missing" for n in files.segments if n not in present]
    skips = {
        name: {page for seg, page in corrupt if seg == name}
        for name in files.segments
    }
    if files.rtree in present:
        segment = database.segment(files.rtree)
        skip = skips[files.rtree]
        if segment.n_pages == 0:
            problems.append(f"segment {files.rtree} is empty")
        elif 0 not in skip:
            try:
                tree = RStarTree(segment)
            except (IndexError_, StorageError) as exc:
                problems.append(f"R*-tree does not open ({exc})")
            else:
                problems.extend(f"R*-tree {p}" for p in tree.problems(skip))
    try:
        directory = ClusterDirectory.load(database.path / files.directory)
    except StorageError as exc:
        problems.append(f"unreadable cluster directory ({exc})")
    else:
        if directory.segment != files.cruns:
            problems.append(
                f"cluster directory names segment {directory.segment}"
            )
        elif files.cruns in present:
            clusters = ClusterSet(database.segment(files.cruns), directory)
            problems.extend(clusters.problems(skips[files.cruns]))
    if problems or any(skips.values()):
        return problems
    try:
        store = DirectMeshStore.open(database, prefix)
    except (ReproError, ValueError, KeyError) as exc:
        return [f"store does not open ({exc})"]
    return _copy_problems(store)


def _copy_problems(store: DirectMeshStore) -> list[str]:
    """The cross-copy and semantic passes over ``store``.

    1. every heap record decodes and its RID appears exactly once in
       the R*-tree with a box matching the record's segment;
    2. every heap record appears in exactly one cluster run, identical
       record for record (id, fields and connection list), no run
       holds a record the heap lacks, and the directory's per-cluster
       node counts sum to the heap's record count;
    3. interval sanity (`0 <= e_low <= e_high`, roots unbounded);
    4. parent/child links resolve to existing records;
    5. connection-list symmetry over the first
       :data:`SAMPLE_CONNECTIONS` nodes.
    """
    problems: list[str] = []

    # Pass 1: heap scan.
    records: dict[int, tuple[int, object]] = {}  # id -> (rid, record)
    rid_by_record: dict[int, int] = {}
    for rid, payload in store.heap.scan():
        try:
            record = decode_dm_node(payload)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"rid {rid}: undecodable record ({exc})")
            continue
        if record.id in records:
            problems.append(f"duplicate node id {record.id} in heap")
        records[record.id] = (rid, record)
        rid_by_record[rid] = record.id

    # Pass 2: index entries.
    index_rids: dict[int, tuple] = {}
    for box, rid in store.rtree.all_entries():
        if rid in index_rids:
            problems.append(f"rid {rid} appears twice in the R*-tree")
        index_rids[rid] = box

    if set(index_rids) != set(rid_by_record):
        missing = len(set(rid_by_record) - set(index_rids))
        extra = len(set(index_rids) - set(rid_by_record))
        if missing:
            problems.append(f"{missing} heap records missing from the index")
        if extra:
            problems.append(f"{extra} dangling index entries")

    for node_id, (rid, record) in records.items():
        box = index_rids.get(rid)
        if box is None:
            continue
        if box.min_x != record.x or box.min_y != record.y:
            problems.append(f"node {node_id}: index position mismatch")
        if box.min_e != record.e_low:
            problems.append(f"node {node_id}: index e_low mismatch")
        expected_high = (
            store.e_cap if math.isinf(record.e_high) else record.e_high
        )
        if box.max_e != expected_high:
            problems.append(f"node {node_id}: index e_high mismatch")

    # Pass 3: the serving copy against the reference copy.
    clusters = store.clusters
    if clusters.directory.total_nodes != len(records):
        problems.append(
            f"cluster directory counts {clusters.directory.total_nodes} "
            f"nodes for {len(records)} heap records"
        )
    home: dict[int, int] = {}  # node id -> the cluster holding it
    for cid in range(len(clusters)):
        try:
            copies = decode_cluster_blob(clusters.read_blob(cid)).records()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            problems.append(f"cluster {cid}: unreadable run ({exc})")
            continue
        for copy in copies:
            entry = records.get(copy.id)
            if copy.id in home:
                problems.append(
                    f"node {copy.id} in clusters {home[copy.id]} and {cid}"
                )
            elif entry is None:
                problems.append(f"cluster {cid}: node {copy.id} not in heap")
            elif entry[1] != copy:
                problems.append(
                    f"node {copy.id}: cluster {cid} copy differs from heap"
                )
            home.setdefault(copy.id, cid)
    unserved = len(records.keys() - home.keys())
    if unserved:
        problems.append(f"{unserved} heap records missing from cluster runs")

    # Pass 4: semantic invariants.
    for node_id, (_, record) in records.items():
        if record.e_low < 0:
            problems.append(f"node {node_id}: negative e_low")
        if record.e_high < record.e_low:
            problems.append(f"node {node_id}: inverted interval")
        if record.parent == -1 and not math.isinf(record.e_high):
            problems.append(f"root {node_id}: bounded interval")
        for child in (record.child1, record.child2):
            if child != -1 and child not in records:
                problems.append(f"node {node_id}: missing child {child}")
        if record.parent != -1 and record.parent not in records:
            problems.append(f"node {node_id}: missing parent")

    # Pass 5: connection symmetry (sampled).
    for node_id, (_, record) in islice(records.items(), SAMPLE_CONNECTIONS):
        for other_id in record.connections:
            other = records.get(other_id)
            if other is None:
                problems.append(
                    f"node {node_id}: connection to missing {other_id}"
                )
            elif node_id not in other[1].connections:
                problems.append(
                    f"asymmetric connection ({node_id}, {other_id})"
                )
    return problems
