"""The store pass of ``fsck``: a store epoch's checks, format first.

The cluster runs are a store epoch's one record copy.  Each on-disk
format is checked by the module that owns it: the directory header and
table at the head of the run segment by
:meth:`~repro.core.clusters.ClusterDirectory.read`, the runs by
:meth:`~repro.core.clusters.ClusterSet.problems` (run layout, blob
framing, each row against its directory digest), the R*-tree over the
cluster extents by :meth:`~repro.index.rstar.RStarTree.problems`.
This module checks that the tree indexes each cluster once, at its
directory extent, and the semantic invariants of the Direct Mesh
encoding over the runs: each node in one run and inside its cluster's
extent, intervals, links and connection symmetry.  :func:`epoch_problems` is what
``python -m repro fsck`` runs on every committed epoch; it reports
rather than raises.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from repro.core.clusters import ClusterDirectory, ClusterSet
from repro.core.direct_mesh import DirectMeshStore, epoch_files
from repro.errors import IndexError_, PageCorruptionError, ReproError, StorageError
from repro.geometry.primitives import Box3
from repro.index.rstar import RStarTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import Database
    from repro.storage.record import DMNodeRecord

__all__ = ["SAMPLE_CONNECTIONS", "epoch_problems"]

#: Nodes whose connection lists are checked for symmetry (every node of
#: a smaller store).
SAMPLE_CONNECTIONS = 2000


def epoch_problems(
    database: "Database", prefix: str, corrupt: set[tuple[str, int]]
) -> list[str]:
    """fsck's store pass over the epoch with physical prefix ``prefix``.

    Both structure walks step around the ``(segment, page)`` pairs in
    ``corrupt`` (the crc scan's findings); the semantic pass runs only
    when the epoch's pages and both walks are clean.  Reads only: an
    R*-tree is opened only on an existing, non-empty segment whose
    page 0 carries its magic, the store only when all of its segments
    exist, and no segment is created or written.
    """
    files = epoch_files(prefix)
    present = set(database.segment_names())
    problems = [f"segment {n} missing" for n in files.segments if n not in present]
    skips = {
        name: {page for seg, page in corrupt if seg == name}
        for name in files.segments
    }
    tree = None
    if files.ctree in present:
        segment = database.segment(files.ctree)
        skip = skips[files.ctree]
        if segment.n_pages == 0:
            problems.append(f"segment {files.ctree} is empty")
        elif 0 not in skip:
            try:
                tree = RStarTree(segment)
            except (IndexError_, StorageError) as exc:
                problems.append(f"R*-tree does not open ({exc})")
            else:
                found = tree.problems(skip)
                problems.extend(f"R*-tree {p}" for p in found)
                if found or skip:
                    tree = None
    directory = None
    if files.cruns in present and 0 not in skips[files.cruns]:
        segment = database.segment(files.cruns)
        try:
            directory = ClusterDirectory.read(segment)
        except PageCorruptionError:
            pass  # A table page the crc scan reported: one fault.
        except StorageError as exc:
            problems.append(f"unreadable cluster directory ({exc})")
        else:
            clusters = ClusterSet(segment, directory)
            problems.extend(clusters.problems(skips[files.cruns]))
    if tree is not None and directory is not None:
        problems.extend(_index_problems(tree, directory))
    if problems or any(skips.values()):
        return problems
    try:
        store = DirectMeshStore.open(database, prefix)
    except (ReproError, ValueError, KeyError) as exc:
        return [f"store does not open ({exc})"]
    return _semantic_problems(store)


def _index_problems(tree: RStarTree, directory: ClusterDirectory) -> list[str]:
    """The R*-tree must hold one entry per cluster, at its extent."""
    problems: list[str] = []
    boxes: dict[int, Box3] = {}
    for box, cid in tree.all_entries():
        if cid in boxes:
            problems.append(f"cluster {cid} indexed twice in the R*-tree")
        boxes[cid] = box
    for meta in directory.clusters:
        box = boxes.pop(meta.cluster_id, None)
        if box is None:
            problems.append(f"cluster {meta.cluster_id} missing from the R*-tree")
        elif box != meta.box:
            problems.append(
                f"cluster {meta.cluster_id}: R*-tree entry differs from "
                f"its directory extent"
            )
    problems.extend(f"R*-tree indexes unknown cluster {cid}" for cid in boxes)
    return problems


def _semantic_problems(store: DirectMeshStore) -> list[str]:
    """The semantic passes over ``store``'s runs.

    1. every node is in exactly one run, and its indexed segment lies
       inside its cluster's extent (else a range query can miss it);
    2. interval sanity (`0 <= e_low <= e_high`, roots unbounded);
    3. parent/child links resolve to existing records;
    4. connection-list symmetry over the first
       :data:`SAMPLE_CONNECTIONS` nodes.
    """
    problems: list[str] = []
    clusters = store.clusters
    records: dict[int, DMNodeRecord] = {}
    home: dict[int, int] = {}  # node id -> the cluster holding it

    # Pass 1: placement.
    for cid in range(len(clusters)):
        columns = clusters.decode(cid)
        box = clusters.meta(cid).box
        inside = (
            (columns.x >= box.min_x) & (columns.x <= box.max_x)
            & (columns.y >= box.min_y) & (columns.y <= box.max_y)
            & (columns.e_low >= box.min_e)
            & (np.minimum(columns.e_high, store.e_cap) <= box.max_e)
        )
        problems.extend(
            f"node {node_id}: outside cluster {cid} extent"
            for node_id in columns.ids[~inside].tolist()
        )
        for record in columns.records():
            if record.id in home:
                problems.append(
                    f"node {record.id} in clusters {home[record.id]} and {cid}"
                )
                continue
            home[record.id] = cid
            records[record.id] = record

    # Pass 2-3: intervals and links.
    for node_id, record in records.items():
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

    # Pass 4: connection symmetry (sampled).
    for node_id, record in islice(records.items(), SAMPLE_CONNECTIONS):
        for other_id in record.connections:
            other = records.get(other_id)
            if other is None:
                problems.append(
                    f"node {node_id}: connection to missing {other_id}"
                )
            elif node_id not in other.connections:
                problems.append(
                    f"asymmetric connection ({node_id}, {other_id})"
                )
    return problems
