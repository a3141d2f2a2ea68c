"""Integrity verification for Direct Mesh stores (``fsck`` for DM).

Cross-checks the three physical structures that must stay mutually
consistent — the record heap (the reference copy of the records), the
3D R*-tree over it, and the cluster runs (the serving copy the engine
reads) — plus the semantic invariants of the Direct Mesh encoding
itself (interval sanity, connection-list symmetry, parent/child
links).  ``fsck`` checks that every page and every run is intact; this
checks that the intact copies say the same thing.
Returns a structured report rather than raising, so operators can see
every problem at once; ``raise_on_error`` converts failures into
:class:`~repro.errors.StorageError`.

Used after bulk builds in tests, and exposed as
``python -m repro info --verify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.clusters import decode_cluster_blob
from repro.errors import IndexError_, StorageError
from repro.storage.record import decode_dm_node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.direct_mesh import DirectMeshStore

__all__ = ["verify_store", "StoreReport"]


@dataclass
class StoreReport:
    """Outcome of a store verification pass.

    ``problems`` is empty for a healthy store; ``stats`` carries the
    object counts the checks were computed over.
    """

    problems: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no problems were found."""
        return not self.problems

    def to_text(self) -> str:
        """A printable report."""
        lines = [
            "store verification: " + ("OK" if self.ok else "PROBLEMS FOUND")
        ]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for problem in self.problems[:50]:
            lines.append(f"  !! {problem}")
        if len(self.problems) > 50:
            lines.append(f"  ... and {len(self.problems) - 50} more")
        return "\n".join(lines)


def verify_store(
    store: "DirectMeshStore",
    sample_connections: int = 2000,
    raise_on_error: bool = False,
) -> StoreReport:
    """Verify a :class:`~repro.core.direct_mesh.DirectMeshStore`.

    Checks:

    1. every heap record decodes and its RID appears exactly once in
       the R*-tree with a box matching the record's segment, and the
       tree passes :meth:`~repro.index.rstar.RStarTree.validate` (MBR
       containment, uniform leaf depth, the meta page's height, entry
       count and data space);
    2. every heap record appears in exactly one cluster run, identical
       record for record (id, fields and connection list), no run
       holds a record the heap lacks, and the directory's per-cluster
       node counts sum to the heap's record count;
    3. interval sanity (`0 <= e_low <= e_high`, roots unbounded);
    4. parent/child links resolve to existing records;
    5. connection-list symmetry over a sample (full check on small
       stores).

    Args:
        store: the store to verify.
        sample_connections: cap on nodes whose connection symmetry is
            cross-checked.
        raise_on_error: raise instead of returning a dirty report.
    """
    report = StoreReport()
    problems = report.problems

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
    report.stats["heap_records"] = len(records)

    # Pass 2: index entries.
    index_rids: dict[int, tuple] = {}
    for box, rid in store.rtree.all_entries():
        if rid in index_rids:
            problems.append(f"rid {rid} appears twice in the R*-tree")
        index_rids[rid] = box
    report.stats["index_entries"] = len(index_rids)
    try:
        store.rtree.validate()
    except IndexError_ as exc:
        problems.append(f"R*-tree structure: {exc}")

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
    report.stats["cluster_records"] = len(home)
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
    checked = 0
    for node_id, (_, record) in records.items():
        if checked >= sample_connections:
            break
        checked += 1
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
    report.stats["connection_checked"] = checked

    if raise_on_error and not report.ok:
        raise StorageError(
            f"store verification failed: {report.problems[0]} "
            f"(+{len(report.problems) - 1} more)"
        )
    return report
