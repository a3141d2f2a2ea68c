"""Tests for fsck's store pass (:func:`repro.core.verify_store.epoch_problems`)."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core.clusters import (
    _DIR_HEADER,
    _DIR_ROW,
    _content_hash,
    _row_digests,
    decode_cluster_blob,
    encode_cluster_blob,
)
from repro.core.direct_mesh import DirectMeshStore, epoch_files
from repro.core.verify_store import epoch_problems
from repro.storage.database import Database


def reseal_pages(store, first_page: int, data: bytes) -> None:
    """Write ``data`` over the run segment's payloads from page
    ``first_page`` on and re-seal the pages: every page checksum stays
    valid."""
    segment = store.clusters.segment
    size = segment.payload_size
    for off in range(0, len(data), size):
        page = first_page + off // size
        chunk = data[off:off + size]
        buf = segment.fetch(page)
        buf[: len(chunk)] = chunk
        segment.mark_dirty(page)
    store.database.flush()


def reseal_cluster_run(store, cluster_id: int, blob: bytes) -> None:
    """Write ``blob`` over cluster ``cluster_id``'s run (same length)
    and re-seal its pages."""
    meta = store.clusters.meta(cluster_id)
    assert len(blob) == meta.n_bytes
    reseal_pages(store, meta.start_page, blob)


def repack_index(store, entries) -> None:
    """Replace the store's R*-tree over its cluster extents on disk by
    one over ``entries``, STR-packed the way every index here is
    written."""
    from repro.index.rstar import RStarTree

    name = epoch_files(store.prefix).ctree
    store.database.remove_segment(name)
    RStarTree(store.database.segment(name)).bulk_load(entries)
    store.database.flush()


def forge_cluster_run(store, cluster_id: int, columns) -> None:
    """Write ``columns`` over cluster ``cluster_id``'s run (same
    length) and give the directory their row digests and content hash:
    a consistent forgery that only the semantic pass can judge."""
    blob = encode_cluster_blob(columns)
    reseal_cluster_run(store, cluster_id, blob)
    directory = store.clusters.directory
    directory.clusters[cluster_id] = replace(
        directory.clusters[cluster_id], content=_content_hash(blob)
    )
    digests = store.clusters.row_digests().copy()
    at = sum(meta.n_nodes for meta in directory.clusters[:cluster_id])
    digests[at:at + len(columns)] = np.frombuffer(_row_digests(columns), "<u4")
    reseal_pages(store, 0, directory.encode(digests.tobytes()))


def tamper_directory_entry(store, cluster_id: int = 0) -> None:
    """Bump cluster ``cluster_id``'s ``n_nodes`` in the directory table
    and re-seal the page: the table's node count no longer matches the
    header's."""
    at = _DIR_HEADER.size + _DIR_ROW.size * cluster_id + 12  # Its n_nodes.
    segment = store.clusters.segment
    buf = segment.fetch(0)
    struct.pack_into("<I", buf, at, struct.unpack_from("<I", buf, at)[0] + 1)
    segment.mark_dirty(0)
    store.database.flush()


def parent_layout(path) -> None:
    """Rewrite the closed store at ``path`` into the version-3 layout:
    the runs from page 0 of ``dm_cruns``, the store meta and the cluster
    directory (placement only here) in two JSON sidecars."""
    with Database(path) as db:
        directory = DirectMeshStore.open(db).clusters.directory
    first = directory.clusters[0].start_page
    runs = path / "dm_cruns.seg"
    runs.write_bytes(runs.read_bytes()[first * db.page_size:])
    entries = [
        {"id": c.cluster_id, "start_page": c.start_page - first,
         "n_pages": c.n_pages, "n_bytes": c.n_bytes, "n_nodes": c.n_nodes}
        for c in directory.clusters
    ]
    (path / "dm_clusters.json").write_text(json.dumps(
        {"version": 3, "segment": "dm_cruns", "clusters": entries}
    ))
    (path / "dm_dm_meta.json").write_text(json.dumps(
        {"max_lod": directory.max_lod, "e_cap": directory.e_cap}
    ))


def store_problems(store) -> list[str]:
    """fsck's store pass over ``store``'s epoch, no page flagged."""
    return epoch_problems(store.database, store.prefix, set())


def tamper_cluster_record(store, cluster_id: int = 0, index: int = 0) -> int:
    """Move row ``index``'s ``z`` in one cluster run and re-seal it:
    every page checksum and the blob framing stay intact, so only the
    row's directory digest shows the record changed.  Returns the
    tampered node's id."""
    columns = decode_cluster_blob(store.clusters.read_blob(cluster_id))
    z = columns.z.copy()
    z[index] += 1.0
    reseal_cluster_run(
        store, cluster_id, encode_cluster_blob(replace(columns, z=z))
    )
    return int(columns.ids[index])


class TestHealthyStore:
    def test_clean_report(self, session_db):
        problems = store_problems(session_db["dm"])
        assert problems == [], problems


class TestCorruptions:
    @pytest.fixture
    def small_store(self, tmp_path, wavy_pm, wavy_connections):
        db = Database(tmp_path / "db", pool_pages=256)
        store = DirectMeshStore.build(wavy_pm, db, wavy_connections)
        yield store
        db.close()

    def test_detects_dangling_index_entry(self, small_store):
        from repro.geometry.primitives import Box3

        entries = list(small_store.cluster_tree.all_entries())
        entries.append((Box3.vertical_segment(1, 1, 0, 1), 999))
        repack_index(small_store, entries)
        assert store_problems(small_store) == [
            "R*-tree indexes unknown cluster 999"
        ]

    def test_detects_missing_index_entry(self, small_store):
        # Drop one cluster's index entry but keep its run.
        entries = sorted(
            small_store.cluster_tree.all_entries(), key=lambda e: e[1]
        )
        repack_index(small_store, entries[1:])
        assert store_problems(small_store) == [
            "cluster 0 missing from the R*-tree"
        ]

    def test_detects_index_meta_count_mismatch(self, small_store):
        """A meta page whose entry count disagrees with the leaves,
        re-sealed so every page checksum holds: the crc scan is clean,
        the entries agree with the directory, and fsck's R*-tree walk
        names it."""
        from repro.index.rstar import _META
        from repro.storage.integrity import scrub_database

        database = small_store.database
        segment = database.segment(epoch_files(small_store.prefix).ctree)
        buf = segment.fetch(0)
        fields = list(_META.unpack_from(buf, 0))
        fields[3] += 1  # magic, root, height, count, data space...
        _META.pack_into(buf, 0, *fields)
        segment.mark_dirty(0)
        database.flush()
        report = scrub_database(database)
        assert report.corrupt_pages == 0
        assert report.structural == [
            f"dm: R*-tree meta page counts {fields[3]} entries, "
            f"leaves hold {fields[3] - 1}"
        ]

    def test_detects_tampered_cluster_record(self, small_store):
        """A run whose pages and blob framing are intact but whose
        record no longer matches its directory digest: fsck names the
        node and the cluster."""
        from repro.obs.metrics import MetricsRegistry
        from repro.storage.integrity import scrub_database

        node_id = tamper_cluster_record(small_store)
        registry = MetricsRegistry()
        report = scrub_database(small_store.database, registry)
        assert report.corrupt_pages == 0
        problem = f"node {node_id}: cluster 0 record fails its digest"
        assert report.structural == [f"dm: {problem}"]
        assert registry.counters()["fsck.store_problems"] == 1

    def test_detects_cluster_count_mismatch(self, small_store):
        n_nodes = small_store.clusters.directory.total_nodes
        tamper_directory_entry(small_store)
        assert store_problems(small_store) == [
            f"unreadable cluster directory (dm_cruns: cluster table holds "
            f"{n_nodes + 1} nodes, header counts {n_nodes})"
        ]

    def test_detects_corrupt_record(self, small_store):
        """A run record whose payload bytes are overwritten with
        garbage and re-sealed: the blob still frames, and fsck names
        the node the damaged row now holds."""
        clusters = small_store.clusters
        blob = bytearray(clusters.read_blob(0))
        # Row 0's x, then its id (the first <i4 column): both garbage.
        n = clusters.meta(0).n_nodes
        blob[16:24] = b"\xff" * 8
        ids_at = 16 + 8 * 5 * n
        blob[ids_at:ids_at + 4] = b"\xfe\xff\xff\x7f"
        reseal_cluster_run(small_store, 0, bytes(blob))
        problems = store_problems(small_store)
        assert problems == [
            f"node {0x7ffffffe}: cluster 0 record fails its digest"
        ]

    def test_detects_node_outside_its_cluster_extent(self, small_store):
        """A row moved outside its cluster's extent, with its digest
        rewritten: the run and the directory agree, but a range query
        selecting by extent would miss the node, and fsck names it."""
        columns = small_store.clusters.decode(0)
        x = columns.x.copy()
        x[0] = small_store.clusters.meta(0).max_x + 1.0
        forge_cluster_run(small_store, 0, replace(columns, x=x))
        assert store_problems(small_store) == [
            f"node {int(columns.ids[0])}: outside cluster 0 extent"
        ]

    def test_detects_run_content_hash_mismatch(self, small_store):
        """A directory whose content hash no longer matches its run
        (every row digest does): the engine would carry a decoded
        cluster across a commit under the wrong identity, and fsck
        names the cluster."""
        clusters = small_store.clusters
        directory = clusters.directory
        directory.clusters[0] = replace(directory.clusters[0], content=bytes(16))
        reseal_pages(small_store, 0, directory.encode(clusters.row_digests()))
        assert store_problems(small_store) == [
            "cluster 0 run differs from its content hash"
        ]
