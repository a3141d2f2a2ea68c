"""Tests for fsck's store pass (:func:`repro.core.verify_store.epoch_problems`)."""

from dataclasses import replace

import pytest

from repro.core.clusters import decode_cluster_blob, encode_cluster_blob
from repro.core.direct_mesh import epoch_files
from repro.core.verify_store import epoch_problems


def reseal_cluster_run(store, cluster_id: int, blob: bytes) -> None:
    """Write ``blob`` over cluster ``cluster_id``'s run (same length)
    and re-seal its pages: every page checksum stays valid."""
    clusters = store.clusters
    meta = clusters.meta(cluster_id)
    assert len(blob) == meta.n_bytes
    segment = clusters.segment
    size = segment.payload_size
    for page in range(meta.n_pages):
        chunk = blob[page * size : (page + 1) * size]
        buf = segment.fetch(meta.start_page + page)
        buf[: len(chunk)] = chunk
        segment.mark_dirty(meta.start_page + page)
    store.database.flush()


def repack_index(store, entries) -> None:
    """Replace the store's R*-tree on disk by one over ``entries``,
    STR-packed the way every index here is written."""
    from repro.index.rstar import RStarTree

    name = epoch_files(store.prefix).rtree
    store.database.remove_segment(name)
    RStarTree(store.database.segment(name)).bulk_load(entries)
    store.database.flush()


def store_problems(store) -> list[str]:
    """fsck's store pass over ``store``'s epoch, no page flagged."""
    return epoch_problems(store.database, store.prefix, set())


def tamper_cluster_record(store, cluster_id: int = 0, index: int = 0) -> int:
    """Move row ``index``'s ``z`` in one cluster run and re-seal it:
    every page checksum and the blob framing stay intact, so only the
    cross-copy pass sees that the serving copy no longer matches the
    heap.  Returns the tampered node's id."""
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
        from repro.core.direct_mesh import DirectMeshStore
        from repro.storage.database import Database

        db = Database(tmp_path / "db", pool_pages=256)
        store = DirectMeshStore.build(wavy_pm, db, wavy_connections)
        yield store
        db.close()

    def test_detects_dangling_index_entry(self, small_store):
        from repro.geometry.primitives import Box3

        entries = list(small_store.rtree.all_entries())
        entries.append((Box3.vertical_segment(1, 1, 0, 1), 999_999_999))
        repack_index(small_store, entries)
        assert any("dangling" in p for p in store_problems(small_store))

    def test_detects_missing_index_entry(self, small_store):
        # Drop one index entry but keep the heap record.
        entries = list(small_store.rtree.all_entries())
        repack_index(small_store, entries[1:])
        problems = store_problems(small_store)
        assert any("missing from the index" in p for p in problems)

    def test_detects_index_meta_count_mismatch(self, small_store):
        """A meta page whose entry count disagrees with the leaves,
        re-sealed so every page checksum holds: the crc scan is clean,
        the entry sets agree, and fsck's R*-tree walk names it."""
        from repro.index.rstar import _META
        from repro.storage.integrity import scrub_database

        database = small_store.database
        segment = database.segment(epoch_files(small_store.prefix).rtree)
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
        """A run whose pages and blob framing are intact but that
        serves a different record than the heap holds: fsck's
        cross-copy pass names the node."""
        from repro.obs.metrics import MetricsRegistry
        from repro.storage.integrity import scrub_database

        node_id = tamper_cluster_record(small_store)
        registry = MetricsRegistry()
        report = scrub_database(small_store.database, registry)
        assert report.corrupt_pages == 0
        problem = f"node {node_id}: cluster 0 copy differs from heap"
        assert report.structural == [f"dm: {problem}"]
        assert registry.counters()["fsck.store_problems"] == 1

    def test_detects_cluster_count_mismatch(self, small_store):
        directory = small_store.clusters.directory
        meta = directory.clusters[0]
        directory.clusters[0] = replace(meta, n_nodes=meta.n_nodes + 1)
        files = epoch_files(small_store.prefix)
        directory.save(small_store.database.path / files.directory)
        problems = store_problems(small_store)
        assert any("directory claims" in p for p in problems)

    def test_detects_corrupt_record(self, small_store):
        # Overwrite one record's payload in place with garbage.
        from repro.storage.heapfile import unpack_rid
        from repro.storage.page import SlottedPage

        rid, _ = next(small_store.heap.scan())
        page_no, slot = unpack_rid(rid)
        buf = small_store.heap.segment.fetch(page_no)
        # The slotted layout ends at payload_size; under the v2 page
        # format the bytes beyond it are the crc trailer.
        page = SlottedPage(buf, small_store.heap.segment.payload_size)
        offset, length = page._slot(slot)
        buf[offset : offset + min(8, length)] = b"\xff" * min(8, length)
        small_store.heap.segment.mark_dirty(page_no)
        assert store_problems(small_store)
