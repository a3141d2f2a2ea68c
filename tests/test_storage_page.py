"""Tests for slotted pages."""

import pytest

from repro.errors import PageError
from repro.storage.page import DEFAULT_PAGE_SIZE, SlottedPage


@pytest.fixture
def page():
    return SlottedPage.format(bytearray(DEFAULT_PAGE_SIZE))


class TestSlottedPage:
    def test_insert_read_roundtrip(self, page):
        slot = page.insert(b"hello")
        assert slot == 0
        assert page.read(slot) == b"hello"

    def test_multiple_records(self, page):
        slots = [page.insert(f"rec-{i}".encode()) for i in range(10)]
        assert slots == list(range(10))
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"rec-{i}".encode()

    def test_variable_lengths(self, page):
        a = page.insert(b"x")
        b = page.insert(b"y" * 1000)
        c = page.insert(b"")
        assert page.read(a) == b"x"
        assert page.read(b) == b"y" * 1000
        assert page.read(c) == b""

    def test_overflow_raises(self, page):
        big = b"z" * 4000
        page.insert(big)
        page.insert(big)
        with pytest.raises(PageError):
            page.insert(big)

    def test_can_fit_accounts_for_slot_entry(self, page):
        free = page.free_space()
        assert page.can_fit(free - 4)
        assert not page.can_fit(free - 3)

    def test_delete(self, page):
        slot = page.insert(b"gone")
        keep = page.insert(b"kept")
        page.delete(slot)
        with pytest.raises(PageError):
            page.read(slot)
        with pytest.raises(PageError):
            page.delete(slot)
        assert page.records() == [(keep, b"kept")]

    def test_bad_slot(self, page):
        with pytest.raises(PageError):
            page.read(0)
        page.insert(b"a")
        with pytest.raises(PageError):
            page.read(5)

    def test_reinterpret_existing_buffer(self, page):
        page.insert(b"persisted")
        # A fresh view over the same bytes sees the record.
        view = SlottedPage(page._buf)
        assert view.read(0) == b"persisted"

    def test_small_page_size(self):
        page = SlottedPage.format(bytearray(64), page_size=64)
        slot = page.insert(b"tiny")
        assert page.read(slot) == b"tiny"
        with pytest.raises(PageError):
            page.insert(b"v" * 60)
