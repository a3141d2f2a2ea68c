# reprolint-fixture: path=src/repro/core/demo_patchlog.py
# The engine's patch history is the second slot a commit replaces
# whole: (floor, entries), swapped by install_store.  A reader outside
# patched_since is a second place to pair one log's floor with the
# next log's entries — and a writer outside install_store publishes a
# patch no snapshot swap follows.


class MiniEngine:
    def __init__(self, store) -> None:
        self._snap = (store, 0)
        self._patch_log = (0, ())

    def pinned_snapshot(self):
        return self._snap

    def install_store(self, store, epoch, region) -> None:
        floor, entries = self._patch_log
        self._patch_log = (floor, entries + ((epoch, region),))
        self._snap = (store, epoch)

    def patched_since(self, epoch, roi) -> bool:
        floor, entries = self._patch_log
        return epoch < floor or any(e > epoch for e, _ in entries)

    def stale(self, epoch) -> bool:
        # Two dereferences: the floor of one log, the entries of the
        # next.
        if epoch < self._patch_log[0]:  # [R12]
            return True
        return bool(self._patch_log[1])  # [R12]

    def forget(self) -> None:
        self._patch_log = (0, ())  # [R12]
