# reprolint-fixture: path=src/repro/core/demo_patchlog_fixed.py
# The fixed form: everything but __init__/install_store asks
# patched_since(), which reads the slot once into locals.  A cache
# with a patch log of its own (guarded by its own lock, no _snap
# slot) is out of scope.


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
        return self.patched_since(epoch, None)


class MiniCache:
    def __init__(self) -> None:
        self._patch_log = []

    def begin_epoch(self, epoch, region) -> None:
        self._patch_log.append((epoch, region))

    def insert(self, epoch) -> bool:
        return not any(e > epoch for e, _ in self._patch_log)
