# reprolint-fixture: path=src/repro/terrain/demo_probe.py
# Minimized reproduction of the e_cap blind spot fixed in PR 2: a
# module outside the sanctioned wrappers probes the R*-tree with an
# unclamped LOD, so lod > e_cap sails over every indexed segment and
# silently returns an empty mesh.
from repro.geometry.primitives import Box3


def fetch_mesh(store, roi, lod):
    plane_box = Box3.from_rect(roi, lod, lod)
    rids = store.rtree.search(plane_box)  # [R2]
    return store.heap.read_many(rids)
