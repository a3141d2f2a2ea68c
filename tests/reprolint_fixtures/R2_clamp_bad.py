# reprolint-fixture: path=src/repro/core/query.py
# The pre-fix shape of uniform_query: the wrapper itself builds the
# query plane straight from the requested LOD with no e_cap clamp.
from repro.core.query import filter_uniform_columnar, range_columns
from repro.geometry.primitives import Box3


def uniform_query(store, roi, lod):
    plane_box = Box3.from_rect(roi, lod, lod)  # [R2]
    columns = range_columns(store, plane_box)
    return filter_uniform_columnar(columns, roi, lod)
