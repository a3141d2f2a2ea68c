# reprolint-fixture: path=src/repro/core/query.py
# The fixed form: the probe height routes through clamp_lod, the
# filter keeps the real lod, so lod > e_cap returns the base mesh.
from repro.core.query import (
    clamp_lod,
    filter_uniform_columnar,
    range_columns,
)
from repro.geometry.primitives import Box3


def uniform_query(store, roi, lod):
    probe_e = clamp_lod(lod, store.e_cap)
    plane_box = Box3.from_rect(roi, probe_e, probe_e)
    columns = range_columns(store, plane_box)
    return filter_uniform_columnar(columns, roi, lod)
