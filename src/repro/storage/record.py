"""Binary record codecs for PM and DM nodes.

Two on-disk record formats:

* **PM node record** (fixed 96 bytes) — the paper Section 2 tuple
  ``(ID, x, y, z, e, parent, child1, child2, wing1, wing2)`` plus the
  node's LOD-interval top and the footprint MBR that the paper notes
  every internal node must record.
* **DM node record** (variable) — the PM fields (minus the footprint,
  which the 3D index supersedes) plus the similar-LOD connection-point
  list of paper Section 4.

Both use little-endian :mod:`struct` packing.  ``LOD_INFINITY`` for
root intervals round-trips as an IEEE infinity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InvariantError, RecordError
from repro.geometry.primitives import Rect
from repro.mesh.progressive import NULL_ID, PMNode

__all__ = [
    "PM_RECORD_SIZE",
    "DMNodeRecord",
    "DMNodeColumns",
    "encode_pm_node",
    "decode_pm_node",
    "encode_dm_node",
    "encode_dm_record",
    "decode_dm_node",
    "decode_dm_nodes_columnar",
    "concat_dm_columns",
    "dm_record_size",
]

_PM = struct.Struct("<i5d5i4d")
PM_RECORD_SIZE = _PM.size

_DM_FIXED = struct.Struct("<i5d5iH")
_CONN_ENTRY = struct.Struct("<i")

#: ``n_conn`` sentinel marking a delta+varint compressed connection
#: list (extension; see :mod:`repro.storage.varint`).
_COMPRESSED_CONN = 0xFFFF


def encode_pm_node(node: PMNode) -> bytes:
    """Serialise a PM node (requires a computed footprint)."""
    if node.footprint is None:
        raise RecordError(f"node {node.id} has no footprint; normalise first")
    return _PM.pack(
        node.id,
        node.x,
        node.y,
        node.z,
        node.e,
        node.e_high,
        node.parent,
        node.child1,
        node.child2,
        node.wing1,
        node.wing2,
        node.footprint.min_x,
        node.footprint.min_y,
        node.footprint.max_x,
        node.footprint.max_y,
    )


def decode_pm_node(payload: bytes) -> PMNode:
    """Deserialise a PM node record."""
    if len(payload) != PM_RECORD_SIZE:
        raise RecordError(
            f"PM record is {len(payload)} bytes, expected {PM_RECORD_SIZE}"
        )
    (
        node_id,
        x,
        y,
        z,
        e,
        e_high,
        parent,
        child1,
        child2,
        wing1,
        wing2,
        fx0,
        fy0,
        fx1,
        fy1,
    ) = _PM.unpack(payload)
    node = PMNode(
        node_id,
        x,
        y,
        z,
        error=e,
        parent=parent,
        child1=child1,
        child2=child2,
        wing1=wing1,
        wing2=wing2,
    )
    node.e = e
    node.e_high = e_high
    node.footprint = Rect(fx0, fy0, fx1, fy1)
    return node


@dataclass(slots=True)
class DMNodeRecord:
    """A decoded Direct Mesh node.

    ``connections`` is the similar-LOD connection-point list; the
    interval is ``[e_low, e_high)`` with ``e_high`` infinite at roots.
    """

    id: int
    x: float
    y: float
    z: float
    e_low: float
    e_high: float
    parent: int
    child1: int
    child2: int
    wing1: int
    wing2: int
    connections: list[int]

    @property
    def is_leaf(self) -> bool:
        """True for original terrain points."""
        return self.child1 == NULL_ID

    def interval_contains(self, lod: float) -> bool:
        """True if ``lod`` lies in ``[e_low, e_high)``."""
        return self.e_low <= lod < self.e_high

    def interval_intersects(self, lo: float, hi: float) -> bool:
        """True if ``[e_low, e_high)`` intersects the closed ``[lo, hi]``."""
        return self.e_low <= hi and self.e_high > lo


def _pack_dm(
    fixed: tuple, connections: list[int], compress: bool
) -> bytes:
    """The DM record packer: ``fixed`` is ``(id, x, y, z, e_low,
    e_high, parent, child1, child2, wing1, wing2)``."""
    if len(connections) >= _COMPRESSED_CONN:
        raise RecordError(
            f"node {fixed[0]}: {len(connections)} connections exceed u16"
        )
    head = _DM_FIXED.pack(
        *fixed, _COMPRESSED_CONN if compress else len(connections)
    )
    if compress:
        from repro.storage.varint import encode_id_list

        return head + encode_id_list(connections)
    return head + struct.pack(f"<{len(connections)}i", *connections)


def encode_dm_node(
    node: PMNode, connections: list[int], compress: bool = False
) -> bytes:
    """Serialise a DM node with its connection-point list.

    With ``compress`` the connection list is stored delta+varint coded
    (typically 2-3x smaller); the format is self-describing, so
    :func:`decode_dm_node` handles both encodings.
    """
    fixed = (
        node.id, node.x, node.y, node.z, node.e, node.e_high,
        node.parent, node.child1, node.child2, node.wing1, node.wing2,
    )
    return _pack_dm(fixed, connections, compress)


def encode_dm_record(record: DMNodeRecord, compress: bool = False) -> bytes:
    """Serialise an already-decoded :class:`DMNodeRecord`.

    :func:`encode_dm_node` serialises build-time ``PMNode`` objects;
    this is its runtime twin for records read back from the store —
    the delta-session wire format (:mod:`repro.core.wire`) re-encodes
    fetched records into frame payloads.  The output is byte-identical
    to the on-disk encoding, so :func:`decode_dm_node` decodes both.
    """
    fixed = (
        record.id, record.x, record.y, record.z, record.e_low,
        record.e_high, record.parent, record.child1, record.child2,
        record.wing1, record.wing2,
    )
    return _pack_dm(fixed, record.connections, compress)


def decode_dm_node(payload: bytes) -> DMNodeRecord:
    """Deserialise a DM node record."""
    if len(payload) < _DM_FIXED.size:
        raise RecordError(
            f"DM record is {len(payload)} bytes, below fixed part "
            f"{_DM_FIXED.size}"
        )
    (
        node_id,
        x,
        y,
        z,
        e_low,
        e_high,
        parent,
        child1,
        child2,
        wing1,
        wing2,
        n_conn,
    ) = _DM_FIXED.unpack_from(payload, 0)
    if n_conn == _COMPRESSED_CONN:
        from repro.storage.varint import decode_id_list

        connections, end = decode_id_list(payload, _DM_FIXED.size)
        if end != len(payload):
            raise RecordError(
                f"DM record has {len(payload) - end} trailing bytes"
            )
    else:
        expected = _DM_FIXED.size + n_conn * _CONN_ENTRY.size
        if len(payload) != expected:
            raise RecordError(
                f"DM record is {len(payload)} bytes, expected {expected} "
                f"for {n_conn} connections"
            )
        connections = list(
            struct.unpack_from(f"<{n_conn}i", payload, _DM_FIXED.size)
        )
    return DMNodeRecord(
        node_id,
        x,
        y,
        z,
        e_low,
        e_high,
        parent,
        child1,
        child2,
        wing1,
        wing2,
        connections,
    )


def dm_record_size(n_connections: int) -> int:
    """On-disk size of a DM record with ``n_connections`` entries."""
    return _DM_FIXED.size + n_connections * _CONN_ENTRY.size


#: numpy view of the DM fixed part — field-for-field the layout of
#: ``_DM_FIXED`` (``<i5d5iH``, 66 bytes, no padding).
_DM_COLUMN_DTYPE = np.dtype(
    [
        ("id", "<i4"),
        ("x", "<f8"),
        ("y", "<f8"),
        ("z", "<f8"),
        ("e_low", "<f8"),
        ("e_high", "<f8"),
        ("parent", "<i4"),
        ("child1", "<i4"),
        ("child2", "<i4"),
        ("wing1", "<i4"),
        ("wing2", "<i4"),
        ("n_conn", "<u2"),
    ]
)
if _DM_COLUMN_DTYPE.itemsize != _DM_FIXED.size:
    raise InvariantError(
        "columnar dtype drifted from the packed record layout",
        dtype_itemsize=_DM_COLUMN_DTYPE.itemsize,
        struct_size=_DM_FIXED.size,
    )


@dataclass(slots=True)
class DMNodeColumns:
    """A page of DM nodes as a numpy struct-of-arrays.

    What every fetch returns (the reference range query and the
    engine's cluster fetch alike): one contiguous array per field,
    with the variable-length connection lists stored CSR-style
    (``conn_flat[conn_offsets[i]:conn_offsets[i + 1]]`` is row ``i``'s
    list).  This is what the vectorized query kernels and
    the semantic cache operate on — predicates run as array masks and
    only the surviving rows are materialised back into records.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    e_low: np.ndarray
    e_high: np.ndarray
    parent: np.ndarray
    child1: np.ndarray
    child2: np.ndarray
    wing1: np.ndarray
    wing2: np.ndarray
    conn_offsets: np.ndarray
    conn_flat: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def nbytes(self) -> int:
        """Total array payload (the cache's byte accounting)."""
        return sum(
            arr.nbytes
            for arr in (
                self.ids, self.x, self.y, self.z, self.e_low, self.e_high,
                self.parent, self.child1, self.child2, self.wing1,
                self.wing2, self.conn_offsets, self.conn_flat,
            )
        )

    def record(self, i: int) -> DMNodeRecord:
        """Materialise row ``i`` as a :class:`DMNodeRecord`."""
        lo = int(self.conn_offsets[i])
        hi = int(self.conn_offsets[i + 1])
        return DMNodeRecord(
            int(self.ids[i]),
            float(self.x[i]),
            float(self.y[i]),
            float(self.z[i]),
            float(self.e_low[i]),
            float(self.e_high[i]),
            int(self.parent[i]),
            int(self.child1[i]),
            int(self.child2[i]),
            int(self.wing1[i]),
            int(self.wing2[i]),
            [int(c) for c in self.conn_flat[lo:hi]],
        )

    def connections_of(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(conn_offsets, conn_flat)`` of rows ``indices``: their
        CSR connection lists gathered and re-based, in that order."""
        starts = self.conn_offsets[indices]
        lengths = self.conn_offsets[indices + 1] - starts
        offsets = np.zeros(indices.size + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if not total:
            return offsets, self.conn_flat[:0]
        gather = np.repeat(starts - offsets[:-1], lengths)
        gather += np.arange(total, dtype=np.int64)
        return offsets, self.conn_flat[gather]

    def materialize(self, mask: np.ndarray) -> dict[int, DMNodeRecord]:
        """Rows where ``mask`` holds, as an id-keyed record dict.

        Row order is preserved (the dict's insertion order is the
        page's).  Columns are
        converted with one ``tolist`` per field (much cheaper than
        per-element ``int()``/``float()`` casts on the hot path).
        """
        indices = np.flatnonzero(mask)
        if indices.size == 0:
            return {}
        ids = self.ids[indices].tolist()
        xs = self.x[indices].tolist()
        ys = self.y[indices].tolist()
        zs = self.z[indices].tolist()
        e_lows = self.e_low[indices].tolist()
        e_highs = self.e_high[indices].tolist()
        parents = self.parent[indices].tolist()
        child1s = self.child1[indices].tolist()
        child2s = self.child2[indices].tolist()
        wing1s = self.wing1[indices].tolist()
        wing2s = self.wing2[indices].tolist()
        starts = self.conn_offsets[indices].tolist()
        ends = self.conn_offsets[indices + 1].tolist()
        flat = self.conn_flat
        out: dict[int, DMNodeRecord] = {}
        for k, nid in enumerate(ids):
            out[nid] = DMNodeRecord(
                nid, xs[k], ys[k], zs[k], e_lows[k], e_highs[k],
                parents[k], child1s[k], child2s[k], wing1s[k], wing2s[k],
                flat[starts[k]:ends[k]].tolist(),
            )
        return out

    def select(self, mask: np.ndarray) -> "DMNodeColumns":
        """Rows where ``mask`` holds, as a new columnar page.

        The columnar analogue of fetching a subset of RIDs: the fixed
        columns are gathered directly and the CSR connection offsets
        are re-based over the surviving rows.  Returns ``self`` when
        the mask keeps every row (no copies on the common
        whole-cluster case).
        """
        indices = np.flatnonzero(mask)
        if indices.size == len(self):
            return self
        offsets, flat = self.connections_of(indices)
        return DMNodeColumns(
            ids=self.ids[indices],
            x=self.x[indices],
            y=self.y[indices],
            z=self.z[indices],
            e_low=self.e_low[indices],
            e_high=self.e_high[indices],
            parent=self.parent[indices],
            child1=self.child1[indices],
            child2=self.child2[indices],
            wing1=self.wing1[indices],
            wing2=self.wing2[indices],
            conn_offsets=offsets,
            conn_flat=flat,
        )

    def records(self) -> list[DMNodeRecord]:
        """Every row materialised (mainly for tests and fallbacks)."""
        return [self.record(i) for i in range(len(self))]


def concat_dm_columns(parts: Sequence[DMNodeColumns]) -> DMNodeColumns:
    """Concatenate columnar pages row-wise into one page.

    The cluster fast path decodes whole clusters independently (and
    caches them decoded); a query touching several clusters stitches
    their pages together here before the vectorized filters run.  Row
    order follows ``parts`` order, and the CSR connection offsets are
    re-based so ``conn_flat`` slicing stays valid.  Zero- and
    one-element inputs short-circuit without copying.
    """
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        return decode_dm_nodes_columnar([])
    if len(parts) == 1:
        return parts[0]
    offsets = np.zeros(sum(len(p) for p in parts) + 1, np.int64)
    row = 0
    base = 0
    for part in parts:
        n = len(part)
        offsets[row + 1:row + n + 1] = part.conn_offsets[1:] + base
        row += n
        base += int(part.conn_offsets[-1])
    return DMNodeColumns(
        ids=np.concatenate([p.ids for p in parts]),
        x=np.concatenate([p.x for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        z=np.concatenate([p.z for p in parts]),
        e_low=np.concatenate([p.e_low for p in parts]),
        e_high=np.concatenate([p.e_high for p in parts]),
        parent=np.concatenate([p.parent for p in parts]),
        child1=np.concatenate([p.child1 for p in parts]),
        child2=np.concatenate([p.child2 for p in parts]),
        wing1=np.concatenate([p.wing1 for p in parts]),
        wing2=np.concatenate([p.wing2 for p in parts]),
        conn_offsets=offsets,
        conn_flat=np.concatenate([p.conn_flat for p in parts]),
    )


def decode_dm_nodes_columnar(
    payloads: Sequence[bytes],
) -> DMNodeColumns:
    """Batch-decode DM records into a :class:`DMNodeColumns`.

    Accepts the same payloads as :func:`decode_dm_node` (compressed
    and uncompressed connection lists may mix freely) and applies the
    same validation; the fixed parts are decoded in one
    ``np.frombuffer`` pass instead of per-record ``struct`` unpacking.
    """
    n = len(payloads)
    if n == 0:
        empty_f = np.empty(0, np.float64)
        empty_i = np.empty(0, np.int32)
        return DMNodeColumns(
            empty_i, empty_f, empty_f, empty_f, empty_f, empty_f,
            empty_i, empty_i, empty_i, empty_i, empty_i,
            np.zeros(1, np.int64), np.empty(0, np.int32),
        )
    fixed_size = _DM_FIXED.size
    for payload in payloads:
        if len(payload) < fixed_size:
            raise RecordError(
                f"DM record is {len(payload)} bytes, below fixed part "
                f"{fixed_size}"
            )
    heads = b"".join(p[:fixed_size] for p in payloads)
    fixed = np.frombuffer(heads, dtype=_DM_COLUMN_DTYPE)

    # Tails: the raw uncompressed bytes are already little-endian i32,
    # so each record contributes its byte slice to one join + one
    # frombuffer at the end (a per-record frombuffer would dominate the
    # whole decode); compressed lists are expanded back to i32 bytes.
    n_conns = fixed["n_conn"].tolist()
    counts = np.empty(n, np.int64)
    parts: list[bytes] = []
    for i, payload in enumerate(payloads):
        nc = n_conns[i]
        if nc == _COMPRESSED_CONN:
            from repro.storage.varint import decode_id_list

            connections, end = decode_id_list(payload, fixed_size)
            if end != len(payload):
                raise RecordError(
                    f"DM record has {len(payload) - end} trailing bytes"
                )
            counts[i] = len(connections)
            parts.append(np.asarray(connections, "<i4").tobytes())
        else:
            expected = fixed_size + nc * _CONN_ENTRY.size
            if len(payload) != expected:
                raise RecordError(
                    f"DM record is {len(payload)} bytes, expected "
                    f"{expected} for {nc} connections"
                )
            counts[i] = nc
            parts.append(payload[fixed_size:])

    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(counts, out=offsets[1:])
    flat = np.frombuffer(b"".join(parts), "<i4").astype(np.int32, copy=False)
    return DMNodeColumns(
        ids=np.ascontiguousarray(fixed["id"]),
        x=np.ascontiguousarray(fixed["x"]),
        y=np.ascontiguousarray(fixed["y"]),
        z=np.ascontiguousarray(fixed["z"]),
        e_low=np.ascontiguousarray(fixed["e_low"]),
        e_high=np.ascontiguousarray(fixed["e_high"]),
        parent=np.ascontiguousarray(fixed["parent"]),
        child1=np.ascontiguousarray(fixed["child1"]),
        child2=np.ascontiguousarray(fixed["child2"]),
        wing1=np.ascontiguousarray(fixed["wing1"]),
        wing2=np.ascontiguousarray(fixed["wing2"]),
        conn_offsets=offsets,
        conn_flat=flat,
    )
