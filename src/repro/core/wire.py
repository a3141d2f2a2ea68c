"""Versioned wire format for progressive terrain transmission.

The paper motivates MTMs with walkthroughs on thin clients; ROADMAP
item 2 (after Devillers–Gandoin, *Geometric compression for
progressive transmission*) calls for shipping view *deltas* — not full
result sets — in a compact varint coding.  This module is that wire
layer: a :class:`DeltaFrame` carries the records entering the
approximation and the ids leaving it, :func:`encode_frame` /
:func:`decode_frame` are the codec, and :class:`ClientMesh` is the
pure client that splices frames into a mesh with **no** server-side
state beyond the frame stream itself.

Frame layout (version 1), all integers LEB128 varints unless noted::

    offset  size  field
    0       2     magic  b"DM"
    2       1     version (currently 1)
    3       1     flags   bit 0 = keyframe, bit 1 = degraded
    4       var   seq        frame sequence number (uvarint)
    .       var   n_added    (uvarint)
    .       var   n_removed  (uvarint)
    .       var   added ids  n_added zigzag-delta varints (sorted)
    .       var   payloads   n_added x (uvarint length + DM record)
    .       var   removed ids  n_removed zigzag-delta varints (sorted)
    end-4   4     crc32 (little-endian) over every preceding byte

Id streams are sorted ascending and delta-coded; deltas are wrapped
mod ``2**64`` into signed 64-bit before zigzag, so the stream carries
the full u64 id range (:mod:`repro.storage.varint` documents the
bounds).  Record payloads reuse the self-describing on-disk DM
encoding (:func:`repro.storage.record.decode_dm_node` handles plain
and compressed), each cross-checked against its id stream entry.

Versioning / compatibility rules (also in ``docs/wire_format.md``):
the version byte bumps on any layout change; a decoder rejects frames
with a *newer* version than it knows (no silent misparse) and must
keep decoding every older version it ever shipped.  Flag bits not
listed above are reserved and must be zero in version 1.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

from repro.core.reconstruct import (
    IdArray,
    mesh_edges,
    mesh_triangles,
    pack_records,
)
from repro.errors import RecordError, SessionError
from repro.storage.record import (
    DMNodeRecord,
    decode_dm_node,
    encode_dm_record,
)
from repro.storage.varint import (
    U64_MAX,
    decode_uvarint,
    encode_uvarint,
    unzigzag,
    zigzag,
)

__all__ = [
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "FLAG_KEYFRAME",
    "FLAG_DEGRADED",
    "DeltaFrame",
    "encode_delta_ids",
    "decode_delta_ids",
    "encode_frame",
    "decode_frame",
    "ClientMesh",
]

WIRE_MAGIC = b"DM"
WIRE_VERSION = 1

#: Frame replaces the client's whole mesh (session start or resync).
FLAG_KEYFRAME = 0x01
#: Frame was produced from a degraded (base-mesh) server answer.
FLAG_DEGRADED = 0x02

_KNOWN_FLAGS = FLAG_KEYFRAME | FLAG_DEGRADED
_U64_SPAN = 1 << 64
_CRC_SIZE = 4
_MIN_FRAME = len(WIRE_MAGIC) + 2 + 3 + _CRC_SIZE


def encode_delta_ids(ids: Sequence[int], out: bytearray) -> None:
    """Append sorted ``ids`` as a zigzag-delta varint stream.

    Consecutive deltas are wrapped mod ``2**64`` into the signed
    64-bit range before zigzag, so streams whose ids span the full
    ``[0, 2**64)`` range stay encodable (a plain signed delta between
    u64 extremes would not fit i64).
    """
    previous = 0
    for value in ids:
        if not 0 <= value <= U64_MAX:
            raise RecordError(
                f"id stream values must be in [0, 2**64), got {value}"
            )
        delta = (value - previous) % _U64_SPAN
        if delta >= (1 << 63):
            delta -= _U64_SPAN
        encode_uvarint(zigzag(delta), out)
        previous = value


def decode_delta_ids(
    data: bytes, offset: int, count: int
) -> tuple[list[int], int]:
    """Decode ``count`` zigzag-delta ids; returns ``(ids, offset)``."""
    ids: list[int] = []
    current = 0
    for _ in range(count):
        raw, offset = decode_uvarint(data, offset)
        current = (current + unzigzag(raw)) % _U64_SPAN
        ids.append(current)
    return ids, offset


@dataclass(frozen=True)
class DeltaFrame:
    """One decoded transmission frame.

    ``added`` records are sorted by id; ``removed`` ids are sorted
    ascending.  A *keyframe* replaces the client mesh outright (the
    session opener and the resync path); non-keyframes splice.
    """

    seq: int
    added: tuple[DMNodeRecord, ...]
    removed: tuple[int, ...]
    flags: int = 0

    @property
    def keyframe(self) -> bool:
        """True when this frame replaces the whole client mesh."""
        return bool(self.flags & FLAG_KEYFRAME)

    @property
    def degraded(self) -> bool:
        """True when the server answered from a degraded result."""
        return bool(self.flags & FLAG_DEGRADED)


def encode_frame(frame: DeltaFrame, compress: bool = True) -> bytes:
    """Serialise a frame (``compress`` varint-packs connection lists)."""
    if frame.seq < 0:
        raise RecordError(f"frame seq must be >= 0, got {frame.seq}")
    if frame.flags & ~_KNOWN_FLAGS:
        raise RecordError(
            f"unknown frame flags 0x{frame.flags & ~_KNOWN_FLAGS:x}"
        )
    body = bytearray()
    body += WIRE_MAGIC
    body.append(WIRE_VERSION)
    body.append(frame.flags)
    encode_uvarint(frame.seq, body)
    encode_uvarint(len(frame.added), body)
    encode_uvarint(len(frame.removed), body)
    added = sorted(frame.added, key=lambda record: record.id)
    encode_delta_ids([record.id for record in added], body)
    for record in added:
        payload = encode_dm_record(record, compress=compress)
        encode_uvarint(len(payload), body)
        body += payload
    encode_delta_ids(sorted(frame.removed), body)
    body += zlib.crc32(bytes(body)).to_bytes(_CRC_SIZE, "little")
    return bytes(body)


def decode_frame(data: bytes) -> DeltaFrame:
    """Deserialise one frame, verifying checksum and layout."""
    if len(data) < _MIN_FRAME:
        raise RecordError(
            f"frame is {len(data)} bytes, below minimum {_MIN_FRAME}"
        )
    expected_crc = int.from_bytes(data[-_CRC_SIZE:], "little")
    actual_crc = zlib.crc32(data[:-_CRC_SIZE])
    if expected_crc != actual_crc:
        raise RecordError(
            "frame checksum mismatch",
            expected=expected_crc,
            actual=actual_crc,
        )
    if data[: len(WIRE_MAGIC)] != WIRE_MAGIC:
        raise RecordError("bad frame magic")
    version = data[len(WIRE_MAGIC)]
    if version > WIRE_VERSION:
        raise RecordError(
            "frame version newer than supported",
            version=version,
            supported=WIRE_VERSION,
        )
    if version < 1:
        raise RecordError("bad frame version 0")
    flags = data[len(WIRE_MAGIC) + 1]
    if flags & ~_KNOWN_FLAGS:
        raise RecordError(f"unknown frame flags 0x{flags & ~_KNOWN_FLAGS:x}")
    end = len(data) - _CRC_SIZE
    body = data[:end]
    offset = len(WIRE_MAGIC) + 2
    seq, offset = decode_uvarint(body, offset)
    n_added, offset = decode_uvarint(body, offset)
    n_removed, offset = decode_uvarint(body, offset)
    # Each id costs at least one byte, so counts past the frame size
    # are corrupt; reject before allocating anything count-sized.
    if n_added + n_removed > len(body):
        raise RecordError(
            "frame counts exceed the frame size",
            n_added=n_added,
            n_removed=n_removed,
            frame_bytes=len(body),
        )
    added_ids, offset = decode_delta_ids(body, offset, n_added)
    added: list[DMNodeRecord] = []
    for index in range(n_added):
        length, offset = decode_uvarint(body, offset)
        if offset + length > end:
            raise RecordError(
                "frame record payload overruns the frame",
                index=index,
                length=length,
            )
        record = decode_dm_node(body[offset : offset + length])
        offset += length
        if record.id != added_ids[index]:
            raise RecordError(
                "frame payload id disagrees with its id stream",
                stream_id=added_ids[index],
                payload_id=record.id,
            )
        added.append(record)
    removed, offset = decode_delta_ids(body, offset, n_removed)
    if offset != end:
        raise RecordError(
            f"frame has {end - offset} trailing bytes before the checksum"
        )
    return DeltaFrame(seq, tuple(added), tuple(removed), flags)


class ClientMesh:
    """The thin-client side of a delta session: pure frame splicing.

    Holds only what came over the wire — no store, no index, no query
    processors — which is exactly the paper's thin-client story: DM
    records are self-describing (coordinates + connection list), so
    splicing needs no server round-trip.  Frames must arrive in
    sequence order; a keyframe is accepted at any point and replaces
    the mesh (the resync path).  A failed :meth:`apply` leaves the
    mesh untouched, so a client can request a resync and carry on.

    Not thread-safe: a session is a single client's ordered stream.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, DMNodeRecord] = {}
        self._next_seq = 0
        self._frames = 0

    # -- state -------------------------------------------------------------

    @property
    def active_ids(self) -> set[int]:
        """Ids currently in the client's mesh."""
        return set(self._nodes)

    @property
    def frames_applied(self) -> int:
        """Number of frames spliced so far."""
        return self._frames

    @property
    def next_seq(self) -> int:
        """The sequence number the next non-keyframe must carry."""
        return self._next_seq

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> DMNodeRecord:
        """The record for ``node_id`` (raises if absent)."""
        record = self._nodes.get(node_id)
        if record is None:
            raise SessionError(
                "node is not in the client mesh", node_id=node_id
            )
        return record

    def records(self) -> dict[int, DMNodeRecord]:
        """A snapshot of the client's records by id."""
        return dict(self._nodes)

    def mesh(self) -> tuple[IdArray, IdArray]:
        """The client's current ``(edges, triangles)``: sorted
        ``(k, 2)`` / ``(m, 3)`` node-id arrays, as
        :class:`~repro.core.query.DMQueryResult` returns them."""
        arrays = pack_records(self._nodes)
        edges = mesh_edges(arrays)
        return edges, mesh_triangles(arrays, edges)

    # -- splicing ----------------------------------------------------------

    def apply(self, payload: bytes) -> DeltaFrame:
        """Decode one frame and splice it into the mesh.

        Returns the decoded frame.  Raises
        :class:`~repro.errors.RecordError` for malformed bytes and
        :class:`~repro.errors.SessionError` for protocol violations
        (sequence gap, removing an id the mesh does not hold, adding a
        duplicate); in every failure case the mesh is unchanged.
        """
        frame = decode_frame(payload)
        if frame.keyframe:
            nodes: dict[int, DMNodeRecord] = {}
        else:
            if frame.seq != self._next_seq:
                raise SessionError(
                    "frame out of sequence",
                    expected=self._next_seq,
                    got=frame.seq,
                )
            nodes = dict(self._nodes)
        for node_id in frame.removed:
            if node_id not in nodes:
                raise SessionError(
                    "frame removes an id the client does not hold",
                    node_id=node_id,
                )
            del nodes[node_id]
        for record in frame.added:
            if record.id in nodes:
                raise SessionError(
                    "frame adds an id the client already holds",
                    node_id=record.id,
                )
            nodes[record.id] = record
        self._nodes = nodes
        self._next_seq = frame.seq + 1
        self._frames += 1
        return frame
