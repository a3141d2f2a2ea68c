"""Hilbert keys for spatial disk clustering.

The paper arranges terrain data on disk so that "(x, y) clustering is
preserved as much as possible".  The PM baseline's tile builder and the
storage ablation sort records along the Hilbert curve before bulk
insertion into heap files.
"""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry.primitives import Rect

__all__ = ["hilbert_key", "normalized_quantizer"]


def hilbert_key(ix: int, iy: int, bits: int = 16) -> int:
    """Distance along the order-``bits`` Hilbert curve at ``(ix, iy)``.

    Standard rotate-and-accumulate formulation.
    """
    _check_coords(ix, iy, bits)
    rx = ry = 0
    d = 0
    s = 1 << (bits - 1)
    x, y = ix, iy
    while s > 0:
        rx = 1 if (x & s) > 0 else 0
        ry = 1 if (y & s) > 0 else 0
        d += s * s * ((3 * rx) ^ ry)
        # Rotate the quadrant.
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        s //= 2
    return d


def normalized_quantizer(bounds: Rect, bits: int = 16):
    """A function quantising ``(x, y)`` in ``bounds`` to integer grid
    coordinates suitable for :func:`hilbert_key`.
    """
    size = (1 << bits) - 1
    width = bounds.width or 1.0
    height = bounds.height or 1.0

    def quantize(x: float, y: float) -> tuple[int, int]:
        ix = int((x - bounds.min_x) / width * size)
        iy = int((y - bounds.min_y) / height * size)
        return (min(max(ix, 0), size), min(max(iy, 0), size))

    return quantize


def _check_coords(ix: int, iy: int, bits: int) -> None:
    if bits < 1 or bits > 31:
        raise GeometryError(f"bits must be in 1..31, got {bits}")
    limit = 1 << bits
    if not (0 <= ix < limit and 0 <= iy < limit):
        raise GeometryError(
            f"coordinates ({ix}, {iy}) out of range for {bits} bits"
        )
