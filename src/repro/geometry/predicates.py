"""Planar geometric predicates used by the Delaunay triangulator.

The predicates are implemented with double-precision arithmetic plus a
static error filter: a result whose magnitude falls below a conservative
bound derived from the operand magnitudes is treated as *uncertain* and
re-evaluated with :mod:`fractions` exact rational arithmetic.  This is
the classic "floating-point filter" approach and is robust enough for
terrain point sets (which come from grids and pseudo-random generators,
not adversarial input) while staying dependency-free.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "orient2d",
    "incircle",
    "point_in_triangle",
]

# Relative error bounds for the filtered predicates.  These follow the
# structure of Shewchuk's bounds; the constants are conservative.
_ORIENT2D_BOUND = 4e-15
_INCIRCLE_BOUND = 1e-13
#: Below this ``detsum`` a product may be subnormal, whose rounding error
#: is absolute rather than relative, so the orient2d bound does not hold.
_ORIENT2D_FLOOR = 1e-290


def orient2d(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """Orientation of the triangle ``a, b, c``.

    Returns ``+1`` if the points wind counter-clockwise, ``-1`` if
    clockwise, and ``0`` if exactly collinear.
    """
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    # Underflow guard: a product of two non-zero factors that rounds to
    # zero defeats the error analysis below (it assumes gradual
    # rounding, not total cancellation to zero).  Only reachable with
    # subnormal-scale inputs; route those to the exact path.
    if (detleft == 0.0 and ax != cx and by != cy) or (
        detright == 0.0 and ay != cy and bx != cx
    ):
        return _orient2d_exact(ax, ay, bx, by, cx, cy)
    if detleft > 0:
        if detright <= 0:
            return _sign(det)
        detsum = detleft + detright
    elif detleft < 0:
        if detright >= 0:
            return _sign(det)
        detsum = -detleft - detright
    else:
        return _sign(det)
    errbound = _ORIENT2D_BOUND * detsum
    if detsum >= _ORIENT2D_FLOOR and (det >= errbound or -det >= errbound):
        return _sign(det)
    return _orient2d_exact(ax, ay, bx, by, cx, cy)


def _orient2d_exact(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> int:
    """Exact orientation via rational arithmetic (slow path)."""
    axf, ayf = Fraction(ax), Fraction(ay)
    bxf, byf = Fraction(bx), Fraction(by)
    cxf, cyf = Fraction(cx), Fraction(cy)
    det = (axf - cxf) * (byf - cyf) - (ayf - cyf) * (bxf - cxf)
    return _sign(det)


def incircle(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    dx: float,
    dy: float,
) -> int:
    """In-circle test for the Delaunay criterion.

    For a counter-clockwise triangle ``a, b, c``: returns ``+1`` if ``d``
    lies strictly inside its circumcircle, ``-1`` if strictly outside,
    ``0`` if exactly on the circle.
    """
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    ad_sq = adx * adx + ady * ady
    bd_sq = bdx * bdx + bdy * bdy
    cd_sq = cdx * cdx + cdy * cdy

    det = (
        ad_sq * (bdx * cdy - bdy * cdx)
        - bd_sq * (adx * cdy - ady * cdx)
        + cd_sq * (adx * bdy - ady * bdx)
    )

    permanent = (
        ad_sq * (abs(bdx * cdy) + abs(bdy * cdx))
        + bd_sq * (abs(adx * cdy) + abs(ady * cdx))
        + cd_sq * (abs(adx * bdy) + abs(ady * bdx))
    )
    errbound = _INCIRCLE_BOUND * permanent
    if det > errbound or -det > errbound:
        return _sign(det)
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
    dx: float,
    dy: float,
) -> int:
    """Exact in-circle test via rational arithmetic (slow path)."""
    adx = Fraction(ax) - Fraction(dx)
    ady = Fraction(ay) - Fraction(dy)
    bdx = Fraction(bx) - Fraction(dx)
    bdy = Fraction(by) - Fraction(dy)
    cdx = Fraction(cx) - Fraction(dx)
    cdy = Fraction(cy) - Fraction(dy)
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - bdy * cdx)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - ady * cdx)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - ady * bdx)
    )
    return _sign(det)


def point_in_triangle(
    px: float,
    py: float,
    ax: float,
    ay: float,
    bx: float,
    by: float,
    cx: float,
    cy: float,
) -> bool:
    """True if ``p`` lies inside or on the boundary of triangle ``a, b, c``.

    Works for either winding order of the triangle.
    """
    d1 = orient2d(px, py, ax, ay, bx, by)
    d2 = orient2d(px, py, bx, by, cx, cy)
    d3 = orient2d(px, py, cx, cy, ax, ay)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def _sign(value) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0
