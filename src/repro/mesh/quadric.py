"""Quadric error metrics (Garland & Heckbert, SIGGRAPH '97).

The paper pre-processes both evaluation datasets "using the Quadric
Error Metrics [7]" — edge collapses are ordered by the QEM cost, and
each new parent point is placed at the position minimising its quadric.

A quadric is the symmetric 4x4 matrix ``Q = sum_p K_p`` over the planes
``p`` of the triangles around a vertex, where for plane
``ax + by + cz + d = 0`` (normalised) ``K_p = pp^T``.  The error of
placing the merged vertex at ``v`` is ``v^T Q v``.

We store the 10 distinct coefficients in a flat tuple, which profiles
measurably faster than numpy for these tiny matrices in CPython.
"""

from __future__ import annotations

import math

__all__ = ["Quadric", "triangle_plane_quadric"]


class Quadric:
    """A symmetric 4x4 quadric form.

    Coefficient layout (row-major upper triangle)::

        [ a  b  c  d ]
        [ b  e  f  g ]
        [ c  f  h  i ]
        [ d  g  i  j ]
    """

    __slots__ = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")

    def __init__(
        self,
        a: float = 0.0,
        b: float = 0.0,
        c: float = 0.0,
        d: float = 0.0,
        e: float = 0.0,
        f: float = 0.0,
        g: float = 0.0,
        h: float = 0.0,
        i: float = 0.0,
        j: float = 0.0,
    ) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.d = d
        self.e = e
        self.f = f
        self.g = g
        self.h = h
        self.i = i
        self.j = j

    @classmethod
    def from_plane(cls, a: float, b: float, c: float, d: float) -> "Quadric":
        """The fundamental quadric ``pp^T`` of plane ``ax+by+cz+d = 0``.

        The plane coefficients should be normalised
        (``a^2 + b^2 + c^2 = 1``) so errors are squared distances.
        """
        return cls(
            a * a, a * b, a * c, a * d,
            b * b, b * c, b * d,
            c * c, c * d,
            d * d,
        )

    def __add__(self, other: "Quadric") -> "Quadric":
        return Quadric(
            self.a + other.a,
            self.b + other.b,
            self.c + other.c,
            self.d + other.d,
            self.e + other.e,
            self.f + other.f,
            self.g + other.g,
            self.h + other.h,
            self.i + other.i,
            self.j + other.j,
        )

    def __iadd__(self, other: "Quadric") -> "Quadric":
        self.a += other.a
        self.b += other.b
        self.c += other.c
        self.d += other.d
        self.e += other.e
        self.f += other.f
        self.g += other.g
        self.h += other.h
        self.i += other.i
        self.j += other.j
        return self

    def scaled(self, factor: float) -> "Quadric":
        """A copy with every coefficient multiplied by ``factor``."""
        return Quadric(
            self.a * factor, self.b * factor, self.c * factor,
            self.d * factor, self.e * factor, self.f * factor,
            self.g * factor, self.h * factor, self.i * factor,
            self.j * factor,
        )

    def error(self, x: float, y: float, z: float) -> float:
        """``v^T Q v`` for ``v = (x, y, z, 1)``.

        Clamped at zero: tiny negative values can appear from rounding.
        """
        value = (
            self.a * x * x
            + 2 * self.b * x * y
            + 2 * self.c * x * z
            + 2 * self.d * x
            + self.e * y * y
            + 2 * self.f * y * z
            + 2 * self.g * y
            + self.h * z * z
            + 2 * self.i * z
            + self.j
        )
        return value if value > 0.0 else 0.0

    def optimal_point(self) -> tuple[float, float, float] | None:
        """The position minimising the quadric, or ``None`` if singular.

        Solves the 3x3 linear system from the quadric's gradient by
        Cramer's rule; returns ``None`` when the determinant is too
        small (e.g. all source planes parallel), in which case the
        caller should fall back to candidate positions.
        """
        a, b, c, e, f, h = self.a, self.b, self.c, self.e, self.f, self.h
        det = (
            a * (e * h - f * f)
            - b * (b * h - f * c)
            + c * (b * f - e * c)
        )
        scale = max(abs(a), abs(e), abs(h), 1e-300)
        if abs(det) < 1e-10 * scale * scale * scale:
            return None
        rx, ry, rz = -self.d, -self.g, -self.i
        inv = 1.0 / det
        x = (
            rx * (e * h - f * f)
            - b * (ry * h - f * rz)
            + c * (ry * f - e * rz)
        ) * inv
        y = (
            a * (ry * h - rz * f)
            - rx * (b * h - f * c)
            + c * (b * rz - ry * c)
        ) * inv
        z = (
            a * (e * rz - ry * f)
            - b * (b * rz - ry * c)
            + rx * (b * f - e * c)
        ) * inv
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            return None
        return (x, y, z)

    def as_tuple(self) -> tuple[float, ...]:
        """The 10 coefficients in documented order."""
        return (
            self.a, self.b, self.c, self.d, self.e,
            self.f, self.g, self.h, self.i, self.j,
        )

    def __repr__(self) -> str:
        return f"Quadric{self.as_tuple()}"


def triangle_plane_quadric(
    p0: tuple[float, float, float],
    p1: tuple[float, float, float],
    p2: tuple[float, float, float],
) -> Quadric | None:
    """The fundamental quadric of the plane through a triangle, scaled
    by the triangle's area.

    Returns ``None`` for degenerate (zero-area) triangles.  Area
    weighting is the standard refinement that makes errors insensitive
    to tessellation density.
    """
    ux = p1[0] - p0[0]
    uy = p1[1] - p0[1]
    uz = p1[2] - p0[2]
    vx = p2[0] - p0[0]
    vy = p2[1] - p0[1]
    vz = p2[2] - p0[2]
    nx = uy * vz - uz * vy
    ny = uz * vx - ux * vz
    nz = ux * vy - uy * vx
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if norm < 1e-30:
        return None
    nx /= norm
    ny /= norm
    nz /= norm
    d = -(nx * p0[0] + ny * p0[1] + nz * p0[2])
    # The triangle area is half the (pre-normalisation) cross norm.
    return Quadric.from_plane(nx, ny, nz, d).scaled(norm / 2.0)
