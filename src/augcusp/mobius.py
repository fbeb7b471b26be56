"""Generalized circles (circles and lines) and Mobius transformations.

Circlines are stored as Hermitian matrices [[A, B], [conj(B), D]] with A, D
real, representing the locus A|z|^2 + conj(B) z + B conj(z) + D = 0.  A == 0
gives a line.  A Mobius map T = [[a, b], [c, d]] acts on a circline matrix M
by M -> inv(T)^* M inv(T).  The packing solver keeps circles as centre and
radius arrays instead; circlines are built from them for rendering and
inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

Complex = complex

_EPS = 1e-13


@dataclass(frozen=True)
class Circline:
    """A circle or line in the extended complex plane.

    A circle made by `circle` keeps the centre and radius it was made from:
    reading them back from (a, b, d) would cancel, since d = |c|^2 - r^2.
    """

    a: float
    b: Complex
    d: float

    # Constructors

    @staticmethod
    def circle(center: Complex, radius: float) -> "Circline":
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        out = Circline(1.0, -complex(center), abs(center) ** 2 - radius**2)
        vars(out).update(is_line=False, center=complex(center), radius=float(radius))
        return out

    @staticmethod
    def line(point: Complex, normal: Complex) -> "Circline":
        """Line through `point` with unit normal `normal` (interior side +)."""
        n = complex(normal) / abs(normal)
        return Circline(0.0, n / 2 * 1.0, -(n.real * point.real + n.imag * point.imag))

    # Classification and parameters

    # Computed once per circline (a frozen dataclass may cache in its dict).

    @cached_property
    def is_line(self) -> bool:
        return abs(self.a) < _EPS * (abs(self.b) + 1.0)

    @cached_property
    def center(self) -> Complex:
        if self.is_line:
            raise ValueError("a line has no center")
        return -self.b / self.a

    @cached_property
    def radius(self) -> float:
        if self.is_line:
            return math.inf
        disc = abs(self.b) ** 2 - self.a * self.d
        if disc <= 0:
            raise ValueError("degenerate circline (point or empty)")
        return math.sqrt(disc) / abs(self.a)

    def normal(self) -> Complex:
        """Unit normal of a line (toward the positive side)."""
        if not self.is_line:
            raise ValueError("not a line")
        return 2 * self.b / abs(2 * self.b)

    def offset(self) -> float:
        """Signed offset of a line: the line is {z : <n, z> = offset}."""
        return -self.d / abs(2 * self.b)

    def eval(self, z: Complex) -> float:
        """Signed equation value at z (0 on the circline)."""
        return (
            self.a * abs(z) ** 2
            + (self.b.conjugate() * z).real * 2
            + self.d
        )

    def contains(self, z: Complex, tol: float = 1e-9) -> bool:
        scale = abs(self.a) * abs(z) ** 2 + 2 * abs(self.b) * abs(z) + abs(self.d) + 1.0
        return abs(self.eval(z)) <= tol * scale

    def normalized(self) -> "Circline":
        """Scale so that circles have a = 1 and lines have |b| = 1/2."""
        if self.is_line:
            s = abs(2 * self.b)
            return Circline(0.0, self.b / s, self.d / s)
        s = self.a
        return Circline(1.0, self.b / s, self.d / s)

    def apply(self, t: "MobiusMap") -> "Circline":
        """Image circline under the Mobius map t."""
        ia, ib, ic, id_ = t.d, -t.b, -t.c, t.a  # inverse up to determinant
        # M' = inv(T)^* M inv(T) for M = [[a, b], [conj(b), d]].
        a, b, d = complex(self.a), self.b, complex(self.d)
        bb = b.conjugate()
        a2 = (
            a.real * abs(ia) ** 2
            + (b * ia.conjugate() * ic).real * 2
            + d.real * abs(ic) ** 2
        )
        b2 = (
            a * ia.conjugate() * ib
            + b * ia.conjugate() * id_
            + bb * ic.conjugate() * ib
            + d * ic.conjugate() * id_
        )
        d2 = (
            a.real * abs(ib) ** 2
            + (b * ib.conjugate() * id_).real * 2
            + d.real * abs(id_) ** 2
        )
        out = Circline(a2, b2, d2)
        return out.normalized()


@dataclass(frozen=True)
class MobiusMap:
    """z -> (a z + b) / (c z + d), stored unnormalized."""

    a: Complex
    b: Complex
    c: Complex
    d: Complex

    @staticmethod
    def affine(scale: Complex, shift: Complex) -> "MobiusMap":
        return MobiusMap(scale, shift, 0, 1)


def cross_ratio(z1: Complex, z2: Complex, z3: Complex, z4: Complex) -> Complex:
    return (z1 - z3) * (z2 - z4) / ((z1 - z4) * (z2 - z3))


def tangency_residual(c1: Circline, c2: Circline) -> float:
    """|distance between centers - sum of radii|, with lines handled by
    signed distance.  Infinite for a parallel line pair (tangent at infinity
    counts as residual zero only when exactly parallel)."""
    if c1.is_line and c2.is_line:
        n1, n2 = c1.normal(), c2.normal()
        cross = n1.real * n2.imag - n1.imag * n2.real
        return abs(cross)
    if c2.is_line:
        c1, c2 = c2, c1
    if c1.is_line:
        off = -c1.d / abs(2 * c1.b)
        n = c1.normal()
        z = c2.center
        dist = abs((n.real * z.real + n.imag * z.imag) - off)
        return abs(dist - c2.radius)
    d = abs(c1.center - c2.center)
    ext = abs(d - (c1.radius + c2.radius))
    internal = abs(d - abs(c1.radius - c2.radius))
    return min(ext, internal)
