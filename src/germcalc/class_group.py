"""Primitivity and splitting-degree bookkeeping from local intersection data.

At a point of index m the local class group is cyclic of order m and a curve
through the point defines a residue map to Q/Z by intersection.  When the
pairing divisor generates the local group, the image order is the reduced
denominator of the intersection number and the splitting degree is the index
of the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class NonGorPoint:
    """A non-Gorenstein point: index, a type tag, and an optional contact invariant."""

    index: int
    type_tag: str
    ell: int | None = None

    def __post_init__(self):
        if self.index < 2:
            raise ValueError("point index must be >= 2")
        if self.ell is not None and self.ell < 0:
            raise ValueError("contact invariant must be >= 0")


@dataclass(frozen=True)
class PrimitivityReport:
    image_order: int
    splitting_degree: int
    primitive: bool


def local_primitivity(d_dot_c: Fraction | int, m: int) -> PrimitivityReport:
    """Image order and splitting degree of the residue map at an index-m point.

    Only the reduced denominator of ``d_dot_c`` matters (negating the value
    changes nothing).  The computation is only valid when the divisor is known
    to generate the local class group; callers state that assumption.
    """
    if m < 2:
        raise ValueError("index must be >= 2")
    value = d_dot_c if type(d_dot_c) is Fraction else Fraction(d_dot_c)
    if m % value.denominator:
        raise ValueError(
            f"denominator of {value} does not divide the index {m}: inconsistent input"
        )
    image_order = value.denominator
    degree = m // image_order
    return PrimitivityReport(image_order, degree, degree == 1)


@dataclass(frozen=True)
class GlobalPrimitivity:
    primitive: bool
    degree: int
    base_singularity: str  # "smooth" or "A<k>"


def global_imprimitivity(points: list[tuple[int, int]]) -> GlobalPrimitivity:
    """Combine local behaviour into the global splitting degree.

    Each entry is (index, local splitting degree), degree 1 meaning locally
    primitive.  A locally imprimitive point must be the only non-Gorenstein
    point; two primitive points contribute the gcd of their indices; anything
    else is globally primitive.  The contraction base is Du Val of type
    A_(degree-1), smooth for degree 1.
    """
    if not points:
        raise ValueError("need at least one point")
    for m, deg in points:
        if m < 2 or deg < 1 or m % deg:
            raise ValueError(f"bad local data ({m}, {deg})")
    imprimitive = [(m, deg) for m, deg in points if deg > 1]
    if imprimitive:
        if len(points) > 1:
            raise ValueError(
                "a locally imprimitive point excludes any other non-Gorenstein point"
            )
        degree = imprimitive[0][1]
    elif len(points) == 2:
        degree = gcd(points[0][0], points[1][0])
    else:
        degree = 1
    base = "smooth" if degree == 1 else f"A{degree - 1}"
    return GlobalPrimitivity(degree == 1, degree, base)

