"""Membership tests for inscribed regular polygons and pole bucketing.

P_j is the open regular j-gon whose vertices are the j-th roots of unity.
A conjugate pole pair inside P_j admits a j-dimensional nonnegative block,
so each pair is charged the smallest containing polygon.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import MultiplePoleUnsupported, NoPolygonIndex
from .tf import PartialFraction

# Equality in the polar inequalities within this margin counts as outside,
# forcing the next larger polygon; the constructions need the open interior.
BOUNDARY_TOL = 1e-12


def in_polygon(z: complex, j: int) -> bool:
    """Strict interior test for P_j in polar form.

    The point (rho, theta) is inside iff rho*cos((2k+1)*pi/j - theta) is
    below cos(pi/j) for every k = 0 .. j-1.
    """
    if j < 3:
        raise ValueError("polygon index must be at least 3")
    z = complex(z)
    rho = abs(z)
    theta = cmath.phase(z)
    edge = math.cos(math.pi / j)
    for k in range(j):
        if rho * math.cos((2 * k + 1) * math.pi / j - theta) >= edge - BOUNDARY_TOL:
            return False
    return True


def minimal_polygon_index(z: complex) -> int:
    """Smallest j >= 3 with z inside P_j.

    Finite search: once cos(pi/j) exceeds |z| the inscribed circle already
    contains z, so j never exceeds ceil(pi/arccos|z|) + 1.
    """
    z = complex(z)
    rho = abs(z)
    if rho >= 1.0:
        raise NoPolygonIndex(f"|z| = {rho:.12g} is not below one")
    if rho == 0.0:
        return 3
    jmax = math.ceil(math.pi / math.acos(rho)) + 1
    for j in range(3, jmax + 3):
        if in_polygon(z, j):
            return j
    raise NoPolygonIndex(f"no polygon found for {z:.12g}")  # pragma: no cover


@dataclass(frozen=True)
class PairBucket:
    """Conjugate pole pair (upper-half representative) with its polygon index."""

    pole: complex
    coeff: complex
    polygon_index: int


@dataclass(frozen=True)
class PoleClassification:
    """Bucketed non-dominant poles and the dimension they predict."""

    n1_poles: tuple[tuple[float, float], ...]
    n2_poles: tuple[tuple[float, float], ...]
    pair_assignments: tuple[PairBucket, ...]

    @property
    def n1(self) -> int:
        return len(self.n1_poles)

    @property
    def n2(self) -> int:
        return len(self.n2_poles)

    def polygon_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for pair in self.pair_assignments:
            counts[pair.polygon_index] = counts.get(pair.polygon_index, 0) + 1
        return counts

    @property
    def pole_count(self) -> int:
        """Number of non-dominant poles (pairs count twice)."""
        return self.n1 + self.n2 + 2 * len(self.pair_assignments)

    @property
    def predicted_dimension(self) -> int:
        return self.n1 + 2 * self.n2 + sum(
            j * nj for j, nj in self.polygon_counts().items()
        )


def classify(pf: PartialFraction) -> PoleClassification:
    """Bucket the poles of a normalized partial fraction.

    Nonnegative real poles with positive residue take one state each; the
    other real poles take two; each conjugate pair takes its minimal polygon
    index.  Real negative poles always go to the two-state bucket even when
    some polygon contains them, which never increases the dimension.
    """
    if not pf.is_normalized:
        raise ValueError("classification requires a normalized partial fraction")
    if any(t.order > 1 for t in pf.terms):
        raise MultiplePoleUnsupported("classification requires simple poles")
    n1: list[tuple[float, float]] = []
    n2: list[tuple[float, float]] = []
    pairs: list[PairBucket] = []
    for term in pf.terms:
        pole = term.pole
        c = term.coeffs[0]
        if pole.imag == 0:
            cr = c.real
            if pole.real >= 0 and cr > 0:
                n1.append((pole.real, cr))
            else:
                n2.append((pole.real, cr))
        elif pole.imag > 0:
            pairs.append(PairBucket(pole, c, minimal_polygon_index(pole)))
    return PoleClassification(tuple(n1), tuple(n2), tuple(pairs))
