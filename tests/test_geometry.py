import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posreal as pr
from posreal.errors import MultiplePoleUnsupported, NoPolygonIndex
from posreal.geometry import BOUNDARY_TOL, in_polygon, minimal_polygon_index

from conftest import hn_pf, random_stable_pf
from strategies import disk_points


class TestInPolygon:
    def test_center_inside_all(self):
        for j in range(3, 12):
            assert in_polygon(0j, j)

    def test_half_i_in_triangle(self):
        # 0.5*cos(pi/3 - pi/2) = 0.433 < 0.5, remaining inequalities smaller
        assert in_polygon(0.5j, 3)

    def test_example1_pair_in_p4_not_p3(self, example1_tf):
        pf = pr.expand(example1_tf)
        z = next(t.pole for t in pf.terms if t.pole.imag > 0)
        assert not in_polygon(z, 3)
        assert in_polygon(z, 4)

    def test_boundary_counts_as_outside(self):
        # midpoint of an edge of the triangle sits exactly on the boundary
        edge_mid = 0.5 * (1 + complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)))
        assert not in_polygon(edge_mid, 3)

    def test_rejects_small_index(self):
        with pytest.raises(ValueError):
            in_polygon(0.1 + 0.1j, 2)


def in_polygon_all_edges(z: complex, j: int) -> bool:
    """Reference: every one of the j polar edge inequalities."""
    rho, theta = abs(z), math.atan2(z.imag, z.real)
    edge = math.cos(math.pi / j)
    return all(
        rho * math.cos((2 * k + 1) * math.pi / j - theta) < edge - BOUNDARY_TOL
        for k in range(j)
    )


class TestNearestEdge:
    """``in_polygon`` tests only the edge nearest the point's angle."""

    def test_random_points_match_all_edges(self):
        rng = np.random.default_rng(3)
        for _ in range(20000):
            j = int(rng.integers(3, 41))
            z = 1.05 * math.sqrt(rng.random()) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            assert in_polygon(z, j) == in_polygon_all_edges(z, j), (z, j)

    @pytest.mark.parametrize("offset", [-1e-12, -3e-13, 0.0, 3e-13, 1e-12])
    def test_points_at_edges_and_vertices_match_all_edges(self, offset):
        rng = np.random.default_rng(4)
        for j in range(3, 41):
            verts = np.exp(2j * math.pi * np.arange(j + 1) / j)
            for k in range(j):
                normal = np.exp(1j * (2 * k + 1) * math.pi / j)
                for t in (0.0, rng.random(), 0.5, 1.0):  # vertex, edge point, midpoint
                    z = complex((1 - t) * verts[k] + t * verts[k + 1] + offset * normal)
                    assert in_polygon(z, j) == in_polygon_all_edges(z, j), (z, j)


class TestMinimalPolygonIndex:
    def test_half_i(self):
        assert minimal_polygon_index(0.5j) == 3

    def test_large_modulus_point(self):
        z = 0.9 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        assert all(not in_polygon(z, j) for j in range(3, 7))
        assert in_polygon(z, 7)
        assert minimal_polygon_index(z) == 7

    def test_example1_pair(self, example1_tf):
        pf = pr.expand(example1_tf)
        z = next(t.pole for t in pf.terms if t.pole.imag > 0)
        assert minimal_polygon_index(z) == 4

    def test_outside_disk(self):
        with pytest.raises(NoPolygonIndex):
            minimal_polygon_index(1.0 + 0.5j)


class TestClassify:
    def test_example1(self, example1_tf):
        cls = pr.classify(pr.normalize(pr.expand(example1_tf)))
        assert cls.n1 == 1
        assert cls.n2 == 0
        assert cls.polygon_counts() == {4: 1}
        assert cls.predicted_dimension == 5

    def test_two_real_poles(self):
        cls = pr.classify(hn_pf(0))
        assert cls.n1 == 1
        assert cls.n2 == 1
        assert cls.pair_assignments == ()
        assert cls.predicted_dimension == 3

    def test_empty(self):
        cls = pr.classify(pr.PartialFraction(1.0, 1.0, ()))
        assert cls.n1 == cls.n2 == 0
        assert cls.predicted_dimension == 0

    def test_negative_pole_goes_to_n2(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(-0.5 + 0j, (0.3 + 0j,)),))
        cls = pr.classify(pf)
        assert cls.n2_poles == ((-0.5, 0.3),)

    def test_multiple_pole_rejected(self):
        pf = pr.PartialFraction(1.0, 1.0, (pr.PoleTerm(0.5 + 0j, (0.1 + 0j, 1.0 + 0j)),))
        with pytest.raises(MultiplePoleUnsupported):
            pr.classify(pf)


# --- properties ------------------------------------------------------------


@given(disk_points, st.integers(3, 10))
def test_conjugation_symmetry(z, j):
    assert in_polygon(z, j) == in_polygon(z.conjugate(), j)


@given(disk_points, st.floats(0.01, 0.99))
def test_scaling_into_polygon(z, s):
    j = minimal_polygon_index(z)
    if in_polygon(z, j):
        assert in_polygon(s * z, j)


def test_termination_within_stated_bound():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rho = rng.uniform(1e-3, 0.999)
        th = rng.uniform(1e-6, 2 * math.pi - 1e-6)
        z = rho * complex(math.cos(th), math.sin(th))
        j = minimal_polygon_index(z)
        assert j <= math.ceil(math.pi / math.acos(abs(z))) + 1


def test_dimension_formulas_agree_on_random_classifications():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cls = pr.classify(random_stable_pf(rng))
        poles = cls.n1 + cls.n2 + 2 * len(cls.pair_assignments)
        alt = poles + cls.n2 + sum(
            (j - 2) * nj for j, nj in cls.polygon_counts().items()
        )
        assert alt == cls.predicted_dimension
