import math

import numpy as np
import pytest

from tentpitch.errors import DegeneracyError
from tentpitch.geometry import (
    SimplexGeometry,
    altitude_distance,
    clearance_ratio,
    clearance_ratios,
    closest_point_in_facet,
    closest_points,
    degenerate_mask,
    gradient_operators,
    hull_feet,
    project_to_hyperplane,
    simplex_measures,
    time_gradient,
)

from conftest import random_rigid_motion


def random_simplex(rng, k, d, scale=1.0):
    while True:
        s = SimplexGeometry(rng.normal(scale=scale, size=(k + 1, d)))
        if not s.is_degenerate and s.measure > 1e-3 * scale**k:
            return s


class TestAltitude:
    def test_equilateral(self):
        s = SimplexGeometry([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
        for i in range(3):
            assert altitude_distance(s, i) == pytest.approx(math.sqrt(3) / 2)

    def test_right_triangle_vertex_p(self):
        s = SimplexGeometry([[0, 1], [0, 0], [1, 0]])
        assert altitude_distance(s, 0) == pytest.approx(1.0)

    def test_regular_tetrahedron(self):
        s = SimplexGeometry(
            [
                [0, 0, 0],
                [1, 0, 0],
                [0.5, math.sqrt(3) / 2, 0],
                [0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)],
            ]
        )
        for i in range(4):
            assert altitude_distance(s, i) == pytest.approx(math.sqrt(2.0 / 3.0))

    def test_degenerate_rejected(self):
        s = SimplexGeometry([[0, 0], [1, 0], [2, 0]])
        with pytest.raises(DegeneracyError):
            altitude_distance(s, 0)

    def test_measure_identity(self, rng):
        # altitude * facet measure == k * simplex measure
        for _ in range(200):
            k = rng.integers(1, 4)
            d = rng.integers(k, 4)
            s = random_simplex(rng, int(k), int(d))
            i = int(rng.integers(0, k + 1))
            lhs = altitude_distance(s, i) * s.facet(i).measure
            rhs = k * s.measure
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestProjection:
    def test_foot_on_axis(self):
        facet = SimplexGeometry([[-1, 0], [1, 0]])
        assert project_to_hyperplane([0, 1], facet) == pytest.approx([0, 0])

    def test_vertical_drop_outside_segment(self):
        facet = SimplexGeometry([[0, 0], [1, 0]])
        assert project_to_hyperplane([2, 1], facet) == pytest.approx([2, 0])

    def test_z_projection(self):
        facet = SimplexGeometry([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert project_to_hyperplane([1, 1, 1], facet) == pytest.approx([1, 1, 0])

    def test_point_on_hull_rejected(self):
        facet = SimplexGeometry([[0, 0], [1, 0]])
        with pytest.raises(DegeneracyError):
            project_to_hyperplane([0.5, 0.0], facet)

    def test_residual_orthogonal_to_facet(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            facet = random_simplex(rng, k, d)
            p = rng.normal(size=d) + 2.0
            try:
                foot = project_to_hyperplane(p, facet)
            except DegeneracyError:
                continue
            for edge in facet.edges:
                assert abs((p - foot) @ edge) < 1e-9 * np.linalg.norm(edge)


class TestClosestPoint:
    def test_interior_foot(self):
        facet = SimplexGeometry([[-1, 0], [1, 0]])
        assert closest_point_in_facet([0, 1], facet) == pytest.approx([0, 0])

    def test_clamped_to_endpoint(self):
        facet = SimplexGeometry([[0, 0], [1, 0]])
        assert closest_point_in_facet([2, 1], facet) == pytest.approx([1, 0])

    def test_clamped_to_hypotenuse(self, rng):
        # derived via the dense-sampling oracle below, frozen here
        facet = SimplexGeometry([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        p = np.array([2.0, 2.0, 1.0])
        cp = closest_point_in_facet(p, facet)
        assert cp == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        best = min(
            np.linalg.norm(p - x) for x in _sample_facet(facet, rng, 4000)
        )
        assert np.linalg.norm(p - cp) <= best + 1e-9

    def test_never_beaten_by_samples(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, min(d, 3) + 1)) - 1 or 1
            facet = random_simplex(rng, k, d)
            p = rng.normal(scale=2.0, size=d)
            cp = closest_point_in_facet(p, facet)
            dist = np.linalg.norm(p - cp)
            for x in _sample_facet(facet, rng, 1000):
                assert dist <= np.linalg.norm(p - x) + 1e-12


def _sample_facet(facet, rng, n):
    bary = rng.dirichlet(np.ones(facet.k + 1), size=n)
    return bary @ facet.vertices


class TestClearanceRatio:
    def test_foot_inside(self):
        facet = SimplexGeometry([[-1, 0], [1, 0]])
        assert clearance_ratio([0, 1], facet) == 1.0

    def test_foot_outside_segment(self):
        # hull distance 1, facet distance sqrt(2): derived by direct
        # projection (foot at (2,0), nearest vertex (1,0))
        facet = SimplexGeometry([[0, 0], [1, 0]])
        assert clearance_ratio([2, 1], facet) == pytest.approx(1 / math.sqrt(2))

    def test_foot_inside_triangle(self):
        facet = SimplexGeometry([[-1, -1, 0], [1, -1, 0], [0, 1, 0]])
        assert clearance_ratio([0, 0, 1], facet) == 1.0

    def test_one_iff_contained(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            facet = random_simplex(rng, k, d)
            p = rng.normal(scale=1.5, size=d)
            try:
                foot = project_to_hyperplane(p, facet)
                sig = clearance_ratio(p, facet)
            except DegeneracyError:
                continue
            inside = np.linalg.norm(
                closest_point_in_facet(p, facet) - foot
            ) < 1e-9 * max(1.0, facet.longest_edge)
            assert 0.0 < sig <= 1.0
            assert (sig == 1.0) == inside


class TestTimeGradient:
    def test_flat(self):
        g = time_gradient([[0, 0], [1, 0], [0, 1]], [2.0, 2.0, 2.0])
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-15)

    def test_segment_slope(self):
        g = time_gradient([[0.0], [1.0]], [0.0, 0.5])
        assert np.linalg.norm(g) == pytest.approx(0.5)

    def test_tight_cone_triangle(self):
        # derived oracle: the interpolant of these vertex times solves the
        # 2x2 system grad . (q->r) = dt, grad . (q->p) = dt
        coords = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        times = np.array([0.9539392014169457, 0.0, 0.3])
        A = np.array([coords[2] - coords[1], coords[0] - coords[1]])
        b = np.array([times[2] - times[1], times[0] - times[1]])
        expected = np.linalg.solve(A, b)
        g = time_gradient(coords, times)
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx([0.3, 0.9539392014169457], rel=1e-12)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)

    def test_exact_on_affine_data(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, d + 1))
            s = random_simplex(rng, k, d)
            grad = rng.normal(size=d)
            if k < d:
                # keep the generating gradient inside the hull so it is
                # recoverable exactly
                E = s.edges
                coeff = np.linalg.solve(E @ E.T, E @ grad)
                grad = coeff @ E
            times = s.vertices @ grad + 0.7
            got = time_gradient(s.vertices, times)
            assert got == pytest.approx(grad, rel=1e-12, abs=1e-12)


class TestRigidMotionInvariance:
    def test_all_ops(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            facet = random_simplex(rng, k, d)
            p = rng.normal(scale=2.0, size=d)
            simplex = random_simplex(rng, min(d, k + 1), d)
            times = rng.normal(size=simplex.k + 1)
            Q, shift = random_rigid_motion(rng, d)

            def move(x):
                return np.asarray(x) @ Q.T + shift

            try:
                sig = clearance_ratio(p, facet)
                sig2 = clearance_ratio(move(p), SimplexGeometry(move(facet.vertices)))
                assert sig2 == pytest.approx(sig, rel=1e-9)
            except DegeneracyError:
                pass
            alt = altitude_distance(simplex, 0)
            alt2 = altitude_distance(SimplexGeometry(move(simplex.vertices)), 0)
            assert alt2 == pytest.approx(alt, rel=1e-9)
            cp = closest_point_in_facet(p, facet)
            cp2 = closest_point_in_facet(
                move(p), SimplexGeometry(move(facet.vertices))
            )
            assert cp2 == pytest.approx(move(cp), rel=1e-9, abs=1e-9)
            g1 = np.linalg.norm(time_gradient(simplex.vertices, times))
            g2 = np.linalg.norm(time_gradient(move(simplex.vertices), times))
            assert g2 == pytest.approx(g1, rel=1e-9, abs=1e-12)


class TestBatchedKernels:
    def test_stack_matches_rows(self, rng):
        # one call over a (rows, 2) stack agrees with the scalar API per row
        for k, d in ((1, 2), (1, 3), (2, 3)):
            F = np.array([[random_simplex(rng, k, d).vertices
                           for _ in range(2)] for _ in range(30)])
            P = rng.normal(scale=1.5, size=(30, 2, d))
            feet, bary = hull_feet(P, F)
            ratios = clearance_ratios(P, F)
            nearest = closest_points(P, F)
            ops = gradient_operators(F)
            times = rng.normal(size=(30, 2, k + 1))
            for idx in np.ndindex(30, 2):
                facet = SimplexGeometry(F[idx])
                assert feet[idx] == pytest.approx(
                    project_to_hyperplane(P[idx], facet), rel=1e-12, abs=1e-12)
                assert bary[idx].sum() == pytest.approx(1.0)
                assert ratios[idx] == clearance_ratio(P[idx], facet)
                assert nearest[idx] == pytest.approx(
                    closest_point_in_facet(P[idx], facet), abs=1e-12)
                assert ops[idx] @ (times[idx][1:] - times[idx][0]) == \
                    pytest.approx(time_gradient(F[idx], times[idx]), abs=1e-12)
            assert np.any(ratios < 1.0) and np.any(ratios == 1.0)

    def test_measures_and_degeneracy(self, rng):
        X = rng.normal(size=(20, 4, 3))
        X[3] = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
        X[7, 3] = X[7, 0]
        measures = simplex_measures(X)
        degenerate = degenerate_mask(X)
        for x, m, deg in zip(X, measures, degenerate):
            s = SimplexGeometry(x)
            assert m == s.measure
            assert deg == s.is_degenerate
        assert np.flatnonzero(degenerate).tolist() == [3, 7]
        assert simplex_measures(X[:, :1]).tolist() == [1.0] * 20
