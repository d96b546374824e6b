import math

import numpy as np
import pytest

from tentpitch.geometry import (
    clearance_ratios,
    closest_points,
    degenerate_mask,
    facet_index,
    gradient_operators,
    hull_feet,
    simplex_measures,
)

import reference_geometry as refgeo
from conftest import random_rigid_motion


def random_simplex(rng, k, d, scale=1.0):
    while True:
        X = rng.normal(scale=scale, size=(k + 1, d))
        if refgeo.measure(X) > 1e-3 * scale**k:
            return X


def altitudes(X):
    """Distance from each vertex to its opposite facet's hull, from the
    batched hull feet, as the verifier's oracle takes it."""
    X = np.asarray(X, dtype=float)
    feet, _ = hull_feet(X, X[..., facet_index(X.shape[-2] - 1), :])
    return np.linalg.norm(X - feet, axis=-1)


def gradient(X, times):
    """The batched gradient operator applied to one simplex's times."""
    times = np.asarray(times, dtype=float)
    return gradient_operators(X) @ (times[1:] - times[0])


def _sample_facet(F, rng, n):
    bary = rng.dirichlet(np.ones(len(F)), size=n)
    return bary @ F


class TestAltitude:
    def test_equilateral(self):
        X = [[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]]
        assert altitudes(X) == pytest.approx([math.sqrt(3) / 2] * 3)

    def test_right_triangle_vertex_p(self):
        assert altitudes([[0, 1], [0, 0], [1, 0]])[0] == pytest.approx(1.0)

    def test_regular_tetrahedron(self):
        X = [
            [0, 0, 0],
            [1, 0, 0],
            [0.5, math.sqrt(3) / 2, 0],
            [0.5, math.sqrt(3) / 6, math.sqrt(2.0 / 3.0)],
        ]
        assert altitudes(X) == pytest.approx([math.sqrt(2.0 / 3.0)] * 4)

    def test_degenerate_rejected(self):
        assert degenerate_mask(np.array([[0, 0], [1, 0], [2, 0]]))

    def test_measure_identity(self, rng):
        # altitude * facet measure == k * simplex measure, with the
        # measures taken by cross products
        for _ in range(200):
            k = int(rng.integers(1, 4))
            d = int(rng.integers(k, 4))
            X = random_simplex(rng, k, d)
            i = int(rng.integers(0, k + 1))
            facet = np.delete(X, i, axis=0)
            lhs = altitudes(X)[i] * refgeo.measure(facet)
            assert lhs == pytest.approx(k * refgeo.measure(X), rel=1e-9)
            assert altitudes(X)[i] == pytest.approx(refgeo.altitude(X, i),
                                                    rel=1e-9)


class TestProjection:
    def test_foot_on_axis(self):
        feet, _ = hull_feet([0, 1], [[-1, 0], [1, 0]])
        assert feet == pytest.approx([0, 0])

    def test_vertical_drop_outside_segment(self):
        feet, bary = hull_feet([2, 1], [[0, 0], [1, 0]])
        assert feet == pytest.approx([2, 0])
        assert bary == pytest.approx([-1, 2])

    def test_z_projection(self):
        feet, _ = hull_feet([1, 1, 1], [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert feet == pytest.approx([1, 1, 0])

    def test_residual_orthogonal_to_facet(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            F = random_simplex(rng, k, d)
            p = rng.normal(size=d) + 2.0
            foot, bary = hull_feet(p, F)
            want, want_bary = refgeo.foot(p, F)
            assert foot == pytest.approx(want, rel=1e-9, abs=1e-9)
            assert bary == pytest.approx(want_bary, rel=1e-9, abs=1e-9)
            for edge in F[1:] - F[0]:
                assert abs((p - foot) @ edge) < 1e-9 * np.linalg.norm(edge)


class TestClosestPoint:
    def test_interior_foot(self):
        assert closest_points([0, 1], [[-1, 0], [1, 0]]) == pytest.approx([0, 0])

    def test_clamped_to_endpoint(self):
        assert closest_points([2, 1], [[0, 0], [1, 0]]) == pytest.approx([1, 0])

    def test_clamped_to_hypotenuse(self, rng):
        F = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
        p = np.array([2.0, 2.0, 1.0])
        cp = closest_points(p, F)
        assert cp == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
        best = min(np.linalg.norm(p - x) for x in _sample_facet(F, rng, 4000))
        assert np.linalg.norm(p - cp) <= best + 1e-9

    def test_never_beaten_by_samples(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, min(d, 3) + 1)) - 1 or 1
            F = random_simplex(rng, k, d)
            p = rng.normal(scale=2.0, size=d)
            cp = closest_points(p, F)
            assert cp == pytest.approx(refgeo.closest(p, F), abs=1e-9)
            dist = np.linalg.norm(p - cp)
            for x in _sample_facet(F, rng, 1000):
                assert dist <= np.linalg.norm(p - x) + 1e-12


class TestClearanceRatio:
    def test_foot_inside(self):
        assert clearance_ratios([0, 1], [[-1, 0], [1, 0]]) == 1.0

    def test_foot_outside_segment(self):
        # hull distance 1, facet distance sqrt(2): derived by direct
        # projection (foot at (2,0), nearest vertex (1,0))
        assert clearance_ratios([2, 1], [[0, 0], [1, 0]]) == \
            pytest.approx(1 / math.sqrt(2))

    def test_foot_inside_triangle(self):
        F = [[-1, -1, 0], [1, -1, 0], [0, 1, 0]]
        assert clearance_ratios([0, 0, 1], F) == 1.0

    def test_one_iff_contained(self, rng):
        checked = 0
        for _ in range(200):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            F = random_simplex(rng, k, d)
            p = rng.normal(scale=1.5, size=d)
            foot, bary = refgeo.foot(p, F)
            if np.linalg.norm(p - foot) < 1e-9:
                continue  # ratios are defined off the hull only
            sig = float(clearance_ratios(p, F))
            assert 0.0 < sig <= 1.0
            assert (sig == 1.0) == (bary.min() >= 0.0)
            assert sig == pytest.approx(refgeo.clearance(p, F), rel=1e-9)
            checked += 1
        assert checked > 150


class TestTimeGradient:
    def test_flat(self):
        g = gradient([[0, 0], [1, 0], [0, 1]], [2.0, 2.0, 2.0])
        assert np.linalg.norm(g) == pytest.approx(0.0, abs=1e-15)

    def test_segment_slope(self):
        g = gradient([[0.0], [1.0]], [0.0, 0.5])
        assert np.linalg.norm(g) == pytest.approx(0.5)

    def test_tight_cone_triangle(self):
        # derived oracle: the interpolant of these vertex times solves the
        # 2x2 system grad . (q->r) = dt, grad . (q->p) = dt
        coords = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        times = np.array([0.9539392014169457, 0.0, 0.3])
        A = np.array([coords[2] - coords[1], coords[0] - coords[1]])
        b = np.array([times[2] - times[1], times[0] - times[1]])
        expected = np.linalg.solve(A, b)
        g = gradient(coords, times)
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx([0.3, 0.9539392014169457], rel=1e-12)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)

    def test_exact_on_affine_data(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, d + 1))
            X = random_simplex(rng, k, d)
            grad = rng.normal(size=d)
            if k < d:
                # keep the generating gradient inside the hull so it is
                # recoverable exactly
                E = X[1:] - X[0]
                coeff = np.linalg.solve(E @ E.T, E @ grad)
                grad = coeff @ E
            times = X @ grad + 0.7
            got = gradient(X, times)
            assert got == pytest.approx(grad, rel=1e-12, abs=1e-12)
            assert got == pytest.approx(refgeo.gradient(X, times),
                                        rel=1e-9, abs=1e-12)


class TestRigidMotionInvariance:
    def test_all_ops(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(1, d))
            F = random_simplex(rng, k, d)
            p = rng.normal(scale=2.0, size=d)
            X = random_simplex(rng, min(d, k + 1), d)
            times = rng.normal(size=len(X))
            Q, shift = random_rigid_motion(rng, d)

            def move(x):
                return np.asarray(x) @ Q.T + shift

            foot, _ = refgeo.foot(p, F)
            if np.linalg.norm(p - foot) > 1e-9:
                sig = clearance_ratios(p, F)
                assert clearance_ratios(move(p), move(F)) == \
                    pytest.approx(sig, rel=1e-9)
            assert altitudes(move(X))[0] == pytest.approx(altitudes(X)[0],
                                                          rel=1e-9)
            cp = closest_points(p, F)
            assert closest_points(move(p), move(F)) == \
                pytest.approx(move(cp), rel=1e-9, abs=1e-9)
            g1 = np.linalg.norm(gradient(X, times))
            g2 = np.linalg.norm(gradient(move(X), times))
            assert g2 == pytest.approx(g1, rel=1e-9, abs=1e-12)


class TestBatchedKernels:
    def test_stack_matches_rows(self, rng):
        # one call over a (rows, 2) stack agrees with the first-principles
        # reference per row
        for k, d in ((1, 2), (1, 3), (2, 3)):
            F = np.array([[random_simplex(rng, k, d) for _ in range(2)]
                          for _ in range(30)])
            P = rng.normal(scale=1.5, size=(30, 2, d))
            feet, bary = hull_feet(P, F)
            ratios = clearance_ratios(P, F)
            nearest = closest_points(P, F)
            ops = gradient_operators(F)
            times = rng.normal(size=(30, 2, k + 1))
            for idx in np.ndindex(30, 2):
                foot, _ = refgeo.foot(P[idx], F[idx])
                assert feet[idx] == pytest.approx(foot, rel=1e-9, abs=1e-12)
                assert bary[idx].sum() == pytest.approx(1.0)
                assert ratios[idx] == pytest.approx(
                    refgeo.clearance(P[idx], F[idx]), rel=1e-9)
                assert nearest[idx] == pytest.approx(
                    refgeo.closest(P[idx], F[idx]), abs=1e-9)
                assert ops[idx] @ (times[idx][1:] - times[idx][0]) == \
                    pytest.approx(refgeo.gradient(F[idx], times[idx]),
                                  rel=1e-9, abs=1e-12)
            assert np.any(ratios < 1.0) and np.any(ratios == 1.0)

    def test_measures_and_degeneracy(self, rng):
        X = rng.normal(size=(20, 4, 3))
        X[3] = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]
        X[7, 3] = X[7, 0]
        measures = simplex_measures(X)
        for x, m in zip(X, measures):
            assert m == pytest.approx(refgeo.measure(x), rel=1e-9, abs=1e-12)
        assert np.flatnonzero(degenerate_mask(X)).tolist() == [3, 7]
        faces = X[:, facet_index(3)]
        assert simplex_measures(faces) == pytest.approx(np.array(
            [[refgeo.measure(f) for f in row] for row in faces]),
            rel=1e-9, abs=1e-12)
        assert simplex_measures(X[:, :1]).tolist() == [1.0] * 20

    def test_exactly_collinear_and_coplanar_are_degenerate(self, rng):
        # round-off in det(E E^T) reads about 5e-9 for this triangle, far
        # above DEGENERACY_RTOL; its measure is exactly 0
        collinear = np.array([[0.0, 0.0], [0.0, 0.9], [0.0, 1.0]])
        assert degenerate_mask(collinear)
        assert refgeo.measure(collinear) == 0.0
        # four points on a tilted plane, and a sliver just off it
        a, b = rng.normal(size=3), rng.normal(size=3)
        uv = rng.uniform(-1.0, 1.0, size=(4, 2))
        coplanar = uv[:, :1] * a + uv[:, 1:] * b + rng.normal(size=3)
        assert degenerate_mask(coplanar)
        sliver = coplanar.copy()
        sliver[3] += 1e-3 * np.cross(a, b)
        assert not degenerate_mask(sliver)
        # |det E| clears the threshold here, but simplex_measures reads 0
        thin = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-10]])
        assert simplex_measures(thin) == 0.0
        assert degenerate_mask(thin)
        tets = rng.normal(size=(50, 4, 3))
        triangles = rng.normal(size=(50, 3, 2))
        assert not degenerate_mask(tets).any()
        assert not degenerate_mask(triangles).any()
