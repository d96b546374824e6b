"""Synthetic ground meshes for tests, benchmarks and demos.

The generators cover the regimes the mesher must survive: well-shaped
Delaunay triangulations, greedy sweep-line triangulations full of slivers,
strips of triangles with a prescribed worst angle, strongly graded
two-scale meshes, and small random tetrahedral meshes.  The Delaunay
generators import scipy when they run: the program itself needs numpy
alone.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import degenerate_mask, facet_index, simplex_measures
from .ground_mesh import GroundMesh


def _min_altitudes(dim, X) -> np.ndarray:
    """Smallest altitude of each simplex in the stack X, shape
    (m, dim+1, dim); -inf where the simplex is degenerate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        alts = (dim * simplex_measures(X)[:, None]
                / simplex_measures(X[:, facet_index(dim)]))
    return np.where(degenerate_mask(X), -np.inf, alts.min(axis=1))


def _filter_quality(dim, points, simplices, min_altitude):
    """Drop elements whose smallest altitude is below min_altitude, then
    drop vertices that became unused and reindex."""
    kept = simplices[_min_altitudes(dim, points[simplices]) >= min_altitude]
    used, elements = np.unique(kept, return_inverse=True)
    return points[used], elements.reshape(kept.shape).tolist()


def delaunay_mesh(n_points: int, rng: np.random.Generator,
                  min_altitude: float = 0.03) -> GroundMesh:
    """Delaunay triangulation of uniform random points, scaled so a typical
    edge has length ~1.  Thin boundary slivers below min_altitude are
    dropped; plenty of obtuse triangles remain."""
    from scipy.spatial import Delaunay

    side = max(2.0, math.sqrt(n_points) * 0.85)
    while True:
        pts = rng.uniform(0.0, side, size=(n_points, 2))
        tri = Delaunay(pts)
        verts, elements = _filter_quality(2, pts, tri.simplices, min_altitude)
        if len(elements) >= max(1, n_points // 2):
            return GroundMesh(2, verts, elements)


def sweepline_mesh(n_points: int, rng: np.random.Generator,
                   min_altitude: float = 1e-3) -> GroundMesh:
    """Greedy sweep-line triangulation of random points.

    Points are inserted in lexicographic order and connected to every hull
    edge they can see, which produces long skinny triangles on purpose.
    Point sets whose worst altitude drops below min_altitude are redrawn so
    runs stay affordable.
    """
    side = max(2.0, math.sqrt(n_points) * 0.9)
    while True:
        pts = rng.uniform(0.0, side, size=(n_points, 2))
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        pts = pts[order]
        triangles = _sweep_triangulate(pts)
        if triangles is None:
            continue
        if triangles and np.all(
            _min_altitudes(2, pts[np.array(triangles)]) >= min_altitude
        ):
            return GroundMesh(2, pts, triangles)


def _sweep_triangulate(pts):
    n = len(pts)
    if n < 3:
        return None

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    area_tol = 1e-9
    if abs(cross(0, 1, 2)) < area_tol:
        return None
    # counter-clockwise starting hull
    if cross(0, 1, 2) > 0:
        hull = [0, 1, 2]
    else:
        hull = [0, 2, 1]
    triangles = [list(hull)]
    for p in range(3, n):
        m = len(hull)
        vis = {
            i for i in range(m)
            if cross(hull[i], hull[(i + 1) % m], p) < -area_tol
        }
        if not vis or len(vis) == m:
            return None
        for i in vis:
            triangles.append([hull[i], hull[(i + 1) % m], p])
        # visible edges form one contiguous chain; replace it with p,
        # keeping the walk from the chain's far end back to its near end
        start = next(i for i in vis if (i - 1) % m not in vis)
        end = next(i for i in vis if (i + 1) % m not in vis)
        new_hull = []
        i = (end + 1) % m
        while True:
            new_hull.append(hull[i])
            if i == start:
                break
            i = (i + 1) % m
        new_hull.append(p)
        hull = new_hull
    return triangles


def obtuse_strip_mesh(n: int, max_angle_deg: float) -> GroundMesh:
    """Strip of 2n triangles whose largest angle is max_angle_deg.

    Bottom vertices at integer x, apex vertices between them at height h
    chosen so the apex angle equals the requested obtuse angle.
    """
    if not 90.0 < max_angle_deg < 180.0:
        raise ValueError("max angle must be strictly between 90 and 180 degrees")
    half = math.radians(180.0 - max_angle_deg) / 2.0
    h = math.tan(half) / 2.0
    bottom = [[float(i), 0.0] for i in range(n + 1)]
    top = [[i + 0.5, h] for i in range(n)]
    verts = bottom + top
    tris = []
    for i in range(n):
        tris.append([i, i + 1, n + 1 + i])
        if i + 1 < n:
            tris.append([i + 1, n + 1 + i + 1, n + 1 + i])
    return GroundMesh(2, verts, tris)


def two_scale_mesh(ratio: float = 8.0, seed: int = 0) -> GroundMesh:
    """Graded Delaunay mesh whose element diameters differ by ~ratio.

    A coarse block and a fine block of jittered grid points, triangulated
    together so the transition is filled with graded triangles.
    """
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    coarse_h = 0.4
    fine_h = coarse_h / ratio
    pts = []
    for x in np.arange(0.0, 1.2001, coarse_h):
        for y in np.arange(0.0, 0.8001, coarse_h):
            pts.append([x, y])
    for x in np.arange(1.6, 2.2001, fine_h):
        for y in np.arange(0.0, 0.8001, fine_h):
            pts.append([x, y])
    pts = np.array(pts)
    pts += rng.uniform(-0.02, 0.02, size=pts.shape) * np.where(
        pts[:, :1] > 1.4, fine_h / coarse_h, 1.0
    )
    tri = Delaunay(pts)
    verts, elements = _filter_quality(2, pts, tri.simplices, fine_h * 0.05)
    return GroundMesh(2, verts, elements)


def jittered_grid_mesh(nx: int, ny: int, seed: int = 0,
                       jitter: float = 0.15) -> GroundMesh:
    """Structured right-triangle grid with seeded vertex jitter (2*nx*ny
    triangles)."""
    rng = np.random.default_rng(seed)
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            dx, dy = rng.uniform(-jitter, jitter, size=2)
            if i in (0, nx):
                dx = 0.0
            if j in (0, ny):
                dy = 0.0
            verts.append([i + dx, j + dy])
    tris = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + nx + 1
            d = c + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    return GroundMesh(2, verts, tris)


def random_tet_mesh(n_points: int, rng: np.random.Generator,
                    min_altitude: float = 0.12,
                    max_elements: int = 20) -> GroundMesh:
    """Small random tetrahedral mesh: 3D Delaunay with slivers filtered out."""
    from scipy.spatial import Delaunay

    while True:
        pts = rng.uniform(0.0, 2.0, size=(n_points, 3))
        tet = Delaunay(pts)
        verts, elements = _filter_quality(3, pts, tet.simplices, min_altitude)
        if 1 <= len(elements) <= max_elements:
            return GroundMesh(3, verts, elements)


def path_mesh_1d(coords) -> GroundMesh:
    """Chain of segments through the given sorted 1D coordinates."""
    verts = [[float(x)] for x in coords]
    elements = [[i, i + 1] for i in range(len(verts) - 1)]
    return GroundMesh(1, verts, elements)
