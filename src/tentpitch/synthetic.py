"""The ground meshes that bench/gen.py builds its d = 2 workloads from: a
strongly graded two-scale Delaunay mesh and a jittered structured grid.
two_scale_mesh imports scipy when it runs: the program itself needs numpy
alone.  The tests' own generators live in tests/synthetic_meshes.py.
"""

from __future__ import annotations

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
