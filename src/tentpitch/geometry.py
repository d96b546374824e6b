"""Dimension-generic vector and simplex primitives.

A k-simplex in R^d (k <= d) is given by a (k+1, d) array of vertex
coordinates.  Everything here is double precision; degeneracy is decided
against a scale-relative threshold rather than exact predicates, since all
downstream constraints are metric, not combinatorial.

Each formula exists once, as a batched kernel over stacks of simplices
(any leading batch axes, then (k+1, d)).  The scalar functions check their
single input and call the kernels on a batch of one; the kernels trust
their caller, e.g. a validated ground mesh, whose element facets are never
degenerate.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DegeneracyError

# A simplex is degenerate when measure < DEGENERACY_RTOL * longest_edge**k.
DEGENERACY_RTOL = 1e-12
# Barycentric slack when deciding whether a hull foot lies inside a facet.
CONTAINMENT_TOL = 1e-12


# -- batched kernels ---------------------------------------------------------


def facet_index(k: int) -> np.ndarray:
    """Local vertex ids of each facet of a k-simplex: row i lists the k
    vertices opposite vertex i, in ascending order; shape (k+1, k)."""
    return np.array([[j for j in range(k + 1) if j != i] for i in range(k + 1)],
                    dtype=int)


def edge_bases(X: np.ndarray) -> np.ndarray:
    """Edge bases: rows vertex[i] - vertex[0], shape (..., k, d)."""
    return X[..., 1:, :] - X[..., :1, :]


def dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis.  Stacked matmul rounds
    exactly like the 1-D `a @ b` of a per-row loop, which a multiply-and-sum
    does not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def simplex_measures(X) -> np.ndarray:
    """k-dimensional volume of each simplex; a 0-simplex has measure 1.

    Computed as sqrt(det(E E^T)) / k!, valid for any embedding dimension.
    """
    X = np.asarray(X, dtype=float)
    k = X.shape[-2] - 1
    if k == 0:
        return np.ones(X.shape[:-2])
    E = edge_bases(X)
    det = np.linalg.det(E @ np.swapaxes(E, -1, -2))
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)


def _longest_edges(X) -> np.ndarray:
    """Longest vertex-to-vertex distance of each simplex."""
    X = np.asarray(X, dtype=float)
    diffs = X[..., :, None, :] - X[..., None, :, :]
    return np.sqrt((diffs**2).sum(axis=-1)).max(axis=(-2, -1))


def degenerate_mask(X) -> np.ndarray:
    """True where measure < DEGENERACY_RTOL * longest_edge**k."""
    X = np.asarray(X, dtype=float)
    k = X.shape[-2] - 1
    if k == 0:
        return np.zeros(X.shape[:-2], dtype=bool)
    scale = _longest_edges(X)
    return (scale <= 0.0) | (simplex_measures(X) < DEGENERACY_RTOL * scale**k)


def hull_feet(P, F):
    """Orthogonal projections of points P (..., d) onto the affine hulls of
    facets F (..., k+1, d); batch axes broadcast.

    Returns (feet (..., d), barycentric coordinates of each foot w.r.t. its
    facet (..., k+1)).
    """
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    v0 = F[..., 0, :]
    k = F.shape[-2] - 1
    if k == 0:
        feet = np.broadcast_arrays(P, v0)[1].copy()
        return feet, np.ones(feet.shape[:-1] + (1,))
    E = edge_bases(F)
    # pinv (SVD) rather than normal equations: the foot stays accurate on
    # badly conditioned facets
    pinv = np.linalg.pinv(np.swapaxes(E, -1, -2))
    coeff = np.einsum("...ij,...j->...i", pinv, P - v0)
    feet = v0 + np.einsum("...i,...ij->...j", coeff, E)
    bary = np.concatenate([1.0 - coeff.sum(axis=-1, keepdims=True), coeff],
                          axis=-1)
    return feet, bary


def _inside(bary: np.ndarray) -> np.ndarray:
    return bary.min(axis=-1) >= -CONTAINMENT_TOL


def _closest(P, F, feet, bary) -> np.ndarray:
    """Nearest closed-facet points given the hull feet: a foot inside its
    facet is the answer, otherwise the nearest point lies on a proper face
    (recursively; for a triangle, the nearest of its three clamped edge
    projections)."""
    k = F.shape[-2] - 1
    inside = _inside(bary)
    if k == 0 or inside.all():
        return feet
    cand = np.stack(
        [closest_points(P, F[..., idx, :]) for idx in facet_index(k)], axis=-2
    )
    d2 = ((P[..., None, :] - cand) ** 2).sum(axis=-1)
    pick = d2.argmin(axis=-1)[..., None, None]
    nearest = np.take_along_axis(cand, pick, axis=-2)[..., 0, :]
    return np.where(inside[..., None], feet, nearest)


def closest_points(P, F) -> np.ndarray:
    """Nearest point of each closed facet (convex hull of its vertices) to
    the matching point; batch axes broadcast."""
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    return _closest(P, F, *hull_feet(P, F))


def _clearance(P, F, feet, bary) -> np.ndarray:
    dist_hull = np.linalg.norm(P - feet, axis=-1)
    dist = np.linalg.norm(P - _closest(P, F, feet, bary), axis=-1)
    return np.where(_inside(bary), 1.0, dist_hull / dist)


def clearance_ratios(P, F) -> np.ndarray:
    """Ratio of hull distance to closed-facet distance for each point and
    facet, in (0, 1]; exactly 1 where the hull foot lies inside the facet.
    Points must lie off their facet's hull."""
    P = np.asarray(P, dtype=float)
    F = np.asarray(F, dtype=float)
    return _clearance(P, F, *hull_feet(P, F))


def gradient_operators(X) -> np.ndarray:
    """Matrices G (..., d, k) with grad = G @ (t[1:] - t[0]) for the affine
    interpolant of vertex times t on each k-simplex.

    G is the pseudo-inverse of the edge basis, so the gradient is the
    minimal-norm solution of E g = dt, the vector lying in the simplex's
    affine hull; SVD keeps full accuracy on badly conditioned simplices.
    """
    return np.linalg.pinv(edge_bases(np.asarray(X, dtype=float)))


# -- scalar API ----------------------------------------------------------------


class SimplexGeometry:
    """A k-simplex with cached edge basis and k-dimensional measure."""

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("simplex vertices must be finite")
        if v.shape[0] - 1 > v.shape[1]:
            raise ValueError(
                f"a {v.shape[0] - 1}-simplex cannot be embedded in R^{v.shape[1]}"
            )
        self.vertices = v

    @property
    def k(self) -> int:
        return self.vertices.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @cached_property
    def edges(self) -> np.ndarray:
        """Edge basis: rows are vertex[i] - vertex[0], shape (k, dim)."""
        return edge_bases(self.vertices)

    @cached_property
    def measure(self) -> float:
        """k-dimensional volume; a 0-simplex has measure 1 by convention."""
        return float(simplex_measures(self.vertices))

    @cached_property
    def longest_edge(self) -> float:
        return float(_longest_edges(self.vertices))

    @property
    def is_degenerate(self) -> bool:
        return bool(degenerate_mask(self.vertices))

    def facet(self, i: int) -> "SimplexGeometry":
        """The (k-1)-simplex opposite vertex i."""
        idx = [j for j in range(self.k + 1) if j != i]
        return SimplexGeometry(self.vertices[idx])

    def require_nondegenerate(self, what: str = "simplex") -> None:
        if self.is_degenerate:
            raise DegeneracyError(f"degenerate {what}: measure {self.measure:g}")


def _hull_foot(p: np.ndarray, facet: SimplexGeometry):
    """Orthogonal projection of p onto the facet's affine hull.

    Returns (foot, barycentric coordinates of the foot w.r.t. the facet).
    """
    facet.require_nondegenerate("projection target")
    return hull_feet(p, facet.vertices)


def _off_hull_foot(p, facet: SimplexGeometry):
    """_hull_foot for a point that must have a nonzero offset from the
    hull; returns (p as an array, foot, barycentrics)."""
    p = np.asarray(p, dtype=float)
    foot, bary = _hull_foot(p, facet)
    offset = float(np.linalg.norm(p - foot))
    scale = max(facet.longest_edge, float(np.linalg.norm(p - facet.vertices[0])))
    if offset <= DEGENERACY_RTOL * max(scale, 1e-300):
        raise DegeneracyError("point lies on the facet's affine hull")
    return p, foot, bary


def altitude_distance(s: SimplexGeometry, i: int) -> float:
    """Distance from vertex i to the affine hull of the opposite facet."""
    s.require_nondegenerate()
    if not 0 <= i <= s.k:
        raise IndexError(f"vertex index {i} out of range for a {s.k}-simplex")
    foot, _ = _hull_foot(s.vertices[i], s.facet(i))
    return float(np.linalg.norm(s.vertices[i] - foot))


def project_to_hyperplane(p, facet: SimplexGeometry) -> np.ndarray:
    """Orthogonal projection of p onto the facet's affine hull.

    Raises DegeneracyError when p already lies on the hull (within the
    scale-relative tolerance), since callers rely on a nonzero offset.
    """
    return _off_hull_foot(p, facet)[1]


def closest_point_in_facet(p, facet: SimplexGeometry) -> np.ndarray:
    """Nearest point of the closed facet (convex hull of its vertices) to p.

    If the hull foot has nonnegative barycentric coordinates it is the
    answer, otherwise the nearest point lies on a proper face.
    """
    facet.require_nondegenerate()
    return closest_points(p, facet.vertices)


def clearance_ratio(p, facet: SimplexGeometry) -> float:
    """Ratio of hull distance to closed-facet distance, in (0, 1].

    Equals exactly 1 when the orthogonal projection of p lands inside the
    closed facet; otherwise it is the sine of the angle at the nearest facet
    point, which governs how steeply the front may tilt across that facet.
    """
    p, foot, bary = _off_hull_foot(p, facet)
    return float(_clearance(p, facet.vertices, foot, bary))


def time_gradient(coords, times) -> np.ndarray:
    """Gradient of the affine time function interpolating lifted vertices.

    coords is (k+1, d), times is (k+1,).  The result is the ambient d-vector
    lying in the simplex's affine hull; its Euclidean norm is the maximum
    slope of the lifted facet.
    """
    s = SimplexGeometry(coords)
    s.require_nondegenerate("spatial simplex of a lifted facet")
    t = np.asarray(times, dtype=float)
    if t.shape != (s.k + 1,):
        raise ValueError("times must supply one value per vertex")
    return gradient_operators(s.vertices) @ (t[1:] - t[0])
