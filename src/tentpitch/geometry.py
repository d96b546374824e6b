"""Dimension-generic vector and simplex primitives.

A k-simplex in R^d (k <= d) is given by a (k+1, d) array of vertex
coordinates.  Everything here is double precision; degeneracy is decided
against a scale-relative threshold rather than exact predicates, since all
downstream constraints are metric, not combinatorial.

Each formula exists once, as a batched kernel over stacks of simplices
(any leading batch axes, then (k+1, d)).  The kernels trust their caller,
e.g. a validated ground mesh, whose element facets are never degenerate.
"""

from __future__ import annotations

import math

import numpy as np

# A simplex is degenerate when measure < DEGENERACY_RTOL * longest_edge**k.
DEGENERACY_RTOL = 1e-12
# Barycentric slack when deciding whether a hull foot lies inside a facet.
CONTAINMENT_TOL = 1e-12


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
    """True where measure < DEGENERACY_RTOL * longest_edge**k.

    A full-dimensional simplex (k = d) takes as its measure the smaller of
    |det E| / k! and simplex_measures: the first is exactly 0 for exactly
    collinear or coplanar vertices, where the round-off in det(E E^T)
    leaves about 5e-9 on a unit-size triangle; the second is what the
    altitudes are computed from, and it rounds to 0 on slivers thinner
    than about 1e-8 of their size.
    """
    X = np.asarray(X, dtype=float)
    k = X.shape[-2] - 1
    if k == 0:
        return np.zeros(X.shape[:-2], dtype=bool)
    scale = _longest_edges(X)
    if k == X.shape[-1]:
        measure = np.minimum(
            np.abs(np.linalg.det(edge_bases(X))) / math.factorial(k),
            simplex_measures(X))
    else:
        measure = simplex_measures(X)
    return (scale <= 0.0) | (measure < DEGENERACY_RTOL * scale**k)


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
