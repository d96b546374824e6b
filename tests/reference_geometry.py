"""Scalar geometry from first principles: the reference that the batched
kernels of tentpitch.geometry, and the tables built on them, are tested
against.

Feet come from a least-squares solve, measures from explicit cross
products, nearest points from enumerating faces and gradients from the
normal equations, where the kernels use the SVD, so that a test compares
two computations, not one computation with itself.
"""

import numpy as np


def foot(p, F):
    """Orthogonal projection of p onto the affine hull of the simplex F,
    shape (k+1, d), and its barycentric coordinates there."""
    p = np.asarray(p, dtype=float)
    F = np.asarray(F, dtype=float)
    if len(F) == 1:
        return F[0].copy(), np.ones(1)
    E = F[1:] - F[0]
    c = np.linalg.lstsq(E.T, p - F[0], rcond=None)[0]
    return F[0] + c @ E, np.concatenate([[1.0 - c.sum()], c])


def altitude(X, i):
    """Distance from vertex i of the simplex X to its opposite facet's hull."""
    X = np.asarray(X, dtype=float)
    f, _ = foot(X[i], np.delete(X, i, axis=0))
    return float(np.linalg.norm(X[i] - f))


def measure(X):
    """k-volume of a k-simplex in R^d, k, d <= 3: an edge length, half a
    cross product's norm or a sixth of a triple product."""
    X = np.asarray(X, dtype=float)
    k = len(X) - 1
    if k == 0:
        return 1.0
    E = np.zeros((k, 3))
    E[:, :X.shape[1]] = X[1:] - X[0]
    if k == 1:
        return float(np.linalg.norm(E[0]))
    if k == 2:
        return float(np.linalg.norm(np.cross(E[0], E[1]))) / 2.0
    return abs(float(E[0] @ np.cross(E[1], E[2]))) / 6.0


def closest(p, F):
    """Nearest point of the closed simplex F to p: the hull foot when its
    barycentric coordinates are nonnegative, else the nearest of the
    nearest points of F's facets."""
    p = np.asarray(p, dtype=float)
    F = np.asarray(F, dtype=float)
    f, bary = foot(p, F)
    if len(F) == 1 or bary.min() >= 0.0:
        return f
    faces = [closest(p, np.delete(F, i, axis=0)) for i in range(len(F))]
    return min(faces, key=lambda x: float(np.linalg.norm(p - x)))


def clearance(p, F):
    """Distance from p to the hull of F over its distance to F itself."""
    f, _ = foot(p, F)
    return float(np.linalg.norm(p - f) / np.linalg.norm(p - closest(p, F)))


def gram_inverse(F):
    """Inverse Gram matrix of the edge basis F[i] - F[0] of a simplex."""
    F = np.asarray(F, dtype=float)
    E = F[1:] - F[0]
    return np.linalg.inv(E @ E.T)


def gradient_operator(X):
    """The matrix E^T (E E^T)^-1 that maps the time differences
    t[1:] - t[0] on the simplex X to the gradient, in X's hull, of the
    affine function with those vertex times."""
    X = np.asarray(X, dtype=float)
    return (X[1:] - X[0]).T @ gram_inverse(X)


def gradient(X, t):
    """Gradient, in the hull of the simplex X, of the affine function with
    values t at its vertices."""
    t = np.asarray(t, dtype=float)
    return gradient_operator(X) @ (t[1:] - t[0])


def single_triangle_budget(ground, target_time, epsilon):
    """Worst-case element count T * P / (2 * A * epsilon) of a mesh of one
    triangle, with perimeter P and area A."""
    X = ground.vertices[ground.elements[0]]
    perimeter = sum(float(np.linalg.norm(X[i] - X[i - 1])) for i in range(3))
    return target_time * perimeter / (2.0 * measure(X) * epsilon)
