"""Immutable simplicial ground mesh and its precomputed constants.

The ground mesh is the d-dimensional spatial input (d in {1,2,3}).  All
geometric quantities the advancing front needs per lift are computed once
here, as array code over all elements: vertex altitudes, the per-vertex
minimum altitude, projection clearance ratios and per-face gradient caps
for d = 3, and flattened scalar records that let the hot loop evaluate
every bound without array math.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry
from .errors import MeshValidationError
from .geometry import dots


class GroundMesh:
    """Validated d-dimensional simplicial complex with adjacency.

    Wave speed is stored per element (constant in time, default 1), so
    the admissible time-gradient norm on element e is the constant
    slope_caps[e] = 1/speeds[e].
    """

    def __init__(
        self,
        dim: int,
        vertices,
        elements,
        speeds=None,
        initial_times=None,
    ):
        if isinstance(dim, bool) or dim not in (1, 2, 3):
            raise MeshValidationError(f"unsupported dimension {dim!r} (need 1, 2 or 3)")
        self.dim = dim
        self.vertices = np.asarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise MeshValidationError(
                f"vertices must have shape (n, {dim}), got {self.vertices.shape}"
            )
        if not np.all(np.isfinite(self.vertices)):
            raise MeshValidationError("vertex coordinates must be finite")
        self.elements = np.asarray(elements, dtype=int)
        if self.elements.ndim != 2 or self.elements.shape[1] != dim + 1:
            raise MeshValidationError(
                f"elements must have shape (m, {dim + 1}), got {self.elements.shape}"
            )
        n = len(self.vertices)
        if self.elements.size and (
            self.elements.min() < 0 or self.elements.max() >= n
        ):
            bad = np.argwhere((self.elements < 0) | (self.elements >= n))[0]
            raise MeshValidationError(
                f"element {bad[0]} references vertex index out of range"
            )
        repeats = (np.diff(np.sort(self.elements, axis=1), axis=1) == 0).any(axis=1)
        bad = repeats | geometry.degenerate_mask(self.vertices[self.elements])
        if bad.any():
            e = int(np.argmax(bad))
            if repeats[e]:
                raise MeshValidationError(f"element {e} repeats a vertex")
            raise MeshValidationError(f"element {e} is degenerate (zero measure)")

        if speeds is None:
            self.speeds = np.ones(len(self.elements))
        else:
            self.speeds = np.asarray(speeds, dtype=float)
            if self.speeds.shape != (len(self.elements),):
                raise MeshValidationError("speeds must supply one value per element")
            finite = np.isfinite(self.speeds)
            bad = ~(finite & (self.speeds > 0))
            if bad.any():
                e = int(np.argmax(bad))
                kind = "non-positive" if finite[e] else "non-finite"
                raise MeshValidationError(f"element {e} has {kind} wave speed")
        # as plain floats: the same values, bit for bit, as
        # 1.0 / float(speeds[e])
        self.slope_caps: list[float] = (1.0 / self.speeds).tolist()

        # the front's times at the start of a run; None means all zero
        self.initial_times = None
        if initial_times is not None:
            self.initial_times = np.asarray(initial_times, dtype=float)
            if self.initial_times.shape != (n,):
                raise MeshValidationError("initial_times must supply one value per vertex")
            bad = np.flatnonzero(~np.isfinite(self.initial_times))
            if len(bad):
                raise MeshValidationError(f"vertex {bad[0]} has a non-finite initial time")

        # stars in CSR form, from a stable sort of the flattened element
        # array by vertex: star_elements/star_locals[star_offsets[v]:
        # star_offsets[v+1]] are the elements containing v, in element
        # order, and v's local index in each; stars[v] lists the same pairs
        k1 = dim + 1
        order = np.argsort(self.elements.ravel(), kind="stable")
        self.star_elements = order // k1
        self.star_locals = order % k1
        degree = np.bincount(self.elements.ravel(), minlength=n)
        self.star_offsets = np.concatenate([[0], np.cumsum(degree)])
        pairs = list(zip(self.star_elements.tolist(), self.star_locals.tolist()))
        self.stars: list[list[tuple[int, int]]] = _split(pairs, degree)
        isolated = np.flatnonzero(degree == 0).tolist()
        if isolated:
            raise MeshValidationError(
                f"isolated vertex {isolated[0]} can never be advanced"
            )

        # neighbors[v]: sorted distinct vertices sharing an element with v,
        # from the distinct (v, w) keys over every ordered pair of an
        # element (sorted and deduplicated by hand: np.unique imports
        # numpy.ma, which adds about 1.5 MB to the CLI's peak RSS)
        a, b = np.nonzero(~np.eye(k1, dtype=bool))
        keys = np.sort((self.elements[:, a] * n + self.elements[:, b]).ravel())
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.neighbors: list[list[int]] = _split(
            (keys % n).tolist(), np.bincount(keys // n, minlength=n)
        )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_elements(self) -> int:
        return len(self.elements)


def _split(items: list, counts: np.ndarray) -> list[list]:
    """Cut a flat list into consecutive runs of the given lengths."""
    ends = np.cumsum(counts).tolist()
    return [items[end - c:end] for end, c in zip(ends, counts.tolist())]


def load(raw: dict) -> GroundMesh:
    """Build a GroundMesh from the parsed json-mesh structure."""
    for key in ("dim", "vertices", "elements"):
        if key not in raw:
            raise MeshValidationError(f"mesh description missing '{key}'")
    dim = raw["dim"]
    return GroundMesh(
        # int() would turn True into 1; GroundMesh rejects a bool
        dim if isinstance(dim, bool) else int(dim),
        raw["vertices"],
        raw["elements"],
        speeds=raw.get("speeds"),
        initial_times=raw.get("initial_times"),
    )


@dataclass
class MeshConstants:
    """Geometry constants precomputed from the ground mesh alone.

    Flattened per-(element, vertex) records drive the lift-bound hot loop:

    * cone_recs[e][i]: scalar data for the full-element cone ceiling when
      lifting local vertex i, and for d = 2 also its progress ceiling.
    * face_recs[e][i] (d = 3): per triangular face of e containing i,
      (j, k, beta, inv_len, w_face, kappa).
    * slope_recs[e] / face_state_recs[e]: inverse-Gram data used to
      re-validate the front state after each lift.

    pitcher._star_constraints documents the cone_recs and face_recs
    layouts, per dimension.
    """

    epsilon: float
    altitudes: np.ndarray            # (m, d+1)
    omega: np.ndarray                # (n,) min altitude over incident elements
    cone_recs: list = field(repr=False, default_factory=list)
    face_recs: Optional[list] = field(repr=False, default=None)
    slope_recs: list = field(repr=False, default_factory=list)
    face_state_recs: Optional[list] = field(repr=False, default=None)

    @property
    def inverse_omega_sum(self) -> float:
        return float(np.sum(1.0 / self.omega))


def _edge_feet(Xi, Xj, Xk):
    """Foot of each point i on the line through edge (j, k), batched.

    Returns (beta, inv_len, w): the foot is j + beta * (k - j), inv_len is
    1/|k - j| and w the distance from i to the foot.
    """
    edge = Xk - Xj
    L2 = dots(edge, edge)
    beta = dots(Xi - Xj, edge) / L2
    foot = Xj + beta[..., None] * edge
    return beta, 1.0 / np.sqrt(L2), np.sqrt(dots(Xi - foot, Xi - foot))


def _records(*cols: np.ndarray, depth: int) -> list:
    """Zip arrays that share their first `depth` axes into per-entry
    tuples (one .tolist() per array), nested in lists along those axes;
    an array with more axes contributes a list per entry."""
    shape = cols[0].shape[:depth]
    recs = list(zip(*(c.reshape(-1, *c.shape[depth:]).tolist() for c in cols)))
    for size in reversed(shape[1:]):
        recs = [recs[i:i + size] for i in range(0, len(recs), size)]
    return recs


def _triangle_records(coords, ids):
    """Per-vertex (j, k, beta, inv_len, w) records of triangles.

    coords has shape (..., 3, 2) and ids (..., 3); the records are nested
    in lists along the leading batch axes.  beta places the foot of the
    altitude along the opposite edge, so the cone ceiling is
    t_j + beta*(t_k - t_j) + w*sqrt(cap^2 - mu^2) with mu = (t_k - t_j)*inv_len.
    """
    X = np.asarray(coords, dtype=float)
    ids = np.asarray(ids, dtype=int)
    j, k = geometry.facet_index(2).T
    return _records(ids[..., j], ids[..., k],
                    *_edge_feet(X, X[..., j, :], X[..., k, :]), depth=ids.ndim)


def _sym2_inverse(g11, g12, g22):
    det = g11 * g22 - g12 * g12
    return (g22 / det, -g12 / det, g11 / det)


def _vertex_min(n: int, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-vertex minimum of values scattered to the vertex ids."""
    out = np.full(n, np.inf)
    np.minimum.at(out, np.broadcast_to(ids, values.shape).ravel(), values.ravel())
    return out


def precompute(mesh: GroundMesh, epsilon: float = 0.1) -> MeshConstants:
    """Compute all front-independent constants of the ground mesh.

    epsilon enters only the face gradient caps (d = 3): the cap of the
    triangular face opposite vertex l inside element e is
    (1 - epsilon) * sigma[e][l], with sigma the clearance ratio of vertex
    l over that face, instantiating the strictest-constraint
    rule one recursion level deep (deeper levels would only matter for
    d >= 4 meshes, which are rejected at load).

    Everything is array code over the stacked element coordinates
    X = vertices[elements], shape (m, d+1, d); the hot loop's tuples are
    made at the end with one .tolist() per array.
    """
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")
    d = mesh.dim
    n = mesh.n_vertices
    ids = mesh.elements
    X = mesh.vertices[ids]
    opp = geometry.facet_index(d)    # (d+1, d) local vertices opposite i
    F = X[:, opp]                    # (m, d+1, d, d) facet opposite vertex i

    # altitude = d * |simplex| / |opposite facet|
    altitudes = (d * geometry.simplex_measures(X)[:, None]
                 / geometry.simplex_measures(F))
    omega = _vertex_min(n, ids, altitudes)
    face_recs = face_state_recs = None
    E = geometry.edge_bases(X)

    if d == 1:
        L = np.sqrt(dots(E[:, 0], E[:, 0]))
        cone_recs = _records(ids[:, ::-1], np.stack([L, L], axis=1), depth=2)
        slope_recs = _records(ids[:, 0], ids[:, 1], 1.0 / L, depth=1)
    elif d == 2:
        cone_recs = _triangle_records(X, ids)
        g = E @ np.swapaxes(E, 1, 2)
        h = _sym2_inverse(g[:, 0, 0], g[:, 0, 1], g[:, 1, 1])
        slope_recs = _records(ids[:, 0], ids[:, 1], ids[:, 2], *h, depth=1)
    else:
        # full-element cone record for vertex i: project it onto the
        # opposite facet plane, cache the Gram inverse of the facet edge
        # basis and the foot's edge-coordinates
        f0 = F[:, :, 0]
        U = geometry.edge_bases(F)
        u1, u2 = U[..., 0, :], U[..., 1, :]
        h11, h12, h22 = _sym2_inverse(dots(u1, u1), dots(u1, u2), dots(u2, u2))
        c1, c2 = dots(u1, X - f0), dots(u2, X - f0)
        a1 = h11 * c1 + h12 * c2
        a2 = h12 * c1 + h22 * c2
        foot = f0 + a1[..., None] * u1 + a2[..., None] * u2
        w = np.sqrt(dots(X - foot, X - foot))
        fids = ids[:, opp]
        cone_recs = _records(
            fids[..., 0], fids[..., 1], fids[..., 2], h11, h12, h22,
            dots(u1, foot - f0), dots(u2, foot - f0), w, depth=2,
        )

        sigma = geometry.clearance_ratios(X, F)
        kappa = (1.0 - epsilon) * sigma
        # triangular faces of e containing vertex i: one per excluded
        # vertex l = opp[i, s] != i, with edge (j, k) = face l minus i; the
        # face inherits cap kappa[e][l]
        jk = np.array([[[x for x in opp[l] if x != i] for l in opp[i]]
                       for i in range(4)])                    # (4, 3, 2)
        fbeta, finv_len, wf = _edge_feet(
            X[:, :, None], X[:, jk[..., 0]], X[:, jk[..., 1]]
        )
        fkappa = kappa[:, opp]
        face_recs = _records(ids[:, jk[..., 0]], ids[:, jk[..., 1]],
                             fbeta, finv_len, wf, fkappa, depth=3)

        slope_recs = list(zip(map(tuple, ids.tolist()),
                              np.linalg.inv(E @ np.swapaxes(E, 1, 2))))
        # face l's state record: its Gram inverse is the cone record's of
        # vertex l; the in-face altitude of its vertex i = opp[l][p] is
        # wf[:, i, s] at the slot s where opp[i][s] == l
        slot = np.array([[list(opp[i]).index(l) for i in opp[l]]
                         for l in range(4)])
        ws = wf[:, opp, slot]
        face_state_recs = _records(
            fids[..., 0], fids[..., 1], fids[..., 2], h11, h12, h22, kappa,
            ws, depth=2,
        )

    return MeshConstants(
        epsilon=epsilon,
        altitudes=altitudes,
        omega=omega,
        cone_recs=cone_recs,
        face_recs=face_recs,
        slope_recs=slope_recs,
        face_state_recs=face_state_recs,
    )
