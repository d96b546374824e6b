"""Immutable simplicial ground mesh, its parsers and its precomputed
constants.

The ground mesh is the d-dimensional spatial input (d in {1,2,3}), read
from a .node/.ele pair or a JSON mesh.  All geometric quantities the
advancing front needs per lift are computed once here, as array code over
all elements: the per-vertex minimum altitude, and flattened scalar
records (with the per-face gradient caps for d = 3) that let the hot loop
evaluate every bound without array math.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import geometry
from .errors import MeshValidationError, ParseError
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

        # the front's times at the start of a run: 0 where none are given
        self.initial_times = (np.zeros(n) if initial_times is None
                              else np.asarray(initial_times, dtype=float))
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


# -- .node / .ele ------------------------------------------------------------


def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _token(tokens, pos, lineno, name, kind=float):
    try:
        return kind(tokens[pos])
    except (IndexError, ValueError):
        raise ParseError(
            f"{name} line {lineno}: expected {kind.__name__} at column {pos + 1}"
        ) from None


def parse_triangle(node_text: str, ele_text: str) -> dict:
    """Parse the community .node/.ele pair into a raw json-mesh dict (d=2).

    Indexing base (0 or 1) is taken from the first listed vertex index, and
    the vertices must be listed in order from it; an optional first
    triangle attribute is read as the per-element wave speed.
    """
    node_lines = list(_data_lines(node_text))
    if not node_lines:
        raise ParseError("node line 1: empty file")
    lineno, header = node_lines[0]
    n_pts = _token(header, 0, lineno, "node", int)
    dim = _token(header, 1, lineno, "node", int)
    if dim != 2:
        raise ParseError(f"node line {lineno}: dimension {dim} unsupported (need 2)")
    if len(node_lines) - 1 != n_pts:
        raise ParseError(
            f"node line {lineno}: header promises {n_pts} vertices, "
            f"found {len(node_lines) - 1}"
        )
    base = None
    vertices = []
    for k, (lineno, tokens) in enumerate(node_lines[1:]):
        idx = _token(tokens, 0, lineno, "node", int)
        if base is None:
            base = idx
            if base not in (0, 1):
                raise ParseError(
                    f"node line {lineno}: first vertex index must be 0 or 1"
                )
        if idx != base + k:
            raise ParseError(
                f"node line {lineno}: vertex index {idx}, expected {base + k}"
            )
        x = _token(tokens, 1, lineno, "node")
        y = _token(tokens, 2, lineno, "node")
        vertices.append([x, y])

    ele_lines = list(_data_lines(ele_text))
    if not ele_lines:
        raise ParseError("ele line 1: empty file")
    lineno, header = ele_lines[0]
    n_tri = _token(header, 0, lineno, "ele", int)
    per = _token(header, 1, lineno, "ele", int)
    n_attr = _token(header, 2, lineno, "ele", int) if len(header) > 2 else 0
    if per != 3:
        raise ParseError(f"ele line {lineno}: {per} nodes per triangle unsupported")
    if len(ele_lines) - 1 != n_tri:
        raise ParseError(
            f"ele line {lineno}: header promises {n_tri} triangles, "
            f"found {len(ele_lines) - 1}"
        )
    elements = []
    speeds = [] if n_attr >= 1 else None
    for lineno, tokens in ele_lines[1:]:
        tri = [_token(tokens, c, lineno, "ele", int) - base for c in (1, 2, 3)]
        for v in tri:
            if not 0 <= v < n_pts:
                raise ParseError(f"ele line {lineno}: vertex index out of range")
        elements.append(tri)
        if speeds is not None:
            speeds.append(_token(tokens, 4, lineno, "ele"))
    raw = {"dim": 2, "vertices": vertices, "elements": elements}
    if speeds is not None:
        raw["speeds"] = speeds
    return raw


# -- json mesh ----------------------------------------------------------------


def _check_reals(values: list, path: str) -> None:
    """Raise ParseError unless every entry is a JSON number (not `true` or
    `false`) that a float can hold; an integer literal can be any length."""
    for i, x in enumerate(values):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"{path}[{i}]: not a number")
        if isinstance(x, int):
            try:
                float(x)
            except OverflowError:
                raise ParseError(
                    f"{path}[{i}]: integer too large for a float") from None


def parse_json_mesh(text: str) -> dict:
    """Parse and validate the json-mesh schema, reporting the JSON path of
    any violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("$: mesh description must be an object")
    if "dim" not in data:
        raise ParseError("$.dim: missing")
    dim = data["dim"]
    # bool is a subclass of int, but `true` is not a dimension
    if isinstance(dim, bool) or not isinstance(dim, int) or dim not in (1, 2, 3):
        raise ParseError(f"$.dim: unsupported dimension {dim!r} (need 1, 2 or 3)")
    for key in ("vertices", "elements"):
        if key not in data or not isinstance(data[key], list):
            raise ParseError(f"$.{key}: missing or not an array")
    for i, v in enumerate(data["vertices"]):
        if not isinstance(v, list) or len(v) != dim:
            raise ParseError(f"$.vertices[{i}]: expected {dim} coordinates")
        _check_reals(v, f"$.vertices[{i}]")
    n = len(data["vertices"])
    for i, el in enumerate(data["elements"]):
        if not isinstance(el, list) or len(el) != dim + 1:
            raise ParseError(f"$.elements[{i}]: expected {dim + 1} vertex indices")
        for j, x in enumerate(el):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"$.elements[{i}][{j}]: not an integer")
            if not 0 <= x < n:
                raise ParseError(
                    f"$.elements[{i}][{j}]: {x} is out of range [0, {n})")
    for key in ("speeds", "initial_times"):
        if key in data:
            arr = data[key]
            if not isinstance(arr, list):
                raise ParseError(f"$.{key}: not an array")
            _check_reals(arr, f"$.{key}")
    return {
        "dim": dim,
        "vertices": data["vertices"],
        "elements": data["elements"],
        "speeds": data.get("speeds"),
        "initial_times": data.get("initial_times"),
    }


@dataclass
class MeshConstants:
    """Geometry constants precomputed from the ground mesh alone.

    Flattened per-(element, vertex) records, the one copy of the constraint
    data that the lift bound and the initial front's check read:

    * cone_recs[e][i]: scalar data for the full-element cone ceiling when
      lifting local vertex i, and for d = 2 also its progress ceiling.
    * face_recs[e][i] (d = 3): per triangular face of e containing i,
      (j, k, beta, inv_len, w_face, kappa).

    front._star_constraints documents the cone_recs and face_recs
    layouts, per dimension.
    """

    epsilon: float
    omega: np.ndarray                # (n,) min_altitudes(mesh)
    cone_recs: list = field(repr=False, default_factory=list)
    face_recs: Optional[list] = field(repr=False, default=None)


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


def min_altitudes(mesh: GroundMesh) -> np.ndarray:
    """omega: each vertex's smallest altitude over the elements of its
    star, an altitude being d * |simplex| / |opposite facet|."""
    X = mesh.vertices[mesh.elements]
    altitudes = (mesh.dim * geometry.simplex_measures(X)[:, None]
                 / geometry.simplex_measures(X[:, geometry.facet_index(mesh.dim)]))
    return _vertex_min(mesh.n_vertices, mesh.elements, altitudes)


def inverse_omega_sum(omega: np.ndarray) -> float:
    """Sum of 1/omega over the vertices: a run to target time T makes at
    most (T / epsilon) times this many patches."""
    return float(np.sum(1.0 / omega))


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless the progress parameter is in (0, 1/2]."""
    if not 0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must be in (0, 1/2], got {epsilon}")


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
    check_epsilon(epsilon)
    d = mesh.dim
    ids = mesh.elements
    X = mesh.vertices[ids]
    omega = min_altitudes(mesh)
    face_recs = None

    if d == 1:
        E = geometry.edge_bases(X)
        L = np.sqrt(dots(E[:, 0], E[:, 0]))
        cone_recs = _records(ids[:, ::-1], np.stack([L, L], axis=1), depth=2)
    elif d == 2:
        cone_recs = _triangle_records(X, ids)
    else:
        opp = geometry.facet_index(d)    # (4, 3) local vertices opposite i
        F = X[:, opp]                    # (m, 4, 3, 3) facet opposite vertex i
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

    return MeshConstants(
        epsilon=epsilon,
        omega=omega,
        cone_recs=cone_recs,
        face_recs=face_recs,
    )
