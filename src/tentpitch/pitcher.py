"""Lift-bound computation and tent construction.

For a local-minimum vertex v, the admissible new time is the minimum over
every incident element of:

* the cone ceiling t(foot) + w * sqrt(cap^2 - |grad_H t|^2), where H is the
  affine hull of the element's facet opposite v, w the altitude of v, and
  cap the element's slope cap (1/wave speed);
* the progress ceiling t(top) + (1 - epsilon) * w * cap on each triangle
  (for d = 3, on each triangular face of the element, with both slopes
  additionally scaled by the face's precomputed gradient cap);
* the target time T.

The progress ceiling is what guarantees every lift advances the vertex by
at least epsilon * (scaled altitude), so the front reaches any target time
in a bounded number of steps even on arbitrarily obtuse meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

import numpy as np

from .errors import FrontInvariantError, StallError
from .front import Front, GreedyLowest, MISPhases, Strategy
from .ground_mesh import GroundMesh, MeshConstants, precompute
from .spacetime import Facet, Patch, SpaceTimeMesh

# Computed bounds are pulled back by this relative slack so re-validation at
# tolerance 1e-9 never trips on a facet that is cone-tight by construction.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class PitchConfig:
    """Run parameters; epsilon is the progress parameter in (0, 1/2]."""

    target_time: float
    epsilon: float = 0.1
    tolerance: float = 1e-9
    strategy: Strategy = GreedyLowest()
    check_lifts: bool = True

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(
                f"epsilon must be in (0, 1/2], got {self.epsilon}"
            )
        if not 0.0 <= self.target_time < math.inf:
            raise ValueError(
                f"target time must be finite and nonnegative, got {self.target_time}"
            )
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class LiftBound:
    """The admissible lift value and the constraint that produced it.

    kind is 'cone', 'progress' or 'target'; face is the tuple of ground
    vertex ids of the binding triangular face for d = 3 face constraints.
    """

    value: float
    kind: str
    element: Optional[int] = None
    face: Optional[tuple[int, ...]] = None


def _slacked(x: float) -> float:
    return x - abs(x) * BOUND_SLACK


def edge_cone_ceiling(p, a, b, ta, tb, cap=1.0) -> float:
    """Cone ceiling for lifting p over the fixed lifted segment a@ta, b@tb.

    Pure closed form from raw coordinates; both orderings of (a, b) agree,
    which the tests verify numerically.
    """
    p = np.asarray(p, float)
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    edge = b - a
    L2 = float(edge @ edge)
    L = math.sqrt(L2)
    beta = float((p - a) @ edge) / L2
    foot = a + beta * edge
    w = float(np.linalg.norm(p - foot))
    mu = (tb - ta) / L
    rad = cap * cap - mu * mu
    if rad < 0:
        raise FrontInvariantError("segment already violates the cone constraint")
    return ta + beta * (tb - ta) + w * math.sqrt(rad)


def cone_bound(front: Front, v: int, e: int, cap: Optional[float] = None) -> float:
    """Largest new time for v keeping element e's gradient within its cap."""
    t = front.times
    if cap is None:
        cap = front.ground.slope_cap(e, t[v])
    li = _local_index(front.ground, e, v)
    rec = front.constants.cone_recs[e][li]
    d = front.ground.dim
    if d == 1:
        return t[rec[0]] + rec[1] * cap
    if d == 2:
        return _cone2(rec, t, cap, front.tol, e)
    return _cone3(rec, t, cap, front.tol, e)


def progress_bound(front: Front, v: int, e: int, epsilon: Optional[float] = None) -> float:
    """Progress ceiling t(top) + (1-eps) * altitude * cap on triangle e."""
    if front.ground.dim != 2:
        raise ValueError("progress_bound applies to triangle elements")
    t = front.times
    eps = front.epsilon if epsilon is None else epsilon
    cap = front.ground.slope_cap(e, t[v])
    li = _local_index(front.ground, e, v)
    j, k, w = front.constants.progress_recs[e][li]
    return max(t[j], t[k]) + (1.0 - eps) * w * cap


def face_cap_bound(front: Front, v: int, e: int, face) -> float:
    """Cone ceiling on a triangular face of tetrahedron e, with the face's
    gradient cap in place of the full cone."""
    rec = _find_face_rec(front, v, e, face)
    t = front.times
    cap = front.ground.slope_cap(e, t[v])
    j, k, beta, inv_len, wf, kap = rec
    return _edge_cone_scalar(t[j], t[k], beta, inv_len, wf, kap * cap, front.tol, e)


def face_progress_bound(front: Front, v: int, e: int, face) -> float:
    """Progress ceiling on a triangular face of tetrahedron e, slopes scaled
    by the face's gradient cap."""
    rec = _find_face_rec(front, v, e, face)
    t = front.times
    cap = front.ground.slope_cap(e, t[v])
    j, k, _, _, wf, kap = rec
    return max(t[j], t[k]) + (1.0 - front.epsilon) * wf * kap * cap


def _local_index(ground: GroundMesh, e: int, v: int) -> int:
    for e2, li in ground.stars[v]:
        if e2 == e:
            return li
    raise ValueError(f"vertex {v} is not part of element {e}")


def _find_face_rec(front: Front, v: int, e: int, face):
    li = _local_index(front.ground, e, v)
    want = set(int(x) for x in face)
    for rec in front.constants.face_recs[e][li]:
        if {v, rec[0], rec[1]} == want:
            return rec
    raise ValueError(f"face {face} does not contain vertex {v} in element {e}")


def _edge_cone_scalar(tj, tk, beta, inv_len, w, cap, tol, e) -> float:
    dt = tk - tj
    mu = dt * inv_len
    rad = cap * cap - mu * mu
    if rad < 0.0:
        if rad < -tol * cap * cap:
            raise FrontInvariantError(
                f"facet of element {e} violates its cone constraint "
                f"(slope {abs(mu):g}, cap {cap:g})"
            )
        rad = 0.0
    return tj + beta * dt + w * math.sqrt(rad)


def _cone2(rec, t, cap, tol, e) -> float:
    j, k, beta, inv_len, w = rec
    return _edge_cone_scalar(t[j], t[k], beta, inv_len, w, cap, tol, e)


def _cone3(rec, t, cap, tol, e) -> float:
    j, k, l, h11, h12, h22, b1, b2, w = rec
    d1 = t[k] - t[j]
    d2 = t[l] - t[j]
    a1 = h11 * d1 + h12 * d2
    a2 = h12 * d1 + h22 * d2
    slope2 = a1 * d1 + a2 * d2
    rad = cap * cap - slope2
    if rad < 0.0:
        if rad < -tol * cap * cap:
            raise FrontInvariantError(
                f"facet of element {e} violates its cone constraint "
                f"(slope {math.sqrt(slope2):g}, cap {cap:g})"
            )
        rad = 0.0
    return t[j] + a1 * b1 + a2 * b2 + w * math.sqrt(rad)


def compute_lift(v: int, front: Front, config: PitchConfig) -> LiftBound:
    """Maximal admissible lift for local-minimum vertex v.

    Returns the minimum over all incident cone, progress and face
    constraints, clamped at the target time.  Raises StallError when the
    result fails to advance the vertex, which would mean the progress
    invariant was broken upstream.
    """
    ground, cons = front.ground, front.constants
    if cons.epsilon != config.epsilon:
        raise ValueError(
            "mesh constants were precomputed with a different epsilon"
        )
    t = front.times
    tv = t[v]
    if not front.is_local_minimum(v):
        raise ValueError(f"vertex {v} is not a local minimum of the front")
    d = ground.dim
    pf = 1.0 - config.epsilon
    tol = config.tolerance
    best = math.inf
    kind = "cone"
    best_elem: Optional[int] = None
    best_face: Optional[tuple[int, ...]] = None

    for e, li in ground.stars[v]:
        cap = ground.slope_cap(e, tv)
        rec = cons.cone_recs[e][li]
        if d == 1:
            cb = t[rec[0]] + rec[1] * cap
        elif d == 2:
            cb = _cone2(rec, t, cap, tol, e)
        else:
            cb = _cone3(rec, t, cap, tol, e)
        if cb < best:
            best, kind, best_elem, best_face = cb, "cone", e, None
        if d == 2:
            j, k, w = cons.progress_recs[e][li]
            top = t[j] if t[j] > t[k] else t[k]
            pb = top + pf * w * cap
            if pb < best:
                best, kind, best_elem, best_face = pb, "progress", e, None
        elif d == 3:
            for j, k, beta, inv_len, wf, kap in cons.face_recs[e][li]:
                fcap = kap * cap
                fb = _edge_cone_scalar(t[j], t[k], beta, inv_len, wf, fcap, tol, e)
                if fb < best:
                    best, kind, best_elem, best_face = fb, "cone", e, (v, j, k)
                top = t[j] if t[j] > t[k] else t[k]
                pb = top + pf * wf * fcap
                if pb < best:
                    best, kind, best_elem, best_face = pb, "progress", e, (v, j, k)

    best = _slacked(best)
    if best >= config.target_time:
        return LiftBound(config.target_time, "target")
    if best <= tv + tol * cons.omega[v]:
        raise StallError(
            f"lift of vertex {v} stalled at t={tv:.17g} "
            f"(bound {best:.17g} from {kind} on element {best_elem})",
            diagnostics={
                "vertex": v,
                "time": tv,
                "bound": best,
                "kind": kind,
                "element": best_elem,
                "face": best_face,
            },
        )
    return LiftBound(best, kind, best_elem, best_face)


def pitch_tent(mesh: SpaceTimeMesh, v: int, t_new: float) -> Patch:
    """Build and commit the patch for lifting vertex v to t_new.

    One (d+1)-simplex per element of star(v): the apex, the old position of
    v, and the other vertices at their current front positions.  All
    internal facets of the patch share the base-apex edge.
    """
    ground = mesh.ground
    pid = len(mesh.patches)
    base = mesh.current_vertex[v]
    apex = mesh.add_vertex(v, t_new)
    elem_ids: list[int] = []
    inflow: list[Facet] = []
    outflow: list[Facet] = []
    for e, li in ground.stars[v]:
        fr = mesh.frontier[e]
        inflow.append(fr)
        new_verts = fr.vertices[:li] + (apex,) + fr.vertices[li + 1:]
        outflow.append(Facet(e, new_verts, pid))
        elem_ids.append(mesh.add_element((apex,) + fr.vertices, pid))
    patch = Patch(
        id=pid,
        vertex=v,
        base=base,
        apex=apex,
        elements=elem_ids,
        inflow=inflow,
        outflow=outflow,
    )
    mesh.append_patch(patch)
    return patch


@dataclass
class LiftRecord:
    vertex: int
    old_time: float
    new_time: float
    kind: str
    element: Optional[int]
    face: Optional[tuple[int, ...]]
    patch: int


@dataclass
class RunTrace:
    """Everything the verifier needs to replay and re-check a run."""

    epsilon: float
    target_time: float
    tolerance: float
    strategy: str
    seed: int
    initial_times: list[float]
    lifts: list[LiftRecord] = field(default_factory=list)
    build_seconds: float = 0.0


def run(
    ground: GroundMesh,
    config: PitchConfig,
    initial_times=None,
    constants: Optional[MeshConstants] = None,
) -> tuple[SpaceTimeMesh, RunTrace]:
    """Advance the whole front to the target time.

    Returns the space-time mesh (patches in causal creation order) and the
    per-lift trace.  Every vertex finishes at exactly the target time; the
    last lift of each vertex is clamped there.
    """
    if constants is None:
        constants = precompute(ground, config.epsilon)
    if initial_times is None and ground.initial_times is not None:
        initial_times = ground.initial_times
    front = Front(
        ground,
        constants,
        config.target_time,
        initial_times=initial_times,
        tol=config.tolerance,
    )
    mesh = SpaceTimeMesh.initial(ground, front.times)
    strategy = config.strategy
    trace = RunTrace(
        epsilon=config.epsilon,
        target_time=config.target_time,
        tolerance=config.tolerance,
        strategy="mis" if isinstance(strategy, MISPhases) else "greedy",
        seed=strategy.seed if isinstance(strategy, MISPhases) else 0,
        initial_times=list(front.times),
    )
    start = perf_counter()
    while (v := front.next_vertex(strategy)) is not None:
        bound = compute_lift(v, front, config)
        old = front.times[v]
        front.apply_lift(v, bound.value, check=config.check_lifts)
        patch = pitch_tent(mesh, v, bound.value)
        trace.lifts.append(
            LiftRecord(v, old, bound.value, bound.kind, bound.element,
                       bound.face, patch.id)
        )
    elapsed = perf_counter() - start
    mesh.build_seconds = elapsed
    trace.build_seconds = elapsed
    return mesh, trace
