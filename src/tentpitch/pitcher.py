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
from operator import itemgetter
from time import perf_counter
from typing import Optional

from .errors import FrontInvariantError, StallError
from .front import TOLERANCE, Front, GreedyLowest, MISPhases, Strategy
from .ground_mesh import GroundMesh, MeshConstants, precompute
from .spacetime import SpaceTimeMesh

# Computed bounds are pulled back by this relative slack so re-validation at
# TOLERANCE never trips on a facet that is cone-tight by construction.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class PitchConfig:
    """Run parameters; epsilon is the progress parameter in (0, 1/2]."""

    target_time: float
    epsilon: float = 0.1
    strategy: Strategy = GreedyLowest()

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 0.5:
            raise ValueError(
                f"epsilon must be in (0, 1/2], got {self.epsilon}"
            )
        if not 0.0 <= self.target_time < math.inf:
            raise ValueError(
                f"target time must be finite and nonnegative, got {self.target_time}"
            )


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
    # an unbounded lift stays unbounded; inf - inf would be nan
    return x - abs(x) * BOUND_SLACK if x < math.inf else x


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


def _star_constraints(front: Front, v: int, tol: float):
    """Yield every constraint on lifting vertex v as (value, kind, element,
    face).

    The order is star order and, within an element, the cone ceiling, the
    progress ceiling (d = 2), then the cone and progress ceilings of each
    triangular face (v, j, k) containing v (d = 3); face is None for a
    whole-element constraint.  The records read, for local vertex i of
    element e, are:

    * cone_recs[e][i], d = 1: (j, L), the other end and the length;
    * cone_recs[e][i], d = 2: (j, k, beta, inv_len, w), the opposite edge,
      the foot of the altitude at j + beta * (k - j), 1/|k - j| and the
      altitude w;
    * cone_recs[e][i], d = 3: (j, k, l, h11, h12, h22, b1, b2, w), the
      opposite facet, the inverse Gram matrix of its edge basis
      (k - j, l - j), the foot's offset from j dotted with that basis, and
      the altitude w;
    * face_recs[e][i], d = 3: (j, k, beta, inv_len, w, kappa) per face, in
      the d = 2 edge form with w the in-face altitude and kappa the face's
      cap as a fraction of the element's.

    d = 2 keeps the edge form rather than the Gram form: the two round
    differently, and lift times would change in their last digit.
    """
    ground, cons, t = front.ground, front.constants, front.times
    d = ground.dim
    pf = 1.0 - front.epsilon
    caps = ground.slope_caps
    for e, li in ground.stars[v]:
        cap = caps[e]
        rec = cons.cone_recs[e][li]
        if d == 1:
            j, length = rec
            yield t[j] + length * cap, "cone", e, None
        elif d == 2:
            j, k, beta, inv_len, w = rec
            yield (_edge_cone_scalar(t[j], t[k], beta, inv_len, w, cap, tol, e),
                   "cone", e, None)
            top = t[j] if t[j] > t[k] else t[k]
            yield top + pf * w * cap, "progress", e, None
        else:
            yield _cone3(rec, t, cap, tol, e), "cone", e, None
            for j, k, beta, inv_len, wf, kap in cons.face_recs[e][li]:
                fcap = kap * cap
                face = (v, j, k)
                yield (_edge_cone_scalar(t[j], t[k], beta, inv_len, wf, fcap,
                                         tol, e), "cone", e, face)
                top = t[j] if t[j] > t[k] else t[k]
                yield top + pf * wf * fcap, "progress", e, face


def compute_lift(v: int, front: Front) -> LiftBound:
    """Maximal admissible lift for local-minimum vertex v.

    Returns the first smallest of the constraints _star_constraints
    yields, clamped at the front's target time.  Raises StallError when
    the result fails to advance the vertex, which would mean the progress
    invariant was broken upstream.
    """
    if not front.is_local_minimum(v):
        raise ValueError(f"vertex {v} is not a local minimum of the front")
    best, kind, best_elem, best_face = min(
        _star_constraints(front, v, TOLERANCE), key=itemgetter(0))
    best = _slacked(best)
    if best >= front.target_time:
        return LiftBound(front.target_time, "target")
    tv = front.times[v]
    if best <= tv + TOLERANCE * front.constants.omega[v]:
        raise StallError(
            f"lift of vertex {v} stalled at t={tv:.17g} "
            f"(bound {best:.17g} from {kind} on element {best_elem})"
        )
    return LiftBound(best, kind, best_elem, best_face)


def pitch_tent(mesh: SpaceTimeMesh, v: int, t_new: float) -> int:
    """Commit the patch for lifting vertex v to t_new and return its id.

    One (d+1)-simplex per element of star(v): the apex over the element's
    front facet, which holds the old position of v (the base) and the
    other vertices at their current front positions.  All internal facets
    of the patch share the base-apex edge.  The front facet then takes
    the apex in place of the base, and this patch as its producer; the
    mesh derives the inflow and outflow facets from the elements, and
    check_causality re-checks these links.
    """
    pid = len(mesh.patch_first)
    elements, producers = mesh.elements, mesh.inflow_producer
    front, front_producer = mesh.front, mesh.front_producer
    apex = mesh.add_vertex(v, t_new)
    mesh.patch_vertex.append(v)
    mesh.patch_base.append(mesh.current_vertex[v])
    mesh.patch_apex.append(apex)
    mesh.patch_first.append(len(elements))
    star = mesh.ground.stars[v]
    for e, li in star:
        verts = front[e]
        elements.append((apex,) + verts)
        producers.append(front_producer[e])
        front[e] = verts[:li] + (apex,) + verts[li + 1:]
        front_producer[e] = pid
    mesh.element_patch.extend([pid] * len(star))
    mesh.current_vertex[v] = apex
    return pid


@dataclass(slots=True)
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


def run(
    ground: GroundMesh,
    config: PitchConfig,
    constants: Optional[MeshConstants] = None,
) -> tuple[SpaceTimeMesh, RunTrace]:
    """Advance the whole front from the ground mesh's initial times to the
    target time.

    Returns the space-time mesh (patches in causal creation order) and the
    per-lift trace.  Every vertex finishes at exactly the target time; the
    last lift of each vertex is clamped there.  Given constants must have
    been precomputed with config's epsilon.
    """
    if constants is None:
        constants = precompute(ground, config.epsilon)
    elif constants.epsilon != config.epsilon:
        raise ValueError("mesh constants were precomputed with a different epsilon")
    front = Front(ground, constants, config.target_time)
    mesh = SpaceTimeMesh(ground, front.times)
    strategy = config.strategy
    trace = RunTrace(
        epsilon=config.epsilon,
        target_time=config.target_time,
        tolerance=TOLERANCE,
        strategy="mis" if isinstance(strategy, MISPhases) else "greedy",
        seed=strategy.seed if isinstance(strategy, MISPhases) else 0,
        initial_times=list(front.times),
    )
    start = perf_counter()
    while (v := front.next_vertex(strategy)) is not None:
        bound = compute_lift(v, front)
        old = front.times[v]
        front.apply_lift(v, bound.value)
        pid = pitch_tent(mesh, v, bound.value)
        trace.lifts.append(
            LiftRecord(v, old, bound.value, bound.kind, bound.element,
                       bound.face, pid)
        )
    mesh.build_seconds = perf_counter() - start
    return mesh, trace
