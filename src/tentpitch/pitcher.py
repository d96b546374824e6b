"""Lift-bound computation and tent construction.

The admissible new time of a local-minimum vertex is the least of the
ceilings that front._star_constraints yields over its star, and of the
target time T.  The progress ceiling is what guarantees every lift
advances the vertex by at least epsilon * (scaled altitude), so the front
reaches any target time in a bounded number of steps even on arbitrarily
obtuse meshes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import Optional

from .errors import StallError
from .front import (TOLERANCE, Front, GreedyLowest, MISPhases, Strategy,
                    _star_constraints)
from .ground_mesh import GroundMesh, MeshConstants, check_epsilon, precompute
from .spacetime import LiftRecord, RunTrace, SpaceTimeMesh

# Computed bounds are pulled back by this relative slack, so that a lift
# whose ceiling rounds up still lands at or below the ceiling itself.
BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class PitchConfig:
    """Run parameters; epsilon is the progress parameter in (0, 1/2]."""

    target_time: float
    epsilon: float = 0.1
    strategy: Strategy = GreedyLowest()

    def __post_init__(self):
        check_epsilon(self.epsilon)
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
    the apex in place of the base.  The mesh derives the patch's base,
    facets and producers from these (see spacetime), and check_causality
    re-checks them.
    """
    front, extend = mesh.front, mesh.elements.extend
    apex = len(mesh.times)
    mesh.times.append(t_new)
    mesh.patch_vertex.append(v)
    for e, li in mesh.ground.stars[v]:
        verts = front[e]
        extend((apex,) + verts)
        front[e] = verts[:li] + (apex,) + verts[li + 1:]
    return len(mesh.patch_vertex) - 1


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
