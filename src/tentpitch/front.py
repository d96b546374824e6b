"""The advancing front: per-vertex times plus local-minimum scheduling.

The front is the graph of a piecewise-linear time function over the ground
mesh.  Two invariants hold on it: each element's time gradient stays
within its slope cap (cone constraint), and no element's top vertex sits
more than (1-epsilon) * its altitude * cap above the middle vertex
(progress constraint, which is what guarantees the front never locks
up).  _star_constraints gives the ceilings they put on a lift: the
initial front, user input, is checked against them once, and each lift
is bounded by them (verify's progress_trace re-checks every lift).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import FrontInvariantError
from .ground_mesh import GroundMesh, MeshConstants


@dataclass(frozen=True)
class GreedyLowest:
    """Always lift the globally lowest unfinished vertex (ties by index)."""


@dataclass(frozen=True)
class MISPhases:
    """Lift a maximal independent set of local minima per phase.

    The set is built by a greedy scan of the local minima; seed 0 scans in
    index order, any other seed scans in a seeded permutation.  Lifts
    within a phase are serialized against live times, which is a safe
    superset of processing them in parallel since members are pairwise
    non-adjacent.
    """

    seed: int = 0

    def __post_init__(self):
        # numpy's seeded generator takes nonnegative seeds only
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


Strategy = Union[GreedyLowest, MISPhases]

# slack of the front's checks (a facet past its cap, an initial time above
# a ceiling) and of the pitcher's stall test; the trace records it
TOLERANCE = 1e-9


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
    """Yield every ceiling on lifting vertex v as (value, kind, element,
    face), in star order and, per element, in this order: the cone ceiling
    t(foot) + w * sqrt(cap^2 - |grad_H t|^2), with H the hull of the facet
    opposite v, w the altitude of v and cap the slope cap (1/wave speed);
    for d = 2 the progress ceiling t(top) + (1 - epsilon) * w * cap; for
    d = 3 both on each triangular face (v, j, k) of the element, with w
    the in-face altitude and cap times the face's kappa.  face is None for
    a whole-element constraint.  The records read, for local vertex i of
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


class Front:
    """Mutable front state over an immutable ground mesh, starting at the
    ground mesh's initial times, none of which may be past the target."""

    def __init__(
        self,
        ground: GroundMesh,
        constants: MeshConstants,
        target_time: float,
    ):
        self.ground = ground
        self.constants = constants
        self.target_time = float(target_time)
        self.epsilon = constants.epsilon
        n = ground.n_vertices
        self.times: list[float] = ground.initial_times.tolist()
        late = np.flatnonzero(ground.initial_times > self.target_time)
        if len(late):
            v = late[0]
            raise ValueError(f"target time {self.target_time:g} is below the "
                             f"initial time {self.times[v]:g} of vertex {v}")
        self.finished: list[bool] = [ti >= self.target_time for ti in self.times]
        self._check_initial()

        self._heap: list[tuple[float, int]] = [
            (self.times[v], v) for v in range(n) if not self.finished[v]
        ]
        heapq.heapify(self._heap)
        self._phase: deque[int] = deque()
        self.phase_counter = 0

    def _check_initial(self) -> None:
        """Raise FrontInvariantError unless each vertex starts at or below
        its ceilings (_star_constraints), to slack TOLERANCE * omega * cap."""
        caps, omega = self.ground.slope_caps, self.constants.omega.tolist()
        for v, tv in enumerate(self.times):
            try:
                for value, kind, e, face in _star_constraints(self, v, TOLERANCE):
                    if tv > value + TOLERANCE * omega[v] * caps[e]:
                        raise FrontInvariantError(
                            f"time {tv:g} is above its {kind} ceiling "
                            f"{value:g} on element {e}"
                            + (f" face {face}" if face else ""))
            except FrontInvariantError as exc:
                raise FrontInvariantError(f"vertex {v}: {exc}") from None

    # -- scheduling -------------------------------------------------------

    def is_local_minimum(self, v: int) -> bool:
        tv = self.times[v]
        return all(tv <= self.times[u] for u in self.ground.neighbors[v])

    def local_minima(self) -> list[int]:
        return [
            v
            for v in range(self.ground.n_vertices)
            if not self.finished[v] and self.is_local_minimum(v)
        ]

    def next_vertex(self, strategy: Strategy) -> Optional[int]:
        """Next vertex to lift, or None when every vertex is finished.

        GreedyLowest pops the global minimum, which is always a local
        minimum because times only ever increase.  MISPhases drains a
        maximal independent set of local minima before recomputing it.
        """
        if isinstance(strategy, GreedyLowest):
            while self._heap:
                tv, v = heapq.heappop(self._heap)
                if self.finished[v] or tv != self.times[v]:
                    continue  # stale entry superseded by a later lift
                return v
            return None

        while self._phase:
            v = self._phase.popleft()
            if not self.finished[v]:
                return v
        minima = self.local_minima()
        if not minima:
            return None
        if strategy.seed != 0:
            rng = np.random.default_rng((strategy.seed, self.phase_counter))
            minima = [minima[i] for i in rng.permutation(len(minima))]
        chosen: list[int] = []
        excluded: set[int] = set()
        for v in minima:
            if v not in excluded:
                chosen.append(v)
                excluded.update(self.ground.neighbors[v])
        self._phase = deque(chosen)
        self.phase_counter += 1
        return self._phase.popleft()

    def apply_lift(self, v: int, t_new: float) -> None:
        """Move vertex v forward to time t_new, a bound from the pitcher:
        nothing here checks it against the ceilings."""
        t_old = self.times[v]
        if not t_new > t_old:
            raise ValueError(f"lift of vertex {v} must increase time "
                             f"({t_new} <= {t_old})")
        self.times[v] = t_new
        if t_new >= self.target_time:
            self.finished[v] = True
        else:
            heapq.heappush(self._heap, (t_new, v))
