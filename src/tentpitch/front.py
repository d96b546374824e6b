"""The advancing front: per-vertex times plus local-minimum scheduling.

The front is the graph of a piecewise-linear time function over the ground
mesh.  Two invariants are maintained at all times and re-checked after
every lift: each element's time gradient stays within its slope cap (cone
constraint), and no element's top vertex sits more than (1-epsilon) * its
altitude * cap above the middle vertex (progress constraint, which is what
guarantees the front never locks up).
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

# relative slack of the cone and progress checks on the front and of the
# pitcher's stall test; the trace records it as its tolerance
TOLERANCE = 1e-9


class Front:
    """Mutable front state over an immutable ground mesh, starting at the
    ground mesh's initial times, or at time 0 where it has none."""

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
        t = ground.initial_times
        self.times: list[float] = [0.0] * n if t is None else t.tolist()
        # per-element altitudes as plain floats, for the d = 2 progress check
        self._altitudes: list[list[float]] = constants.altitudes.tolist()
        self.finished: list[bool] = [ti >= self.target_time for ti in self.times]
        self.validate_all()

        self._heap: list[tuple[float, int]] = [
            (self.times[v], v) for v in range(n) if not self.finished[v]
        ]
        heapq.heapify(self._heap)
        self._phase: deque[int] = deque()
        self.phase_counter = 0

    # -- constraint validation -------------------------------------------

    def validate_element(self, e: int) -> None:
        """Raise FrontInvariantError if element e violates cone or progress.

        Vertex ids come from the plain-int slope records, so no numpy
        scalar is read per call.
        """
        cons = self.constants
        t = self.times
        d = self.ground.dim
        rec = cons.slope_recs[e]
        s = self.ground.slope_caps[e]
        cap2 = (s * (1.0 + TOLERANCE)) ** 2

        if d == 1:
            a, b, inv_len = rec
            slope = abs(t[b] - t[a]) * inv_len
            if slope * slope > cap2:
                raise FrontInvariantError(
                    f"element {e} violates the cone constraint (slope {slope:g})"
                )
            return

        if d == 2:
            a, b, c, h11, h12, h22 = rec
            d1, d2 = t[b] - t[a], t[c] - t[a]
            g2 = h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2
            if g2 > cap2:
                raise FrontInvariantError(
                    f"element {e} violates the cone constraint "
                    f"(slope {math.sqrt(max(g2, 0)):g}, cap {s:g})"
                )
            self._check_progress_state(e, (a, b, c), self._altitudes[e], s, 1.0)
            return

        ids_t, ginv = rec
        dts = np.array([t[ids_t[1]] - t[ids_t[0]],
                        t[ids_t[2]] - t[ids_t[0]],
                        t[ids_t[3]] - t[ids_t[0]]])
        g2 = float(dts @ ginv @ dts)
        if g2 > cap2:
            raise FrontInvariantError(
                f"element {e} violates the cone constraint "
                f"(slope {math.sqrt(max(g2, 0)):g}, cap {s:g})"
            )
        for a, b, c, h11, h12, h22, kap, ws in cons.face_state_recs[e]:
            d1, d2 = t[b] - t[a], t[c] - t[a]
            f2 = h11 * d1 * d1 + 2.0 * h12 * d1 * d2 + h22 * d2 * d2
            fcap = kap * s
            if f2 > (fcap * (1.0 + TOLERANCE)) ** 2:
                raise FrontInvariantError(
                    f"element {e} face ({a},{b},{c}) exceeds its gradient cap "
                    f"(slope {math.sqrt(max(f2, 0)):g}, cap {fcap:g})"
                )
            self._check_progress_state(e, (a, b, c), ws, s, kap)

    def _check_progress_state(self, e, ids, ws, cap, kap) -> None:
        t = self.times
        # top and middle of the three vertices, picked as the last two of a
        # stable ascending sort would be: a tie goes to the higher index
        t0, t1, t2 = t[ids[0]], t[ids[1]], t[ids[2]]
        if t2 >= t1 and t2 >= t0:
            top, mid = 2, (1 if t1 >= t0 else 0)
        elif t1 >= t0:
            top, mid = 1, (2 if t2 >= t0 else 0)
        else:
            top, mid = 0, (2 if t2 >= t1 else 1)
        gap = t[ids[top]] - t[ids[mid]]
        allowed = (1.0 - self.epsilon) * ws[top] * cap * kap
        if gap > allowed * (1.0 + TOLERANCE):
            raise FrontInvariantError(
                f"element {e} violates the progress constraint: vertex "
                f"{ids[top]} is {gap:g} above the middle vertex "
                f"(allowed {allowed:g})"
            )

    def validate_star(self, v: int) -> None:
        for e, _ in self.ground.stars[v]:
            self.validate_element(e)

    def validate_all(self) -> None:
        for e in range(self.ground.n_elements):
            self.validate_element(e)

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
        """Move vertex v forward to time t_new.

        The caller must supply a bound from the pitcher; the star of v is
        re-validated and any violation (a pitcher bug) raises
        FrontInvariantError with the state rolled back.
        """
        t_old = self.times[v]
        if not t_new > t_old:
            raise ValueError(f"lift of vertex {v} must increase time "
                             f"({t_new} <= {t_old})")
        self.times[v] = t_new
        if t_new >= self.target_time:
            self.finished[v] = True
        else:
            heapq.heappush(self._heap, (t_new, v))
        try:
            self.validate_star(v)
        except FrontInvariantError:
            self.times[v] = t_old
            self.finished[v] = t_old >= self.target_time
            raise
