"""Independent re-checking of a finished space-time mesh and its trace.

The checks deliberately avoid the pitcher's precomputed constraint tables:
facet slopes are re-derived from raw coordinates (batched Gram solves),
the liftability replay rebuilds its own per-element scalars, and a random
sample of lifts is re-derived from scratch with a bisection feasibility
oracle built on the geometry primitives alone.

The two replaying checks are whole-trace array kernels rather than loops
over lifts.  The lifts are sorted once by (vertex, lift index), so the
front time of any vertex just after any lift is one searchsorted lookup.
The liftability replay checks every recorded old time in one pass and
evaluates the (lift, star element) ceilings in batched passes, reporting
the first failure in lift order; the sampled lifts are bisected together
over flattened (sample, star element) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Optional

import numpy as np

from . import geometry
from .geometry import SimplexGeometry
from .ground_mesh import GroundMesh, precompute
from .pitcher import RunTrace
from .spacetime import SpaceTimeMesh, _sweep, causal_sweep


@dataclass
class CheckResult:
    name: str
    passed: bool
    message: str = ""
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.message}"


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "message": c.message,
                    "details": c.details,
                }
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)


def _first_diff(a: list, b: list) -> int:
    """Position of the first entry where lists a and b differ."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


# -- cone constraint on patch-boundary facets -----------------------------


def _facet_slopes(ground: GroundMesh, facets, st_times) -> np.ndarray:
    """Max slope of each lifted ground-element facet, batched.

    Each facet spans a full ground element, so the spatial Gram matrix is
    invertible and the squared slope is dt^T G^{-1} dt.
    """
    if not facets:
        return np.zeros(0)
    gels = np.array([f.ground_element for f in facets])
    verts = np.array([f.vertices for f in facets])
    coords = ground.vertices[ground.elements[gels]]
    times = st_times[verts]
    E = geometry.edge_bases(coords)
    dt = times[:, 1:] - times[:, :1]
    G = E @ np.transpose(E, (0, 2, 1))
    y = np.linalg.solve(G, dt[..., None])[..., 0]
    slope2 = np.einsum("fi,fi->f", y, dt)
    return np.sqrt(np.maximum(slope2, 0.0))


def check_cone_facets(mesh: SpaceTimeMesh, ground: Optional[GroundMesh] = None,
                      tol: float = 1e-9) -> CheckResult:
    """Every inter-patch, initial and terminal facet obeys its slope cap.

    Internal facets of a patch (those containing the base-apex edge) are
    exempt and not enumerated here.
    """
    ground = ground or mesh.ground
    facets = [f for p in mesh.patches for f in p.inflow]
    facets.extend(mesh.frontier)
    st_times = mesh.times_array()
    slopes = _facet_slopes(ground, facets, st_times)
    if mesh.ground.speed_schedule is None:
        caps = 1.0 / ground.speeds[[f.ground_element for f in facets]]
    else:
        verts = np.array([f.vertices for f in facets])
        tmin = st_times[verts].min(axis=1)
        caps = np.array(
            [ground.slope_cap(f.ground_element, tm)
             for f, tm in zip(facets, tmin)]
        )
    if len(facets) == 0:
        return CheckResult("cone_facets", True, "no facets (empty mesh)")
    ratio = slopes / caps
    worst = float(ratio.max())
    # written so that a NaN ratio counts as a violation
    bad = np.flatnonzero(~(ratio <= 1.0 + tol))
    offenders = [
        {"ground_element": int(facets[i].ground_element),
         "vertices": list(facets[i].vertices),
         "slope": float(slopes[i]),
         "cap": float(caps[i])}
        for i in bad[:5]
    ]
    return CheckResult(
        "cone_facets",
        len(bad) == 0,
        f"{len(facets)} facets, worst slope/cap {worst:.12f}",
        details={"facets": len(facets), "worst_ratio": worst,
                 "violations": int(len(bad)), "offenders": offenders},
    )


# -- progress guarantees from the trace -----------------------------------


def _foreign_trace(trace: RunTrace, ground: GroundMesh,
                   verts: np.ndarray) -> Optional[str]:
    """Why a trace whose lifts move verts cannot be a run on ground, or
    None: its initial times are not one per ground vertex, or a lift moves
    a vertex the ground mesh does not have."""
    n = ground.n_vertices
    if len(trace.initial_times) != n:
        return (f"trace has {len(trace.initial_times)} initial times for a "
                f"ground mesh of {n} vertices")
    foreign = np.flatnonzero((verts < 0) | (verts >= n))
    if len(foreign):
        idx = int(foreign[0])
        return (f"lift {idx} moves vertex {trace.lifts[idx].vertex}, which "
                f"the ground mesh does not have")
    return None


def _mesh_mismatch(trace: RunTrace, mesh: SpaceTimeMesh) -> Optional[str]:
    """Why the trace is not the run that built mesh, or None: lift i must
    have made patch i, of the same vertex, with its apex at the lift's new
    time."""
    if len(trace.lifts) != len(mesh.patches):
        return (f"trace has {len(trace.lifts)} lifts for a mesh of "
                f"{len(mesh.patches)} patches")
    made = [(r.patch, r.vertex, r.new_time) for r in trace.lifts]
    patches = [(p.id, p.vertex, mesh.vertices[p.apex][-1])
               for p in mesh.patches]
    if made != patches:
        i = _first_diff(made, patches)
        return f"lift {i} did not make patch {patches[i][0]} of the mesh"
    return None


def check_progress_trace(trace: RunTrace, ground: GroundMesh,
                         tol: float = 1e-9,
                         mesh: Optional[SpaceTimeMesh] = None) -> CheckResult:
    """Per-lift advance floor plus the worst-case patch and element budgets.

    Every non-clamped lift must advance its vertex by at least
    epsilon * floor(v), where floor(v) is the speed-scaled minimum altitude
    of v (for d = 3 additionally min over the capped triangular faces).
    Total patches are bounded by (T/eps) * sum(1/omega) and, for d = 2,
    total elements by six times that.  Given the mesh, the trace must also
    be the run that built it (see _mesh_mismatch).
    """
    verts = np.array([r.vertex for r in trace.lifts], dtype=np.int64)
    foreign = _foreign_trace(trace, ground, verts)
    if foreign is None and mesh is not None:
        foreign = _mesh_mismatch(trace, mesh)
    if foreign:
        return CheckResult("progress_trace", False, foreign)
    cons = precompute(ground, trace.epsilon)
    eps = trace.epsilon
    T = trace.target_time
    floor = cons.progress_floor
    worst_margin = math.inf
    offenders = []
    n_elements = 0
    for r in trace.lifts:
        n_elements += len(ground.stars[r.vertex])
        if r.new_time >= T:
            continue
        advance = r.new_time - r.old_time
        required = eps * floor[r.vertex] * (1.0 - tol)
        margin = advance / (eps * floor[r.vertex])
        worst_margin = min(worst_margin, margin)
        if advance < required:
            offenders.append(
                {"vertex": r.vertex, "advance": advance, "required": required}
            )
    inv_omega = float(np.sum(1.0 / cons.omega_speed))
    patch_budget = (T / eps) * inv_omega
    element_budget = 6.0 * patch_budget if ground.dim == 2 else None
    n_patches = len(trace.lifts)
    over_budget = n_patches > patch_budget
    if ground.dim == 2 and n_elements > element_budget:
        over_budget = True
    passed = not offenders and not over_budget
    return CheckResult(
        "progress_trace",
        passed,
        f"{n_patches} patches (budget {patch_budget:.1f}), "
        f"{n_elements} elements"
        + (f" (budget {element_budget:.1f})" if element_budget else "")
        + (f", worst advance margin {worst_margin:.3g}x"
           if worst_margin < math.inf else ""),
        details={
            "patches": n_patches,
            "patch_budget": patch_budget,
            "elements": n_elements,
            "element_budget": element_budget,
            "worst_advance_margin": None
            if worst_margin is math.inf else worst_margin,
            "violations": offenders[:5],
        },
    )


def single_element_budget(ground: GroundMesh, target_time: float,
                          epsilon: float) -> float:
    """Worst-case element count T*P/(2*A*eps) for a one-triangle mesh."""
    if ground.dim != 2 or ground.n_elements != 1:
        raise ValueError("budget formula applies to a single-triangle mesh")
    s = SimplexGeometry(ground.vertices[ground.elements[0]])
    perimeter = sum(s.facet(i).measure for i in range(3))
    return target_time * perimeter / (2.0 * s.measure * epsilon)


# -- causality -------------------------------------------------------------


def _element_fault(mesh: SpaceTimeMesh) -> Optional[str]:
    """Why the elements are not the tents the patches describe, or None.

    Patch p has id p, its base and apex lie over its ground vertex, and its
    inflow facets lie on the elements of that vertex's star, in star order.
    Its k-th element is its apex over its k-th inflow facet, element_patch
    marks it as in p, and the patch lists, in patch order, run through the
    element ids in creation order, so that they partition them.  Each rule
    is one comparison of whole lists; a broken one is scanned again for
    its first offender.
    """
    patches, over, n = mesh.patches, mesh.vertex_ground, len(mesh.elements)
    if len(over) != len(mesh.vertices):
        return f"{len(over)} vertex_ground entries for {len(mesh.vertices)} vertices"
    pids = list(range(len(patches)))
    ids = [p.id for p in patches]
    if ids != pids:
        pid = _first_diff(ids, pids)
        return f"patch {pid} has id {ids[pid]}"
    vertex = [p.vertex for p in patches]
    for end, at in (("base", [over[p.base] for p in patches]),
                    ("apex", [over[p.apex] for p in patches])):
        if at != vertex:
            pid = _first_diff(at, vertex)
            return f"patch {pid} has its {end} off its vertex {vertex[pid]}"
    stars = mesh.ground.stars
    on = [f.ground_element for p in patches for f in p.inflow]
    star = [e for v in vertex for e, _ in stars[v]]
    if on != star:
        pid = next(pid for pid, p in enumerate(patches)
                   if [f.ground_element for f in p.inflow]
                   != [e for e, _ in stars[p.vertex]])
        return (f"patch {pid}'s inflow facets are not on the star of its "
                f"vertex {vertex[pid]}")
    sizes = [len(p.elements) for p in patches]
    facets = [len(p.inflow) for p in patches]
    if sizes != facets:
        pid = _first_diff(sizes, facets)
        return (f"patch {pid} has {sizes[pid]} elements for "
                f"{facets[pid]} inflow facets")
    if sum(sizes) != n or len(mesh.element_patch) != n:
        return (f"the patches list {sum(sizes)} elements and element_patch "
                f"marks {len(mesh.element_patch)}, of {n} elements")
    ordered = list(range(n))
    listed = list(chain.from_iterable(p.elements for p in patches))
    marks = list(chain.from_iterable(map(repeat, pids, sizes)))
    tents = [(p.apex,) + f.vertices for p in patches for f in p.inflow]
    if listed != ordered or mesh.element_patch != marks or mesh.elements != tents:
        j = min(_first_diff(listed, ordered),
                _first_diff(mesh.element_patch, marks),
                _first_diff(mesh.elements, tents))
        pid = marks[j]
        k = j - sum(sizes[:pid])
        return (f"element {j} is not patch {pid}'s element {k}: listed "
                f"there, marked as in patch {pid}, and its apex over "
                f"inflow facet {k}")
    return None


def check_causality(mesh: SpaceTimeMesh) -> CheckResult:
    """Causal sweep must succeed; a self-test swaps two dependent patches
    and asserts the sweep then fails.  The elements must be the tents that
    the patches describe (see _element_fault)."""
    fault = _element_fault(mesh)
    if fault:
        return CheckResult("causality", False, fault)
    result = causal_sweep(mesh)
    if not result.ok:
        return CheckResult(
            "causality", False,
            f"sweep failed at patch {result.failed_patch}: {result.message}",
            details={"failed_patch": result.failed_patch},
        )
    injected = "no dependent pair to inject"
    for j, patch in enumerate(mesh.patches):
        producers = [f.producer for f in patch.inflow if f.producer >= 0]
        if producers:
            i = producers[0]
            tampered = list(mesh.patches)
            tampered[i], tampered[j] = tampered[j], tampered[i]
            if _sweep(mesh.initial_facets, tampered).ok:
                return CheckResult(
                    "causality", False,
                    "injected patch-order swap was not detected",
                    details={"swapped": [i, j]},
                )
            injected = f"injected swap of patches {i},{j} detected"
            break
    return CheckResult(
        "causality", True,
        f"sweep of {len(mesh.patches)} patches succeeded; {injected}",
    )


# -- whole-trace replay --------------------------------------------------------


class _Replay:
    """Front times anywhere in a trace without stepping through it.

    The lifts are sorted once by (vertex, lift index), so the time of
    vertex u just after lift i, the new time of u's last lift up to i or
    else u's initial time, is one searchsorted lookup.  A sentinel key of
    -1 in front keeps every lookup position in range.
    """

    def __init__(self, trace: RunTrace):
        lifts = trace.lifts
        self.initial = np.asarray(trace.initial_times, dtype=float)
        self.vertex = np.array([r.vertex for r in lifts], dtype=np.int64)
        self.old = np.array([r.old_time for r in lifts], dtype=float)
        new = np.array([r.new_time for r in lifts], dtype=float)
        order = np.argsort(self.vertex, kind="stable")
        self._n = len(lifts)
        self._owner = np.concatenate([[-1], self.vertex[order]])
        self._keys = np.concatenate([[-1], self.vertex[order] * self._n + order])
        self._new = np.concatenate([[math.nan], new[order]])

    def times_after(self, u, i) -> np.ndarray:
        """Times of vertices u just after lift i (broadcast together);
        i = -1 gives the initial times."""
        pos = np.searchsorted(self._keys, u * self._n + i, side="right") - 1
        return np.where(self._owner[pos] == u, self._new[pos], self.initial[u])


def _star_rows(ground: GroundMesh, verts: np.ndarray):
    """The stars of verts as rows (owner, element, local index): owner is
    the position in verts, stars follow each other in that order and each
    lists its elements in element order, like ground.stars."""
    start = ground.star_offsets[verts]
    count = ground.star_offsets[verts + 1] - start
    owner = np.repeat(np.arange(len(verts)), count)
    pos = np.arange(len(owner)) + np.repeat(start - np.cumsum(count) + count,
                                            count)
    return owner, ground.star_elements[pos], ground.star_locals[pos]


def _recorded_time(trace: RunTrace, v: int, end: int):
    """Time of v before lift `end`, as the trace holds it (for messages)."""
    return next((r.new_time for r in reversed(trace.lifts[:end])
                 if r.vertex == v), trace.initial_times[v])


# -- liftability replay ------------------------------------------------------

# lifts per batched pass of the replay: bounds the memory of its row arrays
REPLAY_CHUNK = 1024


def _element_scalars(ground: GroundMesh):
    """Per-(element, vertex) static scalars for the liftability ceiling,
    derived directly from raw coordinates (batched hull feet).

    Returns (w, ginv, b): the altitude w (m, d+1) of each vertex over its
    opposite facet and, for d >= 2, the Gram inverse (m, d+1, d-1, d-1) of
    that facet's edge basis and the foot's edge coordinates (m, d+1, d-1).
    """
    d = ground.dim
    X = ground.vertices[ground.elements]
    F = X[:, geometry.facet_index(d)]
    if d == 1:
        return np.linalg.norm(F[:, :, 0] - X, axis=-1), None, None
    foot, _ = geometry.hull_feet(X, F)
    E = geometry.edge_bases(F)
    ginv = np.linalg.inv(E @ np.swapaxes(E, -1, -2))
    b = np.einsum("...ij,...j->...i", E, foot - F[..., 0, :])
    return np.linalg.norm(X - foot, axis=-1), ginv, b


def _liftability_margins(ground: GroundMesh, table, elems, T):
    """Margin by which each row's lowest vertex can clear its middle one.

    Row r is element elems[r] with vertex times T[r]; the lowest vertex's
    cone ceiling over its fixed opposite facet is compared with the middle
    vertex's time.  Returns (margins, lowest local indices, middle times).
    """
    w, ginv, b = table
    rows = np.arange(len(elems))
    order = np.argsort(T, axis=1, kind="stable")
    low, mid = order[:, 0], order[:, 1]
    cap = ground.slope_caps(elems, T[rows, low])
    FT = np.take_along_axis(T, geometry.facet_index(ground.dim)[low], axis=1)
    wl = w[elems, low]
    if ground.dim == 1:
        ceiling = FT[:, 0] + wl * cap
    else:
        t0 = FT[:, 0]
        dt = FT[:, 1:] - t0[:, None]
        y = (ginv[elems, low] @ dt[..., None])[..., 0]
        rad = cap * cap - geometry.dots(y, dt)
        ceiling = np.where(
            rad < 0, -math.inf,
            t0 + geometry.dots(y, b[elems, low])
            + wl * np.sqrt(np.maximum(rad, 0.0)),
        )
    t_mid = T[rows, mid]
    return ceiling - t_mid, low, t_mid


def check_front_snapshots(trace: RunTrace, ground: GroundMesh,
                          tol: float = 1e-9) -> CheckResult:
    """Replay the run; after every lift, each touched element's lowest
    vertex must still be liftable above its middle vertex within the cone
    constraint.  This is the invariant that guarantees the front never
    converges short of the target.

    The replay is batched: every lift's recorded old time is compared with
    the replayed one in one pass, and the (lift, star element) ceilings are
    evaluated REPLAY_CHUNK lifts at a time, in lift order, so the first
    failure reported is the one a lift-by-lift replay meets first.
    """
    name = "front_snapshots"
    n = ground.n_vertices
    n_lifts = len(trace.lifts)
    replay = _Replay(trace)
    verts = replay.vertex
    foreign = _foreign_trace(trace, ground, verts)
    if foreign:
        return CheckResult(name, False, foreign)
    prev = replay.times_after(verts, np.arange(n_lifts) - 1)
    stale = np.flatnonzero(prev != replay.old)
    stop = int(stale[0]) if len(stale) else n_lifts
    table = _element_scalars(ground)
    worst = math.inf
    for start in range(0, stop, REPLAY_CHUNK):
        lifts = np.arange(start, min(start + REPLAY_CHUNK, stop))
        owner, elems, _ = _star_rows(ground, verts[lifts])
        lift = lifts[owner]
        ids = ground.elements[elems]
        T = replay.times_after(ids, lift[:, None])
        margin, low, t_mid = _liftability_margins(ground, table, elems, T)
        worst = float(np.fmin.reduce(margin, initial=worst))
        bad = np.flatnonzero(margin < -tol * (1.0 + np.abs(t_mid)))
        if len(bad):
            r = bad[0]
            idx, e, m = int(lift[r]), int(elems[r]), float(margin[r])
            return CheckResult(
                name, False,
                f"after lift {idx} (vertex {trace.lifts[idx].vertex}), "
                f"element {e} lowest vertex {int(ids[r, low[r]])} cannot "
                f"clear the middle vertex (margin {m:g})",
                details={"lift": idx, "element": e, "margin": m},
            )
    if stop < n_lifts:
        r = trace.lifts[stop]
        return CheckResult(
            name, False,
            f"trace inconsistent at lift {stop}: vertex {r.vertex} was at "
            f"{_recorded_time(trace, r.vertex, stop)}, trace says {r.old_time}",
        )
    final = replay.times_after(np.arange(n), n_lifts - 1)
    unfinished = np.flatnonzero(final != trace.target_time)
    if len(unfinished) and trace.target_time > 0:
        v = int(unfinished[0])
        return CheckResult(
            name, False,
            f"replay ended with {len(unfinished)} vertices not at the "
            f"target time (first: {v} at {_recorded_time(trace, v, n_lifts)})",
        )
    return CheckResult(
        name, True,
        f"replayed {n_lifts} lifts, worst liftability margin "
        f"{worst:.3g}" if n_lifts else "empty trace",
    )


# -- sampled bisection oracle ------------------------------------------------


def _oracle_max_lifts(ground: GroundMesh, verts: np.ndarray, times_of,
                      epsilon: float, iters: int = 60):
    """Largest admissible lift of each vertex in verts, all found together
    by bisection on the feasibility predicate.

    times_of(u, s) gives the times of vertices u in the front state of
    sample s (broadcast together).  The predicate is evaluated over the
    flattened (sample, star element) rows: altitudes by direct projection,
    face caps by clearance ratios and gradient operators of each element
    and d = 3 face, all re-derived from the geometry primitives.  Each
    sample grows its bracket and bisects as a lone bisection would.

    Returns (max lifts, minimum altitude over each vertex's star).
    """
    d = ground.dim
    slack = 1e-12  # the predicate's relative and absolute slack
    pf = 1.0 - epsilon
    n_samples = len(verts)
    owner, elems, li = _star_rows(ground, verts)
    rows = np.arange(len(owner))
    ids = ground.elements[elems]
    X = ground.vertices[ids]                       # (R, d+1, d)
    T = times_of(ids, owner[:, None])              # (R, d+1)
    t_v = times_of(verts, np.arange(n_samples))
    cap = ground.slope_caps(elems, t_v[owner])
    lifted = li[:, None] == np.arange(d + 1)
    opp = geometry.facet_index(d)

    P = X[rows, li]
    foot, _ = geometry.hull_feet(P, X[rows[:, None], opp[li]])
    w = np.sqrt(geometry.dots(P - foot, P - foot))
    G = geometry.gradient_operators(X)
    cone_cap = cap * (1.0 + slack)
    if d == 2:
        top = np.where(lifted, -math.inf, T).max(axis=1)
        progress_cap = top + pf * w * cap * (1.0 + slack) + slack
    elif d == 3:
        # the three triangular faces containing the lifted vertex: face l
        # (opposite vertex l != li), its in-face altitude of li over the
        # edge formed by its two other vertices
        face_of = opp[li]                          # (R, 3) the l's
        face = opp[face_of]                        # (R, 3, 3) face locals
        edge = face[face != li[:, None, None]].reshape(-1, 3, 2)
        XF = X[rows[:, None, None], face]          # (R, 3, 3, 3)
        kappa = pf * geometry.clearance_ratios(X[rows[:, None], face_of], XF)
        ffoot, _ = geometry.hull_feet(P[:, None], X[rows[:, None, None], edge])
        wf = np.sqrt(geometry.dots(P[:, None] - ffoot, P[:, None] - ffoot))
        GF = geometry.gradient_operators(XF)
        face_cap = kappa * cap[:, None] * (1.0 + slack)
        ftop = T[rows[:, None, None], edge].max(axis=-1)
        face_progress_cap = (ftop + pf * wf * kappa * cap[:, None]
                             * (1.0 + slack) + slack)

    def feasible(t_new: np.ndarray) -> np.ndarray:
        tr = t_new[owner]
        ts = np.where(lifted, tr[:, None], T)
        grad = (G @ (ts[:, 1:] - ts[:, :1])[..., None])[..., 0]
        bad = np.sqrt(geometry.dots(grad, grad)) > cone_cap
        if d == 2:
            bad |= tr > progress_cap
        elif d == 3:
            fts = ts[rows[:, None, None], face]
            fgrad = (GF @ (fts[..., 1:] - fts[..., :1])[..., None])[..., 0]
            bad |= (np.sqrt(geometry.dots(fgrad, fgrad)) > face_cap).any(axis=1)
            bad |= (tr[:, None] > face_progress_cap).any(axis=1)
        ok = np.ones(n_samples, dtype=bool)
        ok[owner[bad]] = False
        return ok

    lo = t_v
    scale = np.full(n_samples, -math.inf)
    np.maximum.at(scale, owner, w * cap)
    step = np.maximum(scale, 1e-12)
    hi = lo + step
    growing = np.ones(n_samples, dtype=bool)
    for _ in range(60):
        growing &= feasible(hi)
        if not growing.any():
            break
        lo = np.where(growing, hi, lo)
        hi = np.where(growing, lo + step, hi)
        step = np.where(growing, 2.0 * step, step)
    for _ in range(iters):
        midpt = 0.5 * (lo + hi)
        ok = feasible(midpt)
        lo = np.where(ok, midpt, lo)
        hi = np.where(ok, hi, midpt)
    omega = np.full(n_samples, math.inf)
    np.minimum.at(omega, owner, w)
    return lo, omega


def oracle_max_lift(ground: GroundMesh, times, v: int, epsilon: float,
                    iters: int = 60) -> float:
    """Largest admissible lift found by bisection on the feasibility
    predicate; shares only the geometry primitives with the pitcher.

    A batch of one of the kernel check_lift_bounds_sampled runs."""
    t = np.asarray(times, dtype=float)
    lifts, _ = _oracle_max_lifts(ground, np.array([v]), lambda u, s: t[u],
                                 epsilon, iters)
    return float(lifts[0])


def check_lift_bounds_sampled(trace: RunTrace, ground: GroundMesh,
                              fraction: float = 0.01, seed: int = 0,
                              rel_tol: float = 1e-7) -> CheckResult:
    """Re-derive a random sample of lift bounds by bisection and compare.

    Clamped lifts only need the oracle to allow reaching the target; all
    others must match the recorded new time to rel_tol, relative to the
    recorded time plus the vertex's minimum altitude.  The sampled lifts
    are bisected together, each in the front state just before it.
    """
    n = len(trace.lifts)
    if n == 0:
        return CheckResult("lift_bounds_sampled", True, "empty trace")
    replay = _Replay(trace)
    foreign = _foreign_trace(trace, ground, replay.vertex)
    if foreign:
        return CheckResult("lift_bounds_sampled", False, foreign)
    rng = np.random.default_rng(seed)
    k = max(1, int(round(fraction * n)))
    sample = np.sort(rng.choice(n, size=min(k, n), replace=False))
    oracles, omegas = _oracle_max_lifts(
        ground, replay.vertex[sample],
        lambda u, s: replay.times_after(u, sample[s] - 1), trace.epsilon,
    )
    worst = 0.0
    offenders = []
    for idx, oracle, omega in zip(sample.tolist(), oracles.tolist(),
                                  omegas.tolist()):
        r = trace.lifts[idx]
        scale = abs(r.new_time) + omega
        if r.new_time >= trace.target_time:
            err = max(0.0, (r.new_time - oracle) / scale)
        else:
            err = abs(oracle - r.new_time) / scale
        worst = max(worst, err)
        if err > rel_tol:
            offenders.append(
                {"lift": idx, "vertex": r.vertex,
                 "recorded": r.new_time, "oracle": oracle}
            )
    return CheckResult(
        "lift_bounds_sampled",
        not offenders,
        f"{len(sample)} of {n} lifts re-derived by bisection, "
        f"worst relative error {worst:.3g}",
        details={"sampled": len(sample), "worst_rel_error": worst,
                 "violations": offenders[:5]},
    )


# -- orchestration -----------------------------------------------------------


def verify(mesh: Optional[SpaceTimeMesh] = None,
           ground: Optional[GroundMesh] = None,
           trace: Optional[RunTrace] = None,
           tol: float = 1e-9,
           sample_fraction: float = 0.01,
           seed: int = 0,
           snapshots: bool = True) -> VerifyReport:
    """Run every applicable check and collect a report.

    Mesh checks (cone facets, causality) need the mesh; trace checks
    (progress, liftability replay, sampled bound re-derivation) need the
    trace.  Either may be omitted; given both, the progress check also
    requires the trace to be the run that built the mesh.
    """
    if ground is None:
        if mesh is None:
            raise ValueError("need at least a mesh or a ground mesh")
        ground = mesh.ground
    report = VerifyReport()
    if mesh is not None:
        report.checks.append(check_cone_facets(mesh, ground, tol))
        report.checks.append(check_causality(mesh))
    if trace is not None:
        report.checks.append(check_progress_trace(trace, ground, tol, mesh))
        if snapshots:
            report.checks.append(check_front_snapshots(trace, ground, tol))
        if sample_fraction > 0:
            report.checks.append(
                check_lift_bounds_sampled(trace, ground, sample_fraction, seed)
            )
    return report
